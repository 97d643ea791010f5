"""Fourier transforms on diagram-algebra chains: naive and SOV-scheduled engines.

The SOV engine runs through the chain one level at a time.  One schedule per
(kind, level), built from the factor set (`diagrams._schedule`), names the streams
(one per factor word) and the order in which they merge; `sov_plan` prices that
same schedule.  The routing of the basis onto those streams (`diagrams._routing`)
is built once per (kind, level), on first use: basis keys become integer
positions, each position routes to a (stream, position one level down) pair, and
its fiber numbers that route down to level 1.  Every route is read by position:
by the SOV engine, by `AdaptedRep.prescale` and by the rho recursion.  A call
seeds each coefficient at the level-1 key of its fiber and goes back up in one
pass per level over all fibers at once: a level's data is one
row-major table per stream, {row: {key: int}}, its rows the level's paths
numbered across the blocks, whose keys pack (fiber, column) into one int.  The
table below is split by stream, each entry written once at its place under its
row's first Bratteli edge (`BratteliDiagram.row_moves`) and copied only for
further edges; then one level routine, `_run_level`, which the rho recursion
shares on its one fiber, applies the tokens of the live streams, one column table
per (level, token), as sparse products across every fiber and merges them stage
by stage.  Zeros are dropped where a sum ran: in the rows a token summed into,
and after a merge that left one.
Operation counters track scalar multiplications and additions of the transform
proper; representation data, schedules and routing are precomputed and free.

Both engines run on Python ints: the SOV engine over the integer generator
columns of `AdaptedRep`, the naive engine over its compiled rho rows
(`AdaptedRep.rho_row`).  The inverse reads the rows of T^-1 packed
(`AdaptedRep.trace_rows`, `AdaptedRep.traces`): on S_n the rho rows of the
inverse permutations over n!, elsewhere one inversion of T built from the rho
rows.
The inputs are scaled by their common denominator, in the SOV engine by
`AdaptedRep.prescale` as well, so that every stream carries one scale, and in
the naive engine to the lcm of the support rows' denominators.  Scaling keeps
the zero pattern, so the operation counts are those of the rational program.
Each engine ends in one `FourierImage`, the one form of Fourier-space data:
flat integer numerators over one reduced denominator, which `inverse_ft` reads
as it stands.  No `Fraction` is made until a reader asks for a dense view.

The records are `NamedTuple`s, and `AlgebraElement` and `FourierImage` check
their fields in `__new__`; `OpCounter` is a mutable slots class.  So importing
the package loads no `dataclasses`.  A coefficient file's plain integer strings
are read by `int`, and only the other strings by `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .combinat import (
    BoundReport,
    ChainKind,
    Partition,
    cached_bratteli,
    hom_count_closed,
    paper_bounds,
)
from .diagrams import _routing, _schedule, basis_key, check_size
from .errors import ArgumentError
from .reps.core import AdaptedRep, image_layout


class OpCounter:
    """Scalar multiplications and additions attributed to a transform run."""

    __slots__ = ("mul", "add")

    def __init__(self, mul: int = 0, add: int = 0):
        self.mul, self.add = mul, add

    def __eq__(self, other):
        if type(other) is not OpCounter:
            return NotImplemented
        return (self.mul, self.add) == (other.mul, other.add)

    def __repr__(self) -> str:
        return f"OpCounter(mul={self.mul}, add={self.add})"


class _ElementFields(NamedTuple):
    kind: ChainKind
    n: int
    coeffs: tuple[tuple[str, Fraction], ...]


class AlgebraElement(_ElementFields):
    """Finitely supported coefficient table over canonical diagram keys, as `from_dict`
    builds it: a tuple of (basis key, nonzero int or `Fraction`) pairs in increasing
    key order, at a size n that is a non-negative int."""

    __slots__ = ()

    def __new__(cls, kind: ChainKind, n: int, coeffs: tuple[tuple[str, Fraction], ...]):
        check_size(n)
        if not isinstance(coeffs, tuple):
            raise ArgumentError(f"coeffs={coeffs!r} is not a tuple of (key, value) pairs")
        basis = _routing(kind, n).index if coeffs else ()
        for j, entry in enumerate(coeffs):
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise ArgumentError(f"{entry!r} is not a (key, value) pair")
            key, value = entry
            if not (isinstance(key, str) and key in basis) or j and key <= coeffs[j - 1][0]:
                raise ArgumentError(f"{key!r} is not the next basis key in increasing order")
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)) or not value:
                raise ArgumentError(f"{key!r}: {value!r} is not a nonzero int or Fraction")
        return tuple.__new__(cls, (kind, n, coeffs))

    @staticmethod
    def from_dict(kind: ChainKind, n: int, table: dict) -> "AlgebraElement":
        """Canonicalise each key, summing every spelling of one diagram.

        Values are ints, `Fraction`s or strings; a float, a bool or a value that
        `Fraction` cannot read is refused with `ArgumentError`.  A key
        is looked up in `diagrams._routing(kind, n).index`, so this lists the whole
        basis of size n once per (kind, n).
        """
        sums: dict[str, Fraction] = {}
        for key, value in table.items():
            if isinstance(value, (bool, float)):
                raise ArgumentError(
                    f"coefficient {value!r} of {key!r}: give an int, a Fraction or a string")
            if type(value) is not Fraction:
                try:
                    value = Fraction(value)
                except (TypeError, ValueError, ZeroDivisionError):
                    raise ArgumentError(
                        f"coefficient {value!r} of {key!r} is not a rational number") from None
            key = basis_key(kind, n, key)
            sums[key] = sums[key] + value if key in sums else value
        return AlgebraElement(kind, n, tuple(sorted((k, v) for k, v in sums.items() if v)))

    def table(self) -> dict[str, Fraction]:
        return dict(self.coeffs)

    def support(self) -> int:
        return len(self.coeffs)


def _dense(values, d: int, den: int) -> tuple[tuple[Fraction, ...], ...]:
    """The d x d rational rows of d^2 row-major numerators over den; the zero
    entries share one `Fraction(0)`."""
    zero = Fraction(0)
    entries = [Fraction(x, den) if x else zero for x in values]
    return tuple(tuple(entries[i : i + d]) for i in range(0, d * d, d))


class _ImageFields(NamedTuple):
    kind: ChainKind
    n: int
    flat: tuple[int, ...]
    den: int


class FourierImage(_ImageFields):
    """The transform as flat integer numerators over one denominator.

    flat holds Σ dim(lam)^2 ints in the layout of `AdaptedRep.rho_row`
    (`reps.core.image_layout`): the blocks in vertex order, each row-major in the GT
    path basis.  den is a positive int with gcd(den, *flat) == 1, so den == 1 for the
    zero image and equality of images is exact equality.  Anything else is refused
    with `ArgumentError`."""

    __slots__ = ()

    def __new__(cls, kind: ChainKind, n: int, flat: tuple[int, ...], den: int):
        layout = image_layout(kind, n)
        if not isinstance(flat, tuple):
            raise ArgumentError(f"the image's entries are a {type(flat).__name__}, "
                                "not a tuple of ints")
        if not {int}.issuperset(map(type, flat)):
            x = next(x for x in flat if type(x) is not int)
            raise ArgumentError(f"entry {x!r} of the image is not an int")
        size = sum(d * d for _, _, d in layout)
        if len(flat) != size:
            raise ArgumentError(f"the image has {len(flat)} entries, not the {size} "
                                f"of {kind.value} n={n}")
        if type(den) is not int or den <= 0:
            raise ArgumentError(f"den={den!r} is not a positive int")
        if gcd(den, *flat) != 1:
            raise ArgumentError(f"the image is not reduced: den={den} shares a factor "
                                "with every entry")
        return tuple.__new__(cls, (kind, n, flat, den))

    @property
    def blocks(self) -> tuple[tuple[Partition, tuple[tuple[Fraction, ...], ...]], ...]:
        """((lam, rows), ...): the dense rational blocks in vertex order, decoded afresh."""
        flat, den = self.flat, self.den
        return tuple((lam, _dense(flat[at : at + d * d], d, den))
                     for lam, at, d in image_layout(self.kind, self.n))


def _reduced_image(kind: ChainKind, n: int, flat: list[int], den: int) -> FourierImage:
    """The image of flat numerators over den, both divided by their gcd."""
    common = gcd(den, *flat)
    if common != 1:
        flat, den = [x // common for x in flat], den // common
    return FourierImage(kind, n, tuple(flat), den)


# ---------------------------------------------------------------------------
# Naive engine


def fft_naive(f: AlgebraElement, rep: AdaptedRep) -> tuple[FourierImage, OpCounter]:
    """Direct matrix sum in ints over the compiled rows of `AdaptedRep.rho_row`.

    With den the lcm of the input denominators and L the lcm of the dens of the
    support's rows, each coefficient c_d becomes the int c_d . den . L / den_d, and
    its row is scattered into one flat integer image, flat[p] += c_d . v: the image's
    numerators over den . L, reduced once.  The counters follow the dense
    straightforward program, one multiplication per (support key, matrix entry) and
    the matching adds."""
    _check_inputs(f, rep)
    den = lcm(*(c.denominator for _, c in f.coeffs))
    rows = [rep.rho_row(key) for key, _ in f.coeffs]
    top = lcm(*(row_den for _, _, row_den in rows))
    support, dim_a = f.support(), rep.algebra_dim()
    flat = [0] * dim_a
    for (_, c), (positions, values, row_den) in zip(f.coeffs, rows):
        c = c.numerator * (den // c.denominator) * (top // row_den)
        for p, v in zip(positions, values):
            flat[p] += c * v
    counter = OpCounter(support * dim_a, max(0, support - 1) * dim_a)
    return _reduced_image(f.kind, f.n, flat, den * top), counter


def _check_inputs(f: AlgebraElement | FourierImage, rep: AdaptedRep) -> None:
    if f.kind is ChainKind.BMW_STRUCTURAL:
        raise ArgumentError("BMW is structural only: no transform data")
    if f.kind != rep.kind or f.n != rep.n:
        raise ArgumentError(
            f"kind/size mismatch: the input is {f.kind.value} n={f.n}, "
            f"the representation {rep.kind.value} n={rep.n}"
        )


# ---------------------------------------------------------------------------
# SOV plan


class SovStage(NamedTuple):
    i: int
    family: tuple[str, ...]
    w_size: int
    hom: int
    predicted_mults: int


class SovLevel(NamedTuple):
    level: int
    algebra_dim: int
    combine_cost: int
    subproblem_weight: Fraction
    contribution: Fraction


class SovPlan(NamedTuple):
    kind: ChainKind
    n: int
    stages: tuple[SovStage, ...]
    levels: tuple[SovLevel, ...]
    predicted_total: Fraction
    predicted_reduced: Fraction
    paper: BoundReport | None


def factor_family(kind: ChainKind, i: int) -> tuple[str, ...]:
    """The factor tokens at chain index i: identity plus local generators."""
    if kind in (ChainKind.BRAUER, ChainKind.BMW_STRUCTURAL):
        return ("id", f"r{i}", f"e{i}")
    if kind is ChainKind.TEMPERLEY_LIEB:
        return ("id", f"e{i}")
    return ("id", f"r{i}")


def sov_plan(kind: ChainKind, n: int) -> SovPlan:
    """Schedule and predicted costs for the separation-of-variables transform.

    Stage i merges the factor choices at index i-1; its predicted cost is
    |W_{i-1}| x the stage-quiver morphism count, with |W_{i-1}| the number of
    distinct stream tails (choices at i-1, ..., k-1) of the level-k schedule
    that the engine runs.  The level schedule telescopes the per-level
    combines with dimension ratios.
    """
    check_size(n)
    if n == 0:
        return SovPlan(kind, 0, (), (), Fraction(0), Fraction(0), None)
    B = cached_bratteli(kind, n)
    dims = [sum(d * d for d in B.dims[k]) for k in range(n + 1)]
    costs, levels = [], []
    predicted_total = Fraction(0)
    for k in range(2, n + 1):
        streams = _schedule(kind, k).streams
        costs = [(i, len({p[i - 2 :] for p in streams}), hom_count_closed(B, i, k))
                 for i in range(2, k + 1)]
        mk = sum(w * hom for _, w, hom in costs)
        weight = Fraction(dims[n], dims[k])
        contribution = weight * mk
        levels.append(SovLevel(k, dims[k], mk, weight, contribution))
        predicted_total += contribution
    # costs now holds level n, whose stages the plan lists
    stages = tuple(
        SovStage(i, factor_family(kind, i - 1), w, hom, w * hom)
        for i, w, hom in costs
    )
    paper = None if kind is ChainKind.SYMMETRIC_GROUP else paper_bounds(kind, n)
    reduced = predicted_total / dims[n] if dims[n] else Fraction(0)
    return SovPlan(kind, n, stages, tuple(levels), predicted_total, reduced, paper)


# ---------------------------------------------------------------------------
# SOV engine


def fft_sov(
    f: AlgebraElement, rep: AdaptedRep, plan: SovPlan | None = None
) -> tuple[FourierImage, OpCounter]:
    """Separation-of-variables transform; exact match with fft_naive.

    The kernel's level table, numerators over den . S_n, is written into the flat
    positions of the image, one row at a time, and reduced once."""
    _check_inputs(f, rep)
    if plan is not None and (plan.kind != f.kind or plan.n != f.n):
        raise ArgumentError("plan does not match the input element")
    counter = OpCounter()
    index = _routing(f.kind, f.n).index
    # c -> c . den . prescale, an int; the result is S_n . den times the transform
    den, prescale = lcm(*(c.denominator for _, c in f.coeffs)), rep.prescale(f.n)
    coeffs = {(j := index[k]): c.numerator * (den // c.denominator) * prescale[j]
              for k, c in f.coeffs}
    row_at, flat = rep._layout()[0], [0] * rep.algebra_dim()
    for r, row in _sov_level(rep, f.n, coeffs, counter).items():
        at = row_at[r]
        for c, v in row.items():
            flat[at + c] = v
    return _reduced_image(f.kind, f.n, flat, den * rep.scale()), counter


# A level table is row-major, {row: {key: int}}, nonzero entries only.  Its rows
# are the level's paths, numbered across the blocks in vertex order and then `paths`
# order (`BratteliDiagram.row_moves`).  A key is a column of the row's block, or in
# `_sov_level` a fiber's column packed into one int.


def _sov_level(rep: AdaptedRep, level: int, coeffs: dict, counter: OpCounter):
    """Transform {basis position: integer coefficient} at the given level into its level
    table, in one pass per level over all fibers.

    Level 1 holds one coefficient per fiber, seeded at key F . M for the fiber F of
    its position (`_routing`), M the largest vertex dimension up to the level.
    Up: level L splits the table below by the stream digit of its keys,
    s . K . M + (F . M + column) with K the product of the stream counts of the
    levels above L (`_Routing.spans`), embedding each entry as it goes
    (`_split_streams`), and runs `_run_level`.  At the top K = 1: keys are columns.
    """
    routing, stride = _routing(rep.kind, level), max(map(max, rep.B.dims[: level + 1]))
    row = {routing.fibers[j] * stride: c for j, c in coeffs.items() if c}
    data = {0: row} if row else {}
    for lvl, span in enumerate(routing.spans, 2):
        data = _run_level(rep, lvl, _split_streams(rep, lvl, data, span * stride), counter)
    return data


def _split_streams(rep: AdaptedRep, level: int, below: dict, width: int) -> dict:
    """{stream: embedded level table} for level >= 2 from the table of the level below,
    whose keys are stream . width + key one level up.  Each row is split by its stream
    digit, which is dropped, and each entry is written once, at its key moved by the
    offset of the row's first edge along `BratteliDiagram.row_moves`; a stream's part
    is copied only for the row's further edges."""
    count = len(_schedule(rep.kind, level).streams)
    moves = rep.B.row_moves(level)
    parts: dict[int, dict] = {}
    for r, row in below.items():
        (rr, offset), *more = moves[r]
        split: list[dict] = [{} for _ in range(count)]
        for k, v in row.items():
            split[k // width][k % width + offset] = v
        for s, part in enumerate(split):
            if part:
                out = parts.setdefault(s, {})
                out[rr] = part
                for rr2, offset2 in more:
                    shift = offset2 - offset
                    out[rr2] = {k + shift: v for k, v in part.items()}
    return parts


def _run_level(rep: AdaptedRep, level: int, streams: dict, counter: OpCounter) -> dict:
    """Run the merge stages of level >= 2, highest index first, over its live streams
    {stream: level table}, consuming them.

    A merge may leave a zero.  Once one has, the zeros that each later token of the
    level gives are dropped after it, and the zeros left at the end of the level are
    dropped in one pass.  A lone live stream merges with nothing, so it applies only
    the tokens of its word.
    """
    zeros = False
    for moves in _schedule(rep.kind, level).stages:
        merged: dict[int, dict] = {}
        for s, data in streams.items():
            token, dest = moves[s]
            if token:
                data = _apply_token(rep, level, token, data, counter)
                if zeros:
                    _drop_zeros(data, list(data))
            if dest in merged:
                zeros |= _merge_stream(merged[dest], data, counter)
            else:
                merged[dest] = data
        streams = merged
    data = streams.get(0, {})
    if zeros:
        _drop_zeros(data, list(data))
    return data


def _drop_zeros(table: dict, rows) -> None:
    """Drop the zero entries of the given rows of a level table, and the rows left empty."""
    for r in rows:
        row = table[r]
        if 0 in row.values():
            kept = {k: v for k, v in row.items() if v}
            if kept:
                table[r] = kept
            else:
                del table[r]


def _merge_stream(dest: dict, data: dict, counter: OpCounter) -> bool:
    """Add a level table into the table of a stream, moving its rows in; each sum onto
    a present entry is one add.  True if a sum is zero."""
    adds, zeros = 0, False
    for r, row in data.items():
        acc = dest.get(r)
        if acc is None:
            dest[r] = row
            continue
        size = len(acc)
        for k, v in row.items():
            if k in acc:
                acc[k] += v
            else:
                acc[k] = v
        adds += size + len(row) - len(acc)
        zeros = zeros or 0 in acc.values()
    counter.add += adds
    return zeros


def _embed_blocks(rep: AdaptedRep, level: int, sub: dict) -> dict:
    """Reindex a level-(L-1) table into level L along `BratteliDiagram.row_moves`: each
    row moves to one row per edge, and its keys move by the edge's column offset."""
    moves = rep.B.row_moves(level)
    out: dict[int, dict] = {}
    for r, row in sub.items():
        for rr, offset in moves[r]:
            out[rr] = {k + offset: v for k, v in row.items()}
    return out


def _apply_token(rep: AdaptedRep, level: int, token, data: dict, counter: OpCounter):
    """Left-multiply an integer level table by D(i) times one generator.

    Column r of the generator (`rep.token_columns`, so ints stay ints) sends input
    row r to its output rows rr: one pass over the row's keys, every fiber's at
    once, per (live row, column entry).  Every scalar product of the straight-line
    program is counted, and each accumulation beyond a first assignment counts as one
    addition.  Zero entries of the rows that took a sum, and rows left empty, are
    dropped: a column entry is nonzero, so a first assignment holds a zero only where
    its input row does, which only a merge leaves (`_run_level`).
    """
    cols = rep.token_columns(token, level)
    out: dict[int, dict] = {}
    summed = set()
    muls = adds = 0
    for r, row in data.items():
        images = cols[r]
        muls += len(images) * len(row)
        for rr, g in images:
            acc = out.get(rr)
            if acc is None:
                out[rr] = acc = {}
                for k, v in row.items():
                    acc[k] = g * v
                continue
            size = len(acc)
            for k, v in row.items():
                if k in acc:
                    acc[k] += g * v
                else:
                    acc[k] = g * v
            adds += size + len(row) - len(acc)
            summed.add(rr)
    _drop_zeros(out, summed)
    counter.mul += muls
    counter.add += adds
    return out


# ---------------------------------------------------------------------------
# Inversion


def inverse_ft(img: FourierImage, rep: AdaptedRep) -> AlgebraElement:
    """Recover the coefficients by one packed product x -> T^-1 x, in ints, with one
    `Fraction` per output coefficient.

    The rows of `AdaptedRep.trace_rows` are the rows of the inverse transform T^-1:
    on S_n the rho row of g^-1 over n!, by the Fourier inversion formula, and on TL
    and Brauer the columns of one inverse of T, built from the rho rows.  One packed
    sum over the image's own numerators (`AdaptedRep.traces`) gives f(b_j) times den,
    the common denominator of the rows, and the image's den, for every key at once.
    Beyond `GRAM_LIMITS` this raises `CapabilityError` before any row is compiled."""
    _check_inputs(img, rep)
    traces = rep.traces(img.flat)
    keys, _, den = rep.trace_rows()
    return AlgebraElement(img.kind, img.n, tuple(
        (key, Fraction(v, den * img.den)) for key, v in zip(keys, traces) if v))


# ---------------------------------------------------------------------------
# File formats


def element_to_json(f: AlgebraElement, q: Fraction) -> dict:
    return {
        "chain": f.kind.value,
        "n": f.n,
        "q": str(q),
        "coeffs": [
            {"diagram": key, "value": str(value)} for key, value in f.coeffs
        ],
    }


def _exact(value, name: str) -> int | Fraction:
    """The rational of the JSON string or integer of the field `name`: an integer, or
    a plain ASCII integer string (-?[0-9]+) read by `int`, is returned as an int; any
    other string is read by `Fraction`.  A refusal names the field and its value."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError(f"{name}={value!r} is not a string or an integer")
    if isinstance(value, int):
        return value
    digits = value[1:] if value[:1] == "-" else value
    try:
        return int(value) if digits.isascii() and digits.isdigit() else Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name}={value!r} is not a rational number") from None


def element_from_json(
    payload: dict, kind: ChainKind, n: int
) -> tuple[AlgebraElement, Fraction]:
    """The element and q of a payload, whose chain and n must be `kind` and `n`.

    They are checked before any key is read, so a payload's n never sizes a basis.
    n must be a JSON integer, and q and each value a string or an integer: a
    float or a bool is refused, not rounded or read as a number.  A payload of the
    wrong shape is refused with the wrong field named.
    """
    try:
        if not isinstance(payload, dict):
            raise TypeError("the payload is not a JSON object")
        chain, size, q = payload["chain"], payload["n"], Fraction(_exact(payload["q"], "q"))
        if isinstance(size, bool) or not isinstance(size, int):
            raise TypeError(f"n={size!r} is not an integer")
        if not isinstance(payload["coeffs"], list):
            raise TypeError("coeffs is not a list")
        table: dict = {}
        for i, row in enumerate(payload["coeffs"]):
            if not isinstance(row, dict):
                raise TypeError(f"coeffs[{i}] is not an object")
            key = row["diagram"]
            if not isinstance(key, str):
                raise TypeError(f"coeffs[{i}].diagram is not a string")
            table[key] = table.get(key, 0) + _exact(row["value"], f"coeffs[{i}].value")
    except KeyError as exc:
        raise ArgumentError(f"coefficient payload lacks the field {exc}") from None
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ArgumentError(f"malformed coefficient payload: {exc}") from None
    if (ChainKind.parse(chain), size) != (kind, n):
        want = f"{kind.value} n={n}"
        raise ArgumentError(f"coefficient payload ({chain} n={size}) does not match {want}")
    return AlgebraElement.from_dict(kind, n, table), q


def image_to_json(
    img: FourierImage,
    ops: OpCounter | None = None,
    plan: SovPlan | None = None,
) -> dict:
    blocks, den = [], img.den
    for lam, at, d in image_layout(img.kind, img.n):
        entries = [str(Fraction(v, den)) if v else "0" for v in img.flat[at : at + d * d]]
        matrix = [entries[i : i + d] for i in range(0, d * d, d)]
        blocks.append({"vertex": list(lam), "matrix": matrix})
    out = {"level": img.n, "blocks": blocks}
    if ops is not None:
        out["ops"] = {"mul": ops.mul, "add": ops.add}
    if plan is not None:
        out["bound"] = {
            "predicted": str(plan.predicted_total),
            "paper": str(plan.paper.total) if plan.paper else None,
        }
    return out


def random_element(kind: ChainKind, n: int, seed: int) -> AlgebraElement:
    """Seeded dense element with integer coefficients in -9..9."""
    import random as _random

    rng = _random.Random(seed)
    table = {}
    for key in _routing(kind, n).index:
        table[key] = Fraction(rng.randint(-9, 9))
    return AlgebraElement.from_dict(kind, n, table)

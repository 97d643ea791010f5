"""Fourier transforms on diagram-algebra chains: naive and SOV-scheduled engines.

The SOV engine recurses through the chain.  Its routing depends only on the
chain kind and level, so it is compiled once per (kind, level), on first use,
from the factorization table `diagrams.route_table`: basis keys become
integer positions, each position routes to a (stream, position one level
down) pair, streams merge in a fixed order, and the level embedding is a
path offset per Bratteli edge.  A call then only moves coefficients along
these integer routes: each fiber is transformed one level down and embedded,
and each factor word is applied token by token as block-local sparse
products.  Operation counters track scalar multiplications and additions of
the transform proper; representation data and routing are precomputed and
free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .combinat import (
    BoundReport,
    BratteliDiagram,
    ChainKind,
    Partition,
    QuiverShape,
    cached_bratteli,
    hom_count_closed,
    paper_bounds,
    stage_quiver_shape,
)
from .diagrams import basis_key, diagram_from_key, diagram_mul, route_table
from .errors import ArgumentError, FactorizationError
from .reps.core import AdaptedRep


@dataclass
class OpCounter:
    """Scalar multiplications and additions attributed to a transform run."""

    mul: int = 0
    add: int = 0

    def merged(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(self.mul + other.mul, self.add + other.add)


@dataclass(frozen=True)
class AlgebraElement:
    """Finitely supported coefficient table over canonical diagram keys."""

    kind: ChainKind
    n: int
    coeffs: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def from_dict(kind: ChainKind, n: int, table: dict) -> "AlgebraElement":
        """Canonicalise each key, summing every spelling of one diagram.

        A key is looked up in `route_table(kind, n)`, so this lists the whole
        basis of size n once per (kind, n).
        """
        sums: dict[str, Fraction] = {}
        for key, value in table.items():
            key = basis_key(kind, n, key)
            sums[key] = sums.get(key, Fraction(0)) + Fraction(value)
        return AlgebraElement(kind, n, tuple(sorted((k, v) for k, v in sums.items() if v)))

    def table(self) -> dict[str, Fraction]:
        return dict(self.coeffs)

    def support(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class FourierImage:
    """Per-vertex blocks of the transform, dense in the GT path basis."""

    kind: ChainKind
    n: int
    blocks: tuple[tuple[Partition, tuple[tuple[Fraction, ...], ...]], ...]

    def block(self, lam: Partition):
        lam = tuple(lam)
        for v, m in self.blocks:
            if v == lam:
                return m
        raise ArgumentError(f"no block for vertex {lam!r}")

    def entry_count(self) -> int:
        return sum(len(m) * len(m) for _, m in self.blocks)


def _blocks_from_dense(kind, n, dense: dict) -> FourierImage:
    items = tuple(
        (lam, tuple(tuple(row) for row in mat)) for lam, mat in dense.items()
    )
    return FourierImage(kind, n, items)


# ---------------------------------------------------------------------------
# Naive engine


def fft_naive(f: AlgebraElement, rep: AdaptedRep) -> tuple[FourierImage, OpCounter]:
    """Direct matrix sum; counters follow the dense straightforward program,
    one multiplication per (support key, matrix entry) and the matching adds."""
    _check_inputs(f, rep)
    counter = OpCounter()
    dense = rep.dense_blocks({})
    dim_a = rep.algebra_dim()
    support = 0
    for key, c in f.coeffs:
        support += 1
        for lam, block in rep.rho_blocks(key).items():
            mat = dense[lam]
            for col, entries in block.items():
                for r, v in entries.items():
                    mat[r][col] += c * v
    counter.mul += support * dim_a
    counter.add += max(0, support - 1) * dim_a
    return _blocks_from_dense(f.kind, f.n, dense), counter


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


@dataclass(frozen=True)
class SovStage:
    i: int
    family: tuple[str, ...]
    shape: QuiverShape
    w_size: int
    hom: int
    predicted_mults: int


@dataclass(frozen=True)
class SovLevel:
    level: int
    algebra_dim: int
    combine_cost: int
    subproblem_weight: Fraction
    contribution: Fraction


@dataclass(frozen=True)
class SovPlan:
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


def w_set_sizes(kind: ChainKind, k: int) -> dict[int, int]:
    """|W_{i-1}| per stage i at chain length k: realized remaining factor tuples.

    A factor-set word is a tuple of per-index choices; W_{i-1} collects the
    distinct tails (choice at i-1, ..., choice at k-1) over the whole set.
    """
    from .diagrams import factor_set

    word_kind = ChainKind.BRAUER if kind is ChainKind.BMW_STRUCTURAL else kind
    words = [w.tokens for w in factor_set(word_kind, k)]
    out = {}
    for i in range(2, k + 1):
        tails = set()
        for tokens in words:
            by_index = {t[1]: t for t in tokens}
            tails.add(
                tuple(by_index.get(j, ("id", j)) for j in range(i - 1, k))
            )
        out[i] = len(tails)
    return out


def sov_plan(kind: ChainKind, n: int, B: BratteliDiagram | None = None) -> SovPlan:
    """Schedule and predicted costs for the separation-of-variables transform.

    Stage i merges the factor choices at index i-1; its predicted cost is
    |W_{i-1}| x the stage-quiver morphism count, with |W_{i-1}| the number of
    realized remaining factor tuples.  The level schedule telescopes the
    per-level combines with dimension ratios.
    """
    if n < 0:
        raise ArgumentError("sov_plan needs n >= 0")
    if n == 0:
        return SovPlan(kind, 0, (), (), Fraction(0), Fraction(0), None)
    if B is None:
        B = cached_bratteli(kind, n)
    top_w = w_set_sizes(kind, n)
    stages = []
    for i in range(2, n + 1):
        family = factor_family(kind, i - 1)
        hom = hom_count_closed(B, i, n)
        stages.append(
            SovStage(
                i, family, stage_quiver_shape(i, n), top_w[i], hom, top_w[i] * hom
            )
        )
    dims = [sum(d * d for d in B.dims[k]) for k in range(n + 1)]
    levels = []
    predicted_total = Fraction(0)
    for k in range(2, n + 1):
        wk = w_set_sizes(kind, k)
        mk = sum(wk[i] * hom_count_closed(B, i, k) for i in range(2, k + 1))
        weight = Fraction(dims[n], dims[k])
        contribution = weight * mk
        levels.append(SovLevel(k, dims[k], mk, weight, contribution))
        predicted_total += contribution
    paper = None
    if kind is not ChainKind.SYMMETRIC_GROUP:
        paper = paper_bounds(kind, n)
    return SovPlan(
        kind,
        n,
        tuple(stages),
        tuple(levels),
        predicted_total,
        predicted_total / dims[n] if dims[n] else Fraction(0),
        paper,
    )


# ---------------------------------------------------------------------------
# SOV engine


class _Routing(NamedTuple):
    """The SOV routing of one (kind, level), compiled to integer indices.

    Streams are named by their pending token-per-index tuples (None for the
    identity) and numbered in one fixed order.  Stage k applies index
    level-1-k: stream s applies `stages[k][s][0]` (if any) and merges into
    stream `stages[k][s][1]` of the next stage.
    """

    index: dict[str, int]  # basis key -> position in canonical key order
    routes: tuple[tuple[int, int], ...]  # position -> (stream, position one level down)
    stages: tuple[tuple[tuple[str | None, int], ...], ...]
    widths: tuple[int, ...]  # number of streams after each stage
    # level-1 vertex -> ((level vertex, path offset), ...) along its extension edges
    embedding: dict[Partition, tuple[tuple[Partition, int], ...]]


def _stream_order(pending: tuple) -> tuple:
    return tuple(sym or "" for sym in pending)


@lru_cache(maxsize=None)
def _routing(kind: ChainKind, level: int) -> _Routing:
    """Compile the routing of every level-`level` basis diagram (level >= 1)."""
    table = route_table(kind, level)
    below = _routing(kind, level - 1).index if level > 1 else {"": 0}
    pendings = {}
    for key, (tokens, _) in table.items():
        pending = [None] * (level - 1)
        for sym, i in tokens:
            pending[i - 1] = sym
        pendings[key] = tuple(pending)
    current = sorted(set(pendings.values()), key=_stream_order)
    start = {p: s for s, p in enumerate(current)}
    routes = tuple((start[pendings[key]], below[sub]) for key, (_, sub) in table.items())
    if len(set(routes)) != len(routes):
        raise FactorizationError(f"{kind.value} level {level}: two diagrams share a route")
    stages, widths = [], []
    for i in range(level - 1, 0, -1):
        merged = sorted({p[: i - 1] for p in current}, key=_stream_order)
        target = {p: s for s, p in enumerate(merged)}
        stages.append(tuple((p[i - 1], target[p[: i - 1]]) for p in current))
        widths.append(len(merged))
        current = merged
    # GT paths are grouped by their level-(level-1) vertex, so the paths
    # through mu occupy one contiguous range of lam's basis.
    B = cached_bratteli(kind, level)
    embedding: dict[Partition, list] = {}
    for lam in B.vertices(level):
        offset = 0
        for mu in B.in_neighbors(level, lam):
            embedding.setdefault(mu, []).append((lam, offset))
            offset += B.dim(level - 1, mu)
    return _Routing(
        {key: j for j, key in enumerate(table)},
        routes,
        tuple(stages),
        tuple(widths),
        {mu: tuple(edges) for mu, edges in embedding.items()},
    )


def fft_sov(
    f: AlgebraElement, rep: AdaptedRep, plan: SovPlan | None = None
) -> tuple[FourierImage, OpCounter]:
    """Separation-of-variables transform; exact match with fft_naive."""
    _check_inputs(f, rep)
    if plan is not None and (plan.kind != f.kind or plan.n != f.n):
        raise ArgumentError("plan does not match the input element")
    counter = OpCounter()
    index = _routing(f.kind, f.n).index if f.n else {"": 0}
    sparse = _sov_level(rep, f.n, {index[key]: c for key, c in f.coeffs}, counter)
    return _blocks_from_dense(f.kind, f.n, rep.dense_blocks(sparse)), counter


# Block data maps each vertex to its nonzero columns: {lam: {col: {row: value}}}.


def _sov_level(rep: AdaptedRep, level: int, coeffs: dict, counter: OpCounter):
    """Transform {basis position: coefficient} at the given level into block data.

    Factor words are applied suffix-first (highest generator index down);
    streams whose remaining prefixes coincide are merged before the shared
    token is applied, so common word prefixes cost one application.
    """
    if level <= 1:
        total = sum(coeffs.values(), Fraction(0))
        return {(1,) if level else (): {0: {0: total}}} if total else {}
    routing = _routing(rep.kind, level)
    fibers: list = [None] * len(routing.stages[0])
    for j, c in coeffs.items():
        stream, sub = routing.routes[j]
        if fibers[stream] is None:
            fibers[stream] = {}
        fibers[stream][sub] = c
    streams: list = [None] * len(fibers)
    for stream, fiber in enumerate(fibers):
        if fiber is not None:
            sub = _sov_level(rep, level - 1, fiber, counter)
            streams[stream] = _embed_blocks(rep, level, sub)
    for i, moves, width in zip(range(level - 1, 0, -1), routing.stages, routing.widths):
        merged: list = [None] * width
        for data, (sym, dest) in zip(streams, moves):
            if data is None:
                continue
            if sym is not None:
                data = _apply_token(rep, level, (sym, i), data, counter)
            _merge_stream(merged, dest, data, counter)
        streams = merged
    result: dict[Partition, dict] = {}
    for lam, block in (streams[0] or {}).items():
        cleaned = {}
        for c, col in block.items():
            col = {r: v for r, v in col.items() if v}
            if col:
                cleaned[c] = col
        if cleaned:
            result[lam] = cleaned
    return result


def _merge_stream(streams: list, s: int, data: dict, counter: OpCounter) -> None:
    """Add block data into stream s; each sum onto a present entry is one add.

    `data` is consumed: its block and column dicts move into the stream.
    """
    dest_blocks = streams[s]
    if dest_blocks is None:
        streams[s] = data
        return
    adds = 0
    for lam, block in data.items():
        dest = dest_blocks.get(lam)
        if dest is None:
            dest_blocks[lam] = block
            continue
        for c, col in block.items():
            dest_col = dest.get(c)
            if dest_col is None:
                dest[c] = col
                continue
            for r, v in col.items():
                if r in dest_col:
                    dest_col[r] += v
                    adds += 1
                else:
                    dest_col[r] = v
    counter.add += adds


def _embed_blocks(rep: AdaptedRep, level: int, sub: dict) -> dict:
    """Reindex level-(L-1) blocks into level L along shared extension edges."""
    embedding = _routing(rep.kind, level).embedding
    out: dict[Partition, dict] = {}
    for mu, block in sub.items():
        for lam, offset in embedding[mu]:
            dest = out.setdefault(lam, {})
            for c, col in block.items():
                dest[c + offset] = {r + offset: v for r, v in col.items()}
    return out


def _apply_token(rep: AdaptedRep, level: int, token, data: dict, counter: OpCounter):
    """Left-multiply block data by one generator, block-locally.

    Every scalar product of the straight-line program is counted, and each
    accumulation beyond a first assignment counts as one addition.
    """
    out: dict[Partition, dict] = {}
    muls = adds = 0
    for lam, block in data.items():
        cols = rep.token_columns(lam, token, level)
        dest: dict = {}
        for c, col in block.items():
            acc: dict = {}
            for r, val in col.items():
                images = cols[r]
                muls += len(images)
                for rr, s_val in images:
                    if rr in acc:
                        acc[rr] += s_val * val
                        adds += 1
                    else:
                        acc[rr] = s_val * val
            acc = {r: v for r, v in acc.items() if v}
            if acc:
                dest[c] = acc
        if dest:
            out[lam] = dest
    counter.mul += muls
    counter.add += adds
    return out


# ---------------------------------------------------------------------------
# Inversion and the isomorphism check


def inverse_ft(img: FourierImage, rep: AdaptedRep) -> AlgebraElement:
    """Recover coefficients through the trace form: f(a_i) = Tr(f̂ rho(a_i*))."""
    _check_inputs(img, rep)
    basis, ginv, _ = rep.gram_dual()
    size = len(basis)
    blocks = {lam: img.block(lam) for lam in rep.vertices()}
    traces = []
    for k in range(size):
        # Tr(f̂ rho_k) over the nonzero entries rho_k[r][c] = v of each block
        total = Fraction(0)
        for lam, block in rep.rho_blocks(basis[k].key()).items():
            m = blocks[lam]
            for c, col in block.items():
                row = m[c]
                for r, v in col.items():
                    total += row[r] * v
        traces.append(total)
    table: dict[str, Fraction] = {}
    for j in range(size):
        val = sum(ginv[k][j] * traces[k] for k in range(size))
        if val:
            table[basis[j].key()] = val
    return AlgebraElement.from_dict(img.kind, img.n, table)


def multiply_elements(f: AlgebraElement, g: AlgebraElement, q: Fraction) -> AlgebraElement:
    if f.kind != g.kind or f.n != g.n:
        raise ArgumentError("element kind/size mismatch")
    table: dict[str, Fraction] = {}
    for k1, c1 in f.coeffs:
        d1 = diagram_from_key(f.kind, f.n, k1)
        for k2, c2 in g.coeffs:
            d2 = diagram_from_key(g.kind, g.n, k2)
            prod = diagram_mul(d1, d2)
            key = prod.diagram.key()
            table[key] = table.get(key, Fraction(0)) + c1 * c2 * q**prod.loops
    return AlgebraElement.from_dict(f.kind, f.n, table)


@dataclass(frozen=True)
class ConvolutionReport:
    ok: bool
    failures: tuple[Partition, ...]


def convolution_check(
    f: AlgebraElement, g: AlgebraElement, rep: AdaptedRep
) -> ConvolutionReport:
    """Verify that the transform sends products to blockwise matrix products."""
    h = multiply_elements(f, g, rep.q)
    img_h, _ = fft_naive(h, rep)
    img_f, _ = fft_naive(f, rep)
    img_g, _ = fft_naive(g, rep)
    failures = []
    for lam in rep.vertices():
        mf, mg, mh = img_f.block(lam), img_g.block(lam), img_h.block(lam)
        d = len(mf)
        for r in range(d):
            for c in range(d):
                got = sum(mf[r][k] * mg[k][c] for k in range(d))
                if got != mh[r][c]:
                    failures.append(tuple(lam))
                    break
            else:
                continue
            break
    return ConvolutionReport(not failures, tuple(failures))


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


def _exact(value, name: str) -> Fraction:
    """The rational of a JSON string or integer."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError(f"{name}={value!r} is not a string or an integer")
    return Fraction(value)


def element_from_json(
    payload: dict, kind: ChainKind, n: int
) -> tuple[AlgebraElement, Fraction]:
    """The element and q of a payload, whose chain and n must be `kind` and `n`.

    They are checked before any key is read, so a payload's n never sizes a basis.
    n must be a JSON integer, and q and each value a string or an integer: a
    float or a bool is refused, not rounded or read as a number.
    """
    try:
        chain, size, q = payload["chain"], payload["n"], _exact(payload["q"], "q")
        if isinstance(size, bool) or not isinstance(size, int):
            raise TypeError(f"n={size!r} is not an integer")
        table: dict = {}
        for row in payload["coeffs"]:
            table[row["diagram"]] = table.get(row["diagram"], 0) + _exact(row["value"], "value")
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
    blocks = []
    for lam, mat in img.blocks:
        blocks.append(
            {
                "vertex": list(lam),
                "matrix": [[str(x) for x in row] for row in mat],
            }
        )
    out = {"level": img.n, "blocks": blocks}
    if ops is not None:
        out["ops"] = {"mul": ops.mul, "add": ops.add}
    if plan is not None:
        out["bound"] = {
            "predicted": str(plan.predicted_total),
            "paper": str(plan.paper.total) if plan.paper else None,
        }
    return out


def random_element(
    kind: ChainKind, n: int, seed: int, low: int = -9, high: int = 9
) -> AlgebraElement:
    """Seeded dense element with small integer coefficients."""
    import random as _random

    from .diagrams import all_diagrams

    rng = _random.Random(seed)
    table = {}
    for d in all_diagrams(kind, n):
        table[d.key()] = Fraction(rng.randint(low, high))
    return AlgebraElement.from_dict(kind, n, table)

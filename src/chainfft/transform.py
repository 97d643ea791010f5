"""Fourier transforms on diagram-algebra chains: naive and SOV-scheduled engines.

The SOV engine recurses through the chain: coefficients are routed into
factor-set fibers, subproblems are transformed one level down, embedded, and
each factor word is applied token by token as block-local sparse products.
Operation counters track scalar multiplications and additions of the
transform proper; representation data is precomputed and free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
from .diagrams import diagram_from_key, diagram_mul, factor_map, shrink
from .errors import ArgumentError
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
        """Canonicalise each key, summing every spelling of one diagram."""
        sums: dict[str, Fraction] = {}
        for key, value in table.items():
            key = diagram_from_key(kind, n, key).key()
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
    dense = {
        lam: [[Fraction(0)] * rep.dim(lam) for _ in range(rep.dim(lam))]
        for lam in rep.vertices()
    }
    dim_a = rep.algebra_dim()
    support = 0
    for key, c in f.coeffs:
        support += 1
        for lam, r, col, v in rep.rho_entries(key):
            dense[lam][r][col] += c * v
    counter.mul += support * dim_a
    counter.add += max(0, support - 1) * dim_a
    return _blocks_from_dense(f.kind, f.n, dense), counter


def _check_inputs(f: AlgebraElement, rep: AdaptedRep) -> None:
    if f.kind is ChainKind.BMW_STRUCTURAL:
        raise ArgumentError("BMW is structural only: no transform data")
    if f.kind != rep.kind or f.n != rep.n:
        raise ArgumentError("element and representation kind/size mismatch")


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


def fft_sov(
    f: AlgebraElement, rep: AdaptedRep, plan: SovPlan | None = None
) -> tuple[FourierImage, OpCounter]:
    """Separation-of-variables transform; exact match with fft_naive."""
    _check_inputs(f, rep)
    if plan is not None and (plan.kind != f.kind or plan.n != f.n):
        raise ArgumentError("plan does not match the input element")
    counter = OpCounter()
    coeffs = {
        diagram_from_key(f.kind, f.n, key): c for key, c in f.coeffs
    }
    sparse = _sov_level(rep, f.n, coeffs, counter)
    dense = {}
    for lam in rep.vertices():
        d = rep.dim(lam)
        mat = [[Fraction(0)] * d for _ in range(d)]
        for (r, c), v in sparse.get(lam, {}).items():
            mat[r][c] = v
        dense[lam] = mat
    return _blocks_from_dense(f.kind, f.n, dense), counter


def _sov_level(rep: AdaptedRep, level: int, coeffs: dict, counter: OpCounter):
    """Transform a coefficient table at the given level into sparse blocks.

    Factor words are applied suffix-first (highest generator index down);
    streams whose remaining prefixes coincide are merged before the shared
    token is applied, so common word prefixes cost one application.
    """
    if level == 0:
        total = sum(coeffs.values(), Fraction(0))
        return {(): {(0, 0): total}} if total else {}
    if level == 1:
        total = sum(coeffs.values(), Fraction(0))
        return {(1,): {(0, 0): total}} if total else {}
    fibers: dict[tuple, dict] = {}
    for d, c in coeffs.items():
        word, b = factor_map(d)
        fibers.setdefault(word.tokens, {})[shrink(b)] = c
    # streams keyed by the pending token-per-index tuple (None = identity)
    streams: dict[tuple, dict] = {}
    for tokens, fiber in sorted(fibers.items()):
        sub = _sov_level(rep, level - 1, fiber, counter)
        data = _embed_blocks(rep, level, sub)
        pending = [None] * (level - 1)
        for sym, idx in tokens:
            pending[idx - 1] = sym
        _merge_stream(streams, tuple(pending), data, counter)
    for i in range(level - 1, 0, -1):
        next_streams: dict[tuple, dict] = {}
        for pending, data in sorted(
            streams.items(),
            key=lambda kv: (
                kv[0][i - 1] is not None,
                tuple(x or "" for x in kv[0]),
            ),
        ):
            sym = pending[i - 1]
            if sym is not None:
                data = _apply_token(rep, level, (sym, i), data, counter)
            _merge_stream(next_streams, pending[: i - 1], data, counter)
        streams = next_streams
    out = streams.get((), {})
    result: dict[Partition, dict] = {}
    for lam, entries in out.items():
        cleaned = {p: v for p, v in entries.items() if v != 0}
        if cleaned:
            result[lam] = cleaned
    return result


def _merge_stream(streams: dict, key: tuple, data: dict, counter: OpCounter) -> None:
    if key not in streams:
        streams[key] = data
        return
    dest_blocks = streams[key]
    for lam, entries in data.items():
        dest = dest_blocks.setdefault(lam, {})
        for pos, val in entries.items():
            if pos in dest:
                dest[pos] += val
                counter.add += 1
            else:
                dest[pos] = val


def _embed_blocks(rep: AdaptedRep, level: int, sub: dict) -> dict:
    """Reindex level-(L-1) blocks into level L along shared extension edges."""
    B = rep.B
    out: dict[Partition, dict] = {}
    for mu, entries in sub.items():
        paths = B.paths(level - 1, mu)[0]
        for lam in B.out_neighbors(level - 1, mu):
            pos = B.paths(level, lam)[1]
            dest = out.setdefault(lam, {})
            for (r, c), val in entries.items():
                rr = pos[paths[r] + (lam,)]
                cc = pos[paths[c] + (lam,)]
                dest[(rr, cc)] = val
    return out


def _apply_token(rep: AdaptedRep, level: int, token, data: dict, counter: OpCounter):
    """Left-multiply sparse block data by one generator, block-locally.

    Every scalar product of the straight-line program is counted, and each
    accumulation beyond a first assignment counts as one addition.
    """
    out: dict[Partition, dict] = {}
    for lam, entries in data.items():
        cols = rep.token_columns(lam, token, level)
        dest: dict = {}
        for (r, c), val in entries.items():
            for rr, s_val in cols[r]:
                counter.mul += 1
                term = s_val * val
                key = (rr, c)
                if key in dest:
                    dest[key] += term
                    counter.add += 1
                else:
                    dest[key] = term
        if dest:
            out[lam] = {k: v for k, v in dest.items() if v != 0}
            if not out[lam]:
                del out[lam]
    return out


# ---------------------------------------------------------------------------
# Inversion and the isomorphism check


def inverse_ft(img: FourierImage, rep: AdaptedRep) -> AlgebraElement:
    """Recover coefficients through the trace form: f(a_i) = Tr(f̂ rho(a_i*))."""
    basis, ginv, _ = rep.gram_dual()
    size = len(basis)
    traces = []
    for k in range(size):
        total = Fraction(0)
        for lam in rep.vertices():
            m = img.block(lam)
            rho_k = rep.rho(basis[k], lam)
            d = len(m)
            total += sum(
                m[r][c] * rho_k[c][r] for r in range(d) for c in range(d)
            )
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


def element_from_json(payload: dict) -> tuple[AlgebraElement, Fraction]:
    try:
        chain, n, q = payload["chain"], int(payload["n"]), Fraction(payload["q"])
        table: dict = {}
        for row in payload["coeffs"]:
            table[row["diagram"]] = table.get(row["diagram"], 0) + Fraction(row["value"])
    except KeyError as exc:
        raise ArgumentError(f"coefficient payload lacks the field {exc}") from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ArgumentError(f"malformed coefficient payload: {exc}") from None
    return AlgebraElement.from_dict(ChainKind.parse(chain), n, table), q


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

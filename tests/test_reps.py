import hashlib
import json
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainfft.combinat import ChainKind, cached_bratteli
from chainfft.diagrams import (
    GeneratorWord,
    all_diagrams,
    diagram_from_key,
    diagram_mul,
    evaluate,
    generator,
    identity_diagram,
    relation_instances,
    route_table,
    word_of,
)
from chainfft.errors import ArgumentError, CapabilityError, ParameterError
from chainfft.ratlinalg import identity, invert, mat_mul, nullspace, rref
from chainfft.reps import (
    DEFAULT_Q,
    AdaptedRep,
    adapted_rep,
    chebyshev_u,
    local_blocks,
    tl_block_table,
)
from chainfft.reps.cells import _cell_matrix_of_diagram, brauer_semisimple, cell_matrix
from chainfft.reps.core import sn_permutation
from oracle import _rational_roots, oracle_irreps, oracle_matrix, solve
from reference import character, dual_table, gram_matrix, naive_transform_matrix, rank, rho

BR = ChainKind.BRAUER
TL = ChainKind.TEMPERLEY_LIEB
SN = ChainKind.SYMMETRIC_GROUP
Q = DEFAULT_Q


def matrix_relations_ok(rep):
    q = rep.q
    for name, lhs, rhs, extra in relation_instances(rep.kind, rep.n):
        for lam in rep.vertices():
            d = rep.dim(lam)
            left = identity(d)
            for t in lhs:
                left = mat_mul(left, rep.token_matrix(lam, t))
            right = identity(d)
            for t in rhs:
                right = mat_mul(right, rep.token_matrix(lam, t))
            scaled = [[q**extra * x for x in row] for row in right]
            if left != scaled:
                return False
    return True


@pytest.mark.parametrize("kind,n", [(SN, 4), (SN, 5), (TL, 4), (TL, 6), (BR, 2), (BR, 3), (BR, 4)])
def test_matrix_relations(kind, n, rep_cache):
    assert matrix_relations_ok(rep_cache(kind, n))


def test_brauer2_one_dimensional_irreps(rep_cache):
    rep = rep_cache(BR, 2)
    got = {
        lam: (rep.token_matrix(lam, ("r", 1))[0][0], rep.token_matrix(lam, ("e", 1))[0][0])
        for lam in rep.vertices()
    }
    assert got == {(2,): (1, 0), (1, 1): (-1, 0), (): (1, Q)}


def test_tl2_e_eigenvalues(rep_cache):
    rep = rep_cache(TL, 2)
    values = sorted(rep.token_matrix(lam, ("e", 1))[0][0] for lam in rep.vertices())
    assert values == [0, Q]


def test_tl_singular_q_rejected():
    with pytest.raises(ParameterError):
        tl_block_table(3, Fraction(0))
    with pytest.raises(ParameterError):
        tl_block_table(3, Fraction(1))  # U_2(1) = 0


GRID_Q = [Fraction(q) for q in ("-2", "-1", "-1/2", "0", "1/2", "1", "2", "10/3")]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_tl_refuses_q_iff_a_weight_it_reads_vanishes(n):
    """TL_n reads U_0..U_{n-1}: q is refused iff one of them is 0, and every
    accepted q gives a full-rank Gram matrix and transform."""
    for q in GRID_Q:
        if any(chebyshev_u(k, q) == 0 for k in range(n)):
            with pytest.raises(ParameterError):
                adapted_rep.__wrapped__(TL, n, q)
        else:
            assert verify_semisimple(adapted_rep.__wrapped__(TL, n, q)).ok, (n, q)


@pytest.mark.parametrize("kind,sym,i", [(TL, "r", 1), (SN, "e", 1), (BR, "x", 2),
                                        (TL, "x", 2), (SN, "r", 4), (BR, "e", 0)])
def test_token_columns_refuse_tokens_the_chain_lacks(kind, sym, i):
    rep = adapted_rep.__wrapped__(kind, 4, Q)
    with pytest.raises(ArgumentError):
        rep.token_columns((sym, i), 4)
    for lam in rep.vertices():
        with pytest.raises(ArgumentError):
            rep.token_matrix(lam, (sym, i))
    assert rep._cols == {}


def test_adaptedness_block_local(rep_cache):
    for kind, n in [(BR, 4), (TL, 5)]:
        rep = rep_cache(kind, n)
        B = rep.B
        syms = ("e",) if kind is TL else ("r", "e")
        for lam in rep.vertices():
            paths = B.paths(n, lam)[0]
            for i in range(1, n):
                for sym in syms:
                    m = rep.token_matrix(lam, (sym, i))
                    for a, pa in enumerate(paths):
                        for b, pb in enumerate(paths):
                            if m[a][b] == 0:
                                continue
                            assert all(
                                pa[k] == pb[k] for k in range(len(pa)) if k != i
                            )


def test_restriction_block_sizes(rep_cache):
    rep = rep_cache(BR, 3)
    B = rep.B
    for lam in rep.vertices():
        groups = [p[2] for p in B.paths(3, lam)[0]]
        # contiguous grouping by the level-(n-1) vertex
        seen = []
        for g in groups:
            if not seen or seen[-1] != g:
                seen.append(g)
        assert len(seen) == len(set(groups))


def rho_multiplies(rep, a, b):
    """rho(a) rho(b) == q^loops rho(a b) on every vertex."""
    prod = diagram_mul(a, b)
    for lam in rep.vertices():
        left = mat_mul(rho(rep, a, lam), rho(rep, b, lam))
        right = [[Q**prod.loops * x for x in row] for row in rho(rep, prod.diagram, lam)]
        if left != right:
            return False
    return True


def test_rep_of_diagram_multiplicative_brauer3_exhaustive(rep_cache):
    rep = rep_cache(BR, 3)
    ds = all_diagrams(BR, 3)
    for a in ds:
        for b in ds:
            assert rho_multiplies(rep, a, b), (a.key(), b.key())


@settings(max_examples=200)
@given(st.sampled_from([(TL, 5), (BR, 4), (SN, 5)]).flatmap(
    lambda kn: st.tuples(st.just(kn), *[st.sampled_from(all_diagrams(*kn))] * 2)
))
def test_rep_of_diagram_multiplicative(case):
    (kind, n), a, b = case
    assert rho_multiplies(adapted_rep(kind, n), a, b), (a.key(), b.key())


def test_rep_word_independence(rep_cache):
    rep = rep_cache(BR, 4)
    d_one = evaluate(GeneratorWord((("r", 1), ("e", 2), ("e", 3))), BR, 4).diagram
    d_two = evaluate(GeneratorWord((("r", 2), ("e", 3))), BR, 4).diagram
    for bb in all_diagrams(BR, 4):
        if (bb.n, 2 * bb.n) not in bb.pairs:
            continue
        p1 = diagram_mul(d_one, bb)
        p2 = diagram_mul(d_two, bb)
        if p1.diagram != p2.diagram or p1.loops or p2.loops:
            continue
        for lam in rep.vertices():
            m1 = mat_mul(rho(rep, d_one, lam), rho(rep, bb, lam))
            m2 = mat_mul(rho(rep, d_two, lam), rho(rep, bb, lam))
            assert m1 == m2 == rho(rep, p1.diagram, lam)
        return
    pytest.fail("no common factorization found")


def test_identity_diagram_maps_to_identity(rep_cache):
    for kind, n in [(BR, 3), (TL, 4), (SN, 4)]:
        rep = rep_cache(kind, n)
        for lam in rep.vertices():
            assert rho(rep, identity_diagram(kind, n), lam) == identity(rep.dim(lam))


@pytest.mark.parametrize("kind,n", [(TL, 6), (SN, 4), (BR, 3), (BR, 4)])
def test_rho_is_the_product_of_its_word(kind, n, rep_cache):
    """The level recursion gives the product of the generator matrices of word_of."""
    rep = rep_cache(kind, n)
    for d in all_diagrams(kind, n):
        for lam in rep.vertices():
            want = identity(rep.dim(lam))
            for token in word_of(d).tokens:
                want = mat_mul(want, rep.token_matrix(lam, token))
            assert rho(rep, d, lam) == want, (d.key(), lam)


@pytest.mark.parametrize("kind,n", [(TL, 6), (SN, 4), (BR, 3)])
def test_integer_kernel_scales(kind, n, rep_cache):
    """token_columns are the generators times D(i) in ints, with D(i) the lcm of the
    denominators of the local blocks that the level-L paths read, at every level L:
    one column per row of the level, and each vertex's slice, its rows numbered from
    the vertex's first row, is D(i) times its token_matrix.  Each route's pre-scale
    times its tokens' D(i) is S_n = prod D(i)^(n-i)."""
    rep = rep_cache(kind, n)
    syms = {sym for (sym, _), _, _ in rep.blocks}
    for level in range(2, n + 1):
        for i in range(1, level):
            frames = {(p[i - 1], p[i + 1])
                      for lam in rep.vertices(level) for p in rep.B.paths(level, lam)[0]}
            dens = {v.denominator for ((_, j), mu, nu), block in rep.blocks.items()
                    if j == i and (mu, nu) in frames for row in block for v in row}
            scale = rep.token_scale(i)
            assert scale == math.lcm(*dens)
            for sym in syms:
                cols = rep.token_columns((sym, i), level)
                assert len(cols) == sum(rep.B.dims[level])
                assert all(type(v) is int for col in cols for _, v in col)
                first = 0
                for lam in rep.vertices(level):
                    dense = rep.token_matrix(lam, (sym, i), level)
                    assert cols[first : first + len(dense)] == tuple(
                        tuple((first + r, scale * row[c])
                              for r, row in enumerate(dense) if row[c])
                        for c in range(len(dense))
                    )
                    first += len(dense)

    def route_scale(key, level):
        if level <= 1:
            return 1
        tokens, sub = route_table(kind, level)[key]
        return math.prod(rep.token_scale(i) for _, i in tokens) * route_scale(sub, level - 1)

    total = math.prod(rep.token_scale(i) for L in range(2, n + 1) for i in range(1, L))
    assert rep.scale(n) == total
    prescale = rep.prescale(n)
    assert prescale.keys() == route_table(kind, n).keys()
    for key, pre in prescale.items():
        assert pre * route_scale(key, n) == total


@pytest.mark.parametrize("kind,n", [(TL, 6), (SN, 4), (BR, 4)])
def test_rho_entries_are_the_nonzero_entries_of_rho(kind, n, rep_cache):
    """rho_blocks holds exactly the nonzero entries of rho as integer numerators over
    S_n, with no empty block or column."""
    rep = rep_cache(kind, n)
    scale = rep.scale(n)
    for d in all_diagrams(kind, n):
        dense = {
            (lam, r, c, v)
            for lam in rep.vertices()
            for r, row in enumerate(rho(rep, d, lam))
            for c, v in enumerate(row)
            if v
        }
        blocks = rep.rho_blocks(d.key())
        entries = [
            (lam, r, c, Fraction(v, scale)) for lam, block in blocks.items()
            for r, row in block.items() for c, v in row.items()
        ]
        assert len(entries) == len(dense) and set(entries) == dense
        assert all(block and all(block.values()) for block in blocks.values())
        assert all(type(v) is int for block in blocks.values()
                   for row in block.values() for v in row.values())


@pytest.mark.parametrize("kind", [SN, TL, BR])
def test_rho_at_n0_and_n1(kind):
    for n, key, lam in ((0, "", ()), (1, "1-2", (1,))):
        rep = adapted_rep(kind, n)
        assert rho(rep, key, lam) == [[Fraction(1)]]
        assert rep.rho_blocks(key) == {lam: {0: {0: Fraction(1)}}}
        assert character(rep, key) == 1
        with pytest.raises(ArgumentError):
            rho(rep, "1-3", lam)


def test_rho_reads_other_spellings_and_refuses_bad_keys(rep_cache):
    rep = rep_cache(TL, 4)
    d = all_diagrams(TL, 4)[3]
    spelled = ",".join(f"{b}-{a}" for a, b in reversed(d.pairs))
    for lam in rep.vertices():
        assert rho(rep, spelled, lam) == rho(rep, d, lam)
    assert rep.rho_blocks(spelled) == rep.rho_blocks(d.key())
    for bad in ("1-x", "1-3,2-4,5-7,6-8", "1-2"):
        with pytest.raises(ArgumentError):
            rep.rho_blocks(bad)


def test_rho_builds_a_spelled_key_once(monkeypatch):
    """A spelled key shares the cache of its canonical key: one build in all."""
    import chainfft.transform as T
    from chainfft.reps.core import adapted_rep

    rep = adapted_rep.__wrapped__(TL, 4, Q)
    d = next(d for d in all_diagrams(TL, 4) if route_table(TL, 4)[d.key()][0])
    spelled = ",".join(f"{b}-{a}" for a, b in reversed(d.pairs))
    calls = []
    original = T._apply_token

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(T, "_apply_token", counted)
    rho(rep, spelled, rep.vertices()[0])
    assert calls  # positive control: the first call runs the level recursion
    calls.clear()
    character(rep, spelled)
    rho(rep, d, rep.vertices()[-1])
    assert calls == []


def test_irrep_dims_match_path_counts(rep_cache):
    for kind, n in [(BR, 4), (TL, 6), (SN, 5)]:
        rep = rep_cache(kind, n)
        assert sum(rep.dim(lam) ** 2 for lam in rep.vertices()) == rep.algebra_dim()


# ---------------------------------------------------------------------------
# trace form


def test_trace_of_identity(rep_cache):
    for kind, n in [(BR, 3), (TL, 4)]:
        rep = rep_cache(kind, n)
        key = identity_diagram(kind, n).key()
        assert character(rep, key) == sum(
            rep.dim(lam) for lam in rep.vertices()
        )


def test_trace_central(rep_cache):
    rep = rep_cache(BR, 3)
    ds = all_diagrams(BR, 3)
    rng = random.Random(9)
    for _ in range(20):
        a, b = rng.choice(ds), rng.choice(ds)
        ab = diagram_mul(a, b)
        ba = diagram_mul(b, a)
        tau_ab = Q**ab.loops * character(rep, ab.diagram.key())
        tau_ba = Q**ba.loops * character(rep, ba.diagram.key())
        assert tau_ab == tau_ba


def _weighted_trace_form(rep):
    """tau_w(product) of `dual_table`, read from `diagram_mul`: n! [x = 1] on S_n,
    and q^loops times the character elsewhere."""
    if rep.kind is SN:
        one = identity_diagram(SN, rep.n).key()
        return lambda prod: math.factorial(rep.n) * (prod.diagram.key() == one)
    return lambda prod: Q**prod.loops * character(rep, prod.diagram.key())


@pytest.mark.parametrize("kind,n", [(BR, 2), (BR, 3), (TL, 4), (TL, 5), (SN, 3), (SN, 4)])
def test_gram_dual_delta_property(kind, n, rep_cache):
    """The program's dual table on S_n, and the reference Gram dual on TL and Brauer,
    are dual bases of their trace forms."""
    rep = rep_cache(kind, n)
    keys, duals, den = dual_table(rep)
    assert keys == sorted(route_table(kind, n))
    assert all(type(c) is int for dual in duals for c in dual.values())
    basis = {key: diagram_from_key(kind, n, key) for key in keys}
    tau = _weighted_trace_form(rep)
    for i, key_i in enumerate(keys):
        for j in range(len(keys)):
            val = Fraction(0)
            for key, c in duals[j].items():
                val += Fraction(c, den) * tau(diagram_mul(basis[key_i], basis[key]))
            assert val == (1 if i == j else 0)


def test_gram_capability_limit(rep_cache):
    rep = rep_cache(BR, 5)
    with pytest.raises(CapabilityError, match="n <= 4"):
        rep.trace_rows()


@pytest.mark.parametrize("kind", [TL, BR])
def test_gram_dual_is_refused_on_tl_and_brauer(kind):
    """TL and Brauer have no dual table: their rows of T^-1 come from T itself."""
    with pytest.raises(CapabilityError, match="trace_rows"):
        adapted_rep(kind, 3).gram_dual()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_sn_gram_dual_equals_gram_inverse(n):
    """The closed-form S_n table is the inverse of the Gram matrix of the weighted
    trace form tau_w(x) = n! [x = 1], built here from `diagram_mul`, exactly."""
    rep = adapted_rep.__wrapped__(SN, n, Q)
    basis = all_diagrams(SN, n)
    tau = _weighted_trace_form(rep)
    gram = [[Fraction(tau(diagram_mul(x, y))) for y in basis] for x in basis]
    ginv = invert(gram)
    den = math.lcm(*(x.denominator for row in ginv for x in row))
    keys = [d.key() for d in basis]
    duals = [{keys[k]: ginv[k][j].numerator * (den // ginv[k][j].denominator)
              for k in range(len(keys)) if ginv[k][j]}
             for j in range(len(keys))]
    assert keys == ([""] if n == 0 else sorted(route_table(SN, n)))
    assert rep.gram_dual() == (keys, duals, den)


def test_sn_gram_dual_builds_no_gram_matrix(monkeypatch):
    """On S_5 the dual table is the inverse permutation over 5!: no product diagram
    and no elimination."""
    import chainfft.diagrams
    import chainfft.reps.core as core

    rep = adapted_rep.__wrapped__(SN, 5, Q)
    calls = []

    def spy(name):
        return lambda *a, **k: calls.append(name)

    monkeypatch.setattr(chainfft.diagrams, "diagram_mul", spy("diagram_mul"))
    monkeypatch.setattr(core, "invert", spy("invert"))
    keys, duals, den = rep.gram_dual()
    assert calls == []
    assert (len(keys), sum(map(len, duals)), den) == (120, 120, 120)


def test_sn_dual_refused_beyond_6():
    with pytest.raises(CapabilityError, match="n <= 6"):
        adapted_rep.__wrapped__(SN, 7, Q).gram_dual()


@pytest.mark.parametrize("kind,n", [(SN, 4), (TL, 4), (BR, 3)])
def test_trace_rows_reproduce_the_traces_of_rho_blocks(kind, n, rep_cache):
    """One dot product per trace row gives the weighted trace of f-hat rho(b_j^v)
    over the row's own den: sum_k G_w^-1[k][j] times the weighted trace of
    f-hat rho(b_k), summed from `rho_blocks`; the table's den is the lcm of the
    rows' dens."""
    rep = rep_cache(kind, n)
    rng = random.Random(n)
    image = {lam: [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rep.dim(lam))]
                   for _ in range(rep.dim(lam))] for lam in rep.vertices()}
    weight = {lam: rep.dim(lam) if kind is SN else 1 for lam in rep.vertices()}
    flat = [x * weight[lam] for lam in rep.vertices() for col in zip(*image[lam]) for x in col]
    keys, rows, den = rep.trace_rows()
    _, duals, dual_den = dual_table(rep)
    assert keys == [d.key() for d in all_diagrams(kind, n)]
    blocks = {key: rep.rho_blocks(key) for key in keys}
    traces = {key: sum(weight[lam] * image[lam][c][r] * Fraction(v, rep.scale())
                       for lam, block in blocks[key].items()
                       for r, row in block.items() for c, v in row.items())
              for key in keys}
    for dual, (positions, values, row_den) in zip(duals, rows):
        trace = sum(Fraction(g, dual_den) * traces[k] for k, g in dual.items())
        assert Fraction(sum(map(operator.mul, map(flat.__getitem__, positions), values)),
                        row_den) == trace
        entries: dict = {}
        for k, g in dual.items():
            for lam, block in blocks[k].items():
                for r, row in block.items():
                    for c, v in row.items():
                        entries[lam, r, c] = entries.get((lam, r, c), 0) + g * v
        assert len(positions) == sum(1 for v in entries.values() if v)
        assert (dual_den * rep.scale()) % row_den == 0 and math.gcd(row_den, *values) == 1
    assert den == math.lcm(*(row_den for _, _, row_den in rows))


def test_sn_trace_rows_share_the_rho_rows():
    """On S_4 the row of T^-1 for g is rho(g^-1) over 4!: each trace row holds the
    very `rho_row` tuples of the inverse key, not a copy of them."""
    rep = adapted_rep.__wrapped__(SN, 4, Q)
    keys, rows, _ = rep.trace_rows()
    key_of = {sn_permutation(key, 4): key for key in keys}
    for key, (positions, values, den) in zip(keys, rows):
        inverse = [0] * 4
        for i, j in enumerate(sn_permutation(key, 4)):
            inverse[j] = i
        row = rep.rho_row(key_of[tuple(inverse)])
        assert positions is row[0] and values is row[1] and den == 24 * row[2]


@dataclass(frozen=True)
class SemisimplicityReport:
    kind: ChainKind
    n: int
    q: Fraction
    dim: int
    gram_rank: int
    transform_rank: int

    @property
    def ok(self) -> bool:
        return self.gram_rank == self.dim and self.transform_rank == self.dim


def verify_semisimple(rep: AdaptedRep) -> SemisimplicityReport:
    """Certify the specialization: Gram nondegeneracy and transform bijectivity."""
    basis, gram = gram_matrix(rep)
    g_rank = rank(gram)
    t_rank = rank(naive_transform_matrix(rep))
    return SemisimplicityReport(rep.kind, rep.n, rep.q, len(basis), g_rank, t_rank)


@pytest.mark.parametrize("kind,n", [(BR, 3), (TL, 4), (SN, 3)])
def test_verify_semisimple(kind, n, rep_cache):
    report = verify_semisimple(rep_cache(kind, n))
    assert report.ok


@pytest.mark.parametrize("n,q", [(3, 0), (4, 1)])
def test_brauer_singular_q_refused(n, q):
    with pytest.raises(ParameterError, match="singular"):
        adapted_rep(BR, n, Fraction(q))


def rui_z(n):
    """Z(n): the integer q != 0 at which B_n(q) is not semisimple (Rui 2005)."""
    return {i for i in range(4 - 2 * n, n - 1) if not (i % 2 and 4 - 2 * n < i <= 3 - n)} - {0}


def test_brauer_semisimple_examples():
    for n, q in [(3, 1), (3, -2), (4, 2), (2, 0), (4, 0), (6, 0)]:
        assert not brauer_semisimple(n, Fraction(q))
    for n, q in [(3, 2), (3, -1), (4, -3), (2, 1), (3, 0), (5, 0), (1, 0), (4, Fraction(1, 2))]:
        assert brauer_semisimple(n, Fraction(q))
    assert rui_z(3) == {-2, 1} and rui_z(4) == {-4, -2, 1, 2}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_brauer_semisimple_grid(n):
    """Refused exactly on Z(n) (and q = 0 for n = 2, 4); every accepted q
    either passes verify_semisimple or has a singular adapted basis."""
    for q in map(Fraction, range(-6, 7)):
        if q in rui_z(n) or (q == 0 and n in (2, 4)):
            with pytest.raises(ParameterError, match="Rui"):
                adapted_rep(BR, n, q)
            continue
        try:
            rep = adapted_rep(BR, n, q)
        except ParameterError as exc:
            assert "adapted basis" in str(exc) and "singular" in str(exc), (n, q)
            continue
        assert verify_semisimple(rep).ok, (n, q)


def _cell_product_ok(n, lam, x, y, mx, my):
    prod = diagram_mul(x, y)
    mxy = _cell_matrix_of_diagram(n, lam, prod.diagram, Q)
    return mat_mul(mx, my) == [[Q**prod.loops * v for v in row] for row in mxy]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cell_module_homomorphism_generators(n):
    B = cached_bratteli(BR, n)
    tokens = [(s, i) for i in range(1, n) for s in ("r", "e")]
    for lam in B.vertices(n):
        for tx in tokens:
            for ty in tokens:
                x, y = generator(BR, tx, n), generator(BR, ty, n)
                mx, my = cell_matrix(n, lam, tx, Q), cell_matrix(n, lam, ty, Q)
                assert _cell_product_ok(n, lam, x, y, mx, my), (lam, tx, ty)


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), *[st.sampled_from(all_diagrams(BR, n))] * 2)
))
def test_cell_module_homomorphism_property(case):
    n, x, y = case
    for lam in cached_bratteli(BR, n).vertices(n):
        mx = _cell_matrix_of_diagram(n, lam, x, Q)
        my = _cell_matrix_of_diagram(n, lam, y, Q)
        assert _cell_product_ok(n, lam, x, y, mx, my), lam


def test_degenerate_q_flagged():
    rep = adapted_rep(TL, 2, Fraction(1, 2))
    report = verify_semisimple(rep)
    # q = 1/2 keeps U_l nonzero; instead force the known degenerate q = 0 path
    assert report.ok
    with pytest.raises(ParameterError):
        local_blocks(TL, 2, Fraction(0))


def test_chebyshev_values():
    assert chebyshev_u(0, Q) == 1
    assert chebyshev_u(1, Q) == Q
    assert chebyshev_u(2, Q) == Q * Q - 1


def test_rho_tables_pinned(rep_cache):
    """rho_blocks of every basis key at TL 1..7, S_n 1..5 and Brauer 1..4.

    Relations, characters and op counts all survive a diagonal rescaling of the
    basis, so only a digest holds the tables.  It was taken from the recursion
    that applied each route's tokens itself, before it ran the SOV level routine,
    over the column-major tables of that time: each row-major block is transposed.
    """
    h = hashlib.sha256()
    for kind, n_max in ((TL, 7), (SN, 5), (BR, 4)):
        for n in range(1, n_max + 1):
            rep = rep_cache(kind, n)
            for key in route_table(kind, n):
                blocks = []
                for lam, block in rep.rho_blocks(key).items():
                    cols: dict = {}
                    for r, row in block.items():
                        for c, v in row.items():
                            cols.setdefault(c, {})[r] = v
                    cols = sorted((c, sorted(col.items())) for c, col in cols.items())
                    blocks.append((lam, cols))
                blocks.sort()
                h.update(json.dumps([kind.value, n, key, blocks]).encode())
    assert h.hexdigest() == "e104faca538411cac3d7b812bbd6dc5acee39aa1c8b5679701d289523ac46cd5"


BRAUER_BLOCK_DIGESTS = {
    (2, "10/3"): "3294508c3d7759535bc744fac1254eb2d0a67a442023481e60514cd19cee601a",
    (3, "10/3"): "be3b2667a323dcd4bc4f551ecaa95244f90fc528421e61ec7ec5119b391c5901",
    (4, "10/3"): "f1c9c99ae68690f1891f20ea37f294b36cf86b57a931a9c24a2d18d2a9cfa417",
    (5, "10/3"): "b5de3a6bd6232b33f57469723cf4ef0c73d1514aac6d5e47aace93885d242af4",
    (2, "-7/5"): "ba8a0c75c6c6db0a89a48e8db40addc7278bd4395da41e3342fb0eac73e7cc78",
    (3, "-7/5"): "21c90f4867d2ec64caf9f181e469640889e2e00335e08ae33fccf6434564568f",
    (4, "-7/5"): "1832a0f1ebc04b5fe60144e18effbf85f0cf40e6aebce60a2844fd84e167400d",
    (2, "3"): "fd533424248afdb2b5e2d1fdb784e76c30360980add4f0352b0b1fb5d56ee214",
    (3, "3"): "242f42a376986fdb86d8b8e380daf53c9f16a53ed86c459077c29e37272aec43",
    (4, "3"): "0424ae978d1c8d0e35cbf86b24c36b3f3c82f71476bc3c02099947087ee84dc4",
}


@pytest.mark.parametrize(
    "n,q",
    [pytest.param(n, q, marks=pytest.mark.slow) if n == 5 else (n, q)  # the Brauer 5 build
     for n, q in sorted(BRAUER_BLOCK_DIGESTS)],
)
def test_brauer_local_blocks_pinned(n, q, rep_cache):
    """The Brauer local-block tables entry for entry, not up to a diagonal
    rescaling of the basis (which relations, characters and op counts miss)."""
    table = rep_cache(BR, n, Fraction(q)).blocks  # the table local_blocks builds
    pairs = sorted((repr(k), [[str(x) for x in row] for row in b]) for k, b in table.items())
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == BRAUER_BLOCK_DIGESTS[(n, q)]


def test_local_block_sizes_match_middles():
    from chainfft.reps.seminormal import middles

    for kind, n in [(BR, 4), (TL, 5), (SN, 4)]:
        B = cached_bratteli(kind, n)
        for ((_, level), mu, nu), matrix in local_blocks(kind, n, Q).items():
            mids = middles(B, level, mu, nu)
            assert len(matrix) == len(mids)
            assert all(len(row) == len(mids) for row in matrix)


# ---------------------------------------------------------------------------
# oracle


@pytest.mark.parametrize("kind,n", [(BR, 2), (BR, 3), (TL, 3), (TL, 4), (SN, 3)])
def test_oracle_matches_adapted(kind, n, rep_cache):
    orc = oracle_irreps(kind, n, Q)
    rep = rep_cache(kind, n)
    B = cached_bratteli(kind, n)
    assert orc.dims() == sorted(B.dims[n])
    assert sum(d * d for d in orc.dims()) == rep.algebra_dim()
    keys = [d.key() for d in all_diagrams(kind, n)]
    adapted_chars = {
        lam: tuple(
            sum(rho(rep, k, lam)[i][i] for i in range(rep.dim(lam))) for k in keys
        )
        for lam in rep.vertices()
    }
    for oirr in orc.irreps:
        char = tuple(
            sum(oracle_matrix(oirr, kind, n, k)[i][i] for i in range(oirr.dim))
            for k in keys
        )
        hits = [lam for lam, ac in adapted_chars.items() if ac == char]
        assert len(hits) == 1 and rep.dim(hits[0]) == oirr.dim


def test_oracle_adapted_basis_block_structure():
    # level-1 tokens act diagonally in any basis adapted to the full chain
    orc = oracle_irreps(BR, 3, Q)
    for oirr in orc.irreps:
        for tok in (("r", 1), ("e", 1)):
            m = oirr.matrices[tok]
            assert all(
                m[r][c] == 0 for r in range(oirr.dim) for c in range(oirr.dim) if r != c
            )


def test_oracle_relations():
    orc = oracle_irreps(BR, 3, Q)
    for name, lhs, rhs, extra in relation_instances(BR, 3):
        for oirr in orc.irreps:
            left = identity(oirr.dim)
            for t in lhs:
                left = mat_mul(left, oirr.matrices[t])
            right = identity(oirr.dim)
            for t in rhs:
                right = mat_mul(right, oirr.matrices[t])
            assert left == [[Q**extra * x for x in row] for row in right]


def _poly_with_roots(roots):
    poly = [Fraction(1)]
    for r in roots:
        poly = [a - r * b for a, b in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
    return poly


def test_rational_roots_exact():
    # a minimal polynomial met at TL n=6: large roots, denominators up to 3^8
    roots = [
        Fraction(4),
        Fraction(214496476, 2187),
        Fraction(402733604, 6561),
        Fraction(200139976, 6561),
    ]
    assert sorted(_rational_roots(_poly_with_roots(roots))) == sorted(roots)
    assert sorted(_rational_roots(_poly_with_roots([Fraction(-7, 3), 0, 5]))) == [
        Fraction(-7, 3), 0, 5
    ]
    assert _rational_roots([Fraction(-2), Fraction(0), Fraction(1)]) is None  # x^2 - 2
    assert _rational_roots([Fraction(1), Fraction(0), Fraction(1)]) is None  # x^2 + 1
    assert _rational_roots(_poly_with_roots([Fraction(1), Fraction(1)])) is None


def test_oracle_capability_limit():
    with pytest.raises(CapabilityError):
        oracle_irreps(BR, 5, Q)


@pytest.mark.slow
def test_oracle_brauer4():
    orc = oracle_irreps(BR, 4, Q)
    assert orc.dims() == sorted(cached_bratteli(BR, 4).dims[4])


@pytest.mark.slow
def test_matrix_relations_brauer5(rep_cache):
    assert matrix_relations_ok(rep_cache(BR, 5))


FRACTIONS = st.fractions(-3, 3, max_denominator=4)


def reference_rref(m):
    """Textbook Gauss-Jordan over Fraction: an independent check on `rref`."""
    m = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


@st.composite
def low_rank_systems(draw):
    """(m, cols, b): m is a product of random factors, so rank-deficient m are common."""
    rows, cols, inner = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    a = draw(st.lists(st.lists(FRACTIONS, min_size=inner, max_size=inner),
                      min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(FRACTIONS, min_size=cols, max_size=cols),
                      min_size=inner, max_size=inner))
    m = [[sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
         for row in a]
    return m, cols, draw(st.lists(FRACTIONS, min_size=rows, max_size=rows))


@settings(max_examples=100)
@given(low_rank_systems())
@example(([], 0, []))
@example(([], 3, []))
@example(([[], []], 0, [Fraction(1), Fraction(0)]))
@example(([[Fraction(0)] * 3] * 2, 3, [Fraction(0), Fraction(1)]))
def test_rank_matches_rref(system):
    """`rref`, `rank`, `nullspace`, `invert` and `solve` against the reference."""
    m, cols, b = system
    red, pivots = reference_rref(m)
    assert rref(m) == (red, pivots)
    assert rank(m) == len(pivots)
    kernel = nullspace(m, cols)
    assert len(kernel) == cols - len(pivots)
    assert all(sum(x * y for x, y in zip(row, v)) == 0 for v in kernel for row in m)
    k = min(len(m), cols)
    square = [row[:k] for row in m[:k]]
    if len(reference_rref(square)[1]) == k:
        assert mat_mul(invert(square), square) == identity(k)
    else:
        with pytest.raises(ValueError):
            invert(square)
    red, pivots = reference_rref([row + [c] for row, c in zip(m, b)])
    if cols in pivots:
        assert solve(m, b, cols) is None
    else:
        expected = [Fraction(0)] * cols
        for r, pc in enumerate(pivots):
            expected[pc] = red[r][cols]
        assert solve(m, b, cols) == expected

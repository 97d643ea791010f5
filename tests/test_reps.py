import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainfft.combinat import ChainKind, cached_bratteli
from chainfft.diagrams import (
    GeneratorWord,
    all_diagrams,
    diagram_mul,
    evaluate,
    generator,
    identity_diagram,
    relation_instances,
    route_table,
    word_of,
)
from chainfft.errors import ArgumentError, CapabilityError, ParameterError
from chainfft.ratlinalg import identity, invert, mat_mul, nullspace, rank, rref, solve
from chainfft.reps import (
    DEFAULT_Q,
    adapted_rep,
    chebyshev_u,
    local_blocks,
    oracle_irreps,
    oracle_matrix,
    tl_block_table,
    verify_semisimple,
)
from chainfft.reps.cells import _cell_matrix_of_diagram, brauer_semisimple, cell_matrix

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
        left = mat_mul(rep.rho(a, lam), rep.rho(b, lam))
        right = [[Q**prod.loops * x for x in row] for row in rep.rho(prod.diagram, lam)]
        if left != right:
            return False
    return True


def test_rep_of_diagram_multiplicative_brauer3_exhaustive(rep_cache):
    rep = rep_cache(BR, 3)
    ds = all_diagrams(BR, 3)
    for a in ds:
        for b in ds:
            assert rho_multiplies(rep, a, b), (a.key(), b.key())


@settings(max_examples=200, deadline=None)
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
        if not bb.has_vertical_last_strand():
            continue
        p1 = diagram_mul(d_one, bb)
        p2 = diagram_mul(d_two, bb)
        if p1.diagram != p2.diagram or p1.loops or p2.loops:
            continue
        for lam in rep.vertices():
            m1 = mat_mul(rep.rho(d_one, lam), rep.rho(bb, lam))
            m2 = mat_mul(rep.rho(d_two, lam), rep.rho(bb, lam))
            assert m1 == m2 == rep.rho(p1.diagram, lam)
        return
    pytest.fail("no common factorization found")


def test_identity_diagram_maps_to_identity(rep_cache):
    for kind, n in [(BR, 3), (TL, 4), (SN, 4)]:
        rep = rep_cache(kind, n)
        for lam in rep.vertices():
            assert rep.rho(identity_diagram(kind, n), lam) == identity(rep.dim(lam))


@pytest.mark.parametrize("kind,n", [(TL, 6), (SN, 4), (BR, 3), (BR, 4)])
def test_rho_is_the_product_of_its_word(kind, n, rep_cache):
    """The level recursion gives the product of the generator matrices of word_of."""
    rep = rep_cache(kind, n)
    for d in all_diagrams(kind, n):
        for lam in rep.vertices():
            want = identity(rep.dim(lam))
            for token in word_of(d).tokens:
                want = mat_mul(want, rep.token_matrix(lam, token))
            assert rep.rho(d, lam) == want, (d.key(), lam)


@pytest.mark.parametrize("kind,n", [(TL, 6), (SN, 4), (BR, 4)])
def test_rho_entries_are_the_nonzero_entries_of_rho(kind, n, rep_cache):
    """rho_blocks holds exactly the nonzero entries of rho, with no empty block or column."""
    rep = rep_cache(kind, n)
    for d in all_diagrams(kind, n):
        dense = {
            (lam, r, c, v)
            for lam in rep.vertices()
            for r, row in enumerate(rep.rho(d, lam))
            for c, v in enumerate(row)
            if v
        }
        blocks = rep.rho_blocks(d.key())
        entries = [
            (lam, r, c, v) for lam, block in blocks.items()
            for c, col in block.items() for r, v in col.items()
        ]
        assert len(entries) == len(dense) and set(entries) == dense
        assert all(block and all(block.values()) for block in blocks.values())


@pytest.mark.parametrize("kind", [SN, TL, BR])
def test_rho_at_n0_and_n1(kind):
    for n, key, lam in ((0, "", ()), (1, "1-2", (1,))):
        rep = adapted_rep(kind, n)
        assert rep.rho(key, lam) == [[Fraction(1)]]
        assert rep.rho_blocks(key) == {lam: {0: {0: Fraction(1)}}}
        assert rep.character(key) == 1
        with pytest.raises(ArgumentError):
            rep.rho("1-3", lam)


def test_rho_reads_other_spellings_and_refuses_bad_keys(rep_cache):
    rep = rep_cache(TL, 4)
    d = all_diagrams(TL, 4)[3]
    spelled = ",".join(f"{b}-{a}" for a, b in reversed(d.pairs))
    for lam in rep.vertices():
        assert rep.rho(spelled, lam) == rep.rho(d, lam)
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
    rep.rho(spelled, rep.vertices()[0])
    assert calls  # positive control: the first call runs the level recursion
    calls.clear()
    rep.character(spelled)
    rep.rho(d, rep.vertices()[-1])
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
        assert rep.trace_tau({key: Fraction(1)}) == sum(
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
        tau_ab = Q**ab.loops * rep.character(ab.diagram.key())
        tau_ba = Q**ba.loops * rep.character(ba.diagram.key())
        assert tau_ab == tau_ba


@pytest.mark.parametrize("kind,n", [(BR, 2), (BR, 3), (TL, 4), (TL, 5)])
def test_gram_dual_delta_property(kind, n, rep_cache):
    rep = rep_cache(kind, n)
    basis, ginv, duals = rep.gram_dual()
    size = len(basis)
    for i in range(size):
        for j in range(size):
            val = Fraction(0)
            for key, c in duals[j].items():
                prod = diagram_mul(basis[i], _by_key(basis, key))
                val += c * Q**prod.loops * rep.character(prod.diagram.key())
            assert val == (1 if i == j else 0)


def _by_key(basis, key):
    for d in basis:
        if d.key() == key:
            return d
    raise KeyError(key)


def test_gram_capability_limit(rep_cache):
    rep = rep_cache(BR, 5)
    with pytest.raises(CapabilityError):
        rep.gram_dual()


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


@settings(max_examples=200, deadline=None)
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
            sum(rep.rho(k, lam)[i][i] for i in range(rep.dim(lam))) for k in keys
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
    from chainfft.reps.oracle import _rational_roots

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


@settings(max_examples=100, deadline=None)
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

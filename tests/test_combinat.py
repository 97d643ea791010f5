from fractions import Fraction
from itertools import permutations

import pytest

from chainfft.combinat import (
    ChainKind,
    algebra_dim,
    bratteli_dot,
    bratteli_json,
    branch,
    build_bratteli,
    cached_bratteli,
    catalan,
    double_factorial,
    hom_count_brute,
    hom_count_closed,
    mult_M,
    paper_bounds,
    partition_key,
    stage_quiver_shape,
    BratteliDiagram,
    Partition,
    QuiverShape,
)
from chainfft.errors import ArgumentError, InvalidVertexError

BR = ChainKind.BRAUER
TL = ChainKind.TEMPERLEY_LIEB
SN = ChainKind.SYMMETRIC_GROUP
BMW = ChainKind.BMW_STRUCTURAL


# ---------------------------------------------------------------------------
# branching


def test_branch_brauer_level2():
    assert set(branch(BR, (1,), 2)) == {(), (2,), (1, 1)}


def test_branch_tl_level4():
    assert set(branch(TL, (2, 1), 4)) == {(3, 1), (2, 2)}


@pytest.mark.parametrize("kind", [BR, TL, SN, BMW])
def test_branch_first_step(kind):
    assert branch(kind, (), 1) == [(1,)]


def test_branch_rejects_bad_vertex():
    with pytest.raises(InvalidVertexError):
        branch(BR, (2,), 2)  # (2,) is not a level-1 vertex
    with pytest.raises(InvalidVertexError):
        branch(TL, (1, 1, 1), 4)


def test_branch_canonical_order():
    assert branch(BR, (1,), 2) == [(2,), (1, 1), ()]


# ---------------------------------------------------------------------------
# diagram construction


def test_brauer_depth3_dimensions():
    B = build_bratteli(BR, 3)
    assert sum(len(v) for v in B.levels) == 9
    level3 = dict(zip(B.levels[3], B.dims[3]))
    assert level3 == {(1,): 3, (2, 1): 2, (3,): 1, (1, 1, 1): 1}


def test_tl_depth4_dimensions():
    B = build_bratteli(TL, 4)
    level4 = dict(zip(B.levels[4], B.dims[4]))
    assert level4 == {(4,): 1, (3, 1): 3, (2, 2): 2}
    assert sum(d * d for d in B.dims[4]) == 14 == catalan(4)


def test_depth0():
    for kind in (BR, TL, SN, BMW):
        B = build_bratteli(kind, 0)
        assert B.levels == (((),),) and B.dims == ((1,),)


@pytest.mark.parametrize(
    "kind,limit",
    [(BR, 7), (BMW, 7), (TL, 12), (SN, 8)],
)
def test_dimension_identity(kind, limit):
    B = build_bratteli(kind, limit)
    for i in range(limit + 1):
        assert sum(d * d for d in B.dims[i]) == algebra_dim(kind, i)


def test_multiplicity_free():
    for kind in (BR, TL, SN):
        B = build_bratteli(kind, 6)
        for i in range(1, 7):
            assert len(set(B.edges[i])) == len(B.edges[i])


def test_bmw_identical_to_brauer():
    for n in range(8):
        a, b = build_bratteli(BR, n), build_bratteli(BMW, n)
        assert (a.levels, a.edges, a.dims) == (b.levels, b.edges, b.dims)


# ---------------------------------------------------------------------------
# path counts and jumps


def test_mult_M_examples():
    B = cached_bratteli(BR, 3)
    assert mult_M(B, (2, 1), 3, (1,), 1) == 2
    assert mult_M(B, (2, 1), 3, (2, 1), 3) == 1
    assert mult_M(B, (3,), 3, (1, 1), 2) == 0


def test_mult_M_rejects_bad_vertex():
    B = cached_bratteli(BR, 3)
    with pytest.raises(InvalidVertexError):
        mult_M(B, (5,), 3, (1,), 1)


def jump(lam: Partition) -> int:
    """Number of removable corner boxes (distinct part sizes)."""
    return len(set(lam))


def test_jump():
    assert jump((2, 1)) == 2
    assert jump(()) == 0
    assert jump((2, 2)) == 1
    assert jump((5, 3, 3, 1)) == 3


@pytest.mark.parametrize("kind", [BR, TL])
def test_jump_square_bound(kind):
    B = build_bratteli(kind, 12)
    for i in range(13):
        for v in B.vertices(i):
            assert jump(v) ** 2 <= 2 * i


# ---------------------------------------------------------------------------
# quiver morphism counting


def test_hom_brute_trivial_shapes():
    B = cached_bratteli(BR, 3)
    single = QuiverShape.make({"v": 0}, [])
    assert hom_count_brute(B, single, 3) == 1
    arrow = QuiverShape.make({"a": 0, "b": 1}, [("a", "b", 0)])
    for kind in (BR, TL, SN):
        assert hom_count_brute(cached_bratteli(kind, 3), arrow, 3) == 1


@pytest.mark.parametrize(
    "kind,nmax", [(BR, 5), (TL, 8)]
)
def test_hom_closed_equals_brute(kind, nmax):
    for n in range(2, nmax + 1):
        B = cached_bratteli(kind, n)
        for i in range(2, n + 1):
            shape = stage_quiver_shape(i, n)
            assert hom_count_closed(B, i, n) == hom_count_brute(B, shape, n)


def test_hom_closed_range_check():
    B = cached_bratteli(BR, 3)
    with pytest.raises(ArgumentError):
        hom_count_closed(B, 1, 3)
    with pytest.raises(ArgumentError):
        hom_count_closed(B, 4, 3)


@pytest.mark.parametrize("kind,nmax", [(BR, 6), (TL, 9)])
def test_corollary_stage_bounds(kind, nmax):
    for n in range(2, nmax + 1):
        B = cached_bratteli(kind, n)
        report = paper_bounds(kind, n)
        for i in range(2, n + 1):
            assert Fraction(hom_count_closed(B, i, n)) <= report.stage_bound(i)


def test_jump_weighted_level_bounds():
    """Top-stage morphism counts against the jump-weighted level sums."""
    B = cached_bratteli(BR, 7)
    dims = [sum(d * d for d in B.dims[k]) for k in range(8)]
    for i in range(2, 8):
        lhs = hom_count_closed(B, i, i)
        rhs = Fraction(2 * dims[i - 1] ** 2, dims[i - 2]) + sum(
            (4 * jump(v) ** 2 + 2 * jump(v) + 1) * B.dim(i - 1, v) ** 2
            for v in B.vertices(i - 1)
        )
        assert Fraction(lhs) <= rhs
    Bt = cached_bratteli(TL, 9)
    dims = [sum(d * d for d in Bt.dims[k]) for k in range(10)]
    for i in range(2, 10):
        lhs = hom_count_closed(Bt, i, i)
        rhs = Fraction(dims[i - 1] ** 2, dims[i - 2]) + sum(
            jump(v) ** 2 * Bt.dim(i - 1, v) ** 2 for v in Bt.vertices(i - 1)
        )
        assert Fraction(lhs) <= rhs


# ---------------------------------------------------------------------------
# symmetric difference


def canonical_key(quiver: QuiverShape):
    """Isomorphism-invariant canonical form (brute force over grade classes)."""
    grades = quiver.grade_map()
    active = sorted({v for a in quiver.arrows for v in (a[0], a[1])})
    by_grade: dict[int, list[str]] = {}
    for v in active:
        by_grade.setdefault(grades[v], []).append(v)
    best = None
    orders = [list(permutations(vs)) for g, vs in sorted(by_grade.items())]

    def assemble(choice):
        label = {}
        for group in choice:
            for k, v in enumerate(group):
                label[v] = (grades[v], k)
        edges = sorted(
            (label[s], label[t]) for (s, t, _) in quiver.arrows
        )
        return tuple(edges)

    def rec(i, chosen):
        nonlocal best
        if i == len(orders):
            key = assemble(chosen)
            if best is None or key < best:
                best = key
            return
        for perm in orders[i]:
            rec(i + 1, chosen + [perm])

    rec(0, [])
    return best if best is not None else ()


def symdiff(q1: QuiverShape, q2: QuiverShape) -> QuiverShape:
    """Induced quiver on the symmetric difference of the arrow sets."""
    g1, g2 = q1.grade_map(), q2.grade_map()
    for v in set(g1) & set(g2):
        if g1[v] != g2[v]:
            raise ArgumentError(f"incompatible gradings at vertex {v!r}")
    arrows = q1.arrows ^ q2.arrows
    grades = {**g1, **g2}
    keep = {v for a in arrows for v in (a[0], a[1])}
    return QuiverShape.make({v: g for v, g in grades.items() if v in keep}, arrows)


def _shape(n_edges):
    return QuiverShape.make(
        {"a": 0, "b": 1, "c": 2},
        [("a", "b", 0), ("b", "c", 0)][:n_edges],
    )


def test_symdiff_self_and_empty():
    q = _shape(2)
    empty = QuiverShape.make({}, [])
    assert not symdiff(q, q).arrows
    assert canonical_key(symdiff(q, empty)) == canonical_key(q)


def test_symdiff_incompatible_grading():
    a = QuiverShape.make({"v": 0, "w": 1}, [("v", "w", 0)])
    b = QuiverShape.make({"v": 1, "w": 2}, [("v", "w", 0)])
    with pytest.raises(ArgumentError):
        symdiff(a, b)


def quiver_union(q1: QuiverShape, q2: QuiverShape) -> QuiverShape:
    g1, g2 = q1.grade_map(), q2.grade_map()
    for v in set(g1) & set(g2):
        if g1[v] != g2[v]:
            raise ArgumentError(f"incompatible gradings at vertex {v!r}")
    return QuiverShape.make({**g1, **g2}, q1.arrows | q2.arrows)


def glued_component_quivers(n: int) -> list[QuiverShape]:
    """Component subquivers of the per-level factorization inside the glued quiver.

    Vertices: "root", "b<k>" (bottom chain, grade k) and "t<k>" (top chain,
    grade k).  Entry j < n is the factor-family component at index j (double
    two-step leg from grade j-1 to j+1); entry n-1 is the subproblem
    component (double leg from grade 0 to n-1, one side the long arrow).
    Returned in sigma order: subproblem first, then indices 1..n-1.
    """
    if n < 2:
        raise ArgumentError("glued components need n >= 2")

    def bot(k: int) -> str:
        return "root" if k == 0 else f"b{k}"

    grades = {"root": 0}
    for k in range(1, n):
        grades[f"b{k}"] = k
    for k in range(1, n + 1):
        grades[f"t{k}"] = k

    def chain_bot(a: int, b: int):
        return [(bot(k), bot(k + 1), 0) for k in range(a, b)]

    def chain_top(a: int, b: int):
        return [(f"t{k}", f"t{k+1}", 0) for k in range(a, b)]

    components = []
    sub_arrows = set(chain_bot(0, n - 1))
    sub_arrows.add(("root", bot(n - 1), 1))  # the long arrow
    sub_arrows.add((bot(n - 1), f"t{n}", 0))
    used = {v for a in sub_arrows for v in (a[0], a[1])}
    components.append(
        QuiverShape.make({v: grades[v] for v in used}, sub_arrows)
    )
    for j in range(1, n):
        arrows = set(chain_bot(0, j - 1))
        arrows.add((bot(j - 1), bot(j), 0))
        arrows.add((bot(j - 1), f"t{j}", 0))
        if j + 1 <= n:
            arrows.add((bot(j), f"t{j+1}", 0))
            arrows.add((f"t{j}", f"t{j+1}", 0))
        arrows.update(chain_top(j + 1, n))
        used = {v for a in arrows for v in (a[0], a[1])}
        components.append(QuiverShape.make({v: grades[v] for v in used}, arrows))
    return components


def contract_unit_vertices(q: QuiverShape) -> QuiverShape:
    """Collapse pass-through vertices (one in, one out) into composite arrows."""
    arrows = set(q.arrows)
    grades = q.grade_map()
    changed = True
    while changed:
        changed = False
        incidence: dict[str, list] = {}
        for a in arrows:
            incidence.setdefault(a[0], []).append(a)
            incidence.setdefault(a[1], []).append(a)
        for v, inc in incidence.items():
            ins = [a for a in arrows if a[1] == v]
            outs = [a for a in arrows if a[0] == v]
            if len(ins) == 1 and len(outs) == 1:
                (s, _, tag1), (_, t, tag2) = ins[0], outs[0]
                if s == t:
                    continue
                arrows.discard(ins[0])
                arrows.discard(outs[0])
                tag = 0
                while (s, t, tag) in arrows:
                    tag += 1
                arrows.add((s, t, tag))
                changed = True
                break
    keep = {v for a in arrows for v in (a[0], a[1])}
    return QuiverShape.make({v: g for v, g in grades.items() if v in keep}, arrows)


def test_stage_quiver_from_glued_components():
    """The early symmetric differences of the factorization components produce
    the stage quiver, up to its root feed and the closing arrows at grade n.

    From stage 4 on, the literal edge-set differences under this gluing also
    cancel parts of the root-to-alpha feed chain (tails overlap upper legs),
    so only the stage shape itself is normative there; its morphism count is
    checked against the closed formula elsewhere.
    """
    i = 3
    for n in (4, 5, 6):
        comps = glued_component_quivers(n)
        acc = symdiff(comps[0], comps[1])
        stage = contract_unit_vertices(quiver_union(acc, comps[2]))
        grades = stage.grade_map()
        trimmed = [
            a
            for a in stage.arrows
            if grades[a[1]] < n and not (a[0] == "root" and grades[a[1]] == i - 2)
        ]
        keep = {v for a in trimmed for v in (a[0], a[1])}
        got = QuiverShape.make(
            {v: g for v, g in grades.items() if v in keep}, trimmed
        )
        assert canonical_key(got) == canonical_key(stage_quiver_shape(i, n))


# ---------------------------------------------------------------------------
# bounds


def test_paper_bounds_examples():
    assert paper_bounds(BR, 3).total == 555
    assert paper_bounds(TL, 4).total == 38 * 14 == 532
    assert paper_bounds(BR, 3).stage_bound(2) == 45


def test_paper_bounds_rejects_sn():
    with pytest.raises(ArgumentError):
        paper_bounds(SN, 3)


def test_double_factorial_catalan():
    assert [double_factorial(2 * n - 1) for n in range(5)] == [1, 1, 3, 15, 105]
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def general_bound(
    dims: list[int],
    m_max: list[int],
    irrep_counts: list[int],
    factor_sizes: list[int],
) -> Fraction:
    """Evaluate the general chain bound.

    dims has length n+1 (levels 0..n); m_max[i-2] is the max multiplicity
    M(A_{i-1}, A_{i-2}) for i in 2..n; irrep_counts has length n+1; and
    factor_sizes[j-2] is |B_j| for j in 2..n.  Returns
    dim(A_n) ΣΣ M² |Â_{i-2}| (dim A_i / dim A_{i-1}) (dim A_{k-1}/dim A_k) Π|B_j|.
    """
    n = len(dims) - 1
    if n < 0 or len(m_max) != max(n - 1, 0) or len(irrep_counts) != n + 1 or len(
        factor_sizes
    ) != max(n - 1, 0):
        raise ArgumentError("inconsistent input lengths for the general bound")
    total = Fraction(0)
    for k in range(1, n + 1):
        for i in range(2, k + 1):
            prod = 1
            for j in range(i, k + 1):
                prod *= factor_sizes[j - 2]
            total += (
                Fraction(m_max[i - 2]) ** 2
                * irrep_counts[i - 2]
                * Fraction(dims[i], dims[i - 1])
                * Fraction(dims[k - 1], dims[k])
                * prod
            )
    return dims[n] * total


def chain_inputs_for_general_bound(B: BratteliDiagram, factor_sizes: list[int]):
    """Derive (dims, m_max, irrep_counts) for general_bound from a diagram."""
    n = B.n
    dims = [sum(d * d for d in B.dims[i]) for i in range(n + 1)]
    m_max = [
        max(
            mult_M(B, a, i - 1, g, i - 2)
            for a in B.levels[i - 1]
            for g in B.levels[i - 2]
        )
        for i in range(2, n + 1)
    ]
    irrep_counts = [len(B.levels[i]) for i in range(n + 1)]
    return dims, m_max, irrep_counts, factor_sizes


def test_general_bound_unit_factors():
    dims = [1, 1, 3, 15]
    m_max = [1, 1]
    counts = [1, 1, 3, 4]
    ones = [1, 1]
    got = general_bound(dims, m_max, counts, ones)
    expect = Fraction(0)
    for k in range(1, 4):
        for i in range(2, k + 1):
            expect += (
                Fraction(m_max[i - 2]) ** 2
                * counts[i - 2]
                * Fraction(dims[i], dims[i - 1])
                * Fraction(dims[k - 1], dims[k])
            )
    assert got == 15 * expect


def test_general_bound_brauer_example():
    dims = [1, 1, 3, 15]
    got = general_bound(dims, [1, 1], [1, 1, 3, 4], [3, 3])
    # direct transcription of the double sum
    expect = Fraction(0)
    for k in range(1, 4):
        for i in range(2, k + 1):
            prod = 3 ** (k - i + 1)
            expect += (
                1
                * [1, 1, 3, 4][i - 2]
                * Fraction(dims[i], dims[i - 1])
                * Fraction(dims[k - 1], dims[k])
                * prod
            )
    assert got == 15 * expect


def test_general_bound_monotone_in_factor_sizes():
    B = cached_bratteli(BR, 3)
    dims, m_max, counts, fs = chain_inputs_for_general_bound(B, [3, 3])
    low = general_bound(dims, m_max, counts, [3, 3])
    high = general_bound(dims, m_max, counts, [3, 4])
    assert high >= low


def test_general_bound_length_mismatch():
    with pytest.raises(ArgumentError):
        general_bound([1, 1, 3], [1, 1], [1, 1, 3], [3])


# ---------------------------------------------------------------------------
# emission


def test_dot_counts():
    B = cached_bratteli(BR, 3)
    dot = bratteli_dot(B)
    assert dot.count("->") == 11
    nodes = [l for l in dot.splitlines() if l.endswith('";') and "->" not in l]
    assert len(nodes) == 9


def test_json_shape():
    B = cached_bratteli(TL, 3)
    payload = bratteli_json(B)
    assert payload["kind"] == "tl" and payload["n"] == 3
    assert [v["dim"] for v in payload["levels"][3]["vertices"]] == [1, 2]
    assert partition_key((3,)) < partition_key((2, 1))

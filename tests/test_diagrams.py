import json
import random
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfft.combinat import ChainKind, algebra_dim, catalan
from chainfft.diagrams import (
    Diagram,
    GeneratorWord,
    all_diagrams,
    canonical_pairs,
    check_relations,
    diagram_from_key,
    diagram_mul,
    evaluate,
    factor_set,
    generator,
    grow,
    identity_diagram,
    is_planar,
    pairs_key,
    route_table,
)
import chainfft.diagrams as D
from chainfft.errors import ArgumentError
from reference import factor_map, word_of

BR = ChainKind.BRAUER
TL = ChainKind.TEMPERLEY_LIEB
SN = ChainKind.SYMMETRIC_GROUP


def perm_diagram(mapping, n, kind=SN):
    return Diagram(kind, n, canonical_pairs((p, n + q) for p, q in mapping.items()))


def test_permutation_product_example():
    x = perm_diagram({1: 3, 3: 2, 2: 4, 4: 1}, 4)
    y = perm_diagram({1: 4, 4: 3, 3: 1, 2: 2}, 4)
    out = diagram_mul(x, y)
    assert out.loops == 0
    assert out.diagram == perm_diagram({1: 1, 2: 3, 3: 2, 4: 4}, 4)


def test_loop_counting():
    e1 = generator(BR, ("e", 1), 2)
    out = diagram_mul(e1, e1)
    assert out.diagram == e1 and out.loops == 1


def test_identity_neutral():
    for d in all_diagrams(BR, 3):
        out = diagram_mul(identity_diagram(BR, 3), d)
        assert out.diagram == d and out.loops == 0


def test_generator_shapes():
    assert generator(BR, ("r", 1), 2).pairs == ((1, 4), (2, 3))
    assert generator(BR, ("e", 1), 2).pairs == ((1, 2), (3, 4))
    assert generator(TL, ("e", 2), 3).pairs == ((1, 4), (2, 3), (5, 6))


def test_generator_validation():
    with pytest.raises(ArgumentError):
        generator(SN, ("e", 1), 3)
    with pytest.raises(ArgumentError):
        generator(TL, ("r", 1), 3)
    with pytest.raises(ArgumentError):
        generator(BR, ("r", 3), 3)


def test_planarity():
    assert is_planar(((1, 4), (2, 3), (5, 6)), 3)
    assert not is_planar(((1, 5), (2, 4), (3, 6)), 3)  # r-type crossing
    with pytest.raises(ArgumentError):
        Diagram(TL, 2, canonical_pairs([(1, 4), (2, 3)]))


@pytest.mark.parametrize("kind,pairs", [
    (BR, ((1, 2, 3), (4,))),
    (BR, ((1,), (2, 3, 4))),
    (BR, ((1, 2, 3, 4),)),
    (TL, ((1,), (2,), (3,), (4,))),
    (SN, ((1, 3, 2, 4),)),
    (BR, ((1, 4), [2, 3])),
    (BR, ((1, 4), 2, 3)),
])
def test_diagram_refuses_pairs_that_are_not_2_tuples(kind, pairs):
    """Each point appears once, but not in two-point pairs: refused when made, so
    no product ever reads them."""
    with pytest.raises(ArgumentError, match="2-tuples"):
        Diagram(kind, 2, pairs)


def crosses_pairwise(pairs, n):
    """The definition: two strands cross when their boundary intervals interleave."""
    spans = [sorted((p if p <= n else 3 * n + 1 - p) for p in pair) for pair in pairs]
    return any(
        a < c < b < d or c < a < d < b
        for i, (a, b) in enumerate(spans)
        for c, d in spans[i + 1 :]
    )


@settings(max_examples=300)
@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.permutations(range(1, 2 * n + 1)))
))
def test_is_planar_matches_pairwise_definition(case):
    n, points = case
    pairs = canonical_pairs(zip(points[::2], points[1::2]))
    assert is_planar(pairs, n) == (not crosses_pairwise(pairs, n))


@pytest.mark.parametrize(
    "kind,n", [(BR, 2), (BR, 3), (BR, 4), (BR, 5), (BR, 6), (TL, 6), (TL, 10), (SN, 5)]
)
def test_diagram_counts(kind, n):
    assert len(all_diagrams(kind, n)) == algebra_dim(kind, n)


@pytest.mark.parametrize("n", [2, 3])
def test_associativity_exhaustive(n):
    ds = all_diagrams(BR, n)
    for a in ds:
        for b in ds:
            ab = diagram_mul(a, b)
            for c in ds:
                bc = diagram_mul(b, c)
                left = diagram_mul(ab.diagram, c)
                right = diagram_mul(a, bc.diagram)
                assert left.diagram == right.diagram
                assert ab.loops + left.loops == bc.loops + right.loops


@pytest.mark.parametrize("n,kind", [(3, BR), (4, BR), (5, BR), (5, TL)])
def test_associativity_random(n, kind):
    rng = random.Random(n)
    ds = all_diagrams(kind, n)
    for _ in range(60 if n < 5 else 25):
        a, b, c = (rng.choice(ds) for _ in range(3))
        ab = diagram_mul(a, b)
        bc = diagram_mul(b, c)
        left = diagram_mul(ab.diagram, c)
        right = diagram_mul(a, bc.diagram)
        assert left.diagram == right.diagram
        assert ab.loops + left.loops == bc.loops + right.loops


def brauer_diagrams(n):
    """Random Brauer diagrams on 2n points: consecutive pairs of a shuffle."""
    return st.permutations(range(1, 2 * n + 1)).map(
        lambda p: Diagram(BR, n, canonical_pairs(zip(p[::2], p[1::2])))
    )


@settings(max_examples=200)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(*[brauer_diagrams(n)] * 3)))
def test_associativity_property(triple):
    a, b, c = triple
    ab = diagram_mul(a, b)
    bc = diagram_mul(b, c)
    left = diagram_mul(ab.diagram, c)
    right = diagram_mul(a, bc.diagram)
    assert left.diagram == right.diagram
    assert ab.loops + left.loops == bc.loops + right.loops


def test_tl_closure_under_product():
    ds = all_diagrams(TL, 4)
    rng = random.Random(0)
    for _ in range(80):
        a, b = rng.choice(ds), rng.choice(ds)
        assert diagram_mul(a, b).diagram.kind is TL


@pytest.mark.parametrize("kind,n", [(BR, 2), (BR, 3), (BR, 4), (BR, 5), (TL, 4), (TL, 8), (SN, 4)])
def test_relations(kind, n):
    report = check_relations(kind, n)
    assert report.ok, report.violations


def test_relation_examples():
    # r1 e2 e1 = r2 e1 and commuting far generators
    lhs = evaluate(GeneratorWord((("r", 1), ("e", 2), ("e", 1))), BR, 3)
    rhs = evaluate(GeneratorWord((("r", 2), ("e", 1))), BR, 3)
    assert lhs.diagram == rhs.diagram and lhs.loops == rhs.loops
    lhs = evaluate(GeneratorWord((("r", 1), ("r", 3))), BR, 4)
    rhs = evaluate(GeneratorWord((("r", 3), ("r", 1))), BR, 4)
    assert lhs.diagram == rhs.diagram
    lhs = evaluate(GeneratorWord((("e", 2), ("e", 1), ("e", 2))), TL, 3)
    rhs = evaluate(GeneratorWord((("e", 2),)), TL, 3)
    assert lhs.diagram == rhs.diagram and lhs.loops == rhs.loops


def test_factor_set_contents():
    n4 = [str(w) for w in factor_set(BR, 4)]
    assert n4 == [
        "id", "r1r2r3", "r2r3", "r3",
        "e1e2e3", "r1e2e3", "r1r2e3", "e2e3", "r2e3", "e3",
    ]
    assert [str(w) for w in factor_set(TL, 3)] == ["id", "e2", "e1e2"]
    assert [str(w) for w in factor_set(BR, 2)] == ["id", "r1", "e1"]
    assert [str(w) for w in factor_set(SN, 3)] == ["id", "r1r2", "r2"]


def check_factorization(d):
    """factor_map(d) = (y, b) with y in the factor set, b fixing the last
    strand, and evaluate(y) * b == d without closed loops."""
    y, b = factor_map(d)
    assert y in set(factor_set(d.kind, d.n))
    assert (b.n, 2 * b.n) in b.pairs
    ev = evaluate(y, d.kind, d.n)
    prod = diagram_mul(ev.diagram, b)
    assert ev.loops == 0 and prod.loops == 0 and prod.diagram == d


@pytest.mark.parametrize("kind,n", [(BR, 4), (BR, 5), (TL, 7), (TL, 8), (SN, 5)])
def test_factor_map_total_and_loop_free(kind, n):
    for d in all_diagrams(kind, n):
        check_factorization(d)


@settings(max_examples=200)
@given(st.integers(1, 7).flatmap(brauer_diagrams))
def test_factor_map_property(d):
    check_factorization(d)


@pytest.mark.parametrize("kind,n_max", [(TL, 8), (BR, 5), (SN, 5)])
def test_route_table_matches_factor_map(kind, n_max):
    """Every cached route is factor_map with the last strand dropped, in canonical
    key order, and its word times the grown sub-diagram gives the diagram back."""
    for n in range(1, n_max + 1):
        table = route_table(kind, n)
        basis = all_diagrams(kind, n)
        assert list(table) == [d.key() for d in basis]
        for d in basis:
            tokens, sub_key = table[d.key()]
            b = grow(diagram_from_key(kind, n - 1, sub_key), n)
            assert factor_map(d) == (GeneratorWord(tokens), b)
            ev = evaluate(GeneratorWord(tokens), kind, n)
            prod = diagram_mul(ev.diagram, b)
            assert ev.loops == 0 and prod.loops == 0 and prod.diagram == d


def test_route_tables_pinned():
    """Keys, order and routes of every table over TL 1..9, Brauer 1..5 and S_n 1..6.

    The digest was taken from the tables of the Diagram-level factorization
    (factor_map, then dropping the vertical last strand) that `_route` replaced.
    """
    h = sha256()
    for kind, n_max in ((TL, 9), (BR, 5), (SN, 6)):
        for m in range(1, n_max + 1):
            h.update(json.dumps([kind.value, m, list(route_table(kind, m).items())]).encode())
    assert h.hexdigest() == "8c6d7e8ff0e2c6b7b0b27f061f4e3b43212cbad24cc3a3a4af533dc7c652473a"


@pytest.mark.parametrize("n", range(1, 11))
def test_noncrossing_matchings_are_the_tl_basis(n):
    """The memoised enumeration gives Catalan(n) distinct noncrossing matchings of the
    2n boundary positions, and `_basis_pairs` gives them as planar canonical pairs,
    keyed and in key order."""
    matchings = D._noncrossing(0, 2 * n)
    assert len(set(matchings)) == len(matchings) == catalan(n)
    basis = D._basis_pairs(TL, n)
    keys = [key for key, _ in basis]
    assert len(set(keys)) == len(keys) == catalan(n) and keys == sorted(keys)
    for key, pairs in basis:
        assert pairs == canonical_pairs(pairs) and is_planar(pairs, n)
        assert pairs_key(pairs) == key


@pytest.mark.parametrize("kind,n", [(BR, 5), (SN, 5), (TL, 0), (SN, 0), (BR, 0)])
def test_basis_pairs_keyed_in_key_order(kind, n):
    basis = D._basis_pairs(kind, n)
    assert [key for key, _ in basis] == sorted(pairs_key(p) for _, p in basis)
    assert [d.pairs for d in all_diagrams(kind, n)] == [p for _, p in basis]
    assert len(basis) == algebra_dim(kind, n)


def test_factor_map_identity_case():
    d = grow(generator(BR, ("e", 1), 3), 4)
    y, b = factor_map(d)
    assert str(y) == "id" and b == d


def test_factor_map_fig8_choice():
    # top edges {1,3}, {2,4}: the fixed order picks the (1,3) word r1e2e3
    d = Diagram(BR, 4, canonical_pairs([(1, 3), (2, 4), (5, 6), (7, 8)]))
    y, b = factor_map(d)
    assert str(y) == "r1e2e3"
    # the same diagram also factors through the (2,4) word r2e3
    other = evaluate(GeneratorWord((("r", 2), ("e", 3))), BR, 4)
    found = False
    for bb in all_diagrams(BR, 4):
        if (bb.n, 2 * bb.n) not in bb.pairs:
            continue
        prod = diagram_mul(other.diagram, bb)
        if prod.diagram == d and prod.loops == 0:
            found = True
    assert found


def test_word_of():
    assert word_of(identity_diagram(BR, 3)).tokens == ()
    assert word_of(generator(BR, ("e", 1), 2)).tokens == (("e", 1),)
    for kind, n in [(BR, 4), (TL, 6)]:
        for d in all_diagrams(kind, n):
            ev = evaluate(word_of(d), kind, n)
            assert ev.diagram == d and ev.loops == 0


def test_key_roundtrip():
    for d in all_diagrams(TL, 4):
        assert diagram_from_key(TL, 4, d.key()) == d

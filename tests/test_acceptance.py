"""Acceptance gate: one test per criterion, exact tolerances, pass/fail lines.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 6's ratio-identity clause is a documented expected failure: the
identity holds only at the first and last stage of these chains.
"""

import time
from fractions import Fraction

import pytest

from chainfft.combinat import (
    ChainKind,
    algebra_dim,
    cached_bratteli,
    catalan,
    double_factorial,
    hom_count_brute,
    hom_count_closed,
    paper_bounds,
    stage_quiver_shape,
)
from chainfft.diagrams import (
    all_diagrams,
    check_relations,
    diagram_mul,
    evaluate,
    relation_instances,
)
from chainfft.ratlinalg import identity, mat_mul
from chainfft.reps import DEFAULT_Q
from chainfft.transform import (
    fft_naive,
    fft_sov,
    inverse_ft,
    random_element,
    sov_plan,
)
from reference import convolution_check, factor_map, naive_transform_matrix, rank

BR = ChainKind.BRAUER
TL = ChainKind.TEMPERLEY_LIEB
BMW = ChainKind.BMW_STRUCTURAL
Q = DEFAULT_Q


def _stamp(start, label):
    print(f"{label} ({time.time() - start:.1f}s)")


def test_criterion_1_dimension_identities():
    start = time.time()
    B = cached_bratteli(BR, 7)
    for i in range(8):
        assert sum(d * d for d in B.dims[i]) == double_factorial(2 * i - 1)
    Bt = cached_bratteli(TL, 12)
    for i in range(13):
        assert sum(d * d for d in Bt.dims[i]) == catalan(i)
    assert time.time() - start < 1.0
    _stamp(start, "criterion 1 (dimension identities): PASS")


def test_criterion_2_relation_suites(rep_cache):
    start = time.time()
    for n in range(2, 6):
        assert check_relations(BR, n).ok
    for n in range(2, 9):
        assert check_relations(TL, n).ok
    for kind, top in ((BR, 4), (TL, 6)):
        for n in range(2, top + 1):
            rep = rep_cache(kind, n)
            for name, lhs, rhs, extra in relation_instances(kind, n):
                for lam in rep.vertices():
                    left = identity(rep.dim(lam))
                    for t in lhs:
                        left = mat_mul(left, rep.token_matrix(lam, t))
                    right = identity(rep.dim(lam))
                    for t in rhs:
                        right = mat_mul(right, rep.token_matrix(lam, t))
                    assert left == [[Q**extra * x for x in row] for row in right], name
    assert time.time() - start < 30.0
    _stamp(start, "criterion 2 (relation suites): PASS")


def test_criterion_3_factor_set_totality():
    start = time.time()
    count = 0
    for kind, sizes in ((BR, [5]), (TL, range(1, 9))):
        for n in sizes:
            for d in all_diagrams(kind, n):
                word, b = factor_map(d)
                ev = evaluate(word, kind, n)
                prod = diagram_mul(ev.diagram, b)
                assert ev.loops == 0 and prod.loops == 0 and prod.diagram == d
                count += 1
    assert count >= 945 + sum(catalan(k) for k in range(1, 9))
    assert time.time() - start < 30.0
    _stamp(start, f"criterion 3 (factor-set totality, {count} diagrams): PASS")


@pytest.mark.slow
def test_criterion_4_transform_equality(rep_cache):
    start = time.time()
    brauer5_time = None
    for kind, sizes in ((BR, range(2, 6)), (TL, range(2, 9))):
        for n in sizes:
            t0 = time.time()
            rep = rep_cache(kind, n)
            plan = sov_plan(kind, n)
            for seed in range(100):
                f = random_element(kind, n, seed)
                img_n, _ = fft_naive(f, rep)
                img_s, _ = fft_sov(f, rep, plan)
                assert img_n == img_s, (kind, n, seed)
            if (kind, n) == (BR, 5):
                brauer5_time = time.time() - t0
    assert brauer5_time is not None and brauer5_time < 600.0
    _stamp(start, "criterion 4 (fft_sov == fft_naive, 100 seeds each): PASS")


def test_criterion_5_bound_conformance(rep_cache):
    start = time.time()
    for kind, sizes in ((BR, range(2, 6)), (TL, range(2, 9))):
        for n in sizes:
            rep = rep_cache(kind, n)
            plan = sov_plan(kind, n)
            bound = paper_bounds(kind, n).total
            assert bound == (
                (4 * n * n - n + 4) * double_factorial(2 * n - 1)
                if kind is BR
                else Fraction(n**3 + 9 * n * n + 8 * n - 12, 6) * catalan(n)
            )
            for seed in range(3):
                f = random_element(kind, n, seed)
                _, ops = fft_sov(f, rep, plan)
                assert Fraction(ops.mul) <= bound, (kind, n, seed)
                assert ops.add <= ops.mul
    _stamp(start, "criterion 5 (measured SOV ops within paper bounds): PASS")


def test_criterion_6_hom_equality_and_corollaries():
    start = time.time()
    for kind, top in ((BR, 5), (TL, 8)):
        for n in range(2, top + 1):
            B = cached_bratteli(kind, n)
            report = paper_bounds(kind, n)
            for i in range(2, n + 1):
                closed = hom_count_closed(B, i, n)
                assert closed == hom_count_brute(B, stage_quiver_shape(i, n), n)
                assert Fraction(closed) <= report.stage_bound(i)
    assert time.time() - start < 300.0
    _stamp(start, "criterion 6 (hom counts: closed = brute, corollaries exact): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="the dimension-ratio identity transplants a group-algebra lemma whose "
    "Frobenius step fails for these chains; holds only at the first and last "
    "stage",
)
def test_criterion_6_ratio_identity():
    failures = []
    for kind, top in ((BR, 5), (TL, 8)):
        for n in range(2, top + 1):
            B = cached_bratteli(kind, n)
            dims = [sum(d * d for d in B.dims[k]) for k in range(n + 1)]
            for i in range(2, n + 1):
                lhs = Fraction(hom_count_closed(B, i, n))
                rhs = Fraction(dims[n - 1], dims[i - 1]) * hom_count_closed(B, i, i)
                if lhs != rhs:
                    failures.append((kind.value, n, i, lhs, rhs))
    print(
        "criterion 6 (ratio identity): FAIL as stated -- "
        f"{len(failures)} stage(s) with 2 < i < n differ; documented paper defect"
    )
    assert not failures


def test_criterion_7_inversion_roundtrip(rep_cache):
    start = time.time()
    for kind, top in ((BR, 3), (TL, 5)):
        for n in range(2, top + 1):
            rep = rep_cache(kind, n)
            plan = sov_plan(kind, n)
            for seed in range(20):
                f = random_element(kind, n, seed)
                img, _ = fft_sov(f, rep, plan)
                assert inverse_ft(img, rep).coeffs == f.coeffs
    assert time.time() - start < 60.0
    _stamp(start, "criterion 7 (inverse_ft o fft_sov = id, 20 seeds): PASS")


def test_criterion_8_isomorphism_property(rep_cache):
    start = time.time()
    for kind, n in ((BR, 3), (TL, 4)):
        rep = rep_cache(kind, n)
        for seed in range(20):
            f = random_element(kind, n, seed)
            g = random_element(kind, n, 1000 + seed)
            assert convolution_check(f, g, rep).ok
    _stamp(start, "criterion 8 (transform is an algebra isomorphism): PASS")


def test_criterion_9_bmw_structural():
    start = time.time()
    for n in range(8):
        a, b = cached_bratteli(BMW, n), cached_bratteli(BR, n)
        assert (a.levels, a.edges, a.dims) == (b.levels, b.edges, b.dims)
    for n in range(1, 7):
        assert sov_plan(BMW, n).predicted_total == sov_plan(BR, n).predicted_total
    _stamp(start, "criterion 9 (BMW structural identity): PASS")


def test_criterion_10_completeness_certificate(rep_cache):
    start = time.time()
    for kind, top in ((BR, 4), (TL, 6)):
        for n in range(2, top + 1):
            rep = rep_cache(kind, n)
            dim = rep.algebra_dim()
            assert rank(naive_transform_matrix(rep)) == dim
    _stamp(start, "criterion 10 (naive transform full rank at q = 10/3): PASS")

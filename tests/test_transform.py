import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfft.combinat import ChainKind, cached_bratteli, paper_bounds
from chainfft.diagrams import all_diagrams, generator, identity_diagram
from chainfft.errors import ArgumentError
from chainfft.reps import DEFAULT_Q
from chainfft.transform import (
    AlgebraElement,
    OpCounter,
    convolution_check,
    element_from_json,
    element_to_json,
    fft_naive,
    fft_sov,
    image_to_json,
    inverse_ft,
    multiply_elements,
    random_element,
    sov_plan,
    w_set_sizes,
)

BR = ChainKind.BRAUER
TL = ChainKind.TEMPERLEY_LIEB
SN = ChainKind.SYMMETRIC_GROUP
BMW = ChainKind.BMW_STRUCTURAL
Q = DEFAULT_Q


def test_naive_brauer2_example(rep_cache):
    rep = rep_cache(BR, 2)
    a, b, c = Fraction(2), Fraction(5), Fraction(7)
    f = AlgebraElement.from_dict(
        BR,
        2,
        {
            identity_diagram(BR, 2).key(): a,
            generator(BR, ("r", 1), 2).key(): b,
            generator(BR, ("e", 1), 2).key(): c,
        },
    )
    img, ops = fft_naive(f, rep)
    assert img.block(())[0][0] == a + b + Q * c
    assert img.block((2,))[0][0] == a + b
    assert img.block((1, 1))[0][0] == a - b
    assert ops.mul <= rep.algebra_dim() ** 2


def test_delta_identity_images(rep_cache):
    for kind, n in [(BR, 3), (TL, 4)]:
        rep = rep_cache(kind, n)
        f = AlgebraElement.from_dict(
            kind, n, {identity_diagram(kind, n).key(): Fraction(1)}
        )
        img, _ = fft_naive(f, rep)
        imgs, ops = fft_sov(f, rep)
        assert imgs == img
        assert ops.mul == 0
        for lam in rep.vertices():
            m = img.block(lam)
            assert all(
                m[r][c] == (1 if r == c else 0)
                for r in range(len(m))
                for c in range(len(m))
            )


def test_zero_element(rep_cache):
    rep = rep_cache(BR, 2)
    f = AlgebraElement.from_dict(BR, 2, {})
    img, ops = fft_naive(f, rep)
    assert ops.mul == 0 and ops.add == 0
    assert all(
        all(x == 0 for row in m for x in row) for _, m in img.blocks
    )


@pytest.mark.parametrize(
    "kind,n,seeds",
    [(BR, 2, 6), (BR, 3, 6), (BR, 4, 4), (TL, 3, 6), (TL, 5, 4), (TL, 6, 3), (SN, 4, 4)],
)
def test_sov_equals_naive(kind, n, seeds, rep_cache):
    rep = rep_cache(kind, n)
    plan = sov_plan(kind, n)
    for seed in range(seeds):
        f = random_element(kind, n, seed)
        img_n, _ = fft_naive(f, rep)
        img_s, ops = fft_sov(f, rep, plan)
        assert img_n == img_s
        assert ops.add <= ops.mul or ops.mul == 0


SOV_COUNTS = {
    (TL, 2): (1, 1), (TL, 3): (12, 6), (TL, 4): (59, 24), (TL, 5): (297, 120),
    (TL, 6): (1745, 563), (TL, 7): (8537, 2439), (TL, 8): (40822, 10586),
    (SN, 3): (24, 16), (SN, 4): (246, 139), (SN, 5): (2648, 1378),
    (BR, 2): (4, 4), (BR, 3): (93, 58), (BR, 4): (1859, 1083),
}


@pytest.mark.parametrize("kind,n", list(SOV_COUNTS), ids=lambda x: getattr(x, "value", x))
def test_sov_op_counts_pinned(kind, n, rep_cache):
    """The counted straight-line program: (mul, add) of `chainfft bench` at seed 0."""
    _, ops = fft_sov(random_element(kind, n, 0), rep_cache(kind, n))
    assert (ops.mul, ops.add) == SOV_COUNTS[(kind, n)]


def test_warm_sov_builds_no_routing(rep_cache, monkeypatch):
    """Once the routing of a (kind, n) is compiled, fft_sov factors no diagram."""
    import chainfft.diagrams as D

    rep = rep_cache(TL, 6)
    fft_sov(random_element(TL, 6, 0), rep)
    f = random_element(TL, 6, 1)
    calls = {"factor_map": 0, "shrink": 0, "__post_init__": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(D, "factor_map")
    counting(D, "shrink")
    counting(D.Diagram, "__post_init__")
    img, _ = fft_sov(f, rep)
    assert calls == {"factor_map": 0, "shrink": 0, "__post_init__": 0}
    assert img == fft_naive(f, rep)[0]
    # the counters see a routing build
    D.route_table.__wrapped__(TL, 3)
    assert calls["factor_map"] == calls["shrink"] == 5 and calls["__post_init__"] > 0


def test_warm_naive_applies_no_token(rep_cache, monkeypatch):
    """After one warm-up, fft_naive reads cached entries and runs no kernel."""
    import chainfft.transform as T
    from chainfft.reps.core import adapted_rep

    rep = rep_cache(TL, 6)
    fft_naive(random_element(TL, 6, 0), rep)
    f = random_element(TL, 6, 1)
    calls = []
    original = T._apply_token

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(T, "_apply_token", counted)
    img, _ = fft_naive(f, rep)
    assert calls == []
    assert img == fft_sov(f, rep)[0]
    # the counter sees the level recursion of a fresh representation
    fft_naive(random_element(TL, 3, 0), adapted_rep.__wrapped__(TL, 3, Q))
    assert calls


def test_warm_engines_read_no_dense_view(rep_cache, monkeypatch):
    """fft_naive, fft_sov and inverse_ft read block data, never rho or token_matrix."""
    from chainfft.reps.core import AdaptedRep

    rep = rep_cache(TL, 4)
    warm, _ = fft_sov(random_element(TL, 4, 0), rep)
    fft_naive(random_element(TL, 4, 0), rep)
    inverse_ft(warm, rep)
    calls = []
    for name in ("rho", "token_matrix"):
        original = getattr(AdaptedRep, name)
        monkeypatch.setattr(
            AdaptedRep, name,
            lambda self, *a, _name=name, _f=original: calls.append(_name) or _f(self, *a),
        )
    f = random_element(TL, 4, 1)
    img, _ = fft_sov(f, rep)
    assert fft_naive(f, rep)[0] == img
    assert inverse_ft(img, rep).coeffs == f.coeffs
    assert calls == []
    # the counters see a dense view when one is taken
    rep.rho(identity_diagram(TL, 4), rep.vertices()[0])
    rep.token_matrix(rep.vertices()[0], ("e", 1))
    assert calls == ["rho", "token_matrix"]


def test_from_dict_takes_basis_keys_without_parsing(monkeypatch):
    import chainfft.diagrams as D

    table = random_element(TL, 5, 0).table()
    calls = []
    original = D.Diagram.__post_init__
    monkeypatch.setattr(D.Diagram, "__post_init__", lambda d: calls.append(d) or original(d))
    assert AlgebraElement.from_dict(TL, 5, table).table() == table
    assert calls == []
    # other spellings are parsed and summed onto the canonical key
    key = next(iter(table))
    spelled = ",".join(f"{b}-{a}" for a, b in reversed(D.diagram_from_key(TL, 5, key).pairs))
    calls.clear()
    summed = AlgebraElement.from_dict(TL, 5, {key: 1, spelled: 2}).table()
    assert summed == {key: Fraction(3)} and calls
    with pytest.raises(ArgumentError):
        AlgebraElement.from_dict(TL, 5, {"1-3,2-4,5-6,7-9,8-10": 1})


def test_sov_single_diagram_matches_rho(rep_cache):
    """fft_sov on a point mass must reproduce the representation matrix."""
    for kind, n in ((BR, 3), (TL, 4)):
        rep = rep_cache(kind, n)
        plan = sov_plan(kind, n)
        for d in all_diagrams(kind, n):
            f = AlgebraElement.from_dict(kind, n, {d.key(): Fraction(1)})
            img, _ = fft_sov(f, rep, plan)
            for lam in rep.vertices():
                assert img.block(lam) == tuple(
                    tuple(row) for row in rep.rho(d, lam)
                )


SCALARS = st.fractions(-5, 5, max_denominator=4)


def _combine(a, img_f, b, img_g):
    """Blocks of a * img_f + b * img_g."""
    return tuple(
        (lam, tuple(tuple(a * x + b * y for x, y in zip(rf, rg)) for rf, rg in zip(mf, mg)))
        for (lam, mf), (_, mg) in zip(img_f.blocks, img_g.blocks)
    )


@pytest.mark.parametrize("kind,n", [(SN, 4), (TL, 5), (BR, 3)])
def test_property_sov_equals_naive_and_linear(kind, n, rep_cache):
    """On random sparse supports, explicit zero coefficients included, both
    engines agree and are linear."""
    rep = rep_cache(kind, n)
    keys = [d.key() for d in all_diagrams(kind, n)]
    tables = st.dictionaries(st.sampled_from(keys), SCALARS, max_size=8)

    @settings(max_examples=50, deadline=None)
    @given(f_tab=tables, g_tab=tables, a=SCALARS, b=SCALARS, zero=st.sampled_from(keys))
    def check(f_tab, g_tab, a, b, zero):
        f_tab.setdefault(zero, Fraction(0))
        h_tab = {
            k: a * f_tab.get(k, 0) + b * g_tab.get(k, 0) for k in f_tab.keys() | g_tab.keys()
        }
        images = []
        for table in (f_tab, g_tab, h_tab):
            elem = AlgebraElement.from_dict(kind, n, table)
            img, _ = fft_naive(elem, rep)
            assert fft_sov(elem, rep)[0] == img
            images.append(img)
        img_f, img_g, img_h = images
        assert img_h.blocks == _combine(a, img_f, b, img_g)

    check()


def test_sov_scaling_equivariance(rep_cache):
    rep = rep_cache(BR, 3)
    plan = sov_plan(BR, 3)
    f = random_element(BR, 3, 5)
    g = AlgebraElement.from_dict(BR, 3, {k: 3 * v for k, v in f.coeffs})
    img_f, ops_f = fft_sov(f, rep, plan)
    img_g, ops_g = fft_sov(g, rep, plan)
    assert (ops_f.mul, ops_f.add) == (ops_g.mul, ops_g.add)
    for lam in rep.vertices():
        mf, mg = img_f.block(lam), img_g.block(lam)
        assert all(
            3 * mf[r][c] == mg[r][c] for r in range(len(mf)) for c in range(len(mf))
        )


def test_plan_structure():
    plan = sov_plan(BR, 4)
    assert [s.i for s in plan.stages] == [2, 3, 4]
    assert all(s.predicted_mults == s.w_size * s.hom for s in plan.stages)
    assert plan.predicted_total == sum(l.contribution for l in plan.levels)
    assert plan.predicted_total <= plan.paper.total
    tl_plan = sov_plan(TL, 5)
    assert all(len(s.family) == 2 for s in tl_plan.stages)
    br_plan = sov_plan(BR, 5)
    assert all(len(s.family) == 3 for s in br_plan.stages)


@pytest.mark.parametrize("kind,nmax", [(BR, 7), (TL, 12), (BMW, 7)])
def test_plan_within_paper_bound_at_desk_scale(kind, nmax):
    for n in range(2, nmax + 1):
        plan = sov_plan(kind, n)
        assert plan.predicted_total <= plan.paper.total


def test_plan_bmw_equals_brauer():
    for n in range(1, 7):
        a, b = sov_plan(BMW, n), sov_plan(BR, n)
        assert a.predicted_total == b.predicted_total
        assert [s.predicted_mults for s in a.stages] == [
            s.predicted_mults for s in b.stages
        ]


def test_w_set_sizes_match_factor_set():
    # Brauer length 4: ten words; tails at the last index are id, r3, e3
    ws = w_set_sizes(BR, 4)
    assert ws[4] == 3
    assert ws[2] == 10
    assert w_set_sizes(TL, 4)[4] == 2


def test_measured_within_predicted(rep_cache):
    for kind, n in [(BR, 2), (BR, 3), (BR, 4), (TL, 3), (TL, 5), (TL, 6)]:
        rep = rep_cache(kind, n)
        plan = sov_plan(kind, n)
        f = random_element(kind, n, 1)
        _, ops = fft_sov(f, rep, plan)
        assert ops.mul <= plan.predicted_total


def test_reduced_cost_recursion_monotonicity(rep_cache):
    # measured reduced cost at level n is at most the level n-1 reduced cost
    # plus the top-level combine share (exact-arithmetic inequality)
    import chainfft.transform as T

    for kind, n in ((BR, 4), (TL, 5)):
        rep = rep_cache(kind, n)
        plan = sov_plan(kind, n)
        per_level = {}
        original = T._apply_token

        def counted(rep_, level, token, data, counter, _pl=per_level):
            before = counter.mul
            out = original(rep_, level, token, data, counter)
            _pl[level] = _pl.get(level, 0) + counter.mul - before
            return out

        T._apply_token = counted
        try:
            f = random_element(kind, n, 0)
            _, ops = fft_sov(f, rep, plan)
        finally:
            T._apply_token = original
        stage = per_level.get(n, 0)
        below = ops.mul - stage
        dim_n = rep.algebra_dim(n)
        dim_b = rep.algebra_dim(n - 1)
        assert Fraction(ops.mul, dim_n) <= Fraction(below, dim_b) + Fraction(stage, dim_n)
        assert plan.predicted_reduced >= sov_plan(kind, n - 1).predicted_reduced


def test_bmw_rejected(rep_cache):
    rep = rep_cache(BR, 2)
    with pytest.raises(ArgumentError):
        f = AlgebraElement.from_dict(BMW, 2, {})
        fft_naive(f, rep)


def test_kind_mismatch(rep_cache):
    rep = rep_cache(BR, 2)
    f = random_element(TL, 2, 0)
    with pytest.raises(ArgumentError):
        fft_naive(f, rep)
    with pytest.raises(ArgumentError):
        fft_sov(f, rep)


def test_inverse_checks_the_image_before_the_dual_basis(rep_cache, monkeypatch):
    img, _ = fft_sov(random_element(SN, 3, 0), rep_cache(SN, 3))
    rep = rep_cache(TL, 3)
    calls = []
    monkeypatch.setattr(type(rep), "gram_dual", lambda self: calls.append(self))
    with pytest.raises(ArgumentError, match="input is sn n=3, the representation tl n=3"):
        inverse_ft(img, rep)
    assert calls == []


def test_inverse_roundtrip(rep_cache):
    for kind, n, seeds in [(BR, 2, 4), (BR, 3, 4), (TL, 4, 4), (TL, 5, 2)]:
        rep = rep_cache(kind, n)
        plan = sov_plan(kind, n)
        for seed in range(seeds):
            f = random_element(kind, n, seed)
            img, _ = fft_sov(f, rep, plan)
            assert inverse_ft(img, rep).coeffs == f.coeffs


def test_inverse_of_identity_blocks(rep_cache):
    rep = rep_cache(BR, 2)
    f = AlgebraElement.from_dict(BR, 2, {identity_diagram(BR, 2).key(): Fraction(1)})
    img, _ = fft_naive(f, rep)
    assert inverse_ft(img, rep).coeffs == f.coeffs


def test_inverse_linear(rep_cache):
    rep = rep_cache(TL, 3)
    f = random_element(TL, 3, 1)
    g = random_element(TL, 3, 2)
    img_f, _ = fft_naive(f, rep)
    img_g, _ = fft_naive(g, rep)
    summed = AlgebraElement.from_dict(
        TL, 3, {k: v for k, v in f.coeffs}
    ).table()
    for k, v in g.coeffs:
        summed[k] = summed.get(k, Fraction(0)) + v
    h = AlgebraElement.from_dict(TL, 3, summed)
    img_h, _ = fft_naive(h, rep)
    lhs = inverse_ft(img_h, rep).table()
    rhs = inverse_ft(img_f, rep).table()
    for k, v in inverse_ft(img_g, rep).coeffs:
        rhs[k] = rhs.get(k, Fraction(0)) + v
    assert lhs == {k: v for k, v in rhs.items() if v}


def test_convolution_examples(rep_cache):
    rep = rep_cache(BR, 2)
    e_key = generator(BR, ("e", 1), 2).key()
    f = AlgebraElement.from_dict(BR, 2, {e_key: Fraction(1)})
    prod = multiply_elements(f, f, Q)
    assert prod.table() == {e_key: Q}
    assert convolution_check(f, f, rep).ok
    for kind, n in [(BR, 3), (TL, 4)]:
        r = rep_cache(kind, n)
        for seed in range(4):
            a = random_element(kind, n, seed)
            b = random_element(kind, n, seed + 50)
            assert convolution_check(a, b, r).ok


def test_from_dict_canonicalises_keys():
    f = AlgebraElement.from_dict(BR, 2, {"2-3,1-4": 1, "1-4,2-3": 2, "4-3,2-1": 5, "1-2,3-4": -5})
    assert f.coeffs == (("1-4,2-3", Fraction(3)),)
    payload = {"chain": "brauer", "n": 2, "q": "1", "coeffs": [
        {"diagram": "1-3,2-4", "value": "1/2"}, {"diagram": "2-4,1-3", "value": "1/2"},
        {"diagram": "1-3,2-4", "value": "1"},
    ]}
    assert element_from_json(payload, BR, 2)[0].coeffs == (("1-3,2-4", Fraction(2)),)


def test_element_json_roundtrip():
    f = random_element(TL, 3, 0)
    payload = element_to_json(f, Q)
    g, q = element_from_json(json.loads(json.dumps(payload)), TL, 3)
    assert g == f and q == Q


def test_image_json_fields(rep_cache):
    rep = rep_cache(TL, 3)
    plan = sov_plan(TL, 3)
    f = random_element(TL, 3, 0)
    img, ops = fft_sov(f, rep, plan)
    payload = image_to_json(img, ops, plan)
    assert payload["ops"]["mul"] == ops.mul
    assert payload["bound"]["paper"] == str(plan.paper.total)
    assert {tuple(b["vertex"]) for b in payload["blocks"]} == set(
        tuple(v) for v in rep.vertices()
    )


def test_opcounter_merge():
    assert OpCounter(2, 3).merged(OpCounter(1, 1)) == OpCounter(3, 4)

import hashlib
import json
import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainfft.combinat import ChainKind, cached_bratteli, hom_count_closed, paper_bounds
from chainfft.diagrams import (_basis_pairs, _route, _routing, _schedule, all_diagrams, basis_key,
                               factor_set, generator, identity_diagram)
from chainfft.errors import ArgumentError, CapabilityError, FactorizationError
from chainfft.reps import DEFAULT_Q, adapted_rep
from chainfft.reps.core import dense_matrix, image_layout, sn_permutation
from chainfft.transform import (
    AlgebraElement,
    FourierImage,
    OpCounter,
    element_from_json,
    element_to_json,
    fft_naive,
    fft_sov,
    image_to_json,
    inverse_ft,
    random_element,
    sov_plan,
)
from reference import (
    character,
    convolution_check,
    dual_table,
    from_blocks,
    image_block,
    multiply_elements,
    naive_transform_matrix,
    rho,
    spelled_routes,
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
    assert image_block(img, ())[0][0] == a + b + Q * c
    assert image_block(img, (2,))[0][0] == a + b
    assert image_block(img, (1, 1))[0][0] == a - b
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
            m = image_block(img, lam)
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
    (SN, 6): (28510, 14044), (TL, 9): (191832, 45452), (BR, 5): (40527, 21801),
}
SLOW_COUNTS = {(BR, 5)}  # the Brauer 5 build takes about 3 s


@pytest.mark.parametrize(
    "kind,n",
    [pytest.param(*case, marks=pytest.mark.slow) if case in SLOW_COUNTS else case
     for case in SOV_COUNTS],
    ids=lambda x: getattr(x, "value", x),
)
def test_sov_op_counts_pinned(kind, n, rep_cache):
    """The counted straight-line program: (mul, add) of `chainfft bench` at seed 0."""
    _, ops = fft_sov(random_element(kind, n, 0), rep_cache(kind, n))
    assert (ops.mul, ops.add) == SOV_COUNTS[(kind, n)]


def _route_tokens(kind, n, key):
    """([tokens at level L for L = n, ..., 1], [key at level L for L = n, ..., 0])."""
    tokens, keys = [], [key]
    for level in range(n, 0, -1):
        head, key = spelled_routes(kind, level)[key]
        tokens.append(head)
        keys.append(key)
    return tokens, keys


def _cancelling_pair(kind, n, rng, rep_cache):
    """Two keys whose routes agree down to a level m < n and split there into two
    streams, weighted so that one entry of their level-m fiber sums to zero."""
    routes = {key: _route_tokens(kind, n, key) for key in _routing(kind, n).index}
    while True:
        m, k1 = rng.randint(2, n - 1), rng.choice(sorted(routes))
        top = n - m  # routes[k][0][top] is the level-m head of k
        heads = routes[k1][0]
        split = [k for k, (t, _) in routes.items()
                 if t[:top] == heads[:top] and t[top] != heads[top]]
        if not split:
            continue
        k2 = rng.choice(split)
        small = rep_cache(kind, m)
        for lam in small.vertices():
            rows = zip(rho(small, routes[k1][1][top], lam), rho(small, routes[k2][1][top], lam))
            for v1, v2 in (pair for row1, row2 in rows for pair in zip(row1, row2)):
                if v1 and v2:
                    return AlgebraElement.from_dict(kind, n, {k1: v2, k2: -v1})


SPARSE_DIGESTS = {
    (TL, 6): "d5aae589414d8e4a4a9ffb6d78f7584f92ff66219502824c2b9c6c72d33e311e",
    (SN, 5): "378340859947c9fe03770a3f2e23d04d25ad3f59dfdb0110dc9e5a9866c583d9",
    (BR, 4): "ca9ffc0fd2b15092ef37a34fee4223ad334b03a01513db164c7ca71043a9bb97",
}


@pytest.mark.parametrize("kind,n", list(SPARSE_DIGESTS), ids=lambda x: getattr(x, "value", x))
def test_sov_sparse_counts_pinned(kind, n, rep_cache):
    """The counted program on sparse supports: sha256 of (table, mul, add, image) over
    supports of 1..8 keys, deltas, and pairs that cancel in a merge below the top,
    where only the level-end zero pass keeps the zero out of the levels above."""
    rep, rng = rep_cache(kind, n), random.Random(7)
    keys = list(_routing(kind, n).index)
    values = [-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-5, 3)]
    elements = [AlgebraElement.from_dict(kind, n, {k: rng.choice(values)
                                                   for k in rng.sample(keys, size)})
                for size in range(1, 9)]
    elements += [AlgebraElement.from_dict(kind, n, {rng.choice(keys): 1}) for _ in range(3)]
    elements += [_cancelling_pair(kind, n, rng, rep_cache) for _ in range(8)]
    h = hashlib.sha256()
    for f in elements:
        img, ops = fft_sov(f, rep)
        assert img == fft_naive(f, rep)[0]
        h.update(repr((f.coeffs, ops.mul, ops.add, img.blocks)).encode())
    assert h.hexdigest() == SPARSE_DIGESTS[(kind, n)]


def test_warm_sov_builds_no_routing(rep_cache, monkeypatch):
    """Once the routing of a (kind, n) is compiled, fft_sov factors no diagram."""
    import chainfft.diagrams as D

    rep = rep_cache(TL, 6)
    fft_sov(random_element(TL, 6, 0), rep)
    f = random_element(TL, 6, 1)
    calls = {"_route": 0, "__new__": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(D, "_route")
    counting(D.Diagram, "__new__")
    img, _ = fft_sov(f, rep)
    assert calls == {"_route": 0, "__new__": 0}
    assert img == fft_naive(f, rep)[0]
    # the counter sees a routing build, which checks no Diagram
    D._routing.__wrapped__(TL, 3)
    assert calls == {"_route": 5, "__new__": 0}


def test_warm_sov_kernel_is_integer(rep_cache, monkeypatch):
    """On a warm representation every value the SOV kernel takes and gives is an int."""
    import chainfft.transform as T

    rep = rep_cache(TL, 6)
    fft_sov(random_element(TL, 6, 0), rep)
    values = []
    original = T._apply_token

    def checked(columns, level, token, data, counter):
        out = original(columns, level, token, data, counter)
        for table in (data, out):
            values.extend(v for row in table.values() for v in row.values())
        return out

    monkeypatch.setattr(T, "_apply_token", checked)
    f = AlgebraElement.from_dict(TL, 6, {k: v / 7 for k, v in random_element(TL, 6, 1).coeffs})
    img, _ = fft_sov(f, rep)
    assert values and all(type(v) is int for v in values)
    assert img == fft_naive(f, rep)[0]


@pytest.mark.parametrize("kind,n", [(TL, 5), (SN, 4), (BR, 3)])
def test_rho_recursion_and_sov_kernel_create_no_fraction(kind, n, monkeypatch):
    """On a fresh representation, whose local blocks are rational, the rho recursion
    and the SOV kernel create no Fraction: every kernel call takes and gives ints."""
    import chainfft.transform as T

    rep = adapted_rep.__wrapped__(kind, n, Q)
    values, made = [], []
    original = T._apply_token

    def checked(rep_, level, token, data, counter):
        out = original(rep_, level, token, data, counter)
        values.extend(v for table in (data, out) for row in table.values()
                      for v in row.values())
        return out

    monkeypatch.setattr(T, "_apply_token", checked)
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))
    sov = T._sov_level(rep, n, {j: j + 1 for j in range(len(rep.prescale(n)))}, OpCounter())
    rhos = [rep.rho_blocks(d.key()) for d in all_diagrams(kind, n)]
    assert made == [] and values
    character(rep, identity_diagram(kind, n).key())
    assert made  # positive control: the one division of a reader is seen
    monkeypatch.undo()
    values.extend(v for blocks in rhos for block in blocks.values()
                  for col in block.values() for v in col.values())
    values.extend(v for row in sov.values() for v in row.values())
    assert all(type(v) is int for v in values)


def _nested_dict_naive(f, rep):
    """The nested-dict naive sum that the row scatter of `fft_naive` replaced, kept as
    its reference: c . den . rho summed entry by entry from `rho_blocks`, over
    S_n . den, with the dense program's counts."""
    den = math.lcm(*(c.denominator for _, c in f.coeffs))
    sums: dict = {}
    for key, c in f.coeffs:
        c = c.numerator * (den // c.denominator)
        for lam, block in rep.rho_blocks(key).items():
            dest = sums.setdefault(lam, {})
            for r, row in block.items():
                acc = dest.setdefault(r, {})
                for k, v in row.items():
                    acc[k] = acc.get(k, 0) + c * v
    support, dim_a = f.support(), rep.algebra_dim()
    counter = OpCounter(support * dim_a, max(0, support - 1) * dim_a)
    blocks = tuple((lam, dense_matrix(rep.dim(lam), sums.get(lam, {}), den * rep.scale()))
                   for lam in rep.vertices())
    return from_blocks(f.kind, f.n, blocks), counter


NAIVE_CASES = ([(TL, n) for n in range(9)] + [(SN, n) for n in range(6)]
               + [(BR, n) for n in range(5)])


@pytest.mark.parametrize("kind,n", NAIVE_CASES, ids=lambda x: getattr(x, "value", x))
def test_naive_rows_equal_the_nested_dict_sum(kind, n, rep_cache):
    """On dense, sparse (supports 1..8, deltas among them) and fractional inputs, the
    row scatter gives the image and the counts of the nested-dict sum."""
    rep = rep_cache(kind, n)
    keys = list(_routing(kind, n).index)
    rng = random.Random(f"{kind.value} {n}")
    dense = random_element(kind, n, 0)
    tables = [dense.table(), {k: v / 7 for k, v in dense.coeffs}, {rng.choice(keys): 1}]
    for support in range(1, 9):
        chosen = rng.sample(keys, min(support, len(keys)))
        tables.append({k: rng.randint(1, 9) * rng.choice((-1, 1)) for k in chosen})
        tables.append({k: Fraction(rng.randint(1, 50) * rng.choice((-1, 1)), rng.randint(1, 12))
                       for k in chosen})
    for table in tables:
        f = AlgebraElement.from_dict(kind, n, table)
        assert fft_naive(f, rep) == _nested_dict_naive(f, rep), table


@pytest.mark.parametrize("kind,n,entry", [
    (kind, n, entry)
    for kind, n in [(SN, 4), (TL, 5), (BR, 3)]
    for entry in ("fft_naive", "sparse_fft_naive", "inverse_ft")
] + [(SN, 4, "gram_dual")], ids=lambda x: getattr(x, "value", x))
def test_level_n_rho_is_kept_only_as_rows(kind, n, entry):
    """No reader of rho on a fresh representation leaves a level-n block table in
    `_levels`: level n is kept only as rows, and the recursion's tables below n only
    until every row is compiled.  A sparse naive sum keeps levels 2..n-1; a dense
    one, an inverse or the S_n trace rows, which fold in the dual table of
    `gram_dual`, keep none."""
    rep = adapted_rep.__wrapped__(kind, n, Q)
    keys = list(_routing(kind, n).index)
    if entry == "sparse_fft_naive":
        f = AlgebraElement.from_dict(kind, n, {keys[0]: 1, keys[-1]: Fraction(-2, 3)})
        fft_naive(f, rep)
        assert set(rep._rows) == {keys[0], keys[-1]}
        assert {level for level, _ in rep._levels} == set(range(2, n))
        return
    if entry == "fft_naive":
        fft_naive(AlgebraElement.from_dict(kind, n, {k: 1 + j % 5 for j, k in enumerate(keys)}),
                  rep)
    elif entry == "inverse_ft":
        f = random_element(kind, n, 0)
        assert inverse_ft(fft_sov(f, rep)[0], rep) == f
    else:
        rep.trace_rows()
    assert set(rep._rows) == set(keys)
    assert rep._levels == {}


def test_cold_sparse_naive_compiles_only_its_support():
    rep = adapted_rep.__wrapped__(TL, 6, Q)
    keys = list(_routing(TL, 6).index)
    f = AlgebraElement.from_dict(TL, 6, {keys[0]: 1, keys[50]: Fraction(2, 3), keys[-1]: -4})
    assert fft_naive(f, rep) == _nested_dict_naive(f, rep)
    assert set(rep._rows) == {keys[0], keys[50], keys[-1]}


def test_naive_transform_matrix_columns_are_delta_images(rep_cache):
    """Column j of the naive transform matrix is the flat image of the j-th basis delta."""
    rep = rep_cache(TL, 4)
    columns = list(zip(*naive_transform_matrix(rep)))
    for d, column in zip(all_diagrams(TL, 4), columns):
        img, _ = _nested_dict_naive(AlgebraElement.from_dict(TL, 4, {d.key(): 1}), rep)
        assert column == tuple(x for _, m in img.blocks for row in m for x in row)


def test_warm_naive_applies_no_token(rep_cache, monkeypatch):
    """After one warm-up, fft_naive reads cached entries and runs no kernel."""
    import chainfft.transform as T
    from chainfft.reps.core import adapted_rep

    rep = rep_cache(TL, 6)
    fft_naive(AlgebraElement.from_dict(TL, 6, dict.fromkeys(_routing(TL, 6).index, 1)), rep)
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
    """fft_naive, fft_sov and inverse_ft read block data, never rho (through the
    `rho_blocks` view it decodes) or token_matrix."""
    from chainfft.reps.core import AdaptedRep

    rep = rep_cache(TL, 4)
    warm, _ = fft_sov(random_element(TL, 4, 0), rep)
    fft_naive(random_element(TL, 4, 0), rep)
    inverse_ft(warm, rep)
    calls = []
    for name in ("rho_blocks", "token_matrix"):
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
    rho(rep, identity_diagram(TL, 4), rep.vertices()[0])
    rep.token_matrix(rep.vertices()[0], ("e", 1))
    assert calls == ["rho_blocks", "token_matrix"]


def test_from_dict_takes_basis_keys_without_parsing(monkeypatch):
    import chainfft.diagrams as D

    table = random_element(TL, 5, 0).table()
    calls = []
    original = D.Diagram.__new__
    monkeypatch.setattr(D.Diagram, "__new__",
                        lambda cls, *args: calls.append(args) or original(cls, *args))
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
                assert image_block(img, lam) == tuple(
                    tuple(row) for row in rho(rep, d, lam)
                )


@pytest.mark.parametrize("kind,n", [(TL, 6), (SN, 5), (BR, 4)])
def test_sov_level_matches_block_data_at_every_level(kind, n, rep_cache):
    """At every level L <= n, the SOV driver on the unit point mass of a key gives the
    rho driver's level table of the key, both over the product of D(i) over the
    key's route tokens (473 keys over the three cases)."""
    import chainfft.transform as T

    rep = rep_cache(kind, n)
    for level in range(1, n + 1):
        for j in range(len(_routing(kind, level).routes)):
            sov = T._sov_level(rep, level, {j: 1}, OpCounter())
            assert sov == rep._block_data(j, level), (level, j)


def _no_zero_or_empty(table: dict) -> bool:
    return all(row and all(row.values()) for row in table.values())


def _run_level_outputs(f, rep):
    """(live streams in, level table out) of every level-routine call of fft_sov(f)."""
    import chainfft.transform as T

    calls, original = [], T._run_level

    def spy(rep_, level, streams, counter):
        live = len(streams)
        out = original(rep_, level, streams, counter)
        calls.append((live, out))
        return out

    T._run_level = spy
    try:
        img, _ = fft_sov(f, rep)
    finally:
        T._run_level = original
    assert img == fft_naive(f, rep)[0]
    return calls


@settings(max_examples=30)
@given(st.sampled_from([(TL, 5), (SN, 4), (BR, 3)]), st.data())
def test_level_routine_output_has_no_zero_or_empty_entry(case, data):
    """On random sparse supports the level routine's output holds no zero entry and
    no empty row, with several live streams and with one."""
    kind, n = case
    rep = adapted_rep(kind, n, Q)
    support = data.draw(st.lists(st.sampled_from(list(_routing(kind, n).index)),
                                 min_size=1, max_size=8, unique=True))
    values = data.draw(st.lists(st.sampled_from([-2, -1, 1, 2]),
                                min_size=len(support), max_size=len(support)))
    routing = _routing(kind, n)
    stream_of = {key: routing.routes[routing.index[key]][0] for key in support}
    table = dict(zip(support, values))
    one_stream = {k: v for k, v in table.items() if stream_of[k] == stream_of[support[0]]}
    for coeffs in (table, one_stream):
        calls = _run_level_outputs(AlgebraElement.from_dict(kind, n, coeffs), rep)
        assert all(_no_zero_or_empty(out) for _, out in calls)
    assert calls[-1][0] == 1  # the top level of `one_stream` has one live stream


def test_level_routine_drops_a_cancelled_block(rep_cache):
    """id - r1 merges two streams whose trivial blocks cancel: the block's row, row 0
    of S_2, is dropped, and only row 1, the block of (1, 1), is left."""
    rep = rep_cache(SN, 2)
    f = AlgebraElement.from_dict(SN, 2, {"1-3,2-4": 1, "1-4,2-3": -1})
    [(live, out)] = _run_level_outputs(f, rep)
    assert rep.vertices(2) == ((2,), (1, 1)) and rep.B.dims[2] == (1, 1)
    assert live == 2 and list(out) == [1] and _no_zero_or_empty(out)


def _route_down(kind, level, coeffs, dims):
    """(level-1 row, split widths from level 2 up) of {position: coefficient}, routed
    down on every call as `_sov_level` once did: a coefficient of fiber F at level
    L >= 2 moves to fiber F + s . K_L, and level 1 keys it at fiber . M."""
    entries = [(0, j, c) for j, c in coeffs.items()]
    spans, span = [], 1
    for lvl in range(level, 1, -1):
        routes = _routing(kind, lvl).routes
        entries = [(f + s * span, sub, c) for f, j, c in entries for s, sub in (routes[j],)]
        spans.append(span)
        span *= len(_schedule(kind, lvl).streams)
    stride = max(max(d) for d in dims[: level + 1])
    return {f * stride: c for f, _, c in entries if c}, [k * stride for k in reversed(spans)]


@pytest.mark.parametrize("kind,top", [(TL, 9), (SN, 6), (BR, 4)],
                         ids=lambda x: getattr(x, "value", x))
def test_descent_seeds_equal_the_route_down(kind, top):
    """At every level 0..top, `_routing` holds the fiber of every position and the
    split spans whose level-1 keys (fiber . M) and split widths (span . M) are what
    routing each coefficient down on every call gives, with the vertex bound M read
    from the largest diagram."""
    dims = cached_bratteli(kind, top).dims
    for level in range(top + 1):
        routing, stride = _routing(kind, level), max(max(d) for d in dims[: level + 1])
        size = len(routing.fibers)
        row, widths = _route_down(kind, level, {j: j + 1 for j in range(size)}, dims)
        assert [span * stride for span in routing.spans] == widths
        assert {routing.fibers[j] * stride: j + 1 for j in range(size)} == row, level


@settings(max_examples=40)
@given(st.sampled_from([TL, SN, BR]), st.integers(2, 5), st.integers(1, 3), st.data())
def test_split_streams_equals_split_then_embed(kind, level, fibers, data):
    """Writing each entry once under its row's first edge, and copying a stream's part
    only for the further edges, gives what splitting the table by stream and then
    embedding each part does, on random tables whose keys span several streams."""
    from types import SimpleNamespace

    import chainfft.transform as T

    B = cached_bratteli(kind, level)
    rep = SimpleNamespace(kind=kind, B=B)
    count = len(_schedule(kind, level).streams)
    stride = max(max(d) for d in B.dims)
    width = fibers * stride
    rows = sum(B.dims[level - 1])
    key = st.builds(lambda s, f, c: s * width + f * stride + c, st.integers(0, count - 1),
                    st.integers(0, fibers - 1), st.integers(0, max(B.dims[level - 1]) - 1))
    below = data.draw(st.dictionaries(st.integers(0, rows - 1),
                                      st.dictionaries(key, st.sampled_from([-2, -1, 1, 2]),
                                                      min_size=1, max_size=6),
                                      min_size=1, max_size=rows))
    if count > 1:
        assume(len({k // width for row in below.values() for k in row}) > 1)
    parts: dict = {}
    for r, row in below.items():
        for k, v in row.items():
            parts.setdefault(k // width, {}).setdefault(r, {})[k % width] = v
    expected = {s: T._embed_blocks(rep, level, part) for s, part in parts.items()}
    assert T._split_streams(rep, level, below, width) == expected


def test_merge_zero_is_dropped_after_the_next_token(rep_cache):
    """At Brauer 3 level 3 two streams merge into entries that sum to zero, and the
    merged stream's next token reads them: its zeros are dropped before the next
    merge, and the counts are those of the program that drops every token's zeros
    (42 products, 15 adds; a kept zero would add one more)."""
    import chainfft.transform as T

    rep = rep_cache(BR, 3)
    f = AlgebraElement.from_dict(BR, 3, {"1-3,2-4,5-6": 1, "1-4,2-5,3-6": 1,
                                         "1-6,2-5,3-4": -1})
    events = []
    apply, merge = T._apply_token, T._merge_stream

    def applied(rep_, level, token, data, counter):
        events.append(("token", level, any(0 in row.values() for row in data.values())))
        return apply(rep_, level, token, data, counter)

    def merged(dest, data, counter):
        zero_in = any(0 in row.values() for table in (dest, data) for row in table.values())
        left = merge(dest, data, counter)
        events.append(("merge", zero_in, left))
        return left

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_apply_token", applied)
        mp.setattr(T, "_merge_stream", merged)
        img, ops = fft_sov(f, rep)
    assert img == fft_naive(f, rep)[0]
    assert (ops.mul, ops.add) == (42, 15)
    at = events.index(("merge", False, True))  # a merge leaves a zero ...
    assert events[at + 1] == ("token", 3, True)  # ... which the next token reads
    assert events[at + 2] == ("merge", False, True)  # and holds none at the next merge


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

    @settings(max_examples=50)
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


FRACTION_CASES = [(TL, 5), (SN, 4), (BR, 3), (TL, 0), (SN, 0), (BR, 0), (TL, 1), (SN, 1), (BR, 1)]


@st.composite
def fractional_sparse_elements(draw, cases=FRACTION_CASES):
    """A case and a support of 1..8 basis keys with values p/q, 0 < |p| <= 50, 1 <= q <= 12."""
    kind, n = draw(st.sampled_from(cases))
    keys = [d.key() for d in all_diagrams(kind, n)]
    values = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12))
    table = draw(st.dictionaries(
        st.sampled_from(keys), values, min_size=1, max_size=min(8, len(keys))
    ))
    return AlgebraElement.from_dict(kind, n, table)


@settings(max_examples=150)
@given(fractional_sparse_elements())
def test_property_sov_equals_naive_on_fractional_sparse_inputs(f):
    """Inputs with denominators: the SOV kernel's common denominator comes back out."""
    rep = adapted_rep(f.kind, f.n, Q)
    assert fft_sov(f, rep)[0] == fft_naive(f, rep)[0]


ROUNDTRIP_CASES = [(SN, n) for n in range(6)] + [(TL, n) for n in range(6)] + [
    (BR, n) for n in range(4)]


@settings(max_examples=150)
@given(fractional_sparse_elements(ROUNDTRIP_CASES))
def test_property_inverse_roundtrip_on_fractional_sparse_inputs(f):
    """inverse_ft(fft_sov(f)) == f with input denominators, at the edge sizes 0 and 1 too."""
    rep = adapted_rep(f.kind, f.n, Q)
    assert inverse_ft(fft_sov(f, rep)[0], rep) == f


@settings(max_examples=100)
@given(fractional_sparse_elements([(SN, 4), (TL, 5), (BR, 3)]))
def test_property_integer_image_on_fractional_sparse_inputs(f):
    """Inputs with denominators: both engines write one reduced integer image, its
    dense view reads back to it, and it inverts to f."""
    rep = adapted_rep(f.kind, f.n, Q)
    img = fft_sov(f, rep)[0]
    assert img == fft_naive(f, rep)[0]
    assert img.den > 0 and math.gcd(img.den, *img.flat) == 1
    assert from_blocks(f.kind, f.n, img.blocks) == img
    assert inverse_ft(img, rep) == f


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda n, flat, den: (n, list(flat), den), "not a tuple of ints", id="list"),
    pytest.param(lambda n, flat, den: (n, (True,) + flat[1:], den), "entry True ",
                 id="bool-entry"),
    pytest.param(lambda n, flat, den: (n, (1.0,) + flat[1:], den), "entry 1.0 ",
                 id="float-entry"),
    pytest.param(lambda n, flat, den: (n, (Fraction(1, 2),) + flat[1:], den),
                 r"entry Fraction\(1, 2\) ", id="fraction-entry"),
    pytest.param(lambda n, flat, den: (n, flat[:-1], den), "has 5 entries, not the 6",
                 id="short"),
    pytest.param(lambda n, flat, den: (n, flat + (0,), den), "has 7 entries, not the 6",
                 id="long"),
    pytest.param(lambda n, flat, den: (n, flat, 0), "den=0 is not a positive int",
                 id="zero-den"),
    pytest.param(lambda n, flat, den: (n, flat, -den), "den=-[0-9]+ is not a positive int",
                 id="negative-den"),
    pytest.param(lambda n, flat, den: (n, flat, Fraction(den)), "is not a positive int",
                 id="fraction-den"),
    pytest.param(lambda n, flat, den: (n, tuple(3 * x for x in flat), 3 * den),
                 "not reduced", id="unreduced"),
    pytest.param(lambda n, flat, den: (n, (0,) * len(flat), 2), "not reduced",
                 id="unreduced-zero"),
    pytest.param(lambda n, flat, den: (-1, flat, den), "n=-1 is not a non-negative int",
                 id="negative-n"),
])
def test_image_constructor_refuses(edit, message, rep_cache):
    """An image that is not Σ dim(lam)^2 ints over a positive den reduced against
    them is refused with ArgumentError; the unedited image is accepted."""
    img, _ = fft_sov(random_element(SN, 3, 0), rep_cache(SN, 3))
    assert FourierImage(SN, 3, img.flat, img.den) == img
    with pytest.raises(ArgumentError, match=message):
        FourierImage(SN, *edit(3, img.flat, img.den))


def test_sov_scaling_equivariance(rep_cache):
    rep = rep_cache(BR, 3)
    plan = sov_plan(BR, 3)
    f = random_element(BR, 3, 5)
    g = AlgebraElement.from_dict(BR, 3, {k: 3 * v for k, v in f.coeffs})
    img_f, ops_f = fft_sov(f, rep, plan)
    img_g, ops_g = fft_sov(g, rep, plan)
    assert (ops_f.mul, ops_f.add) == (ops_g.mul, ops_g.add)
    for lam in rep.vertices():
        mf, mg = image_block(img_f, lam), image_block(img_g, lam)
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
    stages = {s.i: s for s in sov_plan(BR, 4).stages}
    assert stages[4].w_size == 3
    assert stages[2].w_size == 10
    assert {s.i: s for s in sov_plan(TL, 4).stages}[4].w_size == 2


@pytest.mark.parametrize("kind,n_max", [(TL, 8), (SN, 6), (BR, 6), (BMW, 6)])
def test_w_sizes_are_factor_set_tails(kind, n_max):
    """|W_{i-1}| of every plan level is the number of distinct tails (choice at
    i-1, ..., k-1) over the words of the level-k factor set."""
    for n in range(2, n_max + 1):
        plan, B = sov_plan(kind, n), cached_bratteli(kind, n)
        for k in range(2, n + 1):
            by_index = [{i: sym for sym, i in w.tokens} for w in factor_set(kind, k)]
            w_sizes = [len({tuple(w.get(j) for j in range(i - 1, k)) for w in by_index})
                       for i in range(2, k + 1)]
            combine = sum(w * hom_count_closed(B, i, k) for i, w in zip(range(2, k + 1), w_sizes))
            assert plan.levels[k - 2].combine_cost == combine
            if k == n:
                assert [s.w_size for s in plan.stages] == w_sizes


@pytest.mark.parametrize("kind,n_max", [(TL, 8), (SN, 5), (BR, 5)])
def test_schedule_streams_are_the_routed_words(kind, n_max):
    """The streams of each level's schedule are the distinct pending tuples of the
    words that `_route` factors the level's basis diagrams by."""
    for level in range(1, n_max + 1):
        routed = set()
        for _, pairs in _basis_pairs(kind, level):
            tokens, _ = _route(kind, level, pairs)
            pending = [None] * (level - 1)
            for sym, i in tokens:
                pending[i - 1] = sym
            routed.add(tuple(pending))
        streams = _schedule(kind, level).streams
        assert len(set(streams)) == len(streams) and set(streams) == routed


def test_route_outside_the_factor_set_is_refused(monkeypatch):
    """A compiled route must be a factor-set word: e1 alone is none at TL level 3."""
    import chainfft.diagrams as D

    _routing(TL, 2)
    original = D._route

    def short(kind, n, pairs):
        tokens, sub = original(kind, n, pairs)
        return ((("e", 1),) if tokens == (("e", 1), ("e", 2)) else tokens), sub

    monkeypatch.setattr(D, "_route", short)
    with pytest.raises(FactorizationError, match="not a factor-set word"):
        D._routing.__wrapped__(TL, 3)


def test_fft_sov_refuses_a_plan_of_another_algebra(rep_cache):
    rep = rep_cache(TL, 4)
    f = random_element(TL, 4, 0)
    for plan in (sov_plan(TL, 3), sov_plan(BR, 4)):
        with pytest.raises(ArgumentError, match="plan does not match"):
            fft_sov(f, rep, plan)


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


@pytest.mark.parametrize("coeffs,key", [
    ((("1-2,3-4", Fraction(1)), ("1-2,3-4", Fraction(2))), "1-2,3-4"),  # repeated
    ((("1-3,2-4", Fraction(1)), ("1-2,3-4", Fraction(1))), "1-2,3-4"),  # decreasing
    ((("2-1,3-4", Fraction(1)),), "2-1,3-4"),  # not canonical
    ((("", Fraction(1)),), ""),  # not a basis key at n = 2
    ((("1-2,3-4", 1.5),), "1-2,3-4"),
    ((("1-2,3-4", True),), "1-2,3-4"),
    ((("1-2,3-4", Fraction(0)),), "1-2,3-4"),
], ids=["repeated", "decreasing", "not-canonical", "not-a-key", "float", "bool", "zero"])
def test_element_constructor_refuses_what_from_dict_never_builds(coeffs, key):
    """Both engines would read such a table differently, or fail with a bare error."""
    with pytest.raises(ArgumentError, match=re.escape(repr(key))):
        AlgebraElement(TL, 2, coeffs)


@pytest.mark.parametrize("n,coeffs", [
    (2, (("1-2,3-4",),)),
    (2, (("1-2,3-4", 1, 2),)),
    (2, ("1-2,3-4",)),
    (2, [("1-2,3-4", 1)]),
    (2, None),
    (2, 5),
    (-1, ()),
    ("a", ()),
    (True, ()),
    (2.0, ()),
], ids=["one-field", "three-fields", "bare-key", "list", "none", "int", "negative-n",
        "str-n", "bool-n", "float-n"])
def test_element_constructor_refuses_a_malformed_table(n, coeffs):
    """An entry that is not a (key, value) pair, coeffs that are not a tuple and an n
    that is not a non-negative int are refused, not left to a bare Python error."""
    with pytest.raises(ArgumentError):
        AlgebraElement(TL, n, coeffs)


def test_element_constructor_takes_canonical_tables():
    assert AlgebraElement(TL, 2, (("1-2,3-4", 3), ("1-3,2-4", Fraction(-1, 2)))).support() == 2
    assert AlgebraElement(TL, 0, (("", Fraction(1)),)).support() == 1
    with pytest.raises(ArgumentError, match="'1-2'"):
        AlgebraElement(TL, 0, (("1-2", Fraction(1)),))


def test_bmw_rejected(rep_cache):
    rep = rep_cache(BR, 2)
    with pytest.raises(ArgumentError):
        f = AlgebraElement.from_dict(BMW, 2, {})
        fft_naive(f, rep)


def test_bmw_refused_by_routing():
    """BMW has no routing at any size, the empty diagram of n = 0 included, so no
    element, basis key or random element of it is made."""
    for n, key in ((0, ""), (3, "1-4,2-5,3-6")):
        refusals = [lambda: _routing(BMW, n), lambda: all_diagrams(BMW, n),
                    lambda: AlgebraElement.from_dict(BMW, n, {key: 1}),
                    lambda: AlgebraElement(BMW, n, ((key, 1),)),
                    lambda: random_element(BMW, n, 0), lambda: basis_key(BMW, n, key)]
        for refused in refusals:
            with pytest.raises(ArgumentError, match="BMW"):
                refused()


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
    monkeypatch.setattr(type(rep), "trace_rows", lambda self: calls.append(self))
    with pytest.raises(ArgumentError, match="input is sn n=3, the representation tl n=3"):
        inverse_ft(img, rep)
    assert calls == []


@pytest.mark.parametrize("reshape", [
    lambda m: m[:-1],
    lambda m: m + m[:1],
    lambda m: (m[0][:-1],) + m[1:],
], ids=["missing-row", "extra-row", "short-row"])
def test_inverse_refuses_a_misshapen_image(reshape, rep_cache):
    rep = rep_cache(TL, 3)
    img, _ = fft_sov(random_element(TL, 3, 0), rep)
    with pytest.raises(ArgumentError, match=r"block \(3,\) of the image is not 1 x 1"):
        from_blocks(TL, 3, tuple((lam, reshape(m)) for lam, m in img.blocks))


@pytest.mark.parametrize("edit,message", [
    (lambda blocks: blocks + (((9,), ((Fraction(1),),)),), "one per vertex"),
    (lambda blocks: blocks[:1] + blocks, "one per vertex"),
    (lambda blocks: ((blocks[0][0], (("1",),)),) + blocks[1:], "entry '1' of the image is not"),
], ids=["extra-block", "duplicated-block", "str-entry"])
def test_inverse_refuses_a_malformed_image(edit, message, rep_cache):
    rep = rep_cache(SN, 3)
    img, _ = fft_sov(random_element(SN, 3, 0), rep)
    with pytest.raises(ArgumentError, match=message):
        from_blocks(SN, 3, edit(img.blocks))


def test_inverse_roundtrip(rep_cache):
    for kind, n, seeds in [(BR, 2, 4), (BR, 3, 4), (TL, 4, 4), (TL, 5, 2)]:
        rep = rep_cache(kind, n)
        plan = sov_plan(kind, n)
        for seed in range(seeds):
            f = random_element(kind, n, seed)
            img, _ = fft_sov(f, rep, plan)
            assert inverse_ft(img, rep).coeffs == f.coeffs


@pytest.mark.parametrize("seed", [0, 1])
def test_sn6_inverse_roundtrip(seed, rep_cache):
    """S_6 inverts by the Fourier inversion formula over its trace rows."""
    rep = rep_cache(SN, 6)
    f = random_element(SN, 6, seed)
    img, _ = fft_sov(f, rep)
    assert inverse_ft(img, rep) == f


def test_warm_inverse_makes_one_fraction_per_coefficient(rep_cache, monkeypatch):
    """The image is read as it stands, and traces and the dual sums of TL stay
    integer: a warm S_4 or TL 4 inversion makes one Fraction per output coefficient."""
    for kind in (SN, TL):
        rep = rep_cache(kind, 4)
        f = random_element(kind, 4, 0)
        img, _ = fft_sov(f, rep)
        assert inverse_ft(img, rep) == f
        made = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__",
                            lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))
        back = inverse_ft(img, rep)
        monkeypatch.undo()
        assert back == f
        assert len(made) == len(back.coeffs) > 0


@pytest.mark.parametrize("kind,n", [(SN, 4), (TL, 5), (BR, 3)],
                         ids=lambda x: getattr(x, "value", x))
def test_warm_engines_make_no_fraction(kind, n, rep_cache, monkeypatch):
    """A warm fft_sov and a warm fft_naive write their images in ints alone, on
    integer and on fractional inputs; a dense view of the image makes Fractions."""
    rep = rep_cache(kind, n)
    f = random_element(kind, n, 0)
    g = AlgebraElement.from_dict(kind, n, {k: v / 7 for k, v in f.coeffs})
    fft_sov(f, rep)
    fft_naive(f, rep)
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))
    images = [engine(h, rep)[0] for engine in (fft_sov, fft_naive) for h in (f, g)]
    assert made == []
    image_block(images[0], rep.vertices()[0])
    assert made  # positive control: the dense view divides
    monkeypatch.undo()
    assert images[:2] == images[2:]


def _dual_table_inverse(img, rep):
    """The inverse through the dual table of `gram_dual`, in Fractions: f(a_j) =
    sum_k G_w^-1[k][j] sum_lam w_lam Tr(f-hat_lam rho_lam(a_k)), w_lam = d_lam on S_n
    and 1 elsewhere, each trace summed from `rho_blocks`."""
    keys, duals, den = rep.gram_dual()
    traces = {}
    for key in keys:
        traces[key] = sum(
            (rep.dim(lam) if rep.kind is SN else 1) * image_block(img, lam)[c][r]
            * Fraction(v, rep.scale())
            for lam, block in rep.rho_blocks(key).items()
            for r, row in block.items() for c, v in row.items()
        )
    table = {key: sum(Fraction(g, den) * traces[k] for k, g in dual.items())
             for key, dual in zip(keys, duals)}
    return AlgebraElement.from_dict(img.kind, img.n, table)


def _random_image(rep, seed, bound=5, dens=4):
    """A dense image with random entries p/q, |p| <= bound and 1 <= q <= dens: the
    image of some element, since the transform is an isomorphism."""
    rng = random.Random(seed)
    return from_blocks(rep.kind, rep.n, tuple(
        (lam, tuple(tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, dens))
                          for _ in range(rep.dim(lam))) for _ in range(rep.dim(lam))))
        for lam in rep.vertices()
    ))


@pytest.mark.parametrize("n", range(6))
def test_sn_inverse_equals_the_dual_table_inverse(n, rep_cache):
    """The inversion formula on S_n gives exactly what the dual table gives, on round
    trips and on random dense images."""
    rep = rep_cache(SN, n)
    images = [fft_sov(random_element(SN, n, seed), rep)[0] for seed in range(2)]
    images += [_random_image(rep, seed) for seed in range(2)]
    for img in images:
        assert inverse_ft(img, rep) == _dual_table_inverse(img, rep)


def test_sn_inverse_reads_no_dual_table(monkeypatch):
    """A fresh S_5 inversion reads no Gram matrix: its dual table is the inverse
    permutation, so it calls no `invert` or `diagram_mul`."""
    import chainfft.diagrams
    import chainfft.reps.core as core

    rep = adapted_rep.__wrapped__(SN, 5, Q)
    calls = []

    def spy(name):
        return lambda *a, **k: calls.append(name)

    monkeypatch.setattr(core, "invert", spy("invert"))
    monkeypatch.setattr(chainfft.diagrams, "diagram_mul", spy("diagram_mul"))
    for seed in range(3):
        f = random_element(SN, 5, seed)
        assert inverse_ft(fft_sov(f, rep)[0], rep) == f
    assert calls == []


@pytest.mark.parametrize("kind,n", [(SN, 4), (TL, 5), (BR, 3)],
                         ids=lambda x: getattr(x, "value", x))
def test_trace_rows_are_the_inverse_transform(kind, n, rep_cache):
    """Each `trace_rows` row, applied in Fractions to every column of the naive
    transform matrix, transposed block by block and weighted by d_lam on S_n, gives
    the identity: the rows are the rows of T^-1."""
    rep = rep_cache(kind, n)
    columns = []
    for column in zip(*naive_transform_matrix(rep)):
        rowwise = list(column)
        for _, at, d in image_layout(kind, n):
            w = d if kind is SN else 1
            rowwise[at : at + d * d] = [w * column[at + c * d + r]
                                        for r in range(d) for c in range(d)]
        columns.append(rowwise)
    _, rows, _ = rep.trace_rows()
    product = [[sum(Fraction(v, den) * x[p] for p, v in zip(positions, values)) for x in columns]
               for positions, values, den in rows]
    assert product == [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]


def _dual_rows(rep):
    """The rows of T^-1 summed from the reference dual table: the row of rho(b_j^v),
    b_j^v = sum_k dual[k] b_k / dual_den, position by position from the `rho_row`s
    over their lcm den, then divided by the gcd of the sums and the den."""
    _, duals, dual_den = dual_table(rep)
    rows = []
    for dual in duals:
        parts = [rep.rho_row(key) for key in dual]
        common = math.lcm(*(den for _, _, den in parts))
        sums: dict = {}
        for (positions, values, den), c in zip(parts, dual.values()):
            for p, v in zip(positions, values):
                sums[p] = sums.get(p, 0) + v * c * (common // den)
        sums = {p: v for p, v in sums.items() if v}
        reduce = math.gcd(dual_den * common, *sums.values())
        rows.append(({p: v // reduce for p, v in sums.items()}, dual_den * common // reduce))
    return rows


@pytest.mark.parametrize("kind,n", [(TL, n) for n in range(6)] + [(BR, n) for n in range(4)],
                         ids=lambda x: getattr(x, "value", x))
def test_trace_rows_equal_the_gram_dual_rows(kind, n, rep_cache):
    """The rows that `trace_rows` reads off T^-1 are, entry for entry and den for den,
    the rows summed from the dual basis of the reference Gram matrix."""
    rep = rep_cache(kind, n)
    keys, rows, _ = rep.trace_rows()
    assert keys == dual_table(rep)[0]
    assert [(dict(zip(positions, values)), den) for positions, values, den in rows] \
        == _dual_rows(rep)


@pytest.mark.parametrize("kind,n", [(TL, 5), (BR, 3)], ids=lambda x: getattr(x, "value", x))
def test_inverse_setup_multiplies_no_diagram(kind, n, monkeypatch):
    """The first inverse on a fresh representation builds the rows of T^-1 by one
    `invert` of T itself: no diagram product, and so no Gram matrix."""
    import sys

    import chainfft.reps.core as core

    rep = adapted_rep.__wrapped__(kind, n, Q)
    f = random_element(kind, n, 0)
    img = fft_sov(f, rep)[0]
    calls = []

    def counted(name, function):
        return lambda *a, **k: calls.append(name) or function(*a, **k)

    for module in [m for name, m in sys.modules.items() if name.startswith("chainfft")]:
        if hasattr(module, "diagram_mul"):
            monkeypatch.setattr(module, "diagram_mul", counted("diagram_mul", module.diagram_mul))
    monkeypatch.setattr(core, "invert", counted("invert", core.invert))
    assert inverse_ft(img, rep) == f
    assert calls == ["invert"]


def _dot_product_inverse(img, rep):
    """The inverse that the packed trace sum replaced, kept as its reference: each
    trace one dot product of the `rho_row` of a basis key with the flat image, over
    the row's own den; then on S_n the inversion formula, f(s) = w(s^-1) / n!, and
    elsewhere the dual table of `gram_dual`."""
    keys = [d.key() for d in all_diagrams(rep.kind, rep.n)]
    rows = [rep.rho_row(key) for key in keys]
    rows_den = math.lcm(*(row_den for _, _, row_den in rows))
    sn = rep.kind is SN
    den = math.lcm(*(x.denominator for _, m in img.blocks for row in m for x in row))
    flat = []
    for _, block in img.blocks:
        weight = den * len(block) if sn else den
        flat.extend(x.numerator * (weight // x.denominator) for col in zip(*block) for x in col)
    at = flat.__getitem__
    traces = [sum(map(operator.mul, map(at, positions), values)) for positions, values, _ in rows]
    if sn:
        scale = math.factorial(rep.n) * den
        perms = [sn_permutation(key, rep.n) for key in keys]
        index = {perm: j for j, perm in enumerate(perms)}
        inverses = [index[tuple(sorted(range(rep.n), key=perm.__getitem__))] for perm in perms]
        outputs = ((key, traces[j], scale * rows[j][2]) for key, j in zip(keys, inverses))
    else:
        _, duals, dual_den = dual_table(rep)
        scaled = (w * (rows_den // row_den) for w, (_, _, row_den) in zip(traces, rows))
        by_key = dict(zip(keys, scaled)).__getitem__
        total = dual_den * den * rows_den
        outputs = ((key, sum(map(operator.mul, map(by_key, dual), dual.values())), total)
                   for key, dual in zip(keys, duals))
    return AlgebraElement(img.kind, img.n, tuple((key, Fraction(v, d)) for key, v, d in outputs if v))


PACKED_CASES = ([(SN, n) for n in range(7)] + [(TL, n) for n in range(6)]
                + [(BR, n) for n in range(5)])


@pytest.mark.parametrize("kind,n", PACKED_CASES, ids=lambda x: getattr(x, "value", x))
def test_packed_inverse_equals_the_dot_product_inverse(kind, n, rep_cache):
    """The packed trace sum gives what one dot product per row gives: on round trips,
    and on random dense images with numerators up to 2^60, wider than one limb
    once scaled to their common denominator."""
    rep = rep_cache(kind, n)
    images = [fft_sov(random_element(kind, n, seed), rep)[0] for seed in range(2)]
    images += [_random_image(rep, seed, 2**60) for seed in range(2)]
    for img in images:
        assert inverse_ft(img, rep) == _dot_product_inverse(img, rep)


@pytest.mark.parametrize("kind,n", [(SN, 4), (TL, 4), (BR, 3)],
                         ids=lambda x: getattr(x, "value", x))
def test_packed_inverse_of_many_limbs(kind, n, rep_cache):
    """An image over many distinct denominators has numerators of hundreds of bits:
    they are cut into limbs, and the traces equal the dot products."""
    rep = rep_cache(kind, n)
    img = _random_image(rep, 7, 2**40, 10**6)
    den = math.lcm(*(x.denominator for _, m in img.blocks for row in m for x in row))
    assert den.bit_length() > 2 * 64
    assert inverse_ft(img, rep) == _dot_product_inverse(img, rep)


@pytest.mark.parametrize("kind,n", [(SN, 6), (TL, 5), (BR, 4)],
                         ids=lambda x: getattr(x, "value", x))
def test_fresh_table_first_inverts_a_narrow_image(kind, n, rep_cache, monkeypatch):
    """A fresh representation whose first inverse is of the identity's image packs a
    table only a few bits wider than its rows, where a row of den 1 is scaled by the
    whole common den.  The round trip and the dot products agree.  The rows of T^-1
    are borrowed from the shared representation, so only the packed table is fresh."""
    rep = adapted_rep.__wrapped__(kind, n, Q)
    monkeypatch.setattr(rep, "trace_rows", rep_cache(kind, n).trace_rows)
    f = AlgebraElement.from_dict(kind, n, {identity_diagram(kind, n).key(): Fraction(1)})
    img = fft_sov(f, rep)[0]
    assert inverse_ft(img, rep) == _dot_product_inverse(img, rep) == f
    assert rep._packed[1] <= 64


@pytest.mark.parametrize("kind,n", [(SN, 5), (TL, 6), (BR, 4)],
                         ids=lambda x: getattr(x, "value", x))
def test_fresh_table_first_packs_a_one_bit_vector(kind, n, rep_cache, monkeypatch):
    """The first packed sum of a fresh representation, over an image of -1, 0 and 1,
    equals one dot product per row of T^-1 in the row layout, scaled to the rows'
    common den.  The rows are borrowed from the shared representation, so only the
    packed table is fresh."""
    rep = adapted_rep.__wrapped__(kind, n, Q)
    monkeypatch.setattr(rep, "trace_rows", rep_cache(kind, n).trace_rows)
    rng = random.Random(n)
    x = tuple(rng.choice((-1, 0, 1)) for _ in range(rep.algebra_dim()))
    _, rows, den = rep.trace_rows()
    # x in the row layout: transposed block by block, and weighted by d_lam on S_n
    rowwise = [v.numerator * (len(block) if kind is SN else 1)
               for _, block in FourierImage(kind, n, x, 1).blocks
               for col in zip(*block) for v in col]
    at = rowwise.__getitem__
    expected = [sum(map(operator.mul, map(at, positions), values)) * (den // row_den)
                for positions, values, row_den in rows]
    assert rep.traces(x) == expected


def test_packed_table_grows_to_the_widest_call(monkeypatch):
    """A narrow call, a wide one and a narrow one build the table twice: the wide
    call rebuilds it, and the narrow one after reads the wider table."""
    from chainfft.reps.core import AdaptedRep

    rep = adapted_rep.__wrapped__(SN, 4, Q)
    built = []
    pack = AdaptedRep._pack_traces
    monkeypatch.setattr(AdaptedRep, "_pack_traces",
                        lambda self, width, bias: built.append(width) or pack(self, width, bias))
    narrow = fft_sov(random_element(SN, 4, 0), rep)[0]
    wide = _random_image(rep, 0, 2**50, 1)
    for img in (narrow, wide, narrow):
        assert inverse_ft(img, rep) == _dot_product_inverse(img, rep)
    assert len(built) == 2 and built[0] < built[1]
    assert rep._packed[1] == built[1]


def test_warm_inverse_builds_no_table(monkeypatch):
    """Once an inverse has packed the trace rows, inverses no wider build nothing and
    read no dual table, on S_5, TL 5 and Brauer 3."""
    from chainfft.reps.core import AdaptedRep

    for kind, n, other in [(SN, 5, 70), (TL, 5, 28), (BR, 3, 10)]:
        rep = adapted_rep.__wrapped__(kind, n, Q)
        f = random_element(kind, n, 0)
        img = fft_sov(f, rep)[0]
        assert inverse_ft(img, rep) == f
        calls = []
        for name in ("_pack_traces", "_block_data", "gram_dual", "_inverse_rows", "rho_row"):
            monkeypatch.setattr(AdaptedRep, name,
                                lambda self, *a, _name=name: calls.append(_name))
        assert inverse_ft(img, rep) == f
        keys = list(_routing(kind, n).index)
        g = AlgebraElement.from_dict(kind, n, {keys[3]: 1, keys[other]: Fraction(-5, 2)})
        img_g = fft_sov(g, rep)[0]
        assert inverse_ft(img_g, rep) == g
        monkeypatch.undo()
        assert calls == []


def test_packed_traces_refuse_to_decode_an_overflow(monkeypatch):
    """A table too narrow for its image is refused, not decoded: both traces of S_2
    at x = (1000, 0) are 1000, which overflows 8-bit slots."""
    rep = adapted_rep.__wrapped__(SN, 2, Q)
    width, columns, bias = rep.packed_traces(0)
    assert width == 8
    monkeypatch.setattr(rep, "packed_traces", lambda bits: (width, columns, bias))
    assert rep.traces([3, 0]) == [3, 3]
    with pytest.raises(OverflowError, match="8-bit slots"):
        rep.traces([1000, 0])


@pytest.mark.parametrize("w8", [1, 2, 3, 4, 5, 6, 7, 8, 11])
def test_packed_sum_decodes_every_slot_width(w8):
    """The packed sum's decode reads what one `int.from_bytes` per slot reads, at every
    byte width that fits a 64-bit lane and at one above, on slots at 0 and at
    +-(2^(W-1) - 1); a sum that carries out of its top slot or below 0 is refused."""
    from types import SimpleNamespace

    from chainfft.reps.core import AdaptedRep

    width = 8 * w8
    half, top = 1 << (width - 1), (1 << (width - 1)) - 1
    x = [0, top, -top, 1, -1, 0, top, -top, 5]
    columns = [1 << (width * j) for j in range(len(x))]  # slot j holds x[j]
    bias = sum(half << (width * j) for j in range(len(x)))
    packed = SimpleNamespace(packed_traces=lambda bits: (width, columns, bias))
    total = bias + sum(v * c for v, c in zip(x, columns))
    data = total.to_bytes(w8 * len(x), "little")
    per_slot = [int.from_bytes(data[at : at + w8], "little") - half
                for at in range(0, len(data), w8)]
    assert AdaptedRep._packed_sum(packed, x) == per_slot == x
    for last in (half, -half - 1):
        with pytest.raises(OverflowError, match=f"{width}-bit slots"):
            AdaptedRep._packed_sum(packed, x[:-1] + [last])


def test_inverse_refused_at_s7_before_any_rho(monkeypatch):
    """S_7 is beyond `GRAM_LIMITS`: refused before any rho is built or row compiled."""
    from chainfft.reps.core import AdaptedRep

    rep = adapted_rep.__wrapped__(SN, 7, Q)
    img = from_blocks(SN, 7, tuple(
        (lam, ((Fraction(0),) * rep.dim(lam),) * rep.dim(lam)) for lam in rep.vertices()
    ))
    calls = []
    monkeypatch.setattr(AdaptedRep, "_block_data", lambda self, *a: calls.append(a))
    with pytest.raises(CapabilityError, match="n <= 6"):
        inverse_ft(img, rep)
    assert calls == [] and rep._rows == {}


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


@pytest.mark.parametrize("value", [0.1, 2.0, True, False])
def test_from_dict_refuses_floats_and_bools(value):
    key = identity_diagram(TL, 2).key()
    with pytest.raises(ArgumentError, match="give an int, a Fraction or a string"):
        AlgebraElement.from_dict(TL, 2, {key: value})
    table = {key: 1, generator(TL, ("e", 1), 2).key(): Fraction(1, 3)}
    assert AlgebraElement.from_dict(TL, 2, {**table, key: "1/2"}).table() == {
        **table, key: Fraction(1, 2)
    }


@pytest.mark.parametrize("value", ["abc", "1/0", None, [1]])
def test_from_dict_refuses_malformed_values(value):
    key = identity_diagram(TL, 2).key()
    with pytest.raises(ArgumentError, match=f"of {re.escape(repr(key))} is not a rational number"):
        AlgebraElement.from_dict(TL, 2, {key: value})


def _fraction_reading(value, name: str):
    """(value, None) or (None, message): a JSON coefficient or q read by `Fraction`,
    after the refusal of a bool and of anything but a string or an integer; either
    refusal names the field and its value."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        return None, (f"malformed coefficient payload: {name}={value!r} "
                      "is not a string or an integer")
    try:
        return Fraction(value), None
    except (ValueError, ArithmeticError):
        return None, f"malformed coefficient payload: {name}={value!r} is not a rational number"


def _check_parse_as_fraction(value):
    """`element_from_json` reads value, as a coefficient and as q, to what `Fraction`
    reads, stored as a `Fraction`, or refuses it with the same `ArgumentError`."""
    key = "1-2,3-4"  # e_1, a basis key of TL 2
    row = {"chain": "tl", "n": 2, "q": "10/3", "coeffs": [{"diagram": key, "value": value}]}
    for payload, name in ((row, "coeffs[0].value"), ({**row, "q": value, "coeffs": []}, "q")):
        want, message = _fraction_reading(value, name)
        if message is not None:
            with pytest.raises(ArgumentError) as exc:
                element_from_json(payload, TL, 2)
            assert str(exc.value) == message
            continue
        f, q = element_from_json(payload, TL, 2)
        got = q if name == "q" else (f.coeffs[0][1] if f.coeffs else Fraction(0))
        assert got == want and type(got) is Fraction
        assert name == "q" or f.coeffs == (((key, want),) if want else ())


@pytest.mark.parametrize("value", [
    "0", "-0", "7", "-12", "007", "+5", " 5 ", "5\n", "1_0", "1__0", "_1", "\u0663",
    "\uff11\uff12", "-\u0663", "\u00b2", "1\u00b2", "1/0", "0/0", "3/6", "-1/3", "1e3",
    "1E-2", "5.0", ".5", "", "-", "--1", "+-1", "1-", "abc", "1" * 5000, "-" + "1" * 5000,
    "9" * 4300,
    0, 5, -3, 10**40, True, False, 1.0, 0.5, None, [1],
], ids=lambda v: repr(v) if len(repr(v)) < 50 else f"{repr(v)[:5]}..{len(v)}-chars")
def test_coefficient_parse_matches_fraction(value):
    _check_parse_as_fraction(value)


@settings(max_examples=300)
@given(st.one_of(
    st.integers().map(str),
    st.from_regex(r"\A[ +-]?[0-9_\u0660-\u0669\u00b2]{0,5}([./eE][+-]?[0-9_]{0,3})?[ \n]?\Z"),
    st.text(max_size=6),
    st.integers(),
    st.booleans(),
    st.floats(),
))
def test_coefficient_parse_matches_fraction_property(value):
    _check_parse_as_fraction(value)


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

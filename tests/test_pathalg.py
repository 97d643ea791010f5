"""The Fourier space as the path algebra of the Bratteli diagram.

Gel'fand-Tsetlin paths index the blocks of a FourierImage; the level
embedding is the SOV engine's _embed_blocks, and the product is the
blockwise matrix product that convolution_check compares against.
"""

import json
import random
from fractions import Fraction

import pytest

from chainfft.combinat import ChainKind, build_bratteli, cached_bratteli
from chainfft.diagrams import all_diagrams, grow, identity_diagram
from chainfft.errors import ArgumentError, InvalidVertexError
from chainfft.transform import (
    AlgebraElement,
    FourierImage,
    _embed_blocks,
    fft_naive,
    image_to_json,
    random_element,
)
from reference import convolution_check, from_blocks

BR = ChainKind.BRAUER
TL = ChainKind.TEMPERLEY_LIEB
SN = ChainKind.SYMMETRIC_GROUP


def sparse_blocks(img: FourierImage) -> dict:
    """Row-major {row: {col: value}} of the nonzero entries, the rows numbered across
    the blocks in vertex order, as _embed_blocks takes."""
    out, first = {}, 0
    for _, m in img.blocks:
        for r, row in enumerate(m):
            kept = {c: v for c, v in enumerate(row) if v}
            if kept:
                out[first + r] = kept
        first += len(m)
    return out


def block_rows(B, level: int) -> dict:
    """{vertex: range of its rows} at a level: the rows numbered in vertex order."""
    out, first = {}, 0
    for lam, d in zip(B.vertices(level), B.dims[level]):
        out[lam], first = range(first, first + d), first + d
    return out


def entry_count(table: dict, rows: range) -> int:
    return sum(len(table.get(r, {})) for r in rows)


def identity_image(rep) -> FourierImage:
    key = identity_diagram(rep.kind, rep.n).key()
    return fft_naive(AlgebraElement.from_dict(rep.kind, rep.n, {key: 1}), rep)[0]


def test_enumerate_counts():
    B = cached_bratteli(BR, 3)
    paths, _ = B.paths(3, (1,))
    assert len(paths) == 3
    assert {p[2] for p in paths} == {(2,), (1, 1), ()}
    assert B.paths(0, ())[0] == (((),),)
    Bt = cached_bratteli(TL, 4)
    assert len(Bt.paths(4, (2, 2))[0]) == 2


def test_enumerate_matches_dims():
    for kind in (BR, TL):
        B = cached_bratteli(kind, 5)
        for level in range(6):
            for v in B.vertices(level):
                paths, pos = B.paths(level, v)
                assert len(paths) == B.dim(level, v)
                assert all(len(p) == level + 1 and p[-1] == v for p in paths)


def test_gt_index_deterministic():
    B = cached_bratteli(BR, 3)
    paths, pos = B.paths(3, (1,))
    assert B.paths(3, [1]) is B.paths(3, (1,))
    assert pos == {p: k for k, p in enumerate(paths)}
    assert sorted(pos.values()) == [0, 1, 2]
    assert B.paths(0, ())[1] == {((),): 0}
    assert build_bratteli(BR, 3).paths(3, (1,)) == (paths, pos)


def test_pa_dim_matches_algebra(rep_cache):
    for kind, n, dims in [(BR, 3, 15), (TL, 4, 14)]:
        rep = rep_cache(kind, n)
        assert sum(len(rep.B.paths(n, v)[0]) ** 2 for v in rep.vertices()) == dims
        assert len(identity_image(rep).flat) == dims


def test_pa_identity_two_sided(rep_cache):
    rep = rep_cache(TL, 3)
    one = AlgebraElement.from_dict(TL, 3, {identity_diagram(TL, 3).key(): 1})
    a = random_element(TL, 3, 0)
    assert convolution_check(one, a, rep).ok
    assert convolution_check(a, one, rep).ok


def test_pa_mul_level_mismatch(rep_cache):
    with pytest.raises(ArgumentError):
        convolution_check(random_element(BR, 2, 0), random_element(BR, 3, 0), rep_cache(BR, 3))


@pytest.mark.parametrize("kind,n", [(TL, n) for n in range(2, 7)] + [(SN, n) for n in range(1, 5)]
                         + [(BR, 2), (BR, 3)], ids=lambda x: getattr(x, "value", x))
def test_row_moves_follow_the_paths(kind, n):
    """Row r of vertex mu at level L-1 is a path p; each move (rr, offset) of r lands
    on lam's first row plus the position of p + (lam,) in lam's `paths` order, one
    move per edge out of mu, and offset is that position less p's own in mu.  No two
    rows move onto one row, and every level-L row is reached."""
    B = build_bratteli(kind, n)
    for level in range(1, n + 1):
        moves, below, above = B.row_moves(level), block_rows(B, level - 1), block_rows(B, level)
        assert len(moves) == sum(B.dims[level - 1])
        reached = []
        for mu, rows in below.items():
            paths = B.paths(level - 1, mu)[0]
            for r, p in zip(rows, paths):
                lams = B.out_neighbors(level - 1, mu)
                assert len(moves[r]) == len(lams)
                for (rr, offset), lam in zip(moves[r], lams):
                    at = B.paths(level, lam)[1][p + (lam,)]
                    assert rr == above[lam].start + at
                    assert offset == at - (r - rows.start)
                reached.extend(rr for rr, _ in moves[r])
        assert sorted(reached) == list(range(sum(B.dims[level])))
    assert B.row_moves(n) is B.row_moves(n)
    with pytest.raises(InvalidVertexError):
        B.row_moves(0)
    with pytest.raises(InvalidVertexError):
        B.row_moves(n + 1)


def test_embed_identity_to_identity(rep_cache):
    for level in (1, 2, 3):
        rep = rep_cache(BR, level)
        sub = sparse_blocks(identity_image(rep_cache(BR, level - 1)))
        assert _embed_blocks(rep, level, sub) == sparse_blocks(identity_image(rep))


def test_embed_level1_diagonal_fanout(rep_cache):
    rep = rep_cache(BR, 2)
    out = _embed_blocks(rep, 2, {0: {0: Fraction(1)}})
    assert rep.vertices(2) == ((2,), (1, 1), ()) and rep.B.dims[2] == (1, 1, 1)
    assert out == {0: {0: 1}, 1: {0: 1}, 2: {0: 1}}


def test_embed_is_algebra_homomorphism(rep_cache):
    """embed(fft(f)) == fft(grow(f)) for random f at level n-1."""
    rng = random.Random(2)
    for kind, n in [(SN, 4), (TL, 5), (BR, 3), (BR, 4)]:
        small, big = rep_cache(kind, n - 1), rep_cache(kind, n)
        basis = all_diagrams(kind, n - 1)
        for _ in range(4):
            support = rng.sample(basis, min(8, len(basis)))
            table = {d: Fraction(rng.randint(-9, 9)) for d in support}
            f = AlgebraElement.from_dict(kind, n - 1, {d.key(): c for d, c in table.items()})
            grown = AlgebraElement.from_dict(
                kind, n, {grow(d, n).key(): c for d, c in table.items()}
            )
            embedded = _embed_blocks(big, n, sparse_blocks(fft_naive(f, small)[0]))
            assert embedded == sparse_blocks(fft_naive(grown, big)[0])


def test_embed_injective_on_random(rep_cache):
    sub = sparse_blocks(fft_naive(random_element(BR, 2, 3), rep_cache(BR, 2))[0])
    B = rep_cache(BR, 3).B
    out = _embed_blocks(rep_cache(BR, 3), 3, sub)
    assert out
    below, above = block_rows(B, 2), block_rows(B, 3)
    for lam, rows in above.items():
        # distinct level-2 entries land on distinct level-3 positions
        assert entry_count(out, rows) == sum(
            entry_count(sub, below[mu]) for mu in B.in_neighbors(3, lam)
        )


def test_block_structure_matches_matrix_mult(rep_cache):
    rep = rep_cache(TL, 3)
    for seed in range(4):
        f, g = random_element(TL, 3, seed), random_element(TL, 3, 10 + seed)
        assert convolution_check(f, g, rep).ok


def test_blocks_json_roundtrip(rep_cache):
    rep = rep_cache(BR, 3)
    img, _ = fft_naive(random_element(BR, 3, 5), rep)
    payload = json.loads(json.dumps(image_to_json(img)))
    assert payload["level"] == 3
    back = tuple(
        (tuple(b["vertex"]), tuple(tuple(Fraction(x) for x in row) for row in b["matrix"]))
        for b in payload["blocks"]
    )
    assert from_blocks(BR, 3, back) == img

"""Closed-form seminormal local blocks for the symmetric-group and TL chains.

A local block for generator g_i is a small matrix indexed by the middle
vertices of a two-step frame (mu at level i-1, nu at level i+1); full
representation matrices are assembled from these blocks along paths.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..combinat import (
    ChainKind,
    Partition,
    cached_bratteli,
    partition_key,
)
from ..errors import ParameterError

Token = tuple[str, int]
BlockKey = tuple[Token, Partition, Partition]


def middles(B, i: int, mu: Partition, nu: Partition) -> list[Partition]:
    """Level-i vertices adjacent to both mu (level i-1) and nu (level i+1)."""
    ups = set(B.out_neighbors(i - 1, mu))
    downs = set(B.in_neighbors(i + 1, nu))
    return sorted(ups & downs, key=partition_key)


def added_box(mu: Partition, kappa: Partition) -> tuple[int, int]:
    """(row, col) of the box of kappa not in mu (1-indexed)."""
    rows = max(len(mu), len(kappa))
    for r in range(rows):
        a = mu[r] if r < len(mu) else 0
        b = kappa[r] if r < len(kappa) else 0
        if b == a + 1:
            return (r + 1, b)
    raise ValueError(f"{kappa!r} is not {mu!r} plus one box")


def content(box: tuple[int, int]) -> int:
    r, c = box
    return c - r


def sn_block_table(n: int) -> dict[BlockKey, tuple[tuple[Fraction, ...], ...]]:
    """Young seminormal blocks for r_1..r_{n-1} on the Young-lattice diagram."""
    B = cached_bratteli(ChainKind.SYMMETRIC_GROUP, n)
    table: dict[BlockKey, tuple] = {}
    for i in range(1, n):
        for mu in B.vertices(i - 1):
            for nu in B.vertices(i + 1):
                mids = middles(B, i, mu, nu)
                if not mids:
                    continue
                table[(("r", i), mu, nu)] = _sn_frame_block(mu, nu, mids)
    return table


def _sn_frame_block(mu: Partition, nu: Partition, mids: list[Partition]):
    boxes = {kappa: added_box(mu, kappa) for kappa in mids}
    if len(mids) == 1:
        kappa = mids[0]
        first = boxes[kappa]
        second = added_box(kappa, nu)
        d = content(second) - content(first)
        return ((Fraction(1, d),),)
    k1, k2 = mids
    rows = {k1: {}, k2: {}}
    for kappa, other in ((k1, k2), (k2, k1)):
        d = content(added_box(kappa, nu)) - content(boxes[kappa])
        rows[kappa][kappa] = Fraction(1, d)
        rows[other][kappa] = Fraction(1) - Fraction(1, d * d) if d > 0 else Fraction(1)
    return (
        (rows[k1][k1], rows[k1][k2]),
        (rows[k2][k1], rows[k2][k2]),
    )


@lru_cache(maxsize=None)
def chebyshev_u(ell: int, q: Fraction) -> Fraction:
    """U_0 = 1, U_1 = q, U_{l+1} = q U_l - U_{l-1}; U_{-1} = 0."""
    if ell < 0:
        return Fraction(0)
    if ell == 0:
        return Fraction(1)
    if ell == 1:
        return Fraction(q)
    return q * chebyshev_u(ell - 1, q) - chebyshev_u(ell - 2, q)


def row_gap(lam: Partition) -> int:
    a = lam[0] if lam else 0
    b = lam[1] if len(lam) > 1 else 0
    return a - b


def tl_block_table(n: int, q: Fraction) -> dict[BlockKey, tuple]:
    """Rank-one seminormal e_i blocks with Chebyshev column weights.

    The block at a frame (mu, nu = mu plus one box in each row) has entries
    B[kappa][kappa'] = U_{gap(kappa')} / U_{gap(mu)}; other frames vanish.  The
    blocks of TL_n read U_0..U_{n-1}, so q is refused iff one of them vanishes.
    """
    q = Fraction(q)
    for ell in range(n):
        if chebyshev_u(ell, q) == 0:
            raise ParameterError(f"q = {q} makes the weight U_{ell} vanish")
    B = cached_bratteli(ChainKind.TEMPERLEY_LIEB, n)
    table: dict[BlockKey, tuple] = {}
    for i in range(1, n):
        for mu in B.vertices(i - 1):
            a = mu[0] if mu else 0
            b = mu[1] if len(mu) > 1 else 0
            nu = tuple(p for p in (a + 1, b + 1) if p)
            if nu not in B.vertices(i + 1):
                continue
            mids = middles(B, i, mu, nu)
            denom = chebyshev_u(row_gap(mu), q)
            block = tuple(
                tuple(chebyshev_u(row_gap(kcol), q) / denom for kcol in mids)
                for _ in mids
            )
            table[(("e", i), mu, nu)] = block
    return table

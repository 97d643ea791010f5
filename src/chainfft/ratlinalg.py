"""Dense exact linear algebra over Fraction (row echelon, nullspace, inverse).

`nullspace` and `invert` read `rref`, and `rref` runs the one elimination:
fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968) on rows scaled to
integers.  Scaling a row does not change the reduced row echelon form, which
is unique, so dividing each pivot row by its pivot at the end gives the exact
RREF of the input with no Fraction arithmetic inside the loop.  The rank and
the solve that the tests read from `rref` live next to those tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [
        [sum(x * y for x, y in zip(row, col)) for col in bt]
        for row in a
    ]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    After each pivot step every entry is a minor of the scaled matrix, and
    every pivot row holds the latest pivot in its pivot column, so the
    division by the previous pivot is exact for the rows above and below.
    """
    rows = []
    for row in m:
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    pivots, prev = [], 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r and any(row):
                a = row[c]
                rows[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = p
        if len(pivots) == len(rows):
            break
    return [[Fraction(x, prev) for x in row] for row in rows], pivots


def nullspace(m: Matrix, cols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right nullspace of m."""
    if not m:
        return identity(cols or 0)
    cols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def invert(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError when singular."""
    n, zero, one = len(m), Fraction(0), Fraction(1)
    aug = [row[:] + [one if j == i else zero for j in range(n)] for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]

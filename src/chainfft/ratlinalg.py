"""Dense exact linear algebra over Fraction (row echelon, nullspace, inverse)."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list[list[Fraction]]


def mat(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    cols = len(b[0])
    bt = list(zip(*b))
    return [
        [sum(x * y for x, y in zip(row, col)) for col in bt]
        for row in a
    ]


def mat_vec(a: Matrix, v: list[Fraction]) -> list[Fraction]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [row[:] for row in m]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(m: Matrix) -> int:
    """Rank by fraction-free (Bareiss) elimination on rows scaled to integers.

    After each pivot step every entry below is a minor of the scaled matrix,
    so the division by the previous pivot is exact.
    """
    rows = []
    for row in m:
        scale = lcm(*(Fraction(x).denominator for x in row))
        rows.append([int(x * scale) for x in row])
    r, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(r + 1, len(rows)):
            a = rows[i][c]
            rows[i] = [(p * x - a * y) // prev for x, y in zip(rows[i], top)]
        prev, r = p, r + 1
    return r


def nullspace(m: Matrix, cols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right nullspace of m."""
    if not m:
        return [[Fraction(int(i == j)) for j in range(cols or 0)] for i in range(cols or 0)]
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


def solve(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One solution of a x = b, or None when inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def intersect_kernel(constraints: list[Matrix], dim: int) -> list[list[Fraction]]:
    """Common nullspace of several square operators on the same space.

    Solves the first kernel outright, then restricts each further constraint
    to the running span so later eliminations stay small.
    """
    basis = None
    for op in constraints:
        if basis is None:
            basis = nullspace(op, dim)
        else:
            imgs = [mat_vec(op, v) for v in basis]
            coeffs = nullspace([list(col) for col in zip(*imgs)], len(basis))
            basis = [
                [sum(c[k] * basis[k][j] for k in range(len(basis))) for j in range(dim)]
                for c in coeffs
            ]
        if not basis:
            return []
    if basis is None:
        basis = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    return basis

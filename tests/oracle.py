"""Independent representation oracle: split the left-regular module exactly.

The regular module is cut into isotypic blocks by primitive central
idempotents (found from rational eigenvalues of a random central element),
one irreducible copy is extracted per block, and its basis is adapted level
by level with the embedded subalgebra centers.  All arithmetic is exact:
eigenvalues are isolated with Sturm sequences over the integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from chainfft.combinat import ChainKind, cached_bratteli
from chainfft.diagrams import (
    all_diagrams,
    diagram_from_key,
    diagram_mul,
    generator,
    grow,
    identity_diagram,
)
from chainfft.errors import CapabilityError, ParameterError
from chainfft.ratlinalg import Matrix, identity, mat_mul, nullspace, rref
from chainfft.reps import DEFAULT_Q
from reference import word_of

ORACLE_LIMITS = {
    ChainKind.BRAUER: 4,
    ChainKind.TEMPERLEY_LIEB: 6,
    ChainKind.SYMMETRIC_GROUP: 4,
}


class RegularAlgebra:
    """The algebra acting on itself, with cached structure constants."""

    def __init__(self, kind: ChainKind, n: int, q: Fraction):
        self.kind, self.n, self.q = kind, n, Fraction(q)
        self.basis = all_diagrams(kind, n)
        self.index = {d.key(): i for i, d in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._prod: dict[tuple[int, int], tuple[int, int]] = {}

    def product(self, i: int, j: int) -> tuple[int, int]:
        key = (i, j)
        if key not in self._prod:
            out = diagram_mul(self.basis[i], self.basis[j])
            self._prod[key] = (self.index[out.diagram.key()], out.loops)
        return self._prod[key]

    def left_apply(self, i: int, vec: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * self.dim
        for j, c in enumerate(vec):
            if c:
                k, loops = self.product(i, j)
                out[k] += c * self.q**loops
        return out

    def elem_apply(self, elem: list[Fraction], vec: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(elem):
            if a:
                img = self.left_apply(i, vec)
                for k, v in enumerate(img):
                    if v:
                        out[k] += a * v
        return out

    def right_apply(self, vec: list[Fraction], elem: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * self.dim
        for j, c in enumerate(vec):
            if not c:
                continue
            for i, a in enumerate(elem):
                if a:
                    k, loops = self.product(j, i)
                    out[k] += c * a * self.q**loops
        return out

    def identity_vector(self) -> list[Fraction]:
        vec = [Fraction(0)] * self.dim
        vec[self.index[identity_diagram(self.kind, self.n).key()]] = Fraction(1)
        return vec

    def generators(self) -> list[int]:
        syms = ("r",) if self.kind is ChainKind.SYMMETRIC_GROUP else (
            ("e",) if self.kind is ChainKind.TEMPERLEY_LIEB else ("r", "e")
        )
        out = []
        for i in range(1, self.n):
            for s in syms:
                out.append(self.index[generator(self.kind, (s, i), self.n).key()])
        return out


def solve(a: Matrix, b: list[Fraction], cols: int | None = None) -> list[Fraction] | None:
    """One solution of a x = b, or None when inconsistent.

    `cols`, the number of unknowns, is needed only when a has no rows.
    """
    rows = len(a)
    cols = len(a[0]) if rows else (cols or 0)
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def _span_basis(vectors: list[list[Fraction]]) -> list[list[Fraction]]:
    if not vectors:
        return []
    red, pivots = rref([v[:] for v in vectors])
    return [red[r] for r in range(len(pivots))]


def _center_basis(alg: RegularAlgebra) -> list[list[Fraction]]:
    """Nullspace of x -> (x g - g x) stacked over the generators."""
    dim = alg.dim
    rows: list[list[Fraction]] = []
    for g in alg.generators():
        M = [[Fraction(0)] * dim for _ in range(dim)]
        for j in range(dim):
            k1, l1 = alg.product(j, g)
            M[k1][j] += alg.q**l1
            k2, l2 = alg.product(g, j)
            M[k2][j] -= alg.q**l2
        rows.extend(M)
    return nullspace(rows, dim)


def _unit(dim: int, j: int) -> list[Fraction]:
    v = [Fraction(0)] * dim
    v[j] = Fraction(1)
    return v


def _minimal_polynomial(alg: RegularAlgebra, z: list[Fraction]) -> list[Fraction]:
    """Monic minimal polynomial of the central element z (coeffs low to high)."""
    vecs = [alg.identity_vector()]
    while True:
        nxt = alg.elem_apply(z, vecs[-1])
        stacked = [list(col) for col in zip(*(vecs + [nxt]))]
        sol = solve([row[:-1] for row in stacked], [row[-1] for row in stacked])
        if sol is not None:
            return [-c for c in sol] + [Fraction(1)]
        vecs.append(nxt)


def _rational_roots(poly: list[Fraction]) -> list[Fraction] | None:
    """All roots when the monic polynomial splits into distinct rational factors.

    With s the lcm of the coefficient denominators, s^d poly(y / s) is monic
    with integer coefficients, so its rational roots are integers.  Sturm
    sequences count its distinct real roots between half-integers, which are
    never roots; bisecting down to unit intervals isolates each root, and the
    one integer inside is the candidate that is then checked exactly.
    """
    deg = len(poly) - 1
    s = lcm(*(c.denominator for c in poly))
    scaled = [c * s ** (deg - k) for k, c in enumerate(poly)]
    sturm = [scaled]
    nxt = [k * c for k, c in enumerate(scaled)][1:]
    while nxt:
        sturm.append(nxt)
        nxt = [-c for c in _poly_rem(sturm[-2], sturm[-1])]

    def changes(x: Fraction) -> int:
        signs = [v > 0 for v in (_poly_eval(p, x) for p in sturm) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = 1 + max((abs(c) for c in scaled[:-1]), default=0)
    roots: list[Fraction] = []
    stack = [(-bound - Fraction(1, 2), bound + Fraction(1, 2))]
    while stack:
        lo, hi = stack.pop()
        count = changes(lo) - changes(hi)
        if count == 0:
            continue
        if hi - lo == 1:
            if count > 1:
                return None
            roots.append((lo + Fraction(1, 2)) / s)
            continue
        mid = lo + (hi - lo) // 2
        stack += [(lo, mid), (mid, hi)]
    if len(roots) != deg:
        return None
    for r in roots:
        if _poly_eval(poly, r) != 0:
            return None
    return roots


def _poly_eval(poly: list[Fraction], x: Fraction) -> Fraction:
    """Horner evaluation; coefficients low to high."""
    out = Fraction(0)
    for c in reversed(poly):
        out = out * x + c
    return out


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a modulo b (coefficients low to high, b nonzero lead)."""
    a = list(a)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] -= factor * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


@lru_cache(maxsize=None)
def central_idempotents(kind: ChainKind, n: int, q: Fraction) -> tuple:
    """Primitive central idempotents as coefficient tuples over the basis."""
    alg = RegularAlgebra(kind, n, q)
    if n <= 1:
        return (tuple(alg.identity_vector()),)
    center = _center_basis(alg)
    rng = random.Random(20240 + n)
    for _ in range(24):
        coef = [rng.randint(-5, 5) for _ in center]
        z = [
            sum(c * b[k] for c, b in zip(coef, center))
            for k in range(alg.dim)
        ]
        poly = _minimal_polynomial(alg, z)
        if len(poly) - 1 != len(center):
            continue
        roots = _rational_roots(poly)
        if roots is None:
            continue
        roots.sort()
        idems = []
        for r in roots:
            vec = alg.identity_vector()
            scale = Fraction(1)
            for rp in roots:
                if rp == r:
                    continue
                vec = [a - rp * b for a, b in zip(alg.elem_apply(z, vec), vec)]
                scale *= r - rp
            idems.append(tuple(v / scale for v in vec))
        return tuple(idems)
    raise ParameterError(f"no separating central element found for {kind.value} n={n}")


@dataclass
class OracleIrrep:
    dim: int
    basis: list  # vectors inside the regular module
    matrices: dict  # token -> dense matrix


def oracle_matrix(irrep: OracleIrrep, kind: ChainKind, n: int, key: str):
    """Matrix of a basis diagram in the oracle irrep (via its generator word)."""
    word = word_of(diagram_from_key(kind, n, key))
    out = identity(irrep.dim)
    for token in word.tokens:
        out = mat_mul(out, irrep.matrices[token])
    return out


@dataclass
class OracleRep:
    kind: ChainKind
    n: int
    q: Fraction
    irreps: list[OracleIrrep]

    def dims(self) -> list[int]:
        return sorted(r.dim for r in self.irreps)


def _split_by_idempotents(alg, space, idems_embedded):
    parts = []
    for e in idems_embedded:
        projected = [alg.elem_apply(list(e), v) for v in space]
        sub = _span_basis(projected)
        if sub:
            parts.append(sub)
    total = sum(len(p) for p in parts)
    if total != len(space):
        raise ParameterError("chain refinement lost dimensions (q not generic?)")
    return parts


def _embed_idempotent(kind, q, vec, level, n):
    small = all_diagrams(kind, level)
    out: dict[str, Fraction] = {}
    for c, d in zip(vec, small):
        if c:
            big = d
            for m in range(level + 1, n + 1):
                big = grow(big, m)
            out[big.key()] = c
    return out


def _leaves(alg: RegularAlgebra, space, level, q):
    if level <= 1 or len(space) <= 1:
        return [space]
    idems = central_idempotents(alg.kind, level, q)
    embedded = []
    for e in idems:
        table = _embed_idempotent(alg.kind, q, e, level, alg.n)
        vec = [Fraction(0)] * alg.dim
        for key, c in table.items():
            vec[alg.index[key]] = c
        embedded.append(vec)
    out = []
    for part in _split_by_idempotents(alg, space, embedded):
        out.extend(_leaves(alg, part, level - 1, q))
    return out


def oracle_irreps(kind: ChainKind, n: int, q: Fraction = DEFAULT_Q) -> OracleRep:
    """Complete inequivalent irreducibles with chain-adapted bases, from scratch."""
    q = Fraction(q)
    limit = ORACLE_LIMITS.get(kind)
    if limit is None:
        raise CapabilityError("oracle unavailable for structural chains")
    if n > limit:
        raise CapabilityError(f"oracle limited to n <= {limit} for {kind.value}")
    alg = RegularAlgebra(kind, n, q)
    B = cached_bratteli(kind, n)
    expected = sorted(B.dims[n])
    irreps = []
    for e in central_idempotents(kind, n, q):
        iso = _span_basis([alg.right_apply(_unit(alg.dim, j), list(e)) for j in range(alg.dim)])
        leaves = _leaves(alg, iso, n - 1, q)
        seed = leaves[0][0]
        module = _span_basis([alg.left_apply(i, seed) for i in range(alg.dim)])
        d = len(module)
        adapted: list[list[Fraction]] = []
        for leaf in _leaves(alg, module, n - 1, q):
            adapted.extend(leaf)
        if len(adapted) != d:
            raise ParameterError("adapted refinement of an irreducible failed")
        cols = [list(col) for col in zip(*adapted)]
        matrices = {}
        syms = ("r",) if kind is ChainKind.SYMMETRIC_GROUP else (
            ("e",) if kind is ChainKind.TEMPERLEY_LIEB else ("r", "e")
        )
        for i in range(1, n):
            for s in syms:
                g = alg.index[generator(kind, (s, i), n).key()]
                mat = []
                for v in adapted:
                    img = alg.left_apply(g, v)
                    coords = solve(cols, img)
                    if coords is None:
                        raise ParameterError("oracle module not invariant")
                    mat.append(coords)
                matrices[(s, i)] = [list(row) for row in zip(*mat)]
        irreps.append(OracleIrrep(d, adapted, matrices))
    got = sorted(r.dim for r in irreps)
    if got != expected:
        raise ParameterError(
            f"oracle dims {got} differ from path counts {expected}"
        )
    return OracleRep(kind, n, q, irreps)

"""Chain-adapted representations assembled from local blocks, plus trace tools.

The scalar field is exact rationals with the loop parameter specialized to a
configured rational (default 10/3); every construction validates its
denominators at that value.

A level-(L-1) diagram acts block-diagonally at level L of the Gel'fand-Tsetlin
basis, so rho_L(d) = rho_L(head tokens) . embed(rho_{L-1}(shrunk d)) along the
route of d in `diagrams.route_table`.  Every rho is built by this recursion with
the SOV engine's kernel on a throwaway counter; levels below n are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from ..combinat import ChainKind, Partition, cached_bratteli
from ..diagrams import (
    Diagram,
    all_diagrams,
    basis_key,
    diagram_mul,
    route_table,
)
from ..errors import ArgumentError, CapabilityError, ParameterError
from ..ratlinalg import invert, rank
from .seminormal import middles, sn_block_table, tl_block_table

DEFAULT_Q = Fraction(10, 3)

Token = tuple[str, int]

GRAM_LIMITS = {
    ChainKind.BRAUER: 4,
    ChainKind.TEMPERLEY_LIEB: 6,
    ChainKind.SYMMETRIC_GROUP: 5,
}


def assemble_dense(B, table, level: int, lam: Partition, token: Token):
    """Full matrix of a generator on the level-`level` vertex lam, from blocks.

    Entry (P', P) is nonzero only when the paths agree away from the token's
    level; the value is read from the block of the shared two-step frame.
    """
    sym, i = token
    if not 1 <= i <= level - 1:
        raise ArgumentError(f"token {token} invalid at level {level}")
    paths, pos = B.paths(level, lam)
    d = len(paths)
    out = [[Fraction(0)] * d for _ in range(d)]
    for c, p in enumerate(paths):
        mu, nu = p[i - 1], p[i + 1]
        block = table.get((token, mu, nu))
        if block is None:
            continue
        mids = middles(B, i, mu, nu)
        kc = mids.index(p[i])
        for kr, kappa in enumerate(mids):
            val = block[kr][kc]
            if val:
                out[pos[p[: i] + (kappa,) + p[i + 1 :]]][c] = val
    return out


@dataclass
class AdaptedRep:
    """Complete chain-adapted irreducible set at level n for one chain kind."""

    kind: ChainKind
    n: int
    q: Fraction
    B: object
    blocks: dict
    _dense: dict = field(default_factory=dict, repr=False)
    _cols: dict = field(default_factory=dict, repr=False)
    _rho: dict = field(default_factory=dict, repr=False)
    _levels: dict = field(default_factory=dict, repr=False)
    _entries: dict = field(default_factory=dict, repr=False)
    _char: dict = field(default_factory=dict, repr=False)
    _gram: object = None

    # -- basic structure -------------------------------------------------
    def vertices(self, level: int | None = None):
        return self.B.vertices(self.n if level is None else level)

    def dim(self, lam: Partition, level: int | None = None) -> int:
        return self.B.dim(self.n if level is None else level, lam)

    def algebra_dim(self, level: int | None = None) -> int:
        lvl = self.n if level is None else level
        return sum(d * d for d in self.B.dims[lvl])

    def token_matrix(self, lam: Partition, token: Token, level: int | None = None):
        lvl = self.n if level is None else level
        key = (lvl, tuple(lam), token)
        if key not in self._dense:
            self._dense[key] = assemble_dense(self.B, self.blocks, lvl, lam, token)
        return self._dense[key]

    def token_columns(self, lam: Partition, token: Token, level: int):
        """Sparse column structure: col -> ((row, value), ...)."""
        key = (level, tuple(lam), token)
        if key not in self._cols:
            m = self.token_matrix(lam, token, level)
            d = len(m)
            cols = []
            for c in range(d):
                cols.append(
                    tuple((r, m[r][c]) for r in range(d) if m[r][c] != 0)
                )
            self._cols[key] = tuple(cols)
        return self._cols[key]

    # -- representation of basis diagrams --------------------------------
    def _block_data(self, key: str, level: int) -> dict:
        """Block data {lam: {col: {row: value}}} of a basis key; levels < n are memoised."""
        if level <= 1:
            return {(1,) if level else (): {0: {0: Fraction(1)}}}
        if (level, key) in self._levels:
            return self._levels[(level, key)]
        from ..transform import OpCounter, _apply_token, _embed_blocks

        tokens, sub = route_table(self.kind, level)[key]
        data = _embed_blocks(self, level, self._block_data(sub, level - 1))
        for token in reversed(tokens):
            data = _apply_token(self, level, token, data, OpCounter())
        if level < self.n:
            self._levels[(level, key)] = data
        return data

    def rho(self, d: Diagram | str, lam: Partition):
        """Dense matrix of a basis diagram on lam; every vertex is cached at once."""
        lam = tuple(lam)
        key = basis_key(self.kind, self.n, d if isinstance(d, str) else d.key())
        if (key, lam) not in self._rho:
            for mu, mat in self.dense_blocks(self._block_data(key, self.n)).items():
                self._rho[(key, mu)] = mat
        return self._rho[(key, lam)]

    def dense_blocks(self, blocks: dict) -> dict:
        """{lam: dense matrix} of block data, for every vertex at level n."""
        out = {}
        for lam in self.vertices():
            out[lam] = mat = [[Fraction(0)] * self.dim(lam) for _ in range(self.dim(lam))]
            for c, col in blocks.get(lam, {}).items():
                for r, v in col.items():
                    mat[r][c] = v
        return out

    def rho_entries(self, key: str):
        """Nonzero entries (lam, row, col, value) of rho(key), with no dense matrix."""
        key = basis_key(self.kind, self.n, key)
        if key not in self._entries:
            blocks = self._block_data(key, self.n)
            self._entries[key] = tuple(
                (lam, r, c, v) for lam, block in blocks.items()
                for c, col in block.items() for r, v in col.items()
            )
        return self._entries[key]

    def character(self, key: str) -> Fraction:
        if key not in self._char:
            self._char[key] = sum(
                self.rho(key, lam)[i][i]
                for lam in self.vertices()
                for i in range(self.dim(lam))
            )
        return self._char[key]

    # -- trace form -------------------------------------------------------
    def trace_tau(self, coeffs: dict[str, Fraction]) -> Fraction:
        """tau(a) with tau = sum over irreducibles of the matrix trace."""
        return sum(Fraction(c) * self.character(k) for k, c in coeffs.items())

    def gram_matrix(self):
        """(basis diagrams, Gram matrix of the trace form tau(b_i b_j))."""
        basis = all_diagrams(self.kind, self.n)
        size = len(basis)
        gram = [[Fraction(0)] * size for _ in range(size)]
        for i, di in enumerate(basis):
            for j in range(i, size):
                prod = diagram_mul(di, basis[j])
                val = self.q ** prod.loops * self.character(prod.diagram.key())
                gram[i][j] = val
                gram[j][i] = val
        return basis, gram

    def gram_dual(self):
        """Dual basis data: (basis diagrams, Gram inverse, dual coefficient table)."""
        if self._gram is not None:
            return self._gram
        limit = GRAM_LIMITS.get(self.kind)
        if limit is not None and self.n > limit:
            raise CapabilityError(
                f"dual basis limited to n <= {limit} for {self.kind.value}"
            )
        basis, gram = self.gram_matrix()
        size = len(basis)
        try:
            ginv = invert(gram)
        except ValueError:
            raise ParameterError(
                f"trace form degenerate at q={self.q} for {self.kind.value} n={self.n}"
            ) from None
        duals = [
            {basis[k].key(): ginv[k][j] for k in range(size) if ginv[k][j]}
            for j in range(size)
        ]
        self._gram = (basis, ginv, duals)
        return self._gram


@dataclass(frozen=True)
class SemisimplicityReport:
    kind: ChainKind
    n: int
    q: Fraction
    dim: int
    gram_rank: int
    transform_rank: int

    @property
    def ok(self) -> bool:
        return self.gram_rank == self.dim and self.transform_rank == self.dim


def local_blocks(kind: ChainKind, n: int, q: Fraction = DEFAULT_Q):
    """Complete local-block data for every generator of the chain at size n."""
    q = Fraction(q)
    if kind is ChainKind.SYMMETRIC_GROUP:
        return sn_block_table(n)
    if kind is ChainKind.TEMPERLEY_LIEB:
        return tl_block_table(n, q)
    if kind is ChainKind.BRAUER:
        from .cells import brauer_block_table

        return brauer_block_table(n, q)
    raise ArgumentError("BMW carries no representation data (structural only)")


@lru_cache(maxsize=None)
def adapted_rep(kind: ChainKind, n: int, q: Fraction = DEFAULT_Q) -> AdaptedRep:
    q = Fraction(q)
    B = cached_bratteli(kind, n)
    return AdaptedRep(kind, n, q, B, local_blocks(kind, n, q))


def naive_transform_matrix(rep: AdaptedRep):
    """dim x dim matrix of the naive transform: columns are basis diagrams."""
    basis = all_diagrams(rep.kind, rep.n)
    rows = []
    for lam in rep.vertices():
        d = rep.dim(lam)
        for r in range(d):
            for c in range(d):
                rows.append([rep.rho(b, lam)[r][c] for b in basis])
    return rows


def verify_semisimple(rep: AdaptedRep) -> SemisimplicityReport:
    """Certify the specialization: Gram nondegeneracy and transform bijectivity."""
    basis, gram = rep.gram_matrix()
    g_rank = rank(gram)
    t_rank = rank(naive_transform_matrix(rep))
    return SemisimplicityReport(rep.kind, rep.n, rep.q, len(basis), g_rank, t_rank)

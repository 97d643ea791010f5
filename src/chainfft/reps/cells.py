"""Brauer standard modules on half-diagrams and their Gel'fand-Tsetlin adaptation.

A half diagram on n points keeps k arcs and m = n - 2k ordered through
points; the standard module for a partition of m pairs halves with
seminormal symmetric-group vectors.  `brauer_block_table` adapts them level
by level: the basis G of a level-L module joins the (generically unique)
embeddings of the level-(L-1) modules, solved against the table built so far,
and G^-1 C G gives the local blocks of the two new generators r_{L-1}, e_{L-1}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from ..combinat import ChainKind, Partition, cached_bratteli, partition_key
from ..diagrams import Diagram, Token, _pairings, canonical_pairs, diagram_mul, generator, pairs_key
from ..errors import ParameterError
from ..ratlinalg import invert, mat_mul, nullspace
from .core import AdaptedRep, adapted_rep
from .seminormal import middles

HalfDiagram = tuple[tuple[int, int], ...]  # sorted arcs on {1..n}


def half_diagrams(n: int, k: int) -> list[HalfDiagram]:
    """All k-arc half diagrams on n points, sorted."""
    out = []
    points = range(1, n + 1)
    for support in combinations(points, 2 * k):
        for pairing in _pairings(list(support)):
            out.append(tuple(sorted(tuple(sorted(p)) for p in pairing)))
    return sorted(set(out))


def through_points(half: HalfDiagram, n: int) -> list[int]:
    used = {p for arc in half for p in arc}
    return [p for p in range(1, n + 1) if p not in used]


def act_on_half(d: Diagram, half: HalfDiagram):
    """Compose the diagram d on top of the half diagram.

    The half diagram is encoded as the Brauer diagram H with its arcs on top,
    the s-th through point joined to bottom point n+s (slot s) and the unused
    bottom points paired off.  The top arcs of d*H form the new half and its
    top-to-bottom strands give sigma: sigma[j] is the slot reached by the j-th
    (ascending) new through point.  Returns (new_half, sigma, loops), or None
    when a strand joins two slots.
    """
    n = d.n
    thru = through_points(half, n)
    m = len(thru)
    free = range(n + m + 1, 2 * n + 1)
    pairs = [*half, *((t, n + s) for s, t in enumerate(thru, start=1))]
    pairs += zip(free[::2], free[1::2])
    prod = diagram_mul(d, Diagram(ChainKind.BRAUER, n, canonical_pairs(pairs)))
    arcs, sigma = [], []
    for a, b in prod.diagram.pairs:  # sorted, so through points come ascending
        if b <= n:
            arcs.append((a, b))
        elif a <= n:
            sigma.append(b - n)
        elif a <= n + m:
            return None
    return tuple(arcs), tuple(sigma), prod.loops


# ---------------------------------------------------------------------------
# Cell bases and matrices


@lru_cache(maxsize=None)
def cell_basis(n: int, lam: Partition):
    """Ordered basis: (half diagram, tableau path), halves sorted, paths in GT order."""
    m = sum(lam)
    k = (n - m) // 2
    halves = half_diagrams(n, k)
    B = cached_bratteli(ChainKind.SYMMETRIC_GROUP, m)
    return [(h, t) for h in halves for t in range(B.dim(m, lam))]


@lru_cache(maxsize=None)
def cell_matrix(n: int, lam: Partition, token: Token, q: Fraction):
    """Matrix of the generator token on the standard module of lam."""
    return _cell_matrix_of_diagram(n, lam, generator(ChainKind.BRAUER, token, n), q)


def _cell_matrix_of_diagram(n: int, lam: Partition, d: Diagram, q: Fraction):
    basis = cell_basis(n, lam)
    index = {b: j for j, b in enumerate(basis)}
    m = sum(lam)
    dim = len(basis)
    halves = sorted({h for h, _ in basis})
    sn_rep = adapted_rep(ChainKind.SYMMETRIC_GROUP, m)
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for h in halves:
        res = act_on_half(d, h)
        if res is None:
            continue
        new_half, sigma, loops = res
        scale = Fraction(q) ** loops / sn_rep.scale()
        block = sn_rep.rho_blocks(pairs_key((j, m + s) for j, s in enumerate(sigma, start=1)))
        for t_out, entries in block.get(lam, {}).items():
            row = out[index[(new_half, t_out)]]
            for t_in, val in entries.items():
                row[index[(h, t_in)]] += scale * val
    return out


# ---------------------------------------------------------------------------
# Level-by-level adapted bases


def _embedding_columns(rep: AdaptedRep, level, nu, mu, tokens):
    """Columns of the unique intertwiner from the level-(level-1) mu module into the nu
    cell module, read against the generators `tokens` of the partly filled `rep`."""
    q, d_mu = rep.q, rep.dim(mu, level - 1)
    dim_nu = len(cell_basis(level, nu))
    unknowns = dim_nu * d_mu
    constraints = []  # rho_nu(tok) X - X rho_mu(tok) = 0 for every token
    for tok in tokens:
        rho_nu, rho_mu = cell_matrix(level, nu, tok, q), rep.token_matrix(mu, tok, level - 1)
        for r in range(dim_nu):
            for c in range(d_mu):
                row = [Fraction(0)] * unknowns
                for k in range(dim_nu):
                    if rho_nu[r][k]:
                        row[k * d_mu + c] += rho_nu[r][k]
                for k in range(d_mu):
                    if rho_mu[k][c]:
                        row[r * d_mu + k] -= rho_mu[k][c]
                constraints.append(row)
    kernel = nullspace(constraints, unknowns)
    if len(kernel) != 1:
        raise ParameterError(
            f"embedding {mu!r} -> {nu!r} not unique at q={q} (dim {len(kernel)})"
        )
    pivot = next(x for x in kernel[0] if x != 0)
    return [[kernel[0][r * d_mu + c] / pivot for r in range(dim_nu)] for c in range(d_mu)]


def brauer_semisimple(n: int, q: Fraction) -> bool:
    """Rui's criterion (JCTA 111, 2005) for the Brauer algebra B_n(q) over Q.

    For q != 0, B_n(q) is semisimple unless q is an integer in
    Z(n) = {i : 4-2n <= i <= n-2} minus the odd i with 4-2n < i <= 3-n.
    B_n(0) is semisimple only for n in {1, 3, 5}.
    """
    if n < 2:
        return True
    if q == 0:
        return n in (3, 5)
    if q.denominator != 1 or not 4 - 2 * n <= q <= n - 2:
        return True
    return q.numerator % 2 == 1 and 4 - 2 * n < q <= 3 - n


def brauer_block_table(n: int, q: Fraction):
    """Local blocks for all Brauer generators up to index n-1, one level at a time.

    Level L reads the modules below it from the table it is filling, and adds
    the blocks of its two new generators r_{L-1} and e_{L-1}; it checks them only
    once they are all in, since `rep` fixes D(L-1) on its first read.
    """
    q = Fraction(q)
    # Z(k) grows with k, so for q != 0 the top size decides for every level;
    # at q = 0 and odd n the level-3 basis change is singular and fails below.
    if not brauer_semisimple(n, q):
        raise ParameterError(
            f"q={q} is a singular value of the Brauer algebra B_{n}: "
            "it is not semisimple there (Rui's criterion)"
        )
    B = cached_bratteli(ChainKind.BRAUER, max(n, 1))
    table = {}
    rep = AdaptedRep(ChainKind.BRAUER, n, q, B, table)
    for level in range(2, n + 1):
        i = level - 1
        # r_1..r_{i-1} and e_1 generate B_i, so they fix each embedding of a level-i module
        sub_tokens = [("r", j) for j in range(1, i)] + ([("e", 1)] if i > 1 else [])
        new = []
        for nu in B.vertices(level):
            columns = []
            for mu in sorted(set(B.in_neighbors(level, nu)), key=partition_key):
                columns += _embedding_columns(rep, level, nu, mu, sub_tokens)
            if len(columns) != len(cell_basis(level, nu)):
                raise ParameterError(
                    f"adapted basis of {nu!r} at level {level} has wrong size at q={q}"
                )
            G = [list(row) for row in zip(*columns)]
            try:
                Ginv = invert(G)
            except ValueError:
                raise ParameterError(
                    f"adapted basis of {nu!r} at level {level} is singular at q={q}"
                ) from None
            paths, pos = B.paths(level, nu)
            prefixes = {p[i - 1]: p[:i] for p in paths}  # one path into each frame (mu, nu)
            for tok in (("r", i), ("e", i)):
                M = mat_mul(Ginv, mat_mul(cell_matrix(level, nu, tok, q), G))
                for mu, prefix in prefixes.items():
                    at = [pos[(*prefix, kappa, nu)] for kappa in middles(B, i, mu, nu)]
                    table[(tok, mu, nu)] = tuple(tuple(M[a][b] for b in at) for a in at)
                new.append((nu, tok, M))
        for nu, tok, M in new:
            if rep.token_matrix(nu, tok, level) != M:
                raise ParameterError(
                    f"{tok} on {nu!r} at level {level} is not block local at q={q}"
                )
    return table

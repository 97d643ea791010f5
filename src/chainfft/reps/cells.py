"""Brauer standard modules on half-diagrams and their Gel'fand-Tsetlin adaptation.

A half diagram on n points keeps k arcs and m = n - 2k ordered through
points; the standard module for a partition of m pairs halves with
seminormal symmetric-group vectors.  Chain-adapted bases are built level by
level: the basis of a module at level i is the union of the images of the
level-(i-1) adapted bases under the (generically unique) embeddings, found
by exact intertwiner solves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from ..combinat import ChainKind, Partition, cached_bratteli, partition_key
from ..diagrams import Diagram, Token, _pairings, canonical_pairs, diagram_mul, generator
from ..errors import ParameterError
from ..ratlinalg import invert, mat_mul, nullspace
from .core import adapted_rep

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
        scale = Fraction(q) ** loops
        perm = canonical_pairs((j, m + s) for j, s in enumerate(sigma, start=1))
        block = sn_rep.rho_blocks(Diagram(ChainKind.SYMMETRIC_GROUP, m, perm).key())
        for t_in, entries in block.get(lam, {}).items():
            col = index[(h, t_in)]
            for t_out, val in entries.items():
                out[index[(new_half, t_out)]][col] += scale * val
    return out


# ---------------------------------------------------------------------------
# Level-by-level adapted bases


@lru_cache(maxsize=None)
def brauer_gt_level(level: int, q: Fraction):
    """Adapted generator matrices per vertex at the given Brauer chain level.

    Returns {vertex: {token: dense matrix over GT paths}}.
    """
    q = Fraction(q)
    B = cached_bratteli(ChainKind.BRAUER, max(level, 1))
    if level == 0:
        return {(): {}}
    if level == 1:
        return {(1,): {}}
    below = brauer_gt_level(level - 1, q)
    sub_tokens = [(s, i) for i in range(1, level - 1) for s in ("r", "e")]
    own_tokens = [(s, i) for i in range(1, level) for s in ("r", "e")]
    out = {}
    for nu in B.vertices(level):
        cell_mats = {tok: cell_matrix(level, nu, tok, q) for tok in own_tokens}
        dim_nu = len(cell_basis(level, nu))
        columns = []
        for mu in sorted(set(B.in_neighbors(level, nu)), key=partition_key):
            embed_cols = _embedding_columns(
                cell_mats, below[mu], dim_nu, sub_tokens, nu, mu, q
            )
            columns.extend(embed_cols)
        if len(columns) != dim_nu:
            raise ParameterError(
                f"adapted basis of {nu!r} at level {level} has wrong size at q={q}"
            )
        G = [[columns[c][r] for c in range(dim_nu)] for r in range(dim_nu)]
        try:
            Ginv = invert(G)
        except ValueError:
            raise ParameterError(
                f"adapted basis of {nu!r} at level {level} is singular at q={q}"
            ) from None
        out[nu] = {
            tok: mat_mul(Ginv, mat_mul(cell_mats[tok], G)) for tok in own_tokens
        }
    return out


def _embedding_columns(cell_mats, mu_mats, dim_nu, sub_tokens, nu, mu, q):
    """Columns of the unique intertwiner from the mu module into the nu module."""
    d_mu = len(next(iter(mu_mats.values()))) if mu_mats else 1  # levels 0 and 1
    unknowns = dim_nu * d_mu
    constraints = []  # rho_nu(tok) X - X rho_mu(tok) = 0 for every sub token
    for tok in sub_tokens:
        rho_nu = cell_mats[tok]
        rho_mu = mu_mats[tok]
        for r in range(dim_nu):
            for c in range(d_mu):
                row = [Fraction(0)] * unknowns
                for k in range(dim_nu):
                    v = rho_nu[r][k]
                    if v:
                        row[k * d_mu + c] += v
                for k in range(d_mu):
                    v = rho_mu[k][c]
                    if v:
                        row[r * d_mu + k] -= v
                constraints.append(row)
    kernel = nullspace(constraints, unknowns)
    if len(kernel) != 1:
        raise ParameterError(
            f"embedding {mu!r} -> {nu!r} not unique at q={q} (dim {len(kernel)})"
        )
    vec = kernel[0]
    pivot = next(x for x in vec if x != 0)
    vec = [x / pivot for x in vec]
    return [
        [vec[r * d_mu + c] for r in range(dim_nu)] for c in range(d_mu)
    ]


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
    """Local blocks for all Brauer generators up to index n-1, extracted per level."""
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
    for level in range(2, n + 1):
        mats = brauer_gt_level(level, q)
        i = level - 1  # the top generator index visible at this level
        for nu, toks in mats.items():
            paths = B.paths(level, nu)[0]
            for sym in ("r", "e"):
                M = toks[(sym, i)]
                _extract_frame_blocks(table, (sym, i), M, paths, i, B)
    return table


def _extract_frame_blocks(table, token, M, paths, i, B):
    from .seminormal import middles

    dim = len(paths)
    for a in range(dim):
        for b in range(dim):
            if M[a][b] == 0:
                continue
            pa, pb = paths[a], paths[b]
            if any(pa[k] != pb[k] for k in range(len(pa)) if k != i):
                raise ParameterError(
                    f"generator {token} not block local at paths {pa} / {pb}"
                )
    for mu_pick in {p[i - 1] for p in paths}:
        nu = paths[0][i + 1] if len(paths[0]) > i + 1 else paths[0][-1]
        mids = middles(B, i, mu_pick, nu)
        if not mids:
            continue
        block = [[None] * len(mids) for _ in mids]
        seen = False
        for a, pa in enumerate(paths):
            if pa[i - 1] != mu_pick:
                continue
            for b, pb in enumerate(paths):
                if pb[i - 1] != mu_pick:
                    continue
                if any(pa[k] != pb[k] for k in range(len(pa)) if k != i):
                    continue
                r = mids.index(pa[i])
                c = mids.index(pb[i])
                v = M[a][b]
                if block[r][c] is None:
                    block[r][c] = v
                elif block[r][c] != v:
                    raise ParameterError(
                        f"{token} block at ({mu_pick}, {nu}) not context free"
                    )
                seen = True
        if not seen:
            continue
        filled = tuple(
            tuple(Fraction(0) if x is None else x for x in row) for row in block
        )
        key = (token, mu_pick, nu)
        if key in table and table[key] != filled:
            raise ParameterError(f"inconsistent block for {key}")
        if any(any(row) for row in filled) or key not in table:
            table[key] = filled

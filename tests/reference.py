"""Exact references that the tests check the program against and no program path
reads: a dense view of rho and of one image block, the character, the naive
transform matrix and its rank, the Gram matrix of the trace form and its dual
basis, the image of dense rational blocks, and the product of two elements with
the convolution check built on it."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from chainfft.combinat import ChainKind, Partition
from chainfft.diagrams import Diagram, all_diagrams, basis_key, diagram_from_key, diagram_mul
from chainfft.errors import ArgumentError
from chainfft.ratlinalg import Matrix, invert, rref
from chainfft.reps.core import AdaptedRep, adapted_rep, dense_matrix, image_layout
from chainfft.transform import AlgebraElement, FourierImage, _dense, fft_naive


def rank(m: Matrix) -> int:
    """The number of pivots of `rref`."""
    return len(rref(m)[1])


def rho(rep: AdaptedRep, d: Diagram | str, lam: Partition):
    """Dense view of `rep.rho_blocks` on the vertex lam; not cached."""
    lam = tuple(lam)
    block = rep.rho_blocks(d if isinstance(d, str) else d.key()).get(lam, {})
    return dense_matrix(rep.dim(lam), block, rep.scale())


def character(rep: AdaptedRep, key: str) -> Fraction:
    """The trace of rho(key), read off the diagonal of its `rho_row`; any spelling of
    a diagram is accepted."""
    positions, values, den = rep.rho_row(basis_key(rep.kind, rep.n, key))
    diagonal = {at + k * (d + 1) for _, at, d in image_layout(rep.kind, rep.n) for k in range(d)}
    return Fraction(sum(v for p, v in zip(positions, values) if p in diagonal), den)


def gram_matrix(rep: AdaptedRep):
    """(basis diagrams, Gram matrix tau(b_i b_j)) of the trace form tau = sum_lam chi_lam:
    q^loops times the `character` of each `diagram_mul` product."""
    basis = all_diagrams(rep.kind, rep.n)
    size, chars = len(basis), {}
    gram = [[Fraction(0)] * size for _ in range(size)]
    for i, di in enumerate(basis):
        for j in range(i, size):
            prod = diagram_mul(di, basis[j])
            key = prod.diagram.key()
            if key not in chars:
                chars[key] = character(rep, key)
            gram[i][j] = gram[j][i] = rep.q**prod.loops * chars[key]
    return basis, gram


@lru_cache(maxsize=None)
def gram_dual(kind: ChainKind, n: int):
    """(keys, duals, den): the dual basis of tau on TL or Brauer at the default q, by
    `invert` of `gram_matrix`.  The keys are in canonical order, and the dual of
    keys[j] is {key k: G^-1[k][j] . den} over the nonzero entries, over the one den of
    the whole table.  Since tau(f b_j^v) = f(b_j), the rho of the duals are the rows
    of T^-1, which `AdaptedRep.trace_rows` gets from T itself."""
    basis, gram = gram_matrix(adapted_rep(kind, n))
    ginv = invert(gram)
    den = lcm(*(x.denominator for row in ginv for x in row))
    keys = [d.key() for d in basis]
    duals = [{keys[k]: ginv[k][j].numerator * (den // ginv[k][j].denominator)
              for k in range(len(keys)) if ginv[k][j]}
             for j in range(len(keys))]
    return keys, duals, den


def dual_table(rep: AdaptedRep):
    """The dual basis whose rho are the rows of T^-1: the closed-form table of
    `AdaptedRep.gram_dual` on S_n, the Gram dual of `gram_dual` elsewhere."""
    if rep.kind is ChainKind.SYMMETRIC_GROUP:
        return rep.gram_dual()
    return gram_dual(rep.kind, rep.n)


def naive_transform_matrix(rep: AdaptedRep):
    """dim x dim matrix of the naive transform: columns are basis diagrams, each the
    flat image of its `rho_row`."""
    size, zero = rep.algebra_dim(), Fraction(0)
    columns = []
    for b in all_diagrams(rep.kind, rep.n):
        positions, values, den = rep.rho_row(b.key())
        column = [zero] * size
        for p, v in zip(positions, values):
            column[p] = Fraction(v, den)
        columns.append(column)
    return [list(row) for row in zip(*columns)]


def from_blocks(kind: ChainKind, n: int, blocks) -> FourierImage:
    """The image of dense rational blocks ((lam, rows), ...): one dim(lam) x dim(lam)
    block per vertex of level n, in vertex order, with int or `Fraction` entries.
    Anything else is refused with `ArgumentError`."""
    layout = image_layout(kind, n)
    blocks = tuple(blocks)
    if tuple(lam for lam, _ in blocks) != tuple(lam for lam, _, _ in layout):
        raise ArgumentError(
            f"the image's blocks are not one per vertex of {kind.value} n={n}, in order")
    for (lam, block), (_, _, d) in zip(blocks, layout):
        if len(block) != d or any(len(row) != d for row in block):
            raise ArgumentError(f"block {lam!r} of the image is not {d} x {d}")
    entries = [x for _, block in blocks for row in block for x in row]
    if not {int, Fraction}.issuperset(map(type, entries)):
        x = next(x for x in entries if type(x) not in (int, Fraction))
        raise ArgumentError(f"entry {x!r} of the image is not an int or a Fraction")
    den = lcm(*(x.denominator for x in entries))
    return FourierImage(kind, n, tuple(x.numerator * (den // x.denominator) for x in entries),
                        den)


def image_block(img: FourierImage, lam: Partition) -> tuple[tuple[Fraction, ...], ...]:
    """The dense rational block of the vertex lam, decoded from its own entries."""
    lam = tuple(lam)
    for v, at, d in image_layout(img.kind, img.n):
        if v == lam:
            return _dense(img.flat[at : at + d * d], d, img.den)
    raise ArgumentError(f"no block for vertex {lam!r}")


def multiply_elements(f: AlgebraElement, g: AlgebraElement, q: Fraction) -> AlgebraElement:
    if f.kind != g.kind or f.n != g.n:
        raise ArgumentError("element kind/size mismatch")
    table: dict[str, Fraction] = {}
    for k1, c1 in f.coeffs:
        d1 = diagram_from_key(f.kind, f.n, k1)
        for k2, c2 in g.coeffs:
            d2 = diagram_from_key(g.kind, g.n, k2)
            prod = diagram_mul(d1, d2)
            key = prod.diagram.key()
            table[key] = table.get(key, Fraction(0)) + c1 * c2 * q**prod.loops
    return AlgebraElement.from_dict(f.kind, f.n, table)


@dataclass(frozen=True)
class ConvolutionReport:
    ok: bool
    failures: tuple[Partition, ...]


def convolution_check(
    f: AlgebraElement, g: AlgebraElement, rep: AdaptedRep
) -> ConvolutionReport:
    """Verify that the transform sends products to blockwise matrix products."""
    h = multiply_elements(f, g, rep.q)
    img_h, _ = fft_naive(h, rep)
    img_f, _ = fft_naive(f, rep)
    img_g, _ = fft_naive(g, rep)
    failures = []
    for lam in rep.vertices():
        mf, mg, mh = image_block(img_f, lam), image_block(img_g, lam), image_block(img_h, lam)
        d = len(mf)
        for r in range(d):
            for c in range(d):
                got = sum(mf[r][k] * mg[k][c] for k in range(d))
                if got != mh[r][c]:
                    failures.append(tuple(lam))
                    break
            else:
                continue
            break
    return ConvolutionReport(not failures, tuple(failures))

"""Exact references that the tests check the program against and no program path
reads: a dense view of rho and of one image block, the naive transform matrix and
its rank, the image of dense rational blocks, and the product of two elements with
the convolution check built on it."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from chainfft.combinat import ChainKind, Partition
from chainfft.diagrams import Diagram, all_diagrams, diagram_from_key, diagram_mul
from chainfft.errors import ArgumentError
from chainfft.ratlinalg import Matrix, rref
from chainfft.reps.core import AdaptedRep, dense_matrix, image_layout
from chainfft.transform import AlgebraElement, FourierImage, _dense, fft_naive


def rank(m: Matrix) -> int:
    """The number of pivots of `rref`."""
    return len(rref(m)[1])


def rho(rep: AdaptedRep, d: Diagram | str, lam: Partition):
    """Dense view of `rep.rho_blocks` on the vertex lam; not cached."""
    lam = tuple(lam)
    block = rep.rho_blocks(d if isinstance(d, str) else d.key()).get(lam, {})
    return dense_matrix(rep.dim(lam), block, rep.scale())


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

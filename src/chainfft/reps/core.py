"""Chain-adapted representations assembled from local blocks, plus trace tools.

The scalar field is exact rationals with the loop parameter specialized to a
configured rational (default 10/3); every construction validates its
denominators at that value.

A level-(L-1) diagram acts block-diagonally at level L of the Gel'fand-Tsetlin
basis, so rho_L(d) = rho_L(head tokens) . embed(rho_{L-1}(b)) along the route
d -> (stream of the head tokens, b), read by position from `transform._routing`:
the SOV level step on a point mass.  So every rho is built by the SOV level
routine on the route's one stream (one fiber, whose keys are the columns), with a
throwaway counter, and memoised at every level by position.  The SOV input scale
(`prescale`) is read by position from the same routes.

Everything is stored as integer numerators, in one form each.  A level's rows
are its Gel'fand-Tsetlin paths, numbered across its blocks in vertex order and
then `paths` order.  A generator at index i, over D(i), the lcm of the
denominators of its local blocks, is one tuple of sparse columns per level, one
column per row (`token_columns`), the form the kernel reads: column r sends row
r to its output rows.  A level-L rho below n, over its own scale, the product of
D(i) over its route's tokens, is a row-major level table {row: {col: value}}
(`_block_data`), the form of every level table of the SOV kernel, memoised for
the recursion until every level-n row is compiled; then nothing reads those
tables, and they are dropped.  A rho at level n is stored only as its compiled
row (`rho_row`), built per basis key on first use: the flat positions of its nonzero entries and
their numerators over a denominator of its own, so that the naive sum is one
scatter per row, and the flat layout of those positions is the layout of a
`transform.FourierImage`.  Inversion reads rows of its own, the rows of T^-1
(`trace_rows`), where T is the naive transform, whose column k is the image of
the basis key b_k.  On S_n the row of g is the `rho_row` of g^-1 over n!, the
Fourier inversion formula (`gram_dual`, the one dual table); on TL and Brauer T,
built from the `rho_row`s, is inverted once by `ratlinalg.invert`.  A row lies in
the layout of the `rho_row`s, entry (r, c) of block lam at the position of entry
(c, r) of the image and divided by the weight w_lam (d_lam on S_n, 1 elsewhere).
The rows are Kronecker-packed into one big int per image position, weighted by
w_lam (`packed_traces`), so that every coefficient of an image's preimage comes
out of one packed sum over its numerators as they stand (`traces`).  Readers
divide once at the end; `rho_blocks` is a view decoded from the row, and
`token_matrix` is an uncached rational view of one vertex's block of a
generator, which the Brauer build reads.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import factorial, gcd, lcm, prod
from operator import mul
from struct import unpack

from ..combinat import ChainKind, Partition, cached_bratteli
from ..diagrams import basis_key
from ..errors import ArgumentError, CapabilityError, ParameterError
from ..ratlinalg import invert
from .seminormal import middles, sn_block_table, tl_block_table

DEFAULT_Q = Fraction(10, 3)

Token = tuple[str, int]

GRAM_LIMITS = {
    ChainKind.BRAUER: 4,
    ChainKind.TEMPERLEY_LIEB: 6,
    ChainKind.SYMMETRIC_GROUP: 6,
}

# Image numerators wider than this are split into limbs before the packed trace
# sum (`AdaptedRep.traces`), which bounds the width of the packed table.
LIMB_BITS = 64


def sn_permutation(key: str, n: int) -> tuple[int, ...]:
    """The 0-based permutation s of a canonical S_n key, whose i-th pair is (i, n + s[i-1] + 1)."""
    return tuple(int(pair.partition("-")[2]) - n - 1 for pair in key.split(",")) if key else ()


def dense_matrix(d: int, block: dict, scale: int):
    """The d x d rational matrix of one vertex's block data {row: {col: numerator}} over scale."""
    out = [[Fraction(0)] * d for _ in range(d)]
    for r, row in block.items():
        line = out[r]
        for c, v in row.items():
            line[c] = Fraction(v, scale)
    return out


@lru_cache(maxsize=None)
def image_layout(kind: ChainKind, n: int) -> tuple[tuple[Partition, int, int], ...]:
    """((lam, offset, dim), ...) of the flat level-n image, the layout of `rho_row`
    and of `transform.FourierImage`: the blocks in vertex order, each row-major,
    block lam at positions offset .. offset + dim^2 - 1."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ArgumentError(f"n={n!r} is not a non-negative int")
    B, layout, at = cached_bratteli(kind, n), [], 0
    for lam, d in zip(B.vertices(n), B.dims[n]):
        layout.append((lam, at, d))
        at += d * d
    return tuple(layout)


class AdaptedRep:
    """Complete chain-adapted irreducible set at level n for one chain kind: the local
    blocks of its generators, and the memoised tables built from them."""

    def __init__(self, kind: ChainKind, n: int, q: Fraction, B, blocks: dict):
        self.kind, self.n, self.q, self.B, self.blocks = kind, n, q, B, blocks
        self._cols: dict = {}
        self._scales: dict = {}
        self._pre: dict = {}
        self._levels: dict = {}
        self._rows: dict = {}
        self._ints: dict = {}
        self._flat = self._trace = self._packed = self._gram = None

    # -- basic structure -------------------------------------------------
    def vertices(self, level: int | None = None):
        return self.B.vertices(self.n if level is None else level)

    def dim(self, lam: Partition, level: int | None = None) -> int:
        return self.B.dim(self.n if level is None else level, lam)

    def algebra_dim(self, level: int | None = None) -> int:
        lvl = self.n if level is None else level
        return sum(d * d for d in self.B.dims[lvl])

    def token_columns(self, token: Token, level: int):
        """D(i) times the columns of a generator at level `level`: one
        ((row, int value), ...) per row of the level, rows numbered across its blocks
        in vertex order and then `paths` order (`BratteliDiagram.row_moves`).

        Entry (P', P) is nonzero only when the paths agree away from the token's
        level; the value is read from the block of the shared two-step frame.
        """
        key = (level, token)
        if key not in self._cols:
            sym, i = token
            if not 1 <= i <= level - 1 or sym not in {s for (s, _), _, _ in self.blocks}:
                raise ArgumentError(f"token {token} invalid at level {level} of {self.kind.value}")
            scale, cols, first = self.token_scale(i), [], 0
            for lam in self.B.vertices(level):
                paths, pos = self.B.paths(level, lam)
                for p in paths:
                    mu, nu = p[i - 1], p[i + 1]
                    block = self.blocks.get((token, mu, nu))
                    col = []
                    if block is not None:
                        mids = middles(self.B, i, mu, nu)
                        kc = mids.index(p[i])
                        for kr, kappa in enumerate(mids):
                            val = block[kr][kc]
                            if val:
                                row = first + pos[p[:i] + (kappa,) + p[i + 1 :]]
                                col.append((row, val.numerator * (scale // val.denominator)))
                    cols.append(tuple(sorted(col)))
                first += len(paths)
            self._cols[key] = tuple(cols)
        return self._cols[key]

    def token_scale(self, i: int) -> int:
        """D(i): the lcm of the denominators of the local blocks of the generators at index i."""
        if i not in self._scales:
            self._scales[i] = lcm(*(v.denominator for ((_, j), _, _), block in self.blocks.items()
                                    if j == i for row in block for v in row))
        return self._scales[i]

    def scale(self, level: int | None = None) -> int:
        """S_L = prod_{i<L} D(i)^(L-i): the one scale of every level-L stream of the SOV kernel."""
        level = self.n if level is None else level
        return prod(self.token_scale(i) ** (level - i) for i in range(1, level))

    def prescale(self, level: int) -> tuple[int, ...]:
        """The SOV input scale that gives all streams one scale, by position of
        `transform._routing(kind, level)`: for the route (s, sub), the identity factor
        of stream s, the product of D(i) over the indices its word leaves as identity
        (None in `_schedule(kind, level).streams[s]`), times prescale(level - 1)[sub]."""
        if level == 0:
            return (1,)
        if level not in self._pre:
            from ..transform import _routing, _schedule

            below = self.prescale(level - 1)
            factor = [prod(self.token_scale(i) for i, sym in enumerate(word, 1) if sym is None)
                      for word in _schedule(self.kind, level).streams]
            self._pre[level] = tuple(factor[s] * below[sub]
                                     for s, sub in _routing(self.kind, level).routes)
        return self._pre[level]

    def token_matrix(self, lam: Partition, token: Token, level: int | None = None):
        """Dense rational view of lam's block of `token_columns` (level n by default);
        not cached."""
        level = self.n if level is None else level
        j, dims = self.B.vertex_index(level, lam), self.B.dims[level]
        cols, d, first = self.token_columns(token, level), dims[j], sum(dims[:j])
        block: dict = {}
        for c, col in enumerate(cols[first : first + d]):
            for r, v in col:
                block.setdefault(r - first, {})[c] = v
        return dense_matrix(d, block, self.token_scale(token[1]))

    # -- representation of basis diagrams --------------------------------
    def _block_data(self, j: int, level: int) -> dict:
        """The level table {row: {col: numerator}} of rho of the basis diagram at
        position j of `transform._routing(kind, level)`, over its own scale, the product
        of D(i) over its route's tokens, which is scale(level) // prescale(level)[j]:
        the SOV level routine on the route's one stream, rho_{level-1}(sub) embedded,
        which applies only that stream's tokens.

        Memoised below level n, which is all that the recursion reads, until `rho_row`
        has compiled every level-n row; at level n it is built afresh, and `rho_row`
        keeps the one stored form."""
        if level <= 1:
            return {0: {0: 1}}
        if (level, j) in self._levels:
            return self._levels[(level, j)]
        from ..transform import OpCounter, _embed_blocks, _routing, _run_level

        stream, sub = _routing(self.kind, level).routes[j]
        data = _embed_blocks(self, level, self._block_data(sub, level - 1))
        data = _run_level(self, level, {stream: data}, OpCounter())
        if level < self.n:
            self._levels[(level, j)] = data
        return data

    def _layout(self):
        """(row_at, positions) of the flat level-n image (`image_layout`), memoised:
        row_at[r] is the position of entry 0 of level row r, and positions holds one
        shared int object per position."""
        if self._flat is None:
            row_at = [at + k * d for _, at, d in image_layout(self.kind, self.n)
                      for k in range(d)]
            self._flat = (row_at, list(range(self.algebra_dim())))
        return self._flat

    def rho_row(self, key: str) -> tuple:
        """(positions, values, den): rho(key) at level n for a canonical basis key, the
        one stored form of a level-n rho, which the naive sum, the traces and the views
        all read.  Entry (r, c) of block lam sits at position
        offset(lam) + r . dim(lam) + c, the blocks in vertex order (`_layout`), and
        its value is an integer numerator over den: the numerators of `_block_data`
        over the key's own scale, scale() // prescale(n)[j] at the key's position j,
        divided by their gcd with it, and den that scale over the gcd.

        Compiled from `_block_data` on first use and memoised per key, so a sparse
        caller compiles only the rows of its support; compiling the last row drops the
        memoised tables below level n, which nothing reads after.  The per-key
        reduction keeps the values small (at most 21 bits at S_6, against 38 for
        `scale()`).  Positions and distinct values share one int object each across
        the rows.  The result is shared; do not mutate it.
        """
        row = self._rows.get(key)
        if row is None:
            from ..transform import _routing

            row_at, shared = self._layout()
            j = _routing(self.kind, self.n).index[key]
            positions, numerators = [], []
            for r, line in self._block_data(j, self.n).items():
                at = row_at[r]
                positions.extend([shared[at + c] for c in line])
                numerators.extend(line.values())
            scale = self.scale() // self.prescale(self.n)[j]
            common = gcd(scale, *numerators)
            values = [v // common for v in numerators]
            row = (tuple(positions), tuple(map(self._ints.setdefault, values, values)),
                   scale // common)
            self._rows[key] = row
            if len(self._rows) == self.algebra_dim():
                self._levels.clear()
        return row

    def rho_blocks(self, key: str) -> dict:
        """rho(key) as row-major block data {lam: {row: {col: value}}}: nonzero entries
        only, each an integer numerator over `scale(n)`, with no empty row or block.

        Any spelling of a diagram is accepted.  A fresh view decoded from `rho_row`
        (numerator = value . scale() / den); nothing of it is kept.
        """
        positions, values, den = self.rho_row(basis_key(self.kind, self.n, key))
        up, layout = self.scale() // den, image_layout(self.kind, self.n)
        bases = [base for _, base, _ in layout]
        out: dict = {}
        for p, v in zip(positions, values):
            lam, base, d = layout[bisect_right(bases, p) - 1]
            r, c = divmod(p - base, d)
            out.setdefault(lam, {}).setdefault(r, {})[c] = v * up
        return out

    # -- trace form -------------------------------------------------------
    def trace_rows(self):
        """(keys, rows, den): the basis keys b_j in canonical order, for each the row j
        of T^-1, and den, the lcm of the rows' dens.  T is the naive transform, whose
        column k is the image of b_k, so f(b_j) = sum_p T^-1[j][p] x_p for the image x
        of f.  A row holds T^-1[j][p] / w_lam at the position of entry (r, c) for p the
        position of entry (c, r) (`_image_positions`), reduced as a `rho_row` is, its
        values interned with theirs; inversion reads the rows packed (`packed_traces`,
        `traces`).

        On S_n the row of g is the `rho_row` of g^-1 over den . n!, the dual table of
        `gram_dual`, and shares that row's tuples.  On TL and Brauer T is inverted once
        by `ratlinalg.invert`, from the matrix whose rows are the `rho_row`s, so that
        column j of its inverse is row j of T^-1; a singular T raises `ParameterError`.

        Memoised.  Beyond `GRAM_LIMITS` this raises `CapabilityError` before any row is
        compiled.
        """
        if self._trace is None:
            self._check_limit()
            if self.kind is ChainKind.SYMMETRIC_GROUP:
                keys, duals, dual_den = self.gram_dual()
                rows = [(p, v, den * dual_den) for p, v, den in (self.rho_row(k) for [k] in duals)]
            else:
                keys = self._keys()
                rows = self._inverse_rows(keys)
            self._trace = (keys, rows, lcm(*(den for _, _, den in rows)))
        return self._trace

    def _inverse_rows(self, keys: list[str]) -> list[tuple]:
        """The rows of T^-1 for `trace_rows`, from one `invert` of the matrix whose row
        k is the `rho_row` of keys[k]."""
        matrix = []
        for key in keys:
            positions, values, den = self.rho_row(key)
            line = [0] * len(keys)
            for p, v in zip(positions, values):
                line[p] = Fraction(v, den)
            matrix.append(line)
        try:
            columns = list(zip(*invert(matrix)))
        except ValueError:
            raise ParameterError(
                f"transform singular at q={self.q} for {self.kind.value} n={self.n}"
            ) from None
        target, _ = self._image_positions()
        shared = self._layout()[1]
        rows = []
        for column in columns:
            entries = [(p, column[t]) for p, t in enumerate(target) if column[t]]
            den = lcm(*(x.denominator for _, x in entries))
            values = [x.numerator * (den // x.denominator) for _, x in entries]
            rows.append((tuple(shared[p] for p, _ in entries),
                         tuple(map(self._ints.setdefault, values, values)), den))
        return rows

    def packed_traces(self, x_bits: int) -> tuple:
        """(width, columns, bias): the rows of `trace_rows` Kronecker-packed (Harvey,
        J. Symb. Comp. 44, 2009) by image position, for flat images whose integer
        numerators have at most x_bits bits.  columns[p] is
        sum_j R'[j][p] . 2^(width . j), where R'[j][p] is entry (r, c) of row j, for p
        the image position of entry (c, r) of the same block lam, scaled by den / den_j
        and by the weight w_lam (d_lam on S_n, 1 elsewhere).  So
        sum_p x_p . columns[p] holds, in the j-th width-bit slot, the coefficient of
        b_j in the element whose image is x, times the rows' common den.  width is
        x_bits, plus the bits of max |R'|, plus the bits of the longest row, plus 1,
        rounded up to a whole byte: then every slot is below 2^(width-1) in size, and
        a slot biased by 2^(width-1) never carries.  bias is that 2^(width-1) in
        every slot.

        Memoised at the widest width asked for so far; a narrower call reads the
        wider table.  Beyond `GRAM_LIMITS` this raises `CapabilityError` before any
        row is compiled.
        """
        _, rows, den = self.trace_rows()
        if self._packed is None:
            _, weight = self._image_positions()
            top = max(weight)
            row_bits = max(
                (max(map(abs, values)) * (den // row_den) * top).bit_length()
                + len(positions).bit_length()
                for positions, values, row_den in rows
            )
            self._packed = (row_bits, 0, None, None)
        row_bits, width, columns, bias = self._packed
        need = -(-(x_bits + row_bits + 1) // 8) * 8
        if need > width:
            width = need
            bias = int.from_bytes((1 << (width - 1)).to_bytes(width // 8, "little")
                                  * len(rows), "little")
            columns = self._pack_traces(width, bias)
            self._packed = (row_bits, width, columns, bias)
        return width, columns, bias

    def _image_positions(self) -> tuple[list[int], list[int]]:
        """(target, weight) per flat position p of entry (r, c) of block lam:
        target[p] is the position of entry (c, r), and weight[p] is d_lam on S_n
        and 1 elsewhere."""
        target, weight = [], []
        for _, base, d in image_layout(self.kind, self.n):
            target.extend(base + c * d + r for r in range(d) for c in range(d))
            weight.extend([d if self.kind is ChainKind.SYMMETRIC_GROUP else 1] * (d * d))
        return target, weight

    def _pack_traces(self, width: int, bias: int) -> list[int]:
        """The columns of `packed_traces` at width bits a slot, built in linear time.
        Each row is written as width/8 little-endian bytes a slot, value plus
        2^(width-1), into one row-major byte matrix; each value is encoded once per
        scale den / den_j of the rows that hold it, so no slot is asked to hold a
        product wider than the width allows.  The column of image position p is the
        matrix column of its transposed position, copied out with width/8 strided
        slices, converted to an int once, unbiased and times w_lam."""
        _, rows, den = self.trace_rows()
        size, w8 = len(rows), width // 8
        half, stride = 1 << (width - 1), size * w8
        empty = half.to_bytes(w8, "little")
        held = {}
        for _, values, row_den in rows:
            held.setdefault(den // row_den, set()).update(values)
        codes = {up: {v: (v * up + half).to_bytes(w8, "little") for v in values}
                 for up, values in held.items()}
        matrix = bytearray(size * stride)
        for j, (positions, values, row_den) in enumerate(rows):
            slots = [empty] * size
            for p, code in zip(positions, map(codes[den // row_den].__getitem__, values)):
                slots[p] = code
            matrix[j * stride : (j + 1) * stride] = b"".join(slots)
        column, columns = bytearray(stride), []
        for q, w in zip(*self._image_positions()):
            for k in range(w8):
                column[k::w8] = matrix[q * w8 + k :: stride]
            columns.append((int.from_bytes(column, "little") - bias) * w)
        return columns

    def traces(self, flat: tuple[int, ...] | list[int]) -> list[int]:
        """f(b_j) . den for every key b_j of `trace_rows`, den the rows' common
        denominator, where flat holds the integer numerators of the image of f in its
        own layout (`transform.FourierImage.flat`): the trace of f-hat rho(b_j^v),
        block lam weighted by w_lam, for each row of T^-1.

        Numerators wider than `LIMB_BITS` are cut into limbs of that many bits, the
        top one signed, and the traces of the limbs are joined by Horner's rule, so
        the packed table stays at most LIMB_BITS + 1 bits wider than its rows;
        most images are one limb.  The traces of one limb vector x come from one
        packed sum, bias + sum over x_p != 0 of x_p . columns[p]
        (`packed_traces`), whose bytes are read once, slot by slot.
        """
        top = max(max(map(abs, flat)).bit_length() - 1, 0) // LIMB_BITS * LIMB_BITS
        out = self._packed_sum([x >> top for x in flat] if top else flat)
        mask = (1 << LIMB_BITS) - 1
        for shift in range(top - LIMB_BITS, -1, -LIMB_BITS):
            low = self._packed_sum([x >> shift & mask for x in flat])
            out = [(t << LIMB_BITS) + u for t, u in zip(out, low)]
        return out

    def _packed_sum(self, x: tuple[int, ...] | list[int]) -> list[int]:
        """The slots of one limb vector x, decoded from its packed sum.  Slots of up to
        64 bits are copied into 8-byte lanes, w8 strided slices as `_pack_traces`
        writes them, and unpacked at once as little-endian unsigned 64-bit ints; wider
        slots are read one at a time."""
        width, columns, bias = self.packed_traces(max(map(abs, x)).bit_length())
        size, w8, half = len(columns), width // 8, 1 << (width - 1)
        total = sum(map(mul, compress(x, x), compress(columns, x)), bias)
        if not 0 <= total < 1 << (width * size):
            raise OverflowError(f"packed traces overflow their {width}-bit slots")
        data = total.to_bytes(size * w8, "little")
        if w8 > 8:
            return [int.from_bytes(data[at : at + w8], "little") - half
                    for at in range(0, size * w8, w8)]
        lanes = bytearray(8 * size)
        for k in range(w8):
            lanes[k::8] = data[k::w8]
        return [v - half for v in unpack(f"<{size}Q", lanes)]

    def _keys(self) -> list[str]:
        """The basis keys in canonical order."""
        from ..transform import _routing

        return list(_routing(self.kind, self.n).index)

    def _check_limit(self) -> None:
        limit = GRAM_LIMITS.get(self.kind)
        if limit is not None and self.n > limit:
            raise CapabilityError(f"dual basis limited to n <= {limit} for {self.kind.value}")

    def gram_dual(self):
        """(keys, duals, den) on S_n: the dual basis of the weighted trace form
        tau_w = sum_lam d_lam chi_lam, which `trace_rows` reads.  The keys are in
        canonical order, and the dual of keys[j] is {key k: G_w^-1[k][j] . den},
        G_w[i][j] = tau_w(b_i b_j).  Since tau_w(g) = n! [g = 1] (Serre, Linear
        Representations of Finite Groups, 6.2), the dual of g is {key of g^-1: 1} over
        n!, read with `sn_permutation`, and no Gram matrix is built.

        On TL and Brauer this raises `CapabilityError`: `trace_rows` inverts T itself.
        Memoised.  Beyond `GRAM_LIMITS` this raises `CapabilityError`.
        """
        if self.kind is not ChainKind.SYMMETRIC_GROUP:
            raise CapabilityError(
                f"no dual table for {self.kind.value}: trace_rows inverts the transform")
        if self._gram is None:
            self._check_limit()
            keys = self._keys()
            perms = [sn_permutation(key, self.n) for key in keys]
            key_of = dict(zip(perms, keys))
            duals = [{key_of[tuple(sorted(range(self.n), key=perm.__getitem__))]: 1}
                     for perm in perms]
            self._gram = (keys, duals, factorial(self.n))
        return self._gram


def _exact_q(q) -> Fraction:
    """q as a `Fraction`; a float or a bool is refused, not rounded or read as 0 or 1."""
    if isinstance(q, (bool, float)):
        raise ArgumentError(f"q={q!r}: give an int, a Fraction or a string")
    return Fraction(q)


def local_blocks(kind: ChainKind, n: int, q: Fraction = DEFAULT_Q):
    """Complete local-block data for every generator of the chain at size n."""
    q = _exact_q(q)
    if kind is ChainKind.SYMMETRIC_GROUP:
        return sn_block_table(n)
    if kind is ChainKind.TEMPERLEY_LIEB:
        return tl_block_table(n, q)
    if kind is ChainKind.BRAUER:
        from .cells import brauer_block_table

        return brauer_block_table(n, q)
    raise ArgumentError("BMW carries no representation data (structural only)")


@lru_cache(maxsize=None, typed=True)  # typed: a cached 1 must not answer for True
def adapted_rep(kind: ChainKind, n: int, q: Fraction = DEFAULT_Q) -> AdaptedRep:
    q = _exact_q(q)
    B = cached_bratteli(kind, n)
    return AdaptedRep(kind, n, q, B, local_blocks(kind, n, q))

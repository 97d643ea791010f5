"""Brauer / Temperley-Lieb / permutation diagrams and their arithmetic.

A diagram on 2n points matches top points 1..n with bottom points n+1..2n.
Products concatenate with the left factor on top; closed loops are returned
as an integer exponent, never folded into scalars here.

A `Diagram` is a `NamedTuple` checked in `__new__`, so it compares and hashes
as its fields.  The SOV routing (`_routing`, on the streams of `_schedule`) is
built on canonical pair tuples, which the enumerators of `_basis_pairs` make
valid by construction: no `Diagram` is checked.  It takes one pass per level:
every key is spelled once, the noncrossing matchings are memoised per boundary
interval, and the relabelling of each cut (`_cut`) is made once, not once per
diagram.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

from .combinat import ChainKind
from .errors import ArgumentError, FactorizationError

Token = tuple[str, int]  # ("r", i) or ("e", i)


class _DiagramFields(NamedTuple):
    kind: ChainKind
    n: int
    pairs: tuple[tuple[int, int], ...]


class Diagram(_DiagramFields):
    """A basis diagram of its kind: canonical pairs, checked when it is made."""

    __slots__ = ()

    def __new__(cls, kind: ChainKind, n: int, pairs: tuple[tuple[int, int], ...]):
        if kind is ChainKind.BMW_STRUCTURAL:
            raise ArgumentError("BMW diagrams carry no multiplication data")
        if not all(isinstance(pair, tuple) and len(pair) == 2 for pair in pairs):
            raise ArgumentError(f"{pairs!r} is not a tuple of 2-tuples")
        seen = sorted(p for pair in pairs for p in pair)
        if seen != list(range(1, 2 * n + 1)):
            raise ArgumentError(f"not a perfect matching on 2n={2 * n} points")
        if pairs != canonical_pairs(pairs):
            raise ArgumentError("pairs not in canonical sorted form")
        if kind is ChainKind.SYMMETRIC_GROUP and not all(a <= n < b for a, b in pairs):
            raise ArgumentError("permutation diagrams must join top to bottom")
        if kind is ChainKind.TEMPERLEY_LIEB and not is_planar(pairs, n):
            raise ArgumentError("Temperley-Lieb diagrams must be planar")
        return tuple.__new__(cls, (kind, n, pairs))

    def key(self) -> str:
        return pairs_key(self.pairs)


class LoopProduct(NamedTuple):
    diagram: Diagram
    loops: int


class _WordFields(NamedTuple):
    tokens: tuple[Token, ...]


class GeneratorWord(_WordFields):
    """Product of generators r_i / e_i, applied left to right; () is the identity."""

    __slots__ = ()

    def __new__(cls, tokens: tuple[Token, ...]):
        for sym, i in tokens:
            if sym not in ("r", "e") or i < 1:
                raise ArgumentError(f"bad token {(sym, i)!r}")
        return tuple.__new__(cls, (tokens,))

    def __str__(self) -> str:
        return "id" if not self.tokens else "".join(f"{s}{i}" for s, i in self.tokens)


def check_size(n) -> None:
    """Refuse a size n that is not a non-negative int, a bool included."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ArgumentError(f"n={n!r} is not a non-negative int")


def canonical_pairs(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


class _Spellings(dict):
    """{(a, b): "a-b"}, each pair spelled on first use."""

    def __missing__(self, pair: tuple[int, int]) -> str:
        spelled = self[pair] = "%d-%d" % pair
        return spelled


_SPELLED = _Spellings()


def pairs_key(pairs) -> str:
    """The key "a-b,c-d,..." of canonical pairs: the one spelling of a basis element."""
    return ",".join(map(_SPELLED.__getitem__, pairs))


def is_planar(pairs, n: int) -> bool:
    """One pass: read clockwise (top 1..n, then bottom 2n..n+1), every strand must
    close the last one still open."""
    partner = [0] * (2 * n + 1)
    for a, b in pairs:
        a, b = (p if p <= n else 3 * n + 1 - p for p in (a, b))
        partner[a], partner[b] = b, a
    opened = []
    for p in range(1, 2 * n + 1):
        if partner[p] > p:
            opened.append(p)
        elif not opened or opened.pop() != partner[p]:
            return False
    return True


def identity_diagram(kind: ChainKind, n: int) -> Diagram:
    return Diagram(kind, n, canonical_pairs((i, i + n) for i in range(1, n + 1)))


def generator(kind: ChainKind, token: Token, n: int) -> Diagram:
    sym, i = token
    if not 1 <= i <= n - 1:
        raise ArgumentError(f"generator index {i} outside 1..{n - 1}")
    if sym == "e" and kind is ChainKind.SYMMETRIC_GROUP:
        raise ArgumentError("e generators do not exist in the symmetric group")
    if sym == "r" and kind is ChainKind.TEMPERLEY_LIEB:
        raise ArgumentError("r generators do not exist in the Temperley-Lieb algebra")
    pairs = [(j, j + n) for j in range(1, n + 1) if j not in (i, i + 1)]
    if sym == "r":
        pairs += [(i, i + 1 + n), (i + 1, i + n)]
    else:
        pairs += [(i, i + 1), (i + n, i + n + 1)]
    return Diagram(kind, n, canonical_pairs(pairs))


def diagram_mul(x: Diagram, y: Diagram) -> LoopProduct:
    """Concatenate with x on top of y; returns the canonical result and loop count.

    The stack has 3n points: x's top 1..n, the glued middle row n+1..2n and
    y's bottom 2n+1..3n.  `up` and `down` are the partner maps of x's and y's
    strands on it; every strand alternates between them, so one walk follows
    both the strands with two outer ends and the closed loops of the middle row.
    """
    if x.n != y.n:
        raise ArgumentError("size mismatch in diagram product")
    n = x.n
    kind = join_kind(x.kind, y.kind)
    up = [0] * (3 * n + 1)
    down = [0] * (3 * n + 1)
    for a, b in x.pairs:
        up[a], up[b] = b, a
    for a, b in y.pairs:
        down[a + n], down[b + n] = b + n, a + n
    seen = [False] * (3 * n + 1)
    pairs = []
    loops = 0
    # outer points first, so a middle point still unseen lies on a closed loop
    outer = (*range(1, n + 1), *range(2 * n + 1, 3 * n + 1))
    for start in (*outer, *range(n + 1, 2 * n + 1)):
        if seen[start]:
            continue
        step, p = (down if start > 2 * n else up), start
        while True:
            p = step[p]
            seen[p] = True
            if p <= n or p > 2 * n or p == start:
                break
            step = down if step is up else up
        if p == start:
            loops += 1
        else:
            pairs.append((start if start <= n else start - n, p if p <= n else p - n))
    return LoopProduct(Diagram(kind, n, canonical_pairs(pairs)), loops)


def join_kind(a: ChainKind, b: ChainKind) -> ChainKind:
    if a == b:
        return a
    if ChainKind.BRAUER in (a, b) and ChainKind.BMW_STRUCTURAL not in (a, b):
        return ChainKind.BRAUER  # permutation and planar diagrams are Brauer diagrams
    raise ArgumentError(f"incompatible kinds {a.value!r} and {b.value!r}")


def evaluate(word: GeneratorWord, kind: ChainKind, n: int) -> LoopProduct:
    out = identity_diagram(kind, n)
    loops = 0
    for token in word.tokens:
        prod = diagram_mul(out, generator(kind, token, n))
        out, loops = prod.diagram, loops + prod.loops
    return LoopProduct(out, loops)


def all_diagrams(kind: ChainKind, n: int) -> list[Diagram]:
    """Every basis diagram of the given kind and size, in canonical key order."""
    return [Diagram(kind, n, pairs) for _, pairs in _basis_pairs(kind, n)]


def _basis_pairs(kind: ChainKind, n: int) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    """(key, canonical pairs) of every basis diagram, in canonical key order; each key
    is spelled once.  Only the noncrossing matchings need reordering: they read the
    bottom row backwards."""
    if kind is ChainKind.BMW_STRUCTURAL:
        raise ArgumentError("BMW diagrams carry no multiplication data")
    if kind is ChainKind.SYMMETRIC_GROUP:
        out = [
            tuple((i + 1, n + v) for i, v in enumerate(perm))
            for perm in permutations(range(1, n + 1))
        ]
    elif kind is ChainKind.TEMPERLEY_LIEB:
        # boundary position p is point p + 1 on top (p < n), point 3n - p below
        point = [*range(1, n + 1), *range(2 * n, n, -1)]
        pair = {(p, q): (point[p], point[q]) if p < n else (point[q], point[p])
                for q in range(2 * n) for p in range(q)}
        out = [tuple(sorted(map(pair.__getitem__, m))) for m in _noncrossing(0, 2 * n)]
    else:
        out = [tuple(m) for m in _pairings(list(range(1, 2 * n + 1)))]
    return sorted(zip(map(pairs_key, out), out))


@lru_cache(maxsize=None)
def _noncrossing(i: int, j: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Noncrossing perfect matchings of the boundary positions i..j-1 (j - i even),
    memoised per interval: pairs (p, q) with p < q, in increasing p."""
    if i == j:
        return ((),)
    return tuple(
        ((i, k), *left, *right)
        for k in range(i + 1, j, 2)
        for left in _noncrossing(i + 1, k)
        for right in _noncrossing(k + 1, j)
    )


def _pairings(items: list[int]):
    if not items:
        yield []
        return
    first = items[0]
    rest = items[1:]
    for j, other in enumerate(rest):
        head = (first, other)
        for tail in _pairings(rest[:j] + rest[j + 1 :]):
            yield [head] + tail


# ---------------------------------------------------------------------------
# Relation suites


def relation_instances(kind: ChainKind, n: int):
    """Yield (name, lhs tokens, rhs tokens, rhs loop exponent) for the presentation."""
    if n < 2:
        return
    R = range(1, n)
    if kind in (ChainKind.SYMMETRIC_GROUP, ChainKind.BRAUER):
        for i in R:
            yield f"r{i}^2=1", (("r", i), ("r", i)), (), 0
        for i in R:
            for j in R:
                if j > i + 1:
                    yield f"r{i}r{j}=r{j}r{i}", (("r", i), ("r", j)), (("r", j), ("r", i)), 0
        for i in R[:-1]:
            yield (
                f"braid{i}",
                (("r", i), ("r", i + 1), ("r", i)),
                (("r", i + 1), ("r", i), ("r", i + 1)),
                0,
            )
    if kind in (ChainKind.BRAUER, ChainKind.TEMPERLEY_LIEB):
        for i in R:
            yield f"e{i}^2=qe{i}", (("e", i), ("e", i)), (("e", i),), 1
        for i in R:
            for j in R:
                if j > i + 1:
                    yield f"e{i}e{j}=e{j}e{i}", (("e", i), ("e", j)), (("e", j), ("e", i)), 0
        for i in R[:-1]:
            yield f"e{i}e{i+1}e{i}=e{i}", (("e", i), ("e", i + 1), ("e", i)), (("e", i),), 0
            yield (
                f"e{i+1}e{i}e{i+1}=e{i+1}",
                (("e", i + 1), ("e", i), ("e", i + 1)),
                (("e", i + 1),),
                0,
            )
    if kind is ChainKind.BRAUER:
        for i in R:
            for j in R:
                if j > i + 1:
                    yield f"r{i}e{j}=e{j}r{i}", (("r", i), ("e", j)), (("e", j), ("r", i)), 0
                    yield f"e{i}r{j}=r{j}e{i}", (("e", i), ("r", j)), (("r", j), ("e", i)), 0
        for i in R:
            yield f"e{i}r{i}=e{i}", (("e", i), ("r", i)), (("e", i),), 0
            yield f"r{i}e{i}=e{i}", (("r", i), ("e", i)), (("e", i),), 0
        for i in R[:-1]:
            yield (
                f"r{i}e{i+1}e{i}=r{i+1}e{i}",
                (("r", i), ("e", i + 1), ("e", i)),
                (("r", i + 1), ("e", i)),
                0,
            )
            yield (
                f"e{i+1}e{i}r{i+1}=e{i+1}r{i}",
                (("e", i + 1), ("e", i), ("r", i + 1)),
                (("e", i + 1), ("r", i)),
                0,
            )


class RelationReport(NamedTuple):
    kind: ChainKind
    n: int
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_relations(kind: ChainKind, n: int) -> RelationReport:
    """Verify every defining-relation instance as a loop-product identity."""
    if n < 2:
        raise ArgumentError("relations need n >= 2")
    violations = []
    checked = 0
    for name, lhs, rhs, extra in relation_instances(kind, n):
        checked += 1
        left = evaluate(GeneratorWord(lhs), kind, n)
        right = evaluate(GeneratorWord(rhs), kind, n)
        if left.diagram != right.diagram or left.loops != right.loops + extra:
            violations.append(name)
    return RelationReport(kind, n, checked, tuple(violations))


# ---------------------------------------------------------------------------
# Factor sets and factorization


@lru_cache(maxsize=None)
def factor_set(kind: ChainKind, n: int) -> tuple[GeneratorWord, ...]:
    """Canonical factor set of A_n over A_{n-1} as an ordered word list.

    Brauer/BMW: R = {id, r_1..r_{n-1}, ..., r_{n-1}} then ER words
    r_a..r_{b-2} e_{b-1}..e_{n-1} ordered lexicographically by top edge (a, b);
    TL: {id, e_{n-1}, e_{n-2}e_{n-1}, ...}; S_n: R alone.
    """
    if n < 1:
        raise ArgumentError("factor sets need n >= 1")
    words = [GeneratorWord(())]
    if kind is ChainKind.TEMPERLEY_LIEB:
        for i in range(n - 1, 0, -1):
            words.append(GeneratorWord(tuple(("e", k) for k in range(i, n))))
        return tuple(words)
    for j in range(1, n):
        words.append(GeneratorWord(tuple(("r", k) for k in range(j, n))))
    if kind in (ChainKind.BRAUER, ChainKind.BMW_STRUCTURAL):
        for a in range(1, n):
            for b in range(a + 1, n + 1):
                words.append(GeneratorWord(er_word_tokens(a, b, n)))
    return tuple(words)


def er_word_tokens(a: int, b: int, n: int) -> tuple[Token, ...]:
    """Tokens of the ER word with top edge (a, b): r_a..r_{b-2} e_{b-1}..e_{n-1}."""
    return tuple(("r", k) for k in range(a, b - 1)) + tuple(
        ("e", k) for k in range(b - 1, n)
    )


def _route(kind: ChainKind, n: int, pairs) -> tuple[tuple[Token, ...], tuple]:
    """(tokens of y, canonical pairs of b) with d = evaluate(y) * grow(b) and no loops,
    for the canonical pairs of a size-n >= 1 basis diagram d; y is the first fit.

    If 2n is joined to top point j, and j = n or the chain has r generators, y is
    r_j..r_{n-1} (the identity at j = n) and b drops the strand (j, 2n).  Otherwise
    y is the ER word of the smallest top arc (for Temperley-Lieb: the adjacent arc
    with the largest a) and b drops that arc, 2n moving to the last top point.
    """
    tl = kind is ChainKind.TEMPERLEY_LIEB
    j = next(a for a, b in pairs if b == 2 * n)
    if j == n or (j < n and not tl):
        cut = (j, 2 * n)
    else:
        arcs = [(a, b) for a, b in pairs if b <= n and (b == a + 1 or not tl)]
        if not arcs:
            raise FactorizationError(f"no admissible top edge in {pairs_key(pairs)}")
        cut = arcs[-1] if tl else arcs[0]
    tokens, to = _cut(n, *cut)
    sub = [(to[u], to[v]) for u, v in pairs if (u, v) != cut]
    return tokens, tuple(sorted([(u, v) if u < v else (v, u) for u, v in sub]))


@lru_cache(maxsize=None)
def _cut(n: int, a: int, b: int) -> tuple[tuple[Token, ...], tuple[int, ...]]:
    """(tokens of y, new label of each point) for the strand or arc (a, b) that `_route`
    drops from a size-n diagram: the strand (j, 2n) is routed by r_j..r_{n-1}, a top
    arc by its ER word, which moves 2n to the last top point."""
    if b == 2 * n:
        return tuple(("r", k) for k in range(a, n)), tuple(p - (p > a) for p in range(2 * n + 1))
    to = [p - (p > a) - (p > b) if p <= n else p - 1 for p in range(2 * n)]
    return er_word_tokens(a, b, n), (*to, n - 1)


def grow(b: Diagram, n: int) -> Diagram:
    """Embed a size-(n-1) diagram into size n by adding a vertical strand."""
    if b.n != n - 1:
        raise ArgumentError("embedding expects size n-1")
    pairs = [(u if u < n else u + 1, v if v < n else v + 1) for u, v in b.pairs]
    pairs.append((n, 2 * n))
    return Diagram(b.kind, n, canonical_pairs(pairs))


class _Schedule(NamedTuple):
    """The SOV merge schedule of one (kind, level), read from its factor set.

    A stream is a factor word written as its token per index 1..level-1 (None
    for the identity); streams are numbered in `_stream_order`.  Stage k
    applies index level-1-k: stream s applies token `stages[k][s][0]` (if any)
    and merges into stream `stages[k][s][1]` of the next stage (stream 0 last).
    """

    streams: tuple[tuple[str | None, ...], ...]
    stream_of: dict[tuple, int]  # factor word tokens -> stream number
    stages: tuple[tuple[tuple[Token | None, int], ...], ...]


def _stream_order(pending: tuple) -> tuple:
    return tuple(sym or "" for sym in pending)


@lru_cache(maxsize=None)
def _schedule(kind: ChainKind, level: int) -> _Schedule:
    """The schedule of level >= 1, read from the O(level^2) factor-set words alone."""
    pending = {}
    for word in factor_set(kind, level):
        p = [None] * (level - 1)
        for sym, i in word.tokens:
            p[i - 1] = sym
        pending[word.tokens] = tuple(p)
    streams = tuple(sorted(pending.values(), key=_stream_order))
    stream_of = {tokens: streams.index(p) for tokens, p in pending.items()}
    current, stages = streams, []
    for i in range(level - 1, 0, -1):
        merged = sorted({p[: i - 1] for p in current}, key=_stream_order)
        target = {p: s for s, p in enumerate(merged)}
        stages.append(tuple((p[i - 1] and (p[i - 1], i), target[p[: i - 1]]) for p in current))
        current = merged
    return _Schedule(streams, stream_of, tuple(stages))


class _Routing(NamedTuple):
    """The SOV routing of one (kind, level): every basis diagram by its integer
    position, routed onto the streams of `_schedule(kind, level)`."""

    index: dict[str, int]  # basis key -> position in canonical key order
    routes: tuple[tuple[int, int], ...]  # position -> (stream, position one level down)
    fibers: tuple[int, ...]  # position -> fiber of its route down to level 1
    spans: tuple[int, ...]  # K_{L+1} ... K_level for L = 2..level, K the stream counts


@lru_cache(maxsize=None)
def _routing(kind: ChainKind, level: int) -> _Routing:
    """The `_route` of every level-`level` basis diagram d = y . grow(b), made once per
    (kind, level) from the pairs of `_basis_pairs` with no `Diagram` built: y as its
    stream, b as its position one level down.  The fiber of a position with route
    (s, sub) is s + K . fibers[sub], K the level's stream count: the streams of its
    route down to level 1 as mixed-radix digits, this level's the lowest.  Level 0 is
    the one empty diagram, in fiber 0."""
    if kind is ChainKind.BMW_STRUCTURAL:
        raise ArgumentError("BMW diagrams carry no multiplication data")
    check_size(level)
    if level == 0:
        return _Routing({"": 0}, ((0, 0),), (0,), ())
    below, schedule = _routing(kind, level - 1), _schedule(kind, level)
    stream_of, count = schedule.stream_of, len(schedule.streams)
    index, routes = {}, []
    for key, pairs in _basis_pairs(kind, level):
        tokens, sub = _route(kind, level, pairs)
        if tokens not in stream_of:
            raise FactorizationError(
                f"{kind.value} level {level}: the route of {key} is not a factor-set word")
        index[key] = len(routes)
        routes.append((stream_of[tokens], below.index[pairs_key(sub)]))
    if len(set(routes)) != len(routes):
        raise FactorizationError(f"{kind.value} level {level}: two diagrams share a route")
    return _Routing(index, tuple(routes),
                    tuple(s + count * below.fibers[sub] for s, sub in routes),
                    (*(span * count for span in below.spans), 1) if level > 1 else ())


def basis_key(kind: ChainKind, n: int, key: str) -> str:
    """The canonical key of a diagram; a basis key is taken without parsing."""
    if isinstance(key, str) and key in _routing(kind, n).index:
        return key
    return diagram_from_key(kind, n, key).key()


def diagram_from_key(kind: ChainKind, n: int, key: str) -> Diagram:
    """Parse "a-b,c-d,..."; the empty key names the only diagram at n = 0."""
    if not isinstance(key, str):
        raise ArgumentError(f"diagram key {key!r} is not a string")
    parts = key.split(",") if key.strip() else []
    if not parts and n != 0:
        raise ArgumentError("empty diagram key")
    pairs = []
    for part in parts:
        a, _, b = part.partition("-")
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ArgumentError(f"bad pair {part!r} in diagram key {key!r}") from None
    return Diagram(kind, n, canonical_pairs(pairs))

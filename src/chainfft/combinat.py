"""Partitions, branching rules, Bratteli diagrams, quiver morphism counts, and bounds.

Vertices of every diagram level are integer partitions.  The canonical order
of the vertices at a level is (size descending, then reverse lexicographic on
the part tuples); every path/index structure downstream derives from it.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial
from typing import NamedTuple

from .errors import ArgumentError, InvalidVertexError

Partition = tuple[int, ...]
Path = tuple[Partition, ...]  # vertex sequence from the root, length = level + 1


class ChainKind(str, Enum):
    SYMMETRIC_GROUP = "sn"
    BRAUER = "brauer"
    TEMPERLEY_LIEB = "tl"
    BMW_STRUCTURAL = "bmw"

    @classmethod
    def parse(cls, name: str) -> "ChainKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ArgumentError(f"unknown chain kind {name!r}")


def is_partition(parts: tuple[int, ...]) -> bool:
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)) and all(
        p >= 1 for p in parts
    )


def partition_key(lam: Partition):
    """Sort key realising the canonical order: |λ| descending, reverse lex."""
    return (-sum(lam), tuple(-p for p in lam))


def add_box_results(lam: Partition) -> list[Partition]:
    """Partitions obtained by adding one box, in canonical order."""
    out = []
    for row in range(len(lam) + 1):
        here = lam[row] if row < len(lam) else 0
        above = lam[row - 1] if row > 0 else None
        if above is None or here < above:
            grown = list(lam)
            if row < len(lam):
                grown[row] += 1
            else:
                grown.append(1)
            out.append(tuple(grown))
    return sorted(out, key=partition_key)


def remove_box_results(lam: Partition) -> list[Partition]:
    """Partitions obtained by removing one corner box, in canonical order."""
    out = []
    for row in range(len(lam)):
        below = lam[row + 1] if row + 1 < len(lam) else 0
        if lam[row] > below:
            shrunk = list(lam)
            shrunk[row] -= 1
            if shrunk[-1] == 0:
                shrunk.pop()
            out.append(tuple(shrunk))
    return sorted(out, key=partition_key)


def legal_vertex(kind: ChainKind, lam: Partition, level: int) -> bool:
    if level < 0 or not is_partition(lam):
        return False
    size = sum(lam)
    if kind in (ChainKind.BRAUER, ChainKind.BMW_STRUCTURAL):
        return size <= level and (level - size) % 2 == 0
    if kind is ChainKind.TEMPERLEY_LIEB:
        return size == level and len(lam) <= 2
    return size == level


def branch(kind: ChainKind, lam: Partition, level: int) -> list[Partition]:
    """Level-`level` successors of the vertex `lam` at level `level - 1`."""
    lam = tuple(lam)
    if level < 1 or not legal_vertex(kind, lam, level - 1):
        raise InvalidVertexError(
            f"{lam!r} is not a level-{level - 1} vertex of the {kind.value} chain"
        )
    if kind in (ChainKind.BRAUER, ChainKind.BMW_STRUCTURAL):
        grown = add_box_results(lam) + remove_box_results(lam)
    elif kind is ChainKind.TEMPERLEY_LIEB:
        grown = [mu for mu in add_box_results(lam) if len(mu) <= 2]
    else:
        grown = add_box_results(lam)
    return sorted(set(grown), key=partition_key)


def algebra_dim(kind: ChainKind, level: int) -> int:
    """dim(A_level): (2i-1)!! for Brauer/BMW, Catalan(i) for TL, i! for S_n."""
    if kind in (ChainKind.BRAUER, ChainKind.BMW_STRUCTURAL):
        return double_factorial(2 * level - 1)
    if kind is ChainKind.TEMPERLEY_LIEB:
        return catalan(level)
    return factorial(level)


def double_factorial(m: int) -> int:
    if m <= 0:
        return 1
    out = 1
    while m > 0:
        out *= m
        m -= 2
    return out


def catalan(n: int) -> int:
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


class BratteliDiagram:
    """Graded multiplicity-free quiver for a chain, with path-count dimensions.

    levels[i] lists the level-i vertices in canonical order; edges[i] holds
    (source index at level i-1, target index at level i) pairs; dims[i][j] is
    the number of root-to-vertex paths of levels[i][j].  The rows of level i are its
    paths, numbered across its vertices (`row_moves`).  Path counts, paths and row
    moves are memoised on the diagram.
    """

    __slots__ = ("kind", "n", "levels", "edges", "dims",
                 "_path_count_memo", "_paths_memo", "_moves_memo")

    def __init__(
        self,
        kind: ChainKind,
        n: int,
        levels: tuple[tuple[Partition, ...], ...],
        edges: tuple[tuple[tuple[int, int], ...], ...],
        dims: tuple[tuple[int, ...], ...],
    ):
        self.kind, self.n, self.levels, self.edges, self.dims = kind, n, levels, edges, dims
        self._path_count_memo: dict = {}
        self._paths_memo: dict = {}
        self._moves_memo: dict = {}

    def vertices(self, level: int) -> tuple[Partition, ...]:
        self._check_level(level)
        return self.levels[level]

    def vertex_index(self, level: int, lam: Partition) -> int:
        self._check_level(level)
        lam = tuple(lam)
        try:
            return self.levels[level].index(lam)
        except ValueError:
            raise InvalidVertexError(f"{lam!r} not at level {level}") from None

    def dim(self, level: int, lam: Partition) -> int:
        return self.dims[level][self.vertex_index(level, lam)]

    def in_neighbors(self, level: int, lam: Partition) -> list[Partition]:
        j = self.vertex_index(level, lam)
        if level == 0:
            return []
        prev = self.levels[level - 1]
        return [prev[a] for (a, b) in self.edges[level] if b == j]

    def out_neighbors(self, level: int, lam: Partition) -> list[Partition]:
        if level >= self.n:
            return []
        j = self.vertex_index(level, lam)
        nxt = self.levels[level + 1]
        return [nxt[b] for (a, b) in self.edges[level + 1] if a == j]

    def paths(self, level: int, lam: Partition) -> tuple[tuple[Path, ...], dict[Path, int]]:
        """Gel'fand-Tsetlin paths from the root to lam, and each path's position.

        Paths are grouped by their level-(level-1) vertex in canonical order,
        recursively, so every restriction block is a contiguous index range
        and adapted matrices are block-diagonal in it.
        """
        key = (level, tuple(lam))
        memo = self._paths_memo
        if key not in memo:
            if level == 0:
                self.vertex_index(0, lam)
                paths = (((),),)
            else:
                paths = tuple(
                    p + (key[1],)
                    for mu in self.in_neighbors(level, lam)
                    for p in self.paths(level - 1, mu)[0]
                )
            memo[key] = (paths, {p: j for j, p in enumerate(paths)})
        return memo[key]

    def row_moves(self, level: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Row r of level-1 -> ((row at level, column offset), ...), one pair per edge.

        A level's rows are its paths numbered across its vertices: vertex order, then
        `paths` order.  The path p, row r below, moves to the row of p + (lam,), and in
        lam's `paths` order the paths through p's end fill one range from the offset on.
        """
        if not 1 <= level <= self.n:
            raise InvalidVertexError(f"level {level} outside 1..{self.n}")
        memo = self._moves_memo
        if level not in memo:
            dims, firsts = self.dims[level - 1], list(accumulate(self.dims[level], initial=0))
            starts, offsets = list(accumulate(dims, initial=0)), [0] * len(firsts)
            moves: list[list] = [[] for _ in range(starts[-1])]
            for a, b in self.edges[level]:  # sorted, so each lam meets its mu in order
                for k in range(dims[a]):
                    moves[starts[a] + k].append((firsts[b] + offsets[b] + k, offsets[b]))
                offsets[b] += dims[a]
            memo[level] = tuple(map(tuple, moves))
        return memo[level]

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.n:
            raise InvalidVertexError(f"level {level} outside 0..{self.n}")


def build_bratteli(kind: ChainKind, n: int) -> BratteliDiagram:
    """Construct the depth-n Bratteli diagram with deterministic ordering."""
    if n < 0:
        raise ArgumentError("depth must be nonnegative")
    levels: list[tuple[Partition, ...]] = [((),)]
    edges: list[tuple[tuple[int, int], ...]] = [()]
    dims: list[tuple[int, ...]] = [(1,)]
    for i in range(1, n + 1):
        seen: set[Partition] = set()
        for lam in levels[i - 1]:
            seen.update(branch(kind, lam, i))
        verts = tuple(sorted(seen, key=partition_key))
        idx = {lam: j for j, lam in enumerate(verts)}
        level_edges = []
        for a, lam in enumerate(levels[i - 1]):
            for mu in branch(kind, lam, i):
                level_edges.append((a, idx[mu]))
        level_edges.sort()
        new_dims = [0] * len(verts)
        for a, b in level_edges:
            new_dims[b] += dims[i - 1][a]
        levels.append(verts)
        edges.append(tuple(level_edges))
        dims.append(tuple(new_dims))
    return BratteliDiagram(kind, n, tuple(levels), tuple(edges), tuple(dims))


def mult_M(B: BratteliDiagram, rho: Partition, rho_level: int, gamma: Partition, gamma_level: int) -> int:
    """Number of directed paths from gamma (lower level) to rho (higher level)."""
    if gamma_level > rho_level:
        raise ArgumentError("level(gamma) must not exceed level(rho)")
    gi = B.vertex_index(gamma_level, gamma)
    ri = B.vertex_index(rho_level, rho)
    key = (gamma_level, gi, rho_level, ri)
    memo = B._path_count_memo
    if key in memo:
        return memo[key]
    counts = {gi: 1}
    for level in range(gamma_level + 1, rho_level + 1):
        nxt: dict[int, int] = {}
        for a, b in B.edges[level]:
            if a in counts:
                nxt[b] = nxt.get(b, 0) + counts[a]
        counts = nxt
    value = counts.get(ri, 0)
    memo[key] = value
    return value


# ---------------------------------------------------------------------------
# Graded quivers and morphism counting


class QuiverShape(NamedTuple):
    """Abstract graded quiver: named vertices with grades, tagged arrows.

    Arrows are (source name, target name, tag) with strictly increasing grade;
    the tag distinguishes parallel arrows so that edge sets behave as sets.
    """

    grades: tuple[tuple[str, int], ...]
    arrows: frozenset[tuple[str, str, int]]

    @staticmethod
    def make(grades: dict[str, int], arrows) -> "QuiverShape":
        arrows = frozenset(
            (s, t, tag) for (s, t, tag) in (a if len(a) == 3 else (*a, 0) for a in arrows)
        )
        for s, t, _ in arrows:
            if grades[t] <= grades[s]:
                raise ArgumentError(f"arrow {s}->{t} does not increase grade")
        return QuiverShape(tuple(sorted(grades.items())), arrows)

    def grade_map(self) -> dict[str, int]:
        return dict(self.grades)


def hom_count_brute(B: BratteliDiagram, H: QuiverShape, n: int) -> int:
    """Count quiver morphisms H -> B by backtracking over grade-ordered vertices.

    A morphism assigns each H-vertex a B-vertex of its grade and each arrow a
    directed path between the images; the number of morphisms is the sum over
    vertex assignments of the product of path counts.
    """
    grades = H.grade_map()
    if any(g > n for g in grades.values()):
        raise ArgumentError("quiver grade exceeds diagram depth")
    verts = sorted(grades, key=lambda v: (grades[v], v))
    arrows = list(H.arrows)
    total = 0
    assign: dict[str, Partition] = {}

    def rec(k: int, partial: int) -> None:
        nonlocal total
        if partial == 0:
            return
        if k == len(verts):
            total += partial
            return
        v = verts[k]
        for lam in B.vertices(grades[v]):
            assign[v] = lam
            factor = 1
            for s, t, _ in arrows:
                if t == v and s in assign:
                    factor *= mult_M(B, lam, grades[v], assign[s], grades[s])
                    if factor == 0:
                        break
                elif s == v and t in assign:
                    factor *= mult_M(B, assign[t], grades[t], lam, grades[v])
                    if factor == 0:
                        break
            rec(k + 1, partial * factor)
        del assign[v]

    rec(0, 1)
    return total


def stage_quiver_shape(i: int, n: int) -> QuiverShape:
    """The glued stage quiver with vertices 0̂, β_{i-2}, β_{i-1}, α_{i-1}, α_i, β_{n-1}."""
    if not 2 <= i <= n:
        raise ArgumentError(f"stage {i} outside 2..{n}")
    grades = {
        "root": 0,
        "b_im2": i - 2,
        "b_im1": i - 1,
        "a_im1": i - 1,
        "a_i": i,
    }
    arrows = [
        ("root", "a_im1", 0),
        ("b_im2", "b_im1", 0),
        ("b_im2", "a_im1", 0),
        ("b_im1", "a_i", 0),
        ("a_im1", "a_i", 0),
    ]
    if i < n:
        grades["b_nm1"] = n - 1
        arrows += [("root", "b_nm1", 0), ("b_im1", "b_nm1", 0)]
    else:
        arrows += [("root", "b_im1", 0)]
    return QuiverShape.make(grades, arrows)


def hom_count_closed(B: BratteliDiagram, i: int, n: int) -> int:
    """Exact evaluation of the stage-quiver morphism count.

    Sums M(β_{n-1},β_{i-1}) M(β_{i-1},β_{i-2}) M(α_i,α_{i-1}) M(α_i,β_{i-1})
    M(α_{i-1},β_{i-2}) d_{α_{i-1}} d_{β_{n-1}} over all vertex assignments.
    """
    if not 2 <= i <= n:
        raise ArgumentError(f"stage {i} outside 2..{n}")
    if B.n < n:
        raise ArgumentError("diagram shallower than requested depth")
    lv_im2, lv_im1, lv_i, lv_nm1 = B.levels[i - 2], B.levels[i - 1], B.levels[i], B.levels[n - 1]
    # A(β_{i-1}) = Σ_{β_{n-1}} M(β_{n-1}, β_{i-1}) d_{β_{n-1}}
    reach = {
        b: sum(
            mult_M(B, t, n - 1, b, i - 1) * B.dim(n - 1, t) for t in lv_nm1
        )
        for b in lv_im1
    }
    total = 0
    for b1 in lv_im1:
        for a1 in lv_im1:
            link = sum(
                mult_M(B, b1, i - 1, b0, i - 2) * mult_M(B, a1, i - 1, b0, i - 2)
                for b0 in lv_im2
            )
            if link == 0:
                continue
            tops = sum(
                mult_M(B, a2, i, a1, i - 1) * mult_M(B, a2, i, b1, i - 1)
                for a2 in lv_i
            )
            if tops == 0:
                continue
            total += reach[b1] * link * tops * B.dim(i - 1, a1)
    return total


# ---------------------------------------------------------------------------
# Closed-form bounds


class BoundReport(NamedTuple):
    kind: ChainKind
    n: int
    dim: int
    reduced_total: Fraction
    total: Fraction
    stage_bounds: tuple[Fraction, ...]  # indexed by stage i = 2..n

    def stage_bound(self, i: int) -> Fraction:
        if not 2 <= i <= self.n:
            raise ArgumentError(f"stage {i} outside 2..{self.n}")
        return self.stage_bounds[i - 2]


def paper_bounds(kind: ChainKind, n: int) -> BoundReport:
    """Total and per-stage operation bounds for the chain at depth n."""
    if n < 1:
        raise ArgumentError("depth must be at least 1")
    dim = algebra_dim(kind, n)
    if kind in (ChainKind.BRAUER, ChainKind.BMW_STRUCTURAL):
        reduced = Fraction(4 * n * n - n + 4)
        stages = tuple(
            Fraction(16 * i - 17, 2 * n - 1) * dim for i in range(2, n + 1)
        )
    elif kind is ChainKind.TEMPERLEY_LIEB:
        reduced = Fraction(n**3 + 9 * n * n + 8 * n - 12, 6)
        stages = tuple(
            Fraction((4 * i - 6 + 2 * i * i) * (n + 1) * n, i * 2 * n * (2 * n - 1)) * dim
            for i in range(2, n + 1)
        )
    else:
        raise ArgumentError("no headline bound for the symmetric-group chain")
    return BoundReport(kind, n, dim, reduced, reduced * dim, stages)


# ---------------------------------------------------------------------------
# Emission


def bratteli_dot(B: BratteliDiagram) -> str:
    lines = ["digraph bratteli {"]
    for i, verts in enumerate(B.levels):
        for lam in verts:
            lines.append(f'  "{i}:{format_partition(lam)}";')
    for i in range(1, B.n + 1):
        for a, b in B.edges[i]:
            src = format_partition(B.levels[i - 1][a])
            dst = format_partition(B.levels[i][b])
            lines.append(f'  "{i - 1}:{src}" -> "{i}:{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def bratteli_json(B: BratteliDiagram) -> dict:
    return {
        "kind": B.kind.value,
        "n": B.n,
        "levels": [
            {
                "vertices": [
                    {"parts": list(lam), "dim": B.dims[i][j]}
                    for j, lam in enumerate(B.levels[i])
                ],
                "edges": [list(e) for e in B.edges[i]],
            }
            for i in range(B.n + 1)
        ],
    }


def bratteli_json_str(B: BratteliDiagram) -> str:
    return json.dumps(bratteli_json(B), indent=2, sort_keys=True) + "\n"


def format_partition(lam: Partition) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]" if lam else "empty"


@lru_cache(maxsize=None)
def cached_bratteli(kind: ChainKind, n: int) -> BratteliDiagram:
    return build_bratteli(kind, n)

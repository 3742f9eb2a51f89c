"""Core data model: target graphs with loops, instances with lists, solutions.

Vertices are 0-indexed internally; the file formats are 1-indexed.
Neighborhoods are kept as bitmasks (int), which keeps domination tests and
the enumeration kernels cheap.  The text formats share one record
grammar, `records`: every reader in this module, treewidth and
reductions iterates it, except `_read_blocks`, whose strict .lhi layout
(the writers') holds no blank or comment line.
"""

from __future__ import annotations

from itertools import combinations, islice, repeat
from operator import sub
from typing import Iterable, Optional

from . import _kernels


class ParseError(ValueError):
    pass


def records(lines: Iterable[str]):
    """(line number, tokens) for each record of a line-based file: each
    line split on whitespace, skipping a line with no token and one whose
    first token starts with `c` (a comment).  Skipped lines still count
    toward the 1-based line numbers."""
    for lineno, raw in enumerate(lines, 1):
        tok = raw.split()
        if tok and tok[0][0] != "c":
            yield lineno, tok


# The most vertices a file header may announce.  Each parser checks its
# header's count before it allocates anything per vertex; README gives the
# memory that the largest accepted inputs take.
MAX_INSTANCE_VERTICES = 10 ** 6  # `p lhom` and classic `p <kind>` headers
MAX_TARGET_VERTICES = 1000  # `h` headers


class TooManyVertices(ValueError):
    """A header announces more vertices than its cap: a precondition
    violation (CLI exit 3), not a parse error."""


def check_vertex_count(lineno: int, n: int, cap: int) -> None:
    if n > cap:
        raise TooManyVertices(f"line {lineno}: the header announces {n} "
                              f"vertices, above the cap of {cap}")


class TargetGraph:
    """The fixed target graph H.  adj(v, v) being true denotes a loop.
    Treated as immutable: equal targets hash alike."""

    __slots__ = ("n", "nbhd")  # nbhd[v]: mask of Gamma(v), has v iff loop

    def __init__(self, n: int, nbhd: tuple[int, ...]):
        self.n, self.nbhd = n, nbhd
        if n < 1:
            raise ValueError("target graph needs at least one vertex")
        for v, m in enumerate(nbhd):
            for u in bits(m):
                if not nbhd[u] >> v & 1:
                    raise ValueError("adjacency is not symmetric")

    def __eq__(self, other):
        if type(other) is not TargetGraph:
            return NotImplemented
        return self.n == other.n and self.nbhd == other.nbhd

    def __hash__(self):
        return hash((self.n, self.nbhd))

    @staticmethod
    def from_masks(n: int, nbhd) -> "TargetGraph":
        """The target over masks that are symmetric by construction (each
        edge set both of its bits), without the constructor's O(|E|)
        symmetry pass."""
        if n < 1:
            raise ValueError("target graph needs at least one vertex")
        h = TargetGraph.__new__(TargetGraph)
        h.n, h.nbhd = n, tuple(nbhd)
        return h

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "TargetGraph":
        nb = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            nb[u] |= 1 << v
            nb[v] |= 1 << u
        return TargetGraph.from_masks(n, nb)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.nbhd[u] >> v & 1)

    def has_loop(self, v: int) -> bool:
        return self.has_edge(v, v)

    def is_reflexive(self) -> bool:
        return all(self.has_loop(v) for v in range(self.n))

    def reflexive_mask(self) -> int:
        return sum(1 << v for v, m in enumerate(self.nbhd) if m >> v & 1)

    def edges(self):
        for u in range(self.n):
            for v in bits(self.nbhd[u] >> u << u):
                yield (u, v)

    def restricted(self, S: int) -> "TargetGraph":
        """H[S] in H's vertex ids: a vertex outside the mask S keeps its
        id, with no edge and no loop.  H[S] is symmetric because H is."""
        return TargetGraph.from_masks(self.n, (
            m & S if S >> v & 1 else 0 for v, m in enumerate(self.nbhd)))


def bits(mask: int):
    """Iterate the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Instance:
    """An instance graph G (simple, loopless) with per-vertex lists over V(H)."""

    __slots__ = ("n", "edges", "lists", "budget")

    def __init__(self, n: int, edges: list[tuple[int, int]],
                 lists: list[frozenset[int]], budget: Optional[int] = None):
        self.n, self.edges, self.lists, self.budget = n, edges, lists, budget
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError("instance graphs are loopless")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"parallel edge ({u},{v})")
            seen.add(key)
        if len(lists) != n:
            raise ValueError("need one list per vertex")

    @staticmethod
    def from_checked(n: int, edges: list[tuple[int, int]],
                     lists: list[frozenset[int]],
                     budget: Optional[int] = None) -> "Instance":
        """The instance over parts its caller has already checked (edges
        in range, loopless, without parallels; one list per vertex),
        without the constructor's O(|E|) pass."""
        inst = Instance.__new__(Instance)
        inst.n, inst.edges, inst.lists, inst.budget = n, edges, lists, budget
        return inst


class Solution:
    """mode "vd" or "ed"; deleted: vertices (vd) or edges (ed); hom:
    surviving vertex of G -> vertex of H."""

    __slots__ = ("mode", "cost", "deleted", "hom", "algorithm", "stats")

    def __init__(self, mode: str, cost: int, deleted: list,
                 hom: dict[int, int], algorithm: str,
                 stats: Optional[dict] = None):
        self.mode, self.cost, self.deleted = mode, cost, deleted
        self.hom, self.algorithm = hom, algorithm
        self.stats = {} if stats is None else stats

    @classmethod
    def of(cls, h: TargetGraph, inst: Instance, mode: str, cost: int,
           hom: dict, algorithm: str, stats: Optional[dict] = None):
        """The checked solution whose witness is hom, with the deletion
        set hom fixes: in vd the vertices hom leaves unmapped, ascending;
        in ed the edges hom maps onto non-edges of h, each (lower,
        higher), ascending.  check holds cost, the solver's own figure,
        against that set."""
        if mode == "vd":
            deleted = [v for v in range(inst.n) if v not in hom]
        else:
            nb = h.nbhd
            deleted = sorted([(u, v) if u < v else (v, u)
                              for u, v in inst.edges
                              if not nb[hom[u]] >> hom[v] & 1])
        sol = cls(mode, cost, deleted, hom, algorithm, stats or {})
        sol.check(h, inst)
        return sol

    def check(self, h: TargetGraph, inst: Instance) -> None:
        """Raise AssertionError unless the recorded homomorphism is a valid
        witness.  The raises are explicit, so python -O keeps the check."""
        if self.mode == "vd":
            gone = set(self.deleted)
            mapped = [v for v in range(inst.n) if v not in gone]
            kept = [(u, v) for u, v in inst.edges
                    if u not in gone and v not in gone]
        else:
            gone = {(u, v) if u < v else (v, u) for u, v in self.deleted}
            mapped = range(inst.n)
            kept = [(u, v) for u, v in inst.edges
                    if ((u, v) if u < v else (v, u)) not in gone]
        if self.cost != len(gone):
            raise AssertionError(
                f"cost {self.cost} but {len(gone)} distinct deletions")
        hom, nb = self.hom, h.nbhd
        for v in mapped:
            if v not in hom or hom[v] not in inst.lists[v]:
                raise AssertionError(f"vertex {v} is not mapped into its list")
        for u, v in kept:
            if not nb[hom[u]] >> hom[v] & 1:
                raise AssertionError(
                    f"edge ({u}, {v}) is mapped onto a non-edge of H")


class Infeasible(Exception):
    """ED instance with an empty list: no solution exists at any budget."""


# ---------------------------------------------------------------------------
# domination / incomparability

def dominates(h: TargetGraph, u: int, v: int) -> bool:
    """True iff v dominates u, i.e. Gamma(u) is a subset of Gamma(v)."""
    return h.nbhd[u] & ~h.nbhd[v] == 0


def incomparable(h: TargetGraph, u: int, v: int) -> bool:
    return not dominates(h, u, v) and not dominates(h, v, u)


def is_incomparable_set(h: TargetGraph, verts: Iterable[int]) -> bool:
    vs = list(verts)
    return all(incomparable(h, a, b) for a, b in combinations(vs, 2))


def max_incomparable(h: TargetGraph) -> tuple[int, list[int]]:
    """Maximum-cardinality incomparable set: i(H) and a witness.

    Max clique in the incomparability graph by branch and bound, exact but
    exponential in the worst case: at the target cap of 1000 vertices some
    targets do not finish (one took 19 s at 90 vertices and did not finish
    in 120 s at 130).  Deterministic: the first maximum found in
    lexicographic expansion order.
    """
    size, mask = _kernels.max_incomparable_mask(h.nbhd, (1 << h.n) - 1)
    return size, list(bits(mask))


def reduce_list(h: TargetGraph, lst: frozenset[int]) -> frozenset[int]:
    """Drop every u dominated by another list member.

    Ties (equal neighborhoods) keep the lower-indexed vertex, so the result
    is a canonical incomparable set.
    """
    kept = []
    for u in lst:
        removed = False
        for v in lst:
            if v == u:
                continue
            if dominates(h, u, v) and (h.nbhd[u] != h.nbhd[v] or v < u):
                removed = True
                break
        if not removed:
            kept.append(u)
    return frozenset(kept)


def reduce_lists(h: TargetGraph, inst: Instance) -> Instance:
    """inst with every list reduced; each distinct list is reduced once.
    It is built by Instance.from_checked: inst's edges were checked when
    it was built, and the reduced lists are as many as inst's."""
    reduced: dict[frozenset[int], frozenset[int]] = {}
    lists = []
    for lst in inst.lists:
        red = reduced.get(lst)
        if red is None:
            red = reduced[lst] = reduce_list(h, lst)
        lists.append(red)
    return Instance.from_checked(inst.n, list(inst.edges), lists, inst.budget)


# ---------------------------------------------------------------------------
# file formats

def parse_target(text: str) -> TargetGraph:
    """Parse the .hg target format: `c` comments, `h <n>`, `e <u> <v>`.
    Each edge sets its two bits of the masks as it is read; a repeated
    edge finds its bit already set."""
    n = None
    for lineno, tok in records(text.splitlines()):
        if tok[0] == "h":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(tok) != 2:
                raise ParseError(f"line {lineno}: malformed header")
            try:
                n = int(tok[1])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed header") from None
            if n < 1:
                raise ParseError(f"line {lineno}: vertex count must be >= 1")
            check_vertex_count(lineno, n, MAX_TARGET_VERTICES)
            nb = [0] * n
        elif tok[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(tok) != 3:
                raise ParseError(f"line {lineno}: malformed edge")
            try:
                u, v = int(tok[1]), int(tok[2])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed edge") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: edge ({u},{v}) out of range")
            if nb[u - 1] >> (v - 1) & 1:
                raise ParseError(f"line {lineno}: duplicate edge ({u},{v})")
            nb[u - 1] |= 1 << (v - 1)
            nb[v - 1] |= 1 << (u - 1)
        else:
            raise ParseError(f"line {lineno}: unknown line {tok[0]!r}")
    if n is None:
        raise ParseError("missing `h` header")
    return TargetGraph.from_masks(n, nb)


def format_target(h: TargetGraph) -> str:
    lines = [f"h {h.n}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in h.edges()]
    return "\n".join(lines) + "\n"


def parse_instance(text: str, h: TargetGraph) -> Instance:
    """Parse the .lhi instance format.

    Vertices with no `l` line get the full list V(H).  A second `l` line
    for a vertex, or a second `k` line, is a parse error.  Lines with the
    same element tokens share one checked frozenset.  The writers' layout
    is read by blocks, any other text line by line, with the same result.
    The readers' checks are the only ones the returned Instance gets: it
    is built by Instance.from_checked, as these checks cover those of
    Instance.__init__ (edge range, loops, parallel edges, list count)."""
    lines = text.splitlines()
    return _read_blocks(lines, h) or _parse_lines(lines, h)


def _read_blocks(lines: list[str], h: TargetGraph) -> Optional[Instance]:
    """The instance if lines are `p lhom n m`, m `e u v` lines, then only
    `l v k x1 .. xk` lines, single-spaced and valid; else None.  A chunk of
    edge lines that each start with `e ` and hold three tokens per line in
    all holds three on each, as int() refuses an `e` out of its place."""
    try:
        p, lhom, n, m = lines[0].split(" ")
        n, m = int(n), int(m)
        if (p, lhom) != ("p", "lhom") or not 0 <= m < len(lines) \
                or not 0 <= n <= MAX_INSTANCE_VERTICES:
            return None
        edges: list[tuple[int, int]] = []
        seen = set()  # edges; a loop or a parallel edge meets its reverse
        for i in range(1, m + 1, 4096):
            chunk = lines[i:min(i + 4096, m + 1)]
            text = "\n".join(chunk)
            tok = text.replace("\n", " ").split(" ")
            us = list(map(sub, map(int, tok[1::3]), repeat(1)))
            vs = list(map(sub, map(int, tok[2::3]), repeat(1)))
            edges += zip(us, vs)
            seen.update(edges[i - 1:])
            if (text[:2] != "e " or text.count("\ne ") != len(chunk) - 1
                    or len(tok) != 3 * len(chunk) or min(us + vs) < 0
                    or max(us + vs) >= n or len(seen) != len(edges)
                    or not seen.isdisjoint(zip(vs, us))):
                return None
        full = frozenset(range(h.n))
        lists = [full] * n
        checked = {}  # list text, or element tokens -> checked frozenset
        for line in islice(lines, m + 1, None):  # one split, one lookup
            tag, v, rest = line.split(" ", 2)
            v = int(v) - 1
            lst = checked.get(rest)
            if lst is None:
                tok = rest.split()
                lst = frozenset([int(x) - 1 for x in tok[1:]])
                if len(tok) != int(tok[0]) + 1 or not lst <= full:
                    return None
                lst = checked[rest] = checked.setdefault(tuple(tok[1:]), lst)
            if tag != "l" or not 0 <= v < n or lists[v] is not full:
                return None
            lists[v] = lst
    except (ValueError, IndexError):
        return None
    return Instance.from_checked(n, edges, lists)


def _parse_lines(lines: list[str], h: TargetGraph) -> Instance:
    """parse_instance's reader for any text, line by line."""
    n = m = None
    edges: list[tuple[int, int]] = []
    lists: dict[int, frozenset[int]] = {}
    checked: dict[tuple[str, ...], frozenset[int]] = {}
    budget = None
    seen = set()
    for lineno, tok in records(lines):
        try:
            if tok[0] == "e":
                if n is None:
                    raise ParseError(f"line {lineno}: edge before header")
                if len(tok) != 3:
                    raise ParseError(f"line {lineno}: malformed edge")
                u, v = int(tok[1]), int(tok[2])
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ParseError(f"line {lineno}: edge out of range")
                if u == v:
                    raise ParseError(f"line {lineno}: loops not allowed")
                key = u * (n + 1) + v if u < v else v * (n + 1) + u
                if key in seen:
                    raise ParseError(f"line {lineno}: parallel edge")
                seen.add(key)
                edges.append((u - 1, v - 1))
            elif tok[0] == "l":
                if n is None:
                    raise ParseError(f"line {lineno}: list before header")
                v, k = int(tok[1]), int(tok[2])
                if not 1 <= v <= n:
                    raise ParseError(f"line {lineno}: vertex out of range")
                if len(tok) != 3 + k:
                    raise ParseError(f"line {lineno}: list length mismatch")
                key = tuple(tok[3:])
                lst = checked.get(key)
                if lst is None:
                    elems = [int(x) for x in key]
                    if any(not 1 <= x <= h.n for x in elems):
                        raise ParseError(
                            f"line {lineno}: list element out of range")
                    lst = checked[key] = frozenset(x - 1 for x in elems)
                if v - 1 in lists:
                    raise ParseError(f"line {lineno}: duplicate list")
                lists[v - 1] = lst
            elif tok[0] == "p":
                if n is not None:
                    raise ParseError(f"line {lineno}: duplicate header")
                if len(tok) != 4 or tok[1] != "lhom":
                    raise ParseError(f"line {lineno}: malformed header")
                n, m = int(tok[2]), int(tok[3])
                if n < 0 or m < 0:
                    raise ParseError(f"line {lineno}: negative count")
                check_vertex_count(lineno, n, MAX_INSTANCE_VERTICES)
            elif tok[0] == "k":
                if n is None:
                    raise ParseError(f"line {lineno}: budget before header")
                if len(tok) != 2:
                    raise ParseError(f"line {lineno}: malformed budget")
                value = int(tok[1])
                if value < 0:
                    raise ParseError(f"line {lineno}: negative budget")
                if budget is not None:
                    raise ParseError(f"line {lineno}: duplicate budget")
                budget = value
            else:
                raise ParseError(f"line {lineno}: unknown line {tok[0]!r}")
        except (ParseError, TooManyVertices):
            raise
        except (ValueError, IndexError):
            raise ParseError(f"line {lineno}: malformed line") from None
    if n is None:
        raise ParseError("missing `p lhom` header")
    if m is not None and m != len(edges):
        raise ParseError(f"header announces {m} edges, found {len(edges)}")
    full = frozenset(range(h.n))
    return Instance.from_checked(
        n, edges, [lists.get(v, full) for v in range(n)], budget)


def format_instance(inst: Instance) -> str:
    lines = [f"p lhom {inst.n} {len(inst.edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in inst.edges]
    for v, lst in enumerate(inst.lists):
        elems = " ".join(str(x + 1) for x in sorted(lst))
        lines.append(f"l {v + 1} {len(lst)} {elems}".rstrip())
    if inst.budget is not None:
        lines.append(f"k {inst.budget}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# seeded random targets and instances (selftest and the test suite)

def random_target(rng, n: int, loop_p: float = 0.5,
                  edge_p: float = 0.5) -> TargetGraph:
    """Each loop with probability loop_p, each other edge with edge_p;
    one draw per vertex pair (u <= v) in lexicographic order."""
    edges = []
    for u in range(n):
        for v in range(u, n):
            p = loop_p if u == v else edge_p
            if rng.random() < p:
                edges.append((u, v))
    return TargetGraph.from_edges(n, edges)


def random_instance(rng, h: TargetGraph, n: int,
                    edge_p: float = 0.4) -> Instance:
    """G(n, edge_p) with a random nonempty list over V(h) per vertex."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < edge_p]
    lists = [frozenset(rng.sample(range(h.n), rng.randint(1, h.n)))
             for _ in range(n)]
    return Instance(n, edges, lists)

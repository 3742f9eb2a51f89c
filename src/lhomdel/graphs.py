"""Core data model: target graphs with loops, instances with lists, solutions.

Vertices are 0-indexed internally; the file formats are 1-indexed.
Neighborhoods are kept as bitmasks (int), which keeps domination tests and
the enumeration kernels cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional, Sequence

from . import _kernels


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class TargetGraph:
    """The fixed target graph H.  adj(v, v) being true denotes a loop."""

    n: int
    nbhd: tuple[int, ...]  # nbhd[v] = bitmask of Gamma(v), includes v iff loop

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("target graph needs at least one vertex")
        for v, m in enumerate(self.nbhd):
            for u in bits(m):
                if not self.nbhd[u] >> v & 1:
                    raise ValueError("adjacency is not symmetric")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "TargetGraph":
        nb = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            nb[u] |= 1 << v
            nb[v] |= 1 << u
        return TargetGraph(n, tuple(nb))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.nbhd[u] >> v & 1)

    def has_loop(self, v: int) -> bool:
        return self.has_edge(v, v)

    def is_reflexive(self) -> bool:
        return all(self.has_loop(v) for v in range(self.n))

    def reflexive_mask(self) -> int:
        m = 0
        for v in range(self.n):
            if self.has_loop(v):
                m |= 1 << v
        return m

    def edges(self, with_loops: bool = True):
        for u in range(self.n):
            for v in bits(self.nbhd[u] >> u << u):
                if u == v and not with_loops:
                    continue
                if v >= u:
                    yield (u, v)

    def induced(self, verts: Sequence[int]) -> "TargetGraph":
        """Induced subgraph; vertex i of the result is verts[i]."""
        verts = list(verts)
        pos = {v: i for i, v in enumerate(verts)}
        nb = [0] * len(verts)
        for i, v in enumerate(verts):
            for u in bits(self.nbhd[v]):
                if u in pos:
                    nb[i] |= 1 << pos[u]
        return TargetGraph(len(verts), tuple(nb))


def bits(mask: int):
    """Iterate the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class Instance:
    """An instance graph G (simple, loopless) with per-vertex lists over V(H)."""

    n: int
    edges: list[tuple[int, int]]
    lists: list[frozenset[int]]
    budget: Optional[int] = None

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError("instance graphs are loopless")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"parallel edge ({u},{v})")
            seen.add(key)
        if len(self.lists) != self.n:
            raise ValueError("need one list per vertex")

    def copy(self) -> "Instance":
        return Instance(self.n, list(self.edges), list(self.lists), self.budget)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


@dataclass
class Solution:
    mode: str                      # "vd" or "ed"
    cost: int
    deleted: list                  # vertices (vd) or edges (ed)
    hom: dict[int, int]            # surviving vertex of G -> vertex of H
    algorithm: str
    stats: dict = field(default_factory=dict)

    def check(self, h: TargetGraph, inst: Instance) -> None:
        """Raise AssertionError unless the recorded homomorphism is a valid
        witness.  The raises are explicit, so python -O keeps the check."""
        if self.mode == "vd":
            gone = set(self.deleted)
            mapped = [v for v in range(inst.n) if v not in gone]
            kept = [(u, v) for u, v in inst.edges
                    if u not in gone and v not in gone]
        else:
            gone = {(min(u, v), max(u, v)) for u, v in self.deleted}
            mapped = range(inst.n)
            kept = [(u, v) for u, v in inst.edges
                    if (min(u, v), max(u, v)) not in gone]
        if self.cost != len(gone):
            raise AssertionError(
                f"cost {self.cost} but {len(gone)} distinct deletions")
        for v in mapped:
            if v not in self.hom or self.hom[v] not in inst.lists[v]:
                raise AssertionError(f"vertex {v} is not mapped into its list")
        for u, v in kept:
            if not h.has_edge(self.hom[u], self.hom[v]):
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

    Max clique in the incomparability graph by branch and bound; |V(H)| is a
    small constant so exact search is fine.  Deterministic: the first maximum
    found in lexicographic expansion order.
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
    out = inst.copy()
    out.lists = [reduce_list(h, lst) for lst in inst.lists]
    return out


# ---------------------------------------------------------------------------
# file formats

def parse_target(text: str) -> TargetGraph:
    """Parse the .hg target format: `c` comments, `h <n>`, `e <u> <v>`."""
    n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
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
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ParseError(f"line {lineno}: duplicate edge ({u},{v})")
            seen.add(key)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unknown line {tok[0]!r}")
    if n is None:
        raise ParseError("missing `h` header")
    return TargetGraph.from_edges(n, edges)


def format_target(h: TargetGraph) -> str:
    lines = [f"h {h.n}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in h.edges()]
    return "\n".join(lines) + "\n"


def parse_instance(text: str, h: TargetGraph) -> Instance:
    """Parse the .lhi instance format.

    Vertices with no `l` line get the full list V(H).
    """
    n = m = None
    edges: list[tuple[int, int]] = []
    lists: dict[int, frozenset[int]] = {}
    budget = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        try:
            if tok[0] == "p":
                if n is not None:
                    raise ParseError(f"line {lineno}: duplicate header")
                if len(tok) != 4 or tok[1] != "lhom":
                    raise ParseError(f"line {lineno}: malformed header")
                n, m = int(tok[2]), int(tok[3])
            elif tok[0] == "e":
                if n is None:
                    raise ParseError(f"line {lineno}: edge before header")
                u, v = int(tok[1]), int(tok[2])
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ParseError(f"line {lineno}: edge out of range")
                if u == v:
                    raise ParseError(f"line {lineno}: loops not allowed")
                key = (min(u, v), max(u, v))
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
                elems = [int(x) for x in tok[3:]]
                if any(not 1 <= x <= h.n for x in elems):
                    raise ParseError(f"line {lineno}: list element out of range")
                lists[v - 1] = frozenset(x - 1 for x in elems)
            elif tok[0] == "k":
                budget = int(tok[1])
                if budget < 0:
                    raise ParseError(f"line {lineno}: negative budget")
            else:
                raise ParseError(f"line {lineno}: unknown line {tok[0]!r}")
        except (ValueError, IndexError):
            raise ParseError(f"line {lineno}: malformed line") from None
    if n is None:
        raise ParseError("missing `p lhom` header")
    if m is not None and m != len(edges):
        raise ParseError(f"header announces {m} edges, found {len(edges)}")
    full = frozenset(range(h.n))
    return Instance(n, edges, [lists.get(v, full) for v in range(n)], budget)


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

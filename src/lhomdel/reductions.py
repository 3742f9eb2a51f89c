"""Encoders from classic optimization problems into list-homomorphism
deletion instances, decoders back for the independent-reflexive targets,
and the coloring-deletion hardness pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from . import gadgets
from .graphs import (Infeasible, Instance, ParseError, TargetGraph,
                     max_incomparable)
from .treewidth import HubCore

KINDS = ("vertex-cover", "max-cut", "oct", "st-min-cut", "edge-multiway",
         "vertex-multiway", "coloring-vd", "coloring-ed")


@dataclass
class ClassicInstance:
    kind: str
    n: int
    edges: list
    terminals: tuple = ()
    source: Optional[int] = None
    sink: Optional[int] = None
    left: tuple = ()
    right: tuple = ()
    q: Optional[int] = None
    budget: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        seen = set()
        for u, v in self.edges:
            if u == v or not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"bad edge ({u},{v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"parallel edge ({u},{v})")
            seen.add(key)
        if len(set(self.terminals)) != len(self.terminals):
            raise ValueError("terminals must be distinct")
        for t in self.terminals:
            if not 0 <= t < self.n:
                raise ValueError("terminal out of range")
        if self.kind == "st-min-cut":
            if self.source is None or self.sink is None \
                    or self.source == self.sink:
                raise ValueError("need distinct source and sink")
        if self.kind in ("edge-multiway", "vertex-multiway") \
                and not self.terminals:
            raise ValueError("need at least one terminal")
        if set(self.left) & set(self.right):
            raise ValueError("annotated sides must be disjoint")
        if self.kind in ("coloring-vd", "coloring-ed") \
                and (self.q is None or self.q < 1):
            raise ValueError("need a color count q >= 1")


# ---------------------------------------------------------------------------
# classic problem -> LHom deletion instance


def encode_classic(c: ClassicInstance):
    """Target graph and instance whose deletion optimum equals the classic
    optimum (vertex-multiway gets the terminal-splitting preprocessing)."""
    full2 = frozenset((0, 1))
    if c.kind == "vertex-cover":
        h = TargetGraph(1, (0,))
        return h, Instance(c.n, list(c.edges), [frozenset((0,))] * c.n,
                           c.budget)
    if c.kind in ("max-cut", "oct"):
        h = TargetGraph.from_edges(2, [(0, 1)])
        lists = []
        for v in range(c.n):
            if v in c.left:
                lists.append(frozenset((0,)))
            elif v in c.right:
                lists.append(frozenset((1,)))
            else:
                lists.append(full2)
        return h, Instance(c.n, list(c.edges), lists, c.budget)
    if c.kind == "st-min-cut":
        h = TargetGraph.from_edges(2, [(0, 0), (1, 1)])
        lists = [full2] * c.n
        lists[c.source] = frozenset((0,))
        lists[c.sink] = frozenset((1,))
        return h, Instance(c.n, list(c.edges), lists, c.budget)
    if c.kind == "edge-multiway":
        k = len(c.terminals)
        h = TargetGraph.from_edges(k, [(i, i) for i in range(k)])
        full = frozenset(range(k))
        lists = [full] * c.n
        for i, t in enumerate(c.terminals):
            lists[t] = frozenset((i,))
        return h, Instance(c.n, list(c.edges), lists, c.budget)
    if c.kind == "vertex-multiway":
        return _encode_vertex_multiway(c)
    raise ValueError(f"no direct encoding for kind {c.kind!r}")


def _encode_vertex_multiway(c: ClassicInstance):
    """Each terminal becomes |V(G)| degree-1 copies per neighbor, making it
    effectively undeletable; copies carry the singleton list."""
    k = len(c.terminals)
    h = TargetGraph.from_edges(k, [(i, i) for i in range(k)])
    tset = set(c.terminals)
    tindex = {t: i for i, t in enumerate(c.terminals)}
    for u, v in c.edges:
        if u in tset and v in tset:
            raise ValueError("adjacent terminals cannot be separated")
    keep = [v for v in range(c.n) if v not in tset]
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for u, v in c.edges
             if u not in tset and v not in tset]
    full = frozenset(range(k))
    lists = [full] * len(keep)
    nxt = len(keep)
    for t in c.terminals:
        nbrs = sorted(u for e in c.edges if t in e
                      for u in e if u != t)
        for w in nbrs:
            for _ in range(c.n):
                lists.append(frozenset((tindex[t],)))
                edges.append((pos[w], nxt))
                nxt += 1
    return h, Instance(nxt, edges, lists, c.budget)


# ---------------------------------------------------------------------------
# LHom deletion instance -> classic problem


def _check_independent_reflexive(h: TargetGraph) -> int:
    for v in range(h.n):
        if h.nbhd[v] != 1 << v:
            raise ValueError(
                "target must be independent reflexive vertices")
    return h.n


def decode_to_vertex_multiway(h: TargetGraph, inst: Instance):
    """Per vertex a clique of size |L(v)| joined to v and matched to the
    terminals named by L(v).  Returns (classic, offset) with
    OPT_multiway = OPT_vd + offset."""
    k = _check_independent_reflexive(h)
    if any(not lst for lst in inst.lists):
        raise ValueError("empty list cannot be decoded")
    edges = list(inst.edges)
    terminals = tuple(range(inst.n, inst.n + k))
    nxt = inst.n + k
    offset = 0
    for v in range(inst.n):
        members = []
        for t in sorted(inst.lists[v]):
            members.append(nxt)
            edges.append((v, nxt))
            edges.append((nxt, inst.n + t))
            nxt += 1
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                edges.append((a, b))
        offset += len(members) - 1
    return ClassicInstance("vertex-multiway", nxt, edges,
                           terminals=terminals), offset


def decode_to_edge_multiway(h: TargetGraph, inst: Instance):
    """d(v) two-edge paths from v to each terminal in L(v).  Returns
    (classic, offset) with OPT_multiway = OPT_ed + offset."""
    k = _check_independent_reflexive(h)
    if any(not lst for lst in inst.lists):
        raise Infeasible("vertex with an empty list")
    edges = list(inst.edges)
    terminals = tuple(range(inst.n, inst.n + k))
    nxt = inst.n + k
    offset = 0
    for v in range(inst.n):
        d = inst.degree(v)
        for t in sorted(inst.lists[v]):
            for _ in range(d):
                edges.append((v, nxt))
                edges.append((nxt, inst.n + t))
                nxt += 1
        offset += d * (len(inst.lists[v]) - 1)
    return ClassicInstance("edge-multiway", nxt, edges,
                           terminals=terminals), offset


def annotated_maxcut_to_maxcut(c: ClassicInstance):
    """Fold the side annotations into a plain max-cut instance: an apex w,
    d(v) two-edge paths w..v for the left side and three-edge paths for the
    right side.  Returns (classic, offset) with
    maxcut(G') = annotated_maxcut(G) + offset."""
    if c.kind not in ("max-cut", "oct"):
        raise ValueError("expected an annotated max-cut instance")
    edges = list(c.edges)
    w = c.n
    nxt = c.n + 1
    offset = 0
    deg = [0] * c.n
    for u, v in c.edges:
        deg[u] += 1
        deg[v] += 1
    for v in sorted(c.left):
        for _ in range(deg[v]):
            edges.append((w, nxt))
            edges.append((nxt, v))
            nxt += 1
        offset += 2 * deg[v]
    for v in sorted(c.right):
        for _ in range(deg[v]):
            edges.append((w, nxt))
            edges.append((nxt, nxt + 1))
            edges.append((nxt + 1, v))
            nxt += 2
        offset += 3 * deg[v]
    return ClassicInstance("max-cut", nxt, edges), offset


# ---------------------------------------------------------------------------
# coloring-deletion pipelines


def _substitute_edges(g_n: int, g_edges, gadget: gadgets.Gadget, s):
    """Replace every edge by a fresh gadget copy glued at its endpoints."""
    s = frozenset(s)
    p0, p1 = gadget.portals
    if gadget.lists[p0] != s or gadget.lists[p1] != s:
        raise ValueError("gadget portal lists must equal S")
    lists = [s] * g_n
    edges = []
    nxt = g_n
    for x, y in g_edges:
        ids = {}
        for gv in range(gadget.n):
            if gv == p0:
                ids[gv] = x
            elif gv == p1:
                ids[gv] = y
            else:
                ids[gv] = nxt
                lists.append(gadget.lists[gv])
                nxt += 1
        for gu, gv in gadget.edges:
            edges.append((ids[gu], ids[gv]))
    return Instance(nxt, edges, lists, None)


def coloring_vd_to_lhomvd(h: TargetGraph, g_n: int, g_edges, k: int,
                          s=None):
    """q-coloring with k vertex deletions -> LHomVD at budget
    k + alpha * |E|, where alpha is the S-prohibitor base cost."""
    if s is None:
        _, s = max_incomparable(h)
    s = frozenset(s)
    spro = gadgets.build_s_prohibitor(h, s)
    alpha = spro.meta["alpha"]
    inst = _substitute_edges(g_n, list(g_edges), spro, s)
    inst.budget = k + alpha * len(list(g_edges))
    return inst, spro


def coloring_ed_to_lhomed(h: TargetGraph, g_n: int, g_edges, z: int,
                          neq_gadget: gadgets.Gadget):
    """q-coloring with z edge deletions -> LHomED at budget
    alpha * |E| + z, via a verified 1-realizer of inequality over S."""
    s = neq_gadget.lists[neq_gadget.portals[0]]
    if neq_gadget.lists[neq_gadget.portals[1]] != s:
        raise ValueError("portal lists of the inequality gadget differ")
    neq = {(u, v) for u in s for v in s if u != v}
    if not gadgets.verify_realizes(h, neq_gadget, neq, omega=1, mode="ed"):
        raise ValueError("gadget does not 1-realize inequality over S")
    alpha = gadgets.base_cost(gadgets.cost_table(h, neq_gadget, "ed"))
    inst = _substitute_edges(g_n, list(g_edges), neq_gadget, s)
    inst.budget = alpha * len(list(g_edges)) + z
    return inst, alpha


def pipeline_core(core: HubCore, gadget_size: int) -> HubCore:
    """Hub core of a pipeline output, given one of the input graph: hub
    vertices keep their ids, component sizes grow by the gadget interiors."""
    sigma = core.sigma + comb(core.sigma, 2) * gadget_size \
        + core.delta * gadget_size
    return HubCore(core.q, sigma, max(core.delta, 2))


# ---------------------------------------------------------------------------
# file format


def parse_classic(text: str) -> ClassicInstance:
    """`p <kind> <n> <m>` header; `e u v` edges; `t v` terminals (the sink
    for st-min-cut); `s v` source; `l v`/`r v` annotated sides; `q`/`k`
    value lines.  1-indexed."""
    kind = n = m = None
    edges = []
    terminals = []
    source = sink = None
    left, right = [], []
    q = budget = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        try:
            if tok[0] == "p":
                if kind is not None:
                    raise ParseError(f"line {lineno}: duplicate header")
                kind, n, m = tok[1], int(tok[2]), int(tok[3])
            elif kind is None:
                raise ParseError(f"line {lineno}: data before header")
            elif tok[0] == "e":
                u, v = int(tok[1]) - 1, int(tok[2]) - 1
                edges.append((u, v))
            elif tok[0] == "t":
                if kind == "st-min-cut":
                    sink = int(tok[1]) - 1
                else:
                    terminals.append(int(tok[1]) - 1)
            elif tok[0] == "s":
                source = int(tok[1]) - 1
            elif tok[0] == "l":
                left.append(int(tok[1]) - 1)
            elif tok[0] == "r":
                right.append(int(tok[1]) - 1)
            elif tok[0] == "q":
                q = int(tok[1])
            elif tok[0] == "k":
                budget = int(tok[1])
            else:
                raise ParseError(f"line {lineno}: unknown line {tok[0]!r}")
        except (ValueError, IndexError):
            raise ParseError(f"line {lineno}: malformed line") from None
    if kind is None:
        raise ParseError("missing `p` header")
    if m != len(edges):
        raise ParseError(f"header announces {m} edges, found {len(edges)}")
    try:
        return ClassicInstance(kind, n, edges, terminals=tuple(terminals),
                               source=source, sink=sink, left=tuple(left),
                               right=tuple(right), q=q, budget=budget)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_classic(c: ClassicInstance) -> str:
    lines = [f"p {c.kind} {c.n} {len(c.edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in c.edges]
    if c.source is not None:
        lines.append(f"s {c.source + 1}")
    if c.sink is not None:
        lines.append(f"t {c.sink + 1}")
    lines += [f"t {t + 1}" for t in c.terminals]
    lines += [f"l {v + 1}" for v in c.left]
    lines += [f"r {v + 1}" for v in c.right]
    if c.q is not None:
        lines.append(f"q {c.q}")
    if c.budget is not None:
        lines.append(f"k {c.budget}")
    return "\n".join(lines) + "\n"

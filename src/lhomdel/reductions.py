"""Encoders from classic optimization problems into list-homomorphism
deletion instances, decoders back for the independent-reflexive targets,
and the coloring-deletion hardness pipelines."""

from __future__ import annotations

from math import comb
from typing import Optional

from . import gadgets
from .graphs import (MAX_INSTANCE_VERTICES, Infeasible, Instance,
                     ParseError, TargetGraph, TooManyVertices,
                     check_vertex_count, max_incomparable)
from .treewidth import HubCore

# each problem kind, with the record letters its files hold besides `p`,
# `e` and `k`
_CLASSIC_READS = {"vertex-cover": "", "max-cut": "lr", "oct": "lr",
                  "st-min-cut": "st", "edge-multiway": "t",
                  "vertex-multiway": "t", "coloring-vd": "q",
                  "coloring-ed": "q"}
KINDS = tuple(_CLASSIC_READS)


class _EdgeError(ValueError):
    """A bad or parallel edge (`what`), at `index` in the edge list."""

    def __init__(self, what: str, index: int, edge):
        super().__init__(f"{what} edge ({edge[0]},{edge[1]})")
        self.what, self.index = what, index


class ClassicInstance:
    __slots__ = ("kind", "n", "edges", "terminals", "source", "sink", "left",
                 "right", "q", "budget")

    def __init__(self, kind: str, n: int, edges: list, terminals: tuple = (),
                 source: Optional[int] = None, sink: Optional[int] = None,
                 left: tuple = (), right: tuple = (), q: Optional[int] = None,
                 budget: Optional[int] = None):
        self.kind, self.n, self.edges = kind, n, edges
        self.terminals, self.source, self.sink = terminals, source, sink
        self.left, self.right, self.q, self.budget = left, right, q, budget
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        seen = set()
        for i, (u, v) in enumerate(self.edges):
            if u == v or not (0 <= u < self.n and 0 <= v < self.n):
                raise _EdgeError("bad", i, (u, v))
            key = (min(u, v), max(u, v))
            if key in seen:
                raise _EdgeError("parallel", i, (u, v))
            seen.add(key)
        if len(set(self.terminals)) != len(self.terminals):
            raise ValueError("terminals must be distinct")
        for what, ids in (("terminal", self.terminals),
                          ("source", (self.source,)), ("sink", (self.sink,)),
                          ("annotated vertex", self.left + self.right)):
            for v in ids:
                if v is not None and not 0 <= v < self.n:
                    raise ValueError(f"{what} out of range")
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
    effectively undeletable; copies carry the singleton list.

    One pass over the edges collects each terminal's neighbors, so the
    encoding's |V ∖ T| + n·Σ_t deg(t) vertices are counted before any is
    built; above MAX_INSTANCE_VERTICES it is refused, as an oversized
    header is."""
    k = len(c.terminals)
    h = TargetGraph.from_edges(k, [(i, i) for i in range(k)])
    tindex = {t: i for i, t in enumerate(c.terminals)}
    nbrs = {t: [] for t in c.terminals}
    inner = []  # the edges between non-terminals
    for u, v in c.edges:
        if u in tindex and v in tindex:
            raise ValueError("adjacent terminals cannot be separated")
        if u in tindex:
            nbrs[u].append(v)
        elif v in tindex:
            nbrs[v].append(u)
        else:
            inner.append((u, v))
    keep = [v for v in range(c.n) if v not in tindex]
    size = len(keep) + c.n * sum(map(len, nbrs.values()))
    if size > MAX_INSTANCE_VERTICES:
        raise TooManyVertices(f"the vertex-multiway encoding has {size} "
                              f"vertices, above the cap of "
                              f"{MAX_INSTANCE_VERTICES}")
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for u, v in inner]
    lists = [frozenset(range(k))] * len(keep)
    for t in c.terminals:
        for w in sorted(nbrs[t]):
            edges += [(pos[w], len(lists) + i) for i in range(c.n)]
            lists += [frozenset((tindex[t],))] * c.n
    return h, Instance(len(lists), edges, lists, c.budget)


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
    deg = [0] * inst.n
    for u, v in inst.edges:
        deg[u] += 1
        deg[v] += 1
    for v in range(inst.n):
        for t in sorted(inst.lists[v]):
            for _ in range(deg[v]):
                edges.append((v, nxt))
                edges.append((nxt, inst.n + t))
                nxt += 1
        offset += deg[v] * (len(inst.lists[v]) - 1)
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


def coloring_vd_to_lhomvd(h: TargetGraph, g_n: int, g_edges, k: int):
    """q-coloring with k vertex deletions -> LHomVD at budget
    k + alpha * |E|, where alpha is the S-prohibitor base cost and S is
    max_incomparable(h)'s witness."""
    s = frozenset(max_incomparable(h)[1])
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
    if not gadgets.verify_realizes(h, neq_gadget, neq):
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


# tokens per record, the record letter included
_CLASSIC_TOKENS = {"p": 4, "e": 3, "t": 2, "s": 2, "l": 2, "r": 2, "q": 2,
                   "k": 2}


def parse_classic(text: str) -> ClassicInstance:
    """`p <kind> <n> <m>` header; `e u v` edges; `t v` terminals (the sink
    for st-min-cut); `s v` source; `l v`/`r v` annotated sides; `q`/`k`
    value lines.  1-indexed; a bad edge is named as written, with its line.
    A line the kind does not read, or a second line of a value read once,
    is an error."""
    kind = n = m = None
    edges = []
    edge_lines = []
    terminals = []
    left, right = [], []
    once = {}  # s, q, k and st-min-cut's t: letter -> value
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        if len(tok) != _CLASSIC_TOKENS.get(tok[0], len(tok)):
            raise ParseError(f"line {lineno}: malformed line")
        try:
            if tok[0] == "p":
                if kind is not None:
                    raise ParseError(f"line {lineno}: duplicate header")
                kind, n, m = tok[1], int(tok[2]), int(tok[3])
                if kind not in _CLASSIC_READS:
                    raise ParseError(f"line {lineno}: unknown problem kind "
                                     f"{kind!r}")
                if n < 0 or m < 0:
                    raise ParseError(f"line {lineno}: negative count")
                # n becomes the encoded instance's vertex count
                check_vertex_count(lineno, n, MAX_INSTANCE_VERTICES)
            elif kind is None:
                raise ParseError(f"line {lineno}: data before header")
            elif tok[0] in _CLASSIC_TOKENS \
                    and tok[0] not in "ek" + _CLASSIC_READS[kind]:
                raise ParseError(f"line {lineno}: a {kind} file has no "
                                 f"{tok[0]!r} lines")
            elif tok[0] in once:
                raise ParseError(f"line {lineno}: repeated {tok[0]!r} line")
            elif tok[0] == "e":
                u, v = int(tok[1]) - 1, int(tok[2]) - 1
                edges.append((u, v))
                edge_lines.append(lineno)
            elif tok[0] == "t" and kind != "st-min-cut":
                terminals.append(int(tok[1]) - 1)
            elif tok[0] == "l":
                left.append(int(tok[1]) - 1)
            elif tok[0] == "r":
                right.append(int(tok[1]) - 1)
            elif tok[0] in _CLASSIC_TOKENS:  # s, q, k or st-min-cut's t
                once[tok[0]] = int(tok[1])
            else:
                raise ParseError(f"line {lineno}: unknown line {tok[0]!r}")
        except (ParseError, TooManyVertices):
            raise
        except (ValueError, IndexError):
            raise ParseError(f"line {lineno}: malformed line") from None
    if kind is None:
        raise ParseError("missing `p` header")
    if m != len(edges):
        raise ParseError(f"header announces {m} edges, found {len(edges)}")
    source, sink = (once[x] - 1 if x in once else None for x in "st")
    try:
        return ClassicInstance(kind, n, edges, terminals=tuple(terminals),
                               source=source, sink=sink, left=tuple(left),
                               right=tuple(right), q=once.get("q"),
                               budget=once.get("k"))
    except _EdgeError as exc:
        u, v = edges[exc.index]
        raise ParseError(f"line {edge_lines[exc.index]}: {exc.what} edge "
                         f"({u + 1},{v + 1})") from None
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_classic(c: ClassicInstance) -> str:
    """The text parse_classic reads.  No command writes one, but it stays
    beside parse_classic as the writer of the format `reduce` reads."""
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

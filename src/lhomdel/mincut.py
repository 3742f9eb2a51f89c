"""Integer max-flow / min-cut with unbreakable arcs, plus minimum vertex
separators via node splitting.

Dinic-style blocking flow; desk-scale networks only.  "Unbreakable" arcs get
capacity UNBREAKABLE(net) = (number of unit arcs) + 1, strictly above any cut
made of unit arcs, so they are never severed by a minimum cut.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


class Uncuttable(Exception):
    """Every s-t cut would need to sever an unbreakable arc."""


@dataclass
class FlowNetwork:
    """Directed network; parallel arcs allowed.  Nodes are hashable keys."""

    source: object
    sink: object
    _arcs: list = field(default_factory=list)   # [to, cap, flow] per dir
    _adj: dict = field(default_factory=dict)    # node -> arc indices
    _unit_arcs: int = 0
    _unbreakable: list = field(default_factory=list)  # indices awaiting cap

    def __post_init__(self):
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        self._adj.setdefault(self.source, [])
        self._adj.setdefault(self.sink, [])

    def add_arc(self, u, v, cap) -> int:
        """cap is a positive int or the string 'unbreakable'."""
        self._adj.setdefault(u, [])
        self._adj.setdefault(v, [])
        i = len(self._arcs)
        if cap == "unbreakable":
            self._arcs.append([v, 0, 0])
            self._unbreakable.append(i)
        else:
            if not isinstance(cap, int) or cap < 1:
                raise ValueError("capacity must be a positive integer")
            self._arcs.append([v, cap, 0])
            if cap == 1:
                self._unit_arcs += 1
        self._arcs.append([u, 0, 0])  # residual twin
        self._adj[u].append(i)
        self._adj[v].append(i + 1)
        return i

    def unbreakable_weight(self) -> int:
        return self._unit_arcs + 1

    def _freeze(self):
        w = self.unbreakable_weight()
        for i in self._unbreakable:
            self._arcs[i][1] = w


def _bfs_levels(net: FlowNetwork):
    level = {net.source: 0}
    q = deque([net.source])
    while q:
        u = q.popleft()
        for i in net._adj[u]:
            to, cap, flow = net._arcs[i]
            if cap - flow > 0 and to not in level:
                level[to] = level[u] + 1
                q.append(to)
    return level


def _dfs_push(net: FlowNetwork, level, it, u, limit):
    """Push flow along one augmenting path of the level graph from u.

    Depth-first with an explicit stack: arcs are tried in adjacency order
    from it[node], and a node's pointer moves past an arc only once that
    arc has led to a dead end."""
    nodes, arcs, limits = [u], [], [limit]
    while nodes[-1] != net.sink:
        x = nodes[-1]
        adj = net._adj[x]
        while it[x] < len(adj):
            i = adj[it[x]]
            to, cap, flow = net._arcs[i]
            if cap - flow > 0 and level.get(to, -1) == level[x] + 1:
                nodes.append(to)
                arcs.append(i)
                limits.append(min(limits[-1], cap - flow))
                break
            it[x] += 1
        else:  # dead end: retreat and skip the arc that led here
            nodes.pop()
            if not arcs:
                return 0
            arcs.pop()
            limits.pop()
            it[nodes[-1]] += 1
    pushed = limits[-1]
    for i in arcs:
        net._arcs[i][2] += pushed
        net._arcs[i ^ 1][2] -= pushed
    return pushed


def min_cut(net: FlowNetwork):
    """(value, s_side, cut_arcs); cut_arcs as (u, v, arc_index) triples.

    Raises Uncuttable if the minimum cut severs an unbreakable arc (value
    >= unbreakable weight).
    """
    net._freeze()
    value = 0
    while True:
        level = _bfs_levels(net)
        if net.sink not in level:
            break
        it = {u: 0 for u in net._adj}
        while True:
            pushed = _dfs_push(net, level, it, net.source, 1 << 60)
            if not pushed:
                break
            value += pushed
    s_side = set(_bfs_levels(net))
    cut = []
    for u in net._adj:
        if u not in s_side:
            continue
        for i in net._adj[u]:
            if i % 2 == 0:  # forward arcs only
                to, cap, _ = net._arcs[i]
                if cap > 0 and to not in s_side:
                    cut.append((u, to, i))
    cut_weight = sum(net._arcs[i][1] for _, _, i in cut)
    if cut_weight != value:
        raise AssertionError(
            f"cut arcs weigh {cut_weight} but the flow value is {value}")
    if value >= net.unbreakable_weight():
        raise Uncuttable(f"min cut {value} reaches the unbreakable weight")
    return value, s_side, cut


def min_vertex_separator(n: int, arcs, s: int, t: int):
    """Minimum s-t vertex separator in a digraph on 0..n-1.

    arcs: iterable of (u, v).  s and t are not deletable.  Node splitting:
    each vertex becomes in->out with a unit arc; original arcs unbreakable.
    Returns (value, separator set).
    """
    def inn(v):
        return ("in", v)

    def out(v):
        return ("out", v)

    net = FlowNetwork(out(s), inn(t))
    for v in range(n):
        if v not in (s, t):
            net.add_arc(inn(v), out(v), 1)
    for u, v in arcs:
        net.add_arc(out(u), inn(v), "unbreakable")
    # s and t are not deletable: fuse their in/out sides
    for v in (s, t):
        net.add_arc(inn(v), out(v), "unbreakable")
    value, s_side, cut = min_cut(net)
    if not all(a[0] == "in" and b[0] == "out" and a[1] == b[1]
               for a, b, _ in cut):
        raise AssertionError("min cut crosses an unbreakable arc")
    sep = {a[1] for a, _, _ in cut}
    if len(sep) != value:
        raise AssertionError(
            f"separator has {len(sep)} vertices but the cut value is {value}")
    return value, sep

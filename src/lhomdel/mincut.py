"""Integer max-flow / min-cut with unbreakable arcs, plus minimum vertex
separators via node splitting.

Networks have nodes 0..n-1 and arcs (u, v, unit).  A unit arc has
capacity 1; an unbreakable arc gets (number of unit arcs) + 1, strictly
above any cut made of unit arcs, so a minimum cut never severs it.
Dinic-style blocking flow over flat residual lists; desk-scale networks
only.  Each phase's BFS stops once it labels t, so neither it nor the
augmenting search looks past t's level.  The last BFS, which cannot reach
t, labels everything s reaches in the final residual network: that is the
source side returned, the least source side of a minimum cut, the same for
every maximum flow.
"""

from __future__ import annotations

from collections import deque


class Uncuttable(Exception):
    """Every s-t cut would need to sever an unbreakable arc."""


def _levels(adj, head, cap, s, t):
    """BFS levels in the residual network, up to the moment t is labelled:
    every node below t's level is labelled by then, and an augmenting path
    of the level graph never passes t's level.  If t is unreachable, every
    node s reaches is labelled."""
    level = [-1] * len(adj)
    level[s] = 0
    q = deque([s])
    while q:
        u = q.popleft()
        nxt = level[u] + 1
        for i in adj[u]:
            v = head[i]
            if cap[i] and level[v] < 0:
                level[v] = nxt
                if v == t:
                    return level
                q.append(v)
    return level


def _augment(adj, head, cap, level, it, s, t):
    """Push flow along one augmenting path of the level graph from s.

    Depth-first with an explicit stack: arcs are tried in adjacency order
    from it[node], and a node's pointer moves past an arc only once that
    arc has led to a dead end."""
    nodes, path = [s], []
    while nodes[-1] != t:
        x = nodes[-1]
        ax, want = adj[x], level[x] + 1
        while it[x] < len(ax):
            i = ax[it[x]]
            if cap[i] and level[head[i]] == want:
                nodes.append(head[i])
                path.append(i)
                break
            it[x] += 1
        else:  # dead end: retreat and skip the arc that led here
            nodes.pop()
            if not path:
                return 0
            path.pop()
            it[nodes[-1]] += 1
    pushed = min(cap[i] for i in path)
    for i in path:
        cap[i] -= pushed
        cap[i ^ 1] += pushed
    return pushed


def min_cut(n: int, arcs, s: int, t: int):
    """Minimum s-t cut of the network on nodes 0..n-1.

    arcs: iterable of (u, v, unit); parallel arcs allowed.  Returns
    (value, s_side) with s_side[v] true iff v is on the source side.
    Raises Uncuttable if the minimum cut severs an unbreakable arc.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    arcs = list(arcs)
    heavy = sum(1 for _, _, unit in arcs if unit) + 1
    adj = [[] for _ in range(n)]
    head, cap = [], []   # arc 2k is arcs[k], arc 2k+1 its residual twin
    for u, v, unit in arcs:
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head += (v, u)
        cap += (1 if unit else heavy, 0)
    value = 0
    while True:
        level = _levels(adj, head, cap, s, t)
        if level[t] < 0:
            break
        it = [0] * n
        while pushed := _augment(adj, head, cap, level, it, s, t):
            value += pushed
    s_side = [lv >= 0 for lv in level]
    cut = [unit for u, v, unit in arcs if s_side[u] and not s_side[v]]
    weight = sum(1 if unit else heavy for unit in cut)
    if weight != value:
        raise AssertionError(
            f"cut arcs weigh {weight} but the flow value is {value}")
    if value >= heavy:
        raise Uncuttable(f"min cut {value} reaches the unbreakable weight")
    if not all(cut):
        raise AssertionError("min cut crosses an unbreakable arc")
    return value, s_side


def min_vertex_separator(n: int, arcs, s: int, t: int):
    """Minimum s-t vertex separator in a digraph on 0..n-1.

    arcs: iterable of (u, v).  s and t are not deletable.  Node splitting:
    vertex v becomes in-node 2v -> out-node 2v+1 with a unit arc; original
    arcs are unbreakable.  Returns (value, separator, reach), where reach
    is the set of vertices reachable from s in the digraph minus the
    separator: exactly those whose out-node is on the source side.
    """
    net = [(2 * v, 2 * v + 1, v not in (s, t)) for v in range(n)]
    net += [(2 * u + 1, 2 * v, False) for u, v in arcs]
    value, side = min_cut(2 * n, net, 2 * s + 1, 2 * t)
    sep = {v for v in range(n) if side[2 * v] and not side[2 * v + 1]}
    if len(sep) != value:
        raise AssertionError(
            f"separator has {len(sep)} vertices but the cut value is {value}")
    return value, sep, {v for v in range(n) if side[2 * v + 1]}

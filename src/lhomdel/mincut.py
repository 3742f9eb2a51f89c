"""Integer max-flow / min-cut with unbreakable arcs, plus minimum vertex
separators via node splitting.

Networks have nodes 0..n-1 and arcs (u, v, unit).  A unit arc has
capacity 1; an unbreakable arc gets (number of unit arcs) + 1, strictly
above any cut made of unit arcs, so a minimum cut never severs it.
Dinic-style blocking flow over flat residual lists; desk-scale networks
only.  Each phase finds its levels by a BFS from both s and t that stops
where the two sides meet.  Past the s side's depth only t-side nodes get
levels, each with a residual path of climbing levels on to t, so the
augmenting search meets no dead end there when the phase starts.  The
level arrays are reused across phases; only the labelled entries are
reset.  The last BFS, in which the sides never meet, labels everything s
reaches in the final residual network: that is the source side returned,
the least source side of a minimum cut, the same for every maximum flow.
The vertex separator network has no node that every finite cut fixes.
"""

from __future__ import annotations


class Uncuttable(Exception):
    """Every s-t cut would need to sever an unbreakable arc."""


def _levels(adj, head, cap, s, t, level, back):
    """Levels of the shortest augmenting paths, by a BFS from both ends.

    level and back are -1 everywhere on entry.  The s side grows over
    residual arcs into level; the t side grows over reversed residual arcs
    (arc j ^ 1 runs from head[j] into x) into back.  The side with the
    smaller frontier grows by one level, until it labels a node that the
    other side has labelled; the search stops at that node, so its level
    stays unfinished.  With a and b the last finished depths of the two
    sides, the shortest augmenting paths have length d = a + b + 1.
    s-side nodes keep their depth as level, and t-side nodes with back <= b
    get d - back: a path that climbs these levels one by one from s to t
    is a shortest augmenting path, and every shortest one does.  If the
    sides never meet, the s side grows to the end, so level labels
    everything s reaches and level[t] stays -1.  Returns the labelled
    nodes, for the caller to reset.
    """
    level[s] = back[t] = 0
    fwd, bwd, touched = [s], [t], [s, t]
    a = b = 0
    met = False
    while fwd:  # once bwd is empty, t is out of reach: finish the s side
        nxt = []
        if not bwd or len(fwd) <= len(bwd):
            for x in fwd:
                for j in adj[x]:
                    y = head[j]
                    if cap[j] and level[y] < 0:
                        level[y] = a + 1
                        nxt.append(y)
                        if back[y] >= 0:
                            met = True
                            break
                if met:
                    break
            else:  # no meeting: the level is finished
                fwd, a = nxt, a + 1
        else:  # the same level step, over the reversed arcs
            for x in bwd:
                for j in adj[x]:
                    y = head[j]
                    if cap[j ^ 1] and back[y] < 0:
                        back[y] = b + 1
                        nxt.append(y)
                        if level[y] >= 0:
                            met = True
                            break
                if met:
                    break
            else:
                bwd, b = nxt, b + 1
        touched += nxt
        if met:
            for x in touched:
                if 0 <= back[x] <= b:
                    level[x] = a + b + 1 - back[x]
            break
    return touched


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
    # arc 2k is arcs[k], arc 2k+1 its residual twin
    head, cap = [0] * (2 * len(arcs)), [0] * (2 * len(arcs))
    j = 0
    for u, v, unit in arcs:
        adj[u].append(j)
        adj[v].append(j + 1)
        head[j], head[j + 1] = v, u
        cap[j] = 1 if unit else heavy
        j += 2
    level, back, it = [-1] * n, [-1] * n, [0] * n
    value = 0
    while True:
        touched = _levels(adj, head, cap, s, t, level, back)
        if level[t] < 0:
            break
        while pushed := _augment(adj, head, cap, level, it, s, t):
            value += pushed
        for x in touched:
            level[x] = back[x] = -1
            it[x] = 0
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
    each other vertex on an arc becomes a unit arc from its in-node to its
    out-node, and the digraph's arcs become unbreakable arcs from out-node
    to in-node.  Node 0, the source, is the out-node of s, and node 1, the
    sink, the in-node of t.  Nodes that every finite cut fixes are not
    built: a vertex with an arc from s has the source as in-node, one with
    an arc to t has the sink as out-node, and a vertex on no arc has no
    nodes.  Arcs into the source and out of the sink, which no cut
    crosses, are dropped.  Returns (value, separator, reach), where reach
    is the set of vertices reachable from s in the digraph minus the
    separator: exactly those whose out-node is on the least source side.
    With no arc out of s or none into t, nothing separates and reach is
    found by a search from s, with no network.
    """
    arcs = list(arcs)
    fed = {v for u, v in arcs if u == s}
    if not fed:
        return 0, set(), {s}
    drained = {u for u, v in arcs if v == t}
    if not drained:
        succ = {}
        for u, v in arcs:
            succ.setdefault(u, []).append(v)
        reach, stack = {s}, [s]
        while stack:
            new = set(succ.get(stack.pop(), ())) - reach
            reach |= new
            stack += new
        return 0, set(), reach
    on_arc = {x for arc in arcs for x in arc} - {s, t}
    # t's nodes are the sink; so are those of a vertex on no arc, which
    # the source never reaches
    inn, out = [1] * n, [1] * n
    inn[s] = out[s] = 0
    net, nodes = [], 2
    for v in sorted(on_arc):
        if v in fed:
            inn[v] = 0
        else:
            inn[v], nodes = nodes, nodes + 1
        if v not in drained:
            out[v], nodes = nodes, nodes + 1
        net.append((inn[v], out[v], True))
    net += [(out[u], inn[v], False) for u, v in arcs
            if inn[v] and out[u] != 1]
    value, side = min_cut(nodes, net, 0, 1)
    sep = {v for v in on_arc if side[inn[v]] and not side[out[v]]}
    if len(sep) != value:
        raise AssertionError(
            f"separator has {len(sep)} vertices but the cut value is {value}")
    return value, sep, {v for v in range(n) if side[out[v]]}

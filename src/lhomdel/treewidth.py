"""Tree decompositions: validation, nice form with explicit introduce-edge
nodes, PACE-format I/O, hub cores, and elimination-order builders (min-fill
heuristic, exact by subset DP for small graphs)."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from .graphs import Instance, ParseError, bits


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple  # tuple of frozensets of G vertices
    edges: tuple  # tree edges over bag indices

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1


@dataclass
class NiceNode:
    kind: str  # "leaf" | "introduce" | "introduce_edge" | "forget" | "join"
    bag: frozenset
    payload: object  # vertex, edge, or None
    children: list = field(default_factory=list)


@dataclass(frozen=True)
class HubCore:
    q: frozenset
    sigma: int
    delta: int


def validate_td(g: Instance, td: TreeDecomposition) -> int:
    """Return the width, or raise ValueError naming a violating vertex/edge."""
    nb = len(td.bags)
    for a, b in td.edges:
        if not (0 <= a < nb and 0 <= b < nb):
            raise ValueError(f"tree edge ({a}, {b}) out of range")
    # tree shape: connected and acyclic
    adj = {i: [] for i in range(nb)}
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
    if nb:
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != nb or len(td.edges) != nb - 1:
            raise ValueError("bag graph is not a tree")
    occ = [[] for _ in range(g.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < g.n:
                raise ValueError(f"bag {i} names vertex {v}, outside the "
                                 f"graph's {g.n} vertices")
            occ[v].append(i)
    for v in range(g.n):
        if not occ[v]:
            raise ValueError(f"vertex {v} is in no bag")
        inside = set(occ[v])
        seen = {occ[v][0]}
        stack = [occ[v][0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in inside and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != inside:
            raise ValueError(f"bags containing vertex {v} are disconnected")
    for u, v in g.edges:
        x, y = (u, v) if len(occ[u]) <= len(occ[v]) else (v, u)
        if not any(y in td.bags[i] for i in occ[x]):  # scan the rarer end
            raise ValueError(f"edge ({u}, {v}) is in no bag")
    return td.width


def make_nice(td: TreeDecomposition, edges) -> list[NiceNode]:
    """Rooted nice form: list of NiceNode in bottom-up (post-) order, root
    last with an empty bag.  Each edge of `edges` gets exactly one
    introduce-edge node, placed above the first node whose bag holds both
    endpoints.

    That first node is always an introduce node (a leaf is empty, a forget
    node shrinks its child's bag and a join repeats its children's), so
    each edge is emitted right after the introduce node that completes it;
    several edges completed at once go in reverse sorted order, the
    later-sorted one lower."""
    nodes: list[NiceNode] = []
    left = {tuple(sorted(e)) for e in edges}  # edges no bag has held yet

    def emit(kind, bag, payload, children):
        nodes.append(NiceNode(kind, frozenset(bag), payload, list(children)))
        return len(nodes) - 1

    def chain_to(top, have, want):
        """Forget have∖want then introduce want∖have, one vertex per node,
        each introduce followed by the edges it completes."""
        cur = set(have)
        for v in sorted(have - want):
            cur.discard(v)
            top = emit("forget", cur, v, [top])
        for v in sorted(want - have):
            cur.add(v)
            top = emit("introduce", cur, v, [top])
            done = sorted({(min(v, w), max(v, w)) for w in cur} & left)
            for e in reversed(done):
                top = emit("introduce_edge", cur, e, [top])
            left.difference_update(done)
        return top

    nb = len(td.bags)
    adj = {i: [] for i in range(nb)}
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)

    def build(root) -> int:
        """Post-order over the tree from `root` (explicit stack): a bag's
        subtrees are emitted in sorted child order, each followed by its
        chain up to the bag, then the joins; returns the top node."""
        seen = {root}
        stack = [(root, iter(sorted(adj[root])), [])]  # bag, kids, tops
        while True:
            i, kids, tops = stack[-1]
            c = next(kids, None)
            if c is not None:
                if c in seen:
                    raise ValueError("bag graph is not a tree")
                seen.add(c)
                stack.append((c, iter([x for x in sorted(adj[c]) if x != i]),
                               []))
                continue
            bag = td.bags[i]
            if not tops:
                top = chain_to(emit("leaf", frozenset(), None, []),
                               frozenset(), bag)
            else:
                top = tops[0]
                for other in tops[1:]:
                    top = emit("join", bag, None, [top, other])
            stack.pop()
            if not stack:
                return top
            parent, _, parent_tops = stack[-1]
            parent_tops.append(chain_to(top, bag, td.bags[parent]))

    if nb == 0:
        emit("leaf", frozenset(), None, [])
    else:
        root = build(0)
        chain_to(root, td.bags[0], frozenset())
    if left:
        u, v = min(left)
        raise ValueError(f"edge ({u}, {v}) is in no bag")
    refs = [0] * len(nodes)
    for nd in nodes:
        for c in nd.children:
            refs[c] += 1
    if any(r != 1 for r in refs[:-1]):
        raise AssertionError("nice form is not one tree rooted at its "
                             "last node")
    if nodes[-1].bag:
        raise AssertionError("nice form's root bag is not empty")
    return nodes


# ---------------------------------------------------------------------------
# builders: elimination orders -> tree decompositions


def _td_from_order(n, edges, order) -> TreeDecomposition:
    nbhd = {v: set() for v in range(n)}
    for u, v in edges:
        if u != v:
            nbhd[u].add(v)
            nbhd[v].add(u)
    pos = {v: i for i, v in enumerate(order)}
    bags = []
    link = {}  # eliminated vertex -> its bag index
    for v in order:
        later = {w for w in nbhd[v] if pos[w] > pos[v]}
        bags.append(frozenset({v} | later))
        link[v] = len(bags) - 1
        for a in later:  # fill-in
            nbhd[a].update(later - {a})
            nbhd[a].discard(a)
    tedges = []
    for v in order:
        later = sorted(bags[link[v]] - {v}, key=lambda w: pos[w])
        if later:
            tedges.append((link[v], link[later[0]]))
        elif link[v] + 1 < len(bags):
            tedges.append((link[v], link[v] + 1))
    if not bags:
        bags = [frozenset()]
    return TreeDecomposition(tuple(bags), tuple(tedges))


def _min_fill_order(n, edges):
    """Min-fill elimination order, ties to the smallest vertex.

    A heap holds (fill, v) with stale entries skipped.  Eliminating x
    changes the fill only of x's live neighbours (they lose x and gain
    each other) and of their neighbours (new edges among theirs), so
    only those are recounted.  With fill 0, x's live neighbourhood is a
    clique, so each neighbour's fill just drops by its missing pairs
    with x: a leaf of a high-degree vertex costs no recount of it."""
    nbhd = [0] * n  # bitmasks
    for u, v in edges:
        if u != v:
            nbhd[u] |= 1 << v
            nbhd[v] |= 1 << u
    alive = (1 << n) - 1

    def fill(v):
        ns = nbhd[v] & alive
        missing = 0  # ordered non-adjacent pairs, plus each a (a ∉ nbhd[a])
        m = ns
        while m:  # bits() inlined: this loop is the hot path
            low = m & -m
            missing += (ns & ~nbhd[low.bit_length() - 1]).bit_count()
            m ^= low
        return (missing - ns.bit_count()) // 2

    fills = [fill(v) for v in range(n)]
    heap = [(f, v) for v, f in enumerate(fills)]
    heapq.heapify(heap)
    order = []
    while heap:
        f, best = heapq.heappop(heap)
        if not alive >> best & 1 or f != fills[best]:
            continue
        alive &= ~(1 << best)
        order.append(best)
        ns = nbhd[best] & alive
        touched = ns
        if f:  # fill edges among ns: their other neighbours change too
            for a in bits(ns):
                nbhd[a] |= ns & ~(1 << a)
                touched |= nbhd[a]
        for w in bits(touched & alive):
            if f:
                new = fill(w)
            else:  # ns is a clique: w only loses its missing pairs with best
                new = fills[w] - (nbhd[w] & alive & ~nbhd[best]).bit_count()
            if new != fills[w]:
                fills[w] = new
                heapq.heappush(heap, (new, w))
    return order


def _exact_order(n, edges):
    """Optimal elimination order by DP over vertex subsets (n <= ~13)."""
    nbhd = [0] * n
    for u, v in edges:
        if u != v:
            nbhd[u] |= 1 << v
            nbhd[v] |= 1 << u

    def q(s, v):
        # neighbors of v outside s reachable through s (component closure)
        comp = 1 << v
        frontier = nbhd[v] & s
        while frontier:
            comp |= frontier
            nxt = 0
            m = frontier
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= nbhd[w]
            frontier = nxt & s & ~comp
        reach = 0
        m = comp
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            reach |= nbhd[w]
        return bin(reach & ~s & ~(1 << v)).count("1")

    full = (1 << n) - 1
    best = {0: 0}
    pick = {}
    for s in range(1, full + 1):
        b, ch = None, None
        m = s
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            rest = s & ~(1 << v)
            cand = max(best[rest], q(rest, v))
            if b is None or cand < b or (cand == b and v < ch):
                b, ch = cand, v
        best[s] = b
        pick[s] = ch
    order = []
    s = full
    while s:
        v = pick[s]
        order.append(v)
        s &= ~(1 << v)
    order.reverse()
    return order


def build_td(g: Instance) -> TreeDecomposition:
    """Heuristic min-fill order; exact elimination order for small graphs."""
    order = (_exact_order(g.n, g.edges) if 0 < g.n <= 12
             else _min_fill_order(g.n, g.edges))
    return _td_from_order(g.n, g.edges, order)


# ---------------------------------------------------------------------------
# hub cores


def validate_core(g: Instance, core: HubCore) -> list:
    """Check the sigma and delta bounds; return the components of G − Q
    as vertex lists, in order of their smallest vertex."""
    if not core.q <= set(range(g.n)):
        raise ValueError("core vertices out of range")
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    comps = []
    seen = set(core.q)
    for root in range(g.n):
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen and y not in core.q:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        if len(comp) > core.sigma:
            raise ValueError(f"component of size {len(comp)} exceeds sigma")
        touched = set().union(*(adj[x] for x in comp)) & core.q
        if len(touched) > core.delta:
            raise ValueError(
                f"component with {len(touched)} core neighbors exceeds delta")
        comps.append(comp)
    return comps


def core_to_td(g: Instance, core: HubCore) -> TreeDecomposition:
    """Star of bags: center Q, one leaf Q ∪ C_i per component of G−Q."""
    bags = [frozenset(core.q)] + [core.q.union(comp)
                                  for comp in validate_core(g, core)]
    tedges = tuple((0, i) for i in range(1, len(bags)))
    td = TreeDecomposition(tuple(bags), tedges)
    bound = len(core.q) + max(core.sigma, 1)
    if g.n and td.width >= bound:
        raise AssertionError(
            f"core decomposition has width {td.width}, not below {bound}")
    return td


# ---------------------------------------------------------------------------
# file formats


def parse_td(text: str) -> TreeDecomposition:
    """PACE format: `s td <#bags> <width+1> <n>`, `b <i> <v...>`, edges."""
    nbags = None
    bags = {}
    tedges = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        try:
            if toks[0] == "s":
                if nbags is not None or len(toks) != 5 or toks[1] != "td":
                    raise ParseError(f"line {ln}: bad solution line")
                nbags = int(toks[2])
            elif toks[0] == "b":
                if nbags is None:
                    raise ParseError(f"line {ln}: bag before solution line")
                i = int(toks[1])
                if not 1 <= i <= nbags or i in bags:
                    raise ParseError(f"line {ln}: bad bag index {i}")
                bag = frozenset(int(t) - 1 for t in toks[2:])
                if any(v < 0 for v in bag):
                    raise ParseError(f"line {ln}: vertex ids start at 1")
                bags[i] = bag
            else:
                if len(toks) != 2:
                    raise ParseError(f"line {ln}: bad tree edge")
                tedges.append((int(toks[0]) - 1, int(toks[1]) - 1))
        except ParseError:
            raise
        except (ValueError, IndexError):
            raise ParseError(f"line {ln}: malformed line") from None
    if nbags is None:
        raise ParseError("missing solution line")
    return TreeDecomposition(
        tuple(bags.get(i, frozenset()) for i in range(1, nbags + 1)),
        tuple(tedges))


def format_td(td: TreeDecomposition, n: int) -> str:
    lines = [f"s td {len(td.bags)} {td.width + 1} {n}"]
    for i, bag in enumerate(td.bags, 1):
        lines.append(" ".join(["b", str(i)] + [str(v + 1)
                                               for v in sorted(bag)]))
    for a, b in td.edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def parse_core(text: str) -> HubCore:
    """`q <p> <sigma> <delta>` followed by p vertex ids (1-indexed)."""
    toks = []
    header = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if header is None and (parts[0] != "q" or len(parts) != 4):
            raise ParseError(f"line {ln}: bad core header")
        try:
            nums = [int(t) for t in (parts[1:] if header is None else parts)]
        except ValueError:
            raise ParseError(f"line {ln}: malformed line") from None
        if header is None:
            header = tuple(nums)
        elif min(nums) < 1:
            raise ParseError(f"line {ln}: vertex ids start at 1")
        else:
            toks.extend(v - 1 for v in nums)
    if header is None:
        raise ParseError("missing core header")
    p, sigma, delta = header
    if len(toks) != p:
        raise ParseError(f"expected {p} core vertices, got {len(toks)}")
    return HubCore(frozenset(toks), sigma, delta)


def format_core(core: HubCore) -> str:
    body = " ".join(str(v + 1) for v in sorted(core.q))
    out = f"q {len(core.q)} {core.sigma} {core.delta}\n"
    return out + (body + "\n" if body else "")

"""Tree decompositions: validation, nice form (each G edge listed at the
introduce node that completes it), PACE-format I/O, hub cores, and
elimination-order builders (min-fill heuristic, exact by subset DP for
small graphs)."""

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
        return max((len(b) - 1 for b in self.bags if b), default=0)


@dataclass
class NiceNode:
    kind: str  # "leaf" | "introduce" | "forget" | "join"
    bag: frozenset
    payload: object  # introduced or forgotten vertex, or None
    children: list = field(default_factory=list)
    edges: tuple = ()  # introduce: the sorted G edges it completes


@dataclass(frozen=True)
class HubCore:
    q: frozenset
    sigma: int
    delta: int


def validate_td(g: Instance, td: TreeDecomposition) -> int:
    """Return the width, or raise ValueError naming a fault by file ids."""
    nb = len(td.bags)
    for a, b in td.edges:
        if not (0 <= a < nb and 0 <= b < nb):
            raise ValueError(f"tree edge ({a + 1}, {b + 1}) out of range")
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
                raise ValueError(f"bag {i + 1} names vertex {v + 1}, outside "
                                 f"the graph's {g.n} vertices")
            occ[v].append(i)
    for v in range(g.n):
        if not occ[v]:
            raise ValueError(f"vertex {v + 1} is in no bag")
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
            raise ValueError(f"bags containing vertex {v + 1} are disconnected")
    for u, v in g.edges:
        x, y = (u, v) if len(occ[u]) <= len(occ[v]) else (v, u)
        if not any(y in td.bags[i] for i in occ[x]):  # scan the rarer end
            raise ValueError(f"edge ({u + 1}, {v + 1}) is in no bag")
    return td.width


def make_nice(td: TreeDecomposition, edges) -> list[NiceNode]:
    """Rooted nice form: list of NiceNode in bottom-up (post-) order, root
    last with an empty bag.  Each edge of `edges` is listed, in the sorted
    `edges` of one node, at the first node whose bag holds both endpoints.

    That first node is always an introduce node (a leaf is empty, a forget
    node shrinks its child's bag and a join repeats its children's), and
    the vertex it introduces is one end of each edge it lists."""
    nodes: list[NiceNode] = []
    pending = {}  # vertex -> its neighbours no bag has held it with yet
    for u, w in edges:
        pending.setdefault(u, set()).add(w)
        pending.setdefault(w, set()).add(u)

    def emit(kind, bag, payload, children, done=()):
        nodes.append(NiceNode(kind, frozenset(bag), payload, children, done))
        return len(nodes) - 1

    def chain_to(top, have, want):
        """Forget have∖want then introduce want∖have, one vertex per node,
        each introduce listing the edges it completes."""
        cur = set(have)
        for v in sorted(have - want):
            cur.discard(v)
            top = emit("forget", cur, v, [top])
        for v in sorted(want - have):
            cur.add(v)
            done = ()
            nbrs = pending.get(v)
            if nbrs:
                hit = nbrs & cur
                if hit:
                    nbrs -= hit
                    for w in hit:
                        pending[w].discard(v)
                    # sorted by the other end is sorted: every edge holds v
                    done = tuple((w, v) if w < v else (v, w)
                                 for w in sorted(hit))
            top = emit("introduce", cur, v, [top], done)
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
    left = [(u, w) for u, nbrs in pending.items() for w in nbrs if u <= w]
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


def _min_fill_order(n, edges):
    """Min-fill elimination order, ties to the smallest vertex, and each
    vertex's later neighbours as a mask indexed by vertex.

    A heap holds (fill, v) with stale entries skipped.  Each live vertex's
    fill count (non-adjacent pairs among its live neighbours) is kept
    current, one update per fill edge, with N(.) the live neighbourhoods:
    eliminating x lowers each neighbour w's count by |N(w)∖N[x]|, the
    pairs it had with x; adding a fill edge ab then lowers the count of
    each common neighbour of a and b by 1 and raises a's by |N(a)∖N[b]|
    and b's by |N(b)∖N[a]|, the pairs the new neighbour brings.  An
    eliminated vertex's mask is never touched again, so it ends as its
    later neighbours."""
    nbhd = [0] * n  # bitmasks of live neighbours
    for u, v in edges:
        if u != v:
            nbhd[u] |= 1 << v
            nbhd[v] |= 1 << u

    def fill(v):
        ns = nbhd[v]
        d = ns.bit_count()
        linked = 0  # ordered adjacent pairs in ns
        m = ns
        while m:  # bits() inlined: this loop is the hot path
            low = m & -m
            linked += (ns & nbhd[low.bit_length() - 1]).bit_count()
            m ^= low
        return (d * (d - 1) - linked) // 2

    fills = [fill(v) for v in range(n)]
    heap = [(f, v) for v, f in enumerate(fills)]
    heapq.heapify(heap)
    dead = [False] * n
    order = []
    while heap:
        f, x = heapq.heappop(heap)
        if dead[x] or f != fills[x]:
            continue
        dead[x] = True
        order.append(x)
        ns = nbhd[x]
        old = {}  # vertex -> its fill before this step
        xbit = 1 << x
        for w in bits(ns):
            old[w] = fills[w]
            nw = nbhd[w] = nbhd[w] ^ xbit
            fills[w] -= nw.bit_count() - (nw & ns).bit_count()
        if f:  # add the fill edges among ns
            for a in bits(ns):
                for b in bits(ns & ~nbhd[a] & ~((2 << a) - 1)):  # b > a
                    na, nb = nbhd[a], nbhd[b]
                    common = na & nb
                    for c in bits(common):
                        if c not in old:
                            old[c] = fills[c]
                        fills[c] -= 1
                    k = common.bit_count()
                    fills[a] += na.bit_count() - k
                    fills[b] += nb.bit_count() - k
                    nbhd[a] = na | 1 << b
                    nbhd[b] = nb | 1 << a
        for w, was in old.items():
            if fills[w] != was:
                heapq.heappush(heap, (fills[w], w))
    return order, nbhd


def _exact_order(n, edges):
    """Optimal elimination order by DP over vertex subsets (n ≤ 12, the
    cut-off build_td uses).

    The recurrence of Bodlaender, Fomin, Koster, Kratsch and Thilikos
    ("On exact algorithms for treewidth", TALG 2012): best(S) = min over
    v in S of max(best(S∖v), Q(S∖v, v)), ties to the smallest v, where
    Q(S∖v, v) counts the vertices outside S reachable from v through
    S∖v.  That closure is v's component C in G[S], so Q(S∖v, v) =
    |N(C)∖S|, and one component pass over G[S] gives Q for all of S.
    N(C)∖S is also v's later neighbours, which are returned by vertex
    with the order, as _min_fill_order returns them."""
    nbhd = [0] * n
    for u, v in edges:
        if u != v:
            nbhd[u] |= 1 << v
            nbhd[v] |= 1 << u

    full = (1 << n) - 1
    best = [0] * (full + 1)
    bag = [0] * (full + 1)  # picked v's bit | N(C)∖S, which lies outside s
    for s in range(1, full + 1):
        b, ch, up = n, 0, 0  # b: above any width; ch: v's bit
        left = s
        while left:  # one component C of G[s] per turn
            comp = frontier = left & -left
            reach = 0
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    low = m & -m
                    nxt |= nbhd[low.bit_length() - 1]
                    m ^= low
                reach |= nxt
                frontier = nxt & s & ~comp
                comp |= frontier
            left &= ~comp
            out = reach & ~s
            q = out.bit_count()
            m = comp
            while m:
                low = m & -m
                m ^= low
                cand = best[s ^ low]
                if cand < q:
                    cand = q
                if cand < b or (cand == b and low < ch):
                    b, ch, up = cand, low, out
        best[s] = b
        bag[s] = ch | up
    order, later = [], [0] * n
    s = full
    while s:
        low = bag[s] & s
        order.append(low.bit_length() - 1)
        later[order[-1]] = bag[s] ^ low
        s ^= low
    order.reverse()
    return order, later


def _link(order, later) -> TreeDecomposition:
    """Bag i is order[i] with its later neighbours; its parent is the bag
    of the first of them eliminated, or bag i + 1 if it has none (the
    next component's first bag)."""
    pos = [0] * len(order)
    for i, x in enumerate(order):
        pos[x] = i
    bags, tedges = [], []
    for i, x in enumerate(order):
        ws = list(bits(later[x]))
        bags.append(frozenset(ws + [x]))
        if ws:
            tedges.append((i, min([pos[w] for w in ws])))
        elif i + 1 < len(order):
            tedges.append((i, i + 1))
    return TreeDecomposition(tuple(bags) or (frozenset(),), tuple(tedges))


def build_td(g: Instance) -> TreeDecomposition:
    """Heuristic min-fill order; exact elimination order for small graphs."""
    return _link(*(_exact_order(g.n, g.edges) if 0 < g.n <= 12
                   else _min_fill_order(g.n, g.edges)))


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


def parse_td(text: str, n: Optional[int] = None) -> TreeDecomposition:
    """PACE format: `s td <#bags> <width+1> <n>`, `b <i> <v...>`, edges.

    The header must match the file: every announced bag needs a `b` line,
    every tree edge must join announced bags, and width+1 must be the size
    of the largest bag (0 with no bags), or ParseError.  n, if given, is
    the instance's vertex count; a header naming another count raises
    ValueError, like a bag vertex out of range.
    """
    counts = None
    bags = {}
    tedges = []
    tlines = []  # the line of each tree edge
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        try:
            if toks[0] == "s":
                if counts is not None or len(toks) != 5 or toks[1] != "td":
                    raise ParseError(f"line {ln}: bad solution line")
                counts = [int(t) for t in toks[2:]]
                if min(counts) < 0:
                    raise ParseError(f"line {ln}: negative count")
                head = ln
            elif toks[0] == "b":
                if counts is None:
                    raise ParseError(f"line {ln}: bag before solution line")
                i = int(toks[1])
                if not 1 <= i <= counts[0] or i in bags:
                    raise ParseError(f"line {ln}: bad bag index {i}")
                bag = frozenset(int(t) - 1 for t in toks[2:])
                if any(v < 0 for v in bag):
                    raise ParseError(f"line {ln}: vertex ids start at 1")
                bags[i] = bag
            else:
                if len(toks) != 2:
                    raise ParseError(f"line {ln}: bad tree edge")
                tedges.append((int(toks[0]) - 1, int(toks[1]) - 1))
                tlines.append(ln)
                if min(tedges[-1]) < 0:
                    raise ParseError(f"line {ln}: bag ids start at 1")
        except ParseError:
            raise
        except (ValueError, IndexError):
            raise ParseError(f"line {ln}: malformed line") from None
    if counts is None:
        raise ParseError("missing solution line")
    nbags, size, header_n = counts
    for i in range(1, nbags + 1):
        if i not in bags:
            raise ParseError(f"line {head}: bag {i} has no b line")
    for ln, e in zip(tlines, tedges):
        if max(e) >= nbags:
            raise ParseError(f"line {ln}: tree edge names bag {max(e) + 1}, "
                             f"but there are {nbags} bags")
    td = TreeDecomposition(tuple(bags[i] for i in range(1, nbags + 1)),
                           tuple(tedges))
    largest = _largest_bag(td)
    if size != largest:
        raise ParseError(f"line {head}: width+1 is {size}, but the largest "
                         f"bag has {largest} vertices")
    if n is not None and header_n != n:
        raise ValueError(f"the decomposition is for {header_n} vertices, "
                         f"the instance has {n}")
    return td


def _largest_bag(td: TreeDecomposition) -> int:
    return max((len(b) for b in td.bags), default=0)


def format_td(td: TreeDecomposition, n: int) -> str:
    lines = [f"s td {len(td.bags)} {_largest_bag(td)} {n}"]
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

"""Tree decompositions: validation, nice form (the tree alone; the DP, one
bucket-elimination engine, in forget order, reads only its forget order
and checks each G edge against the bag where its first end is forgotten),
PACE-format I/O, hub cores, and one elimination-order builder (min-fill,
ties to the smallest vertex)."""

from __future__ import annotations

import heapq
from typing import NamedTuple, Optional

from .graphs import Instance, ParseError


class TreeDecomposition(NamedTuple):
    bags: tuple  # tuple of frozensets of G vertices
    edges: tuple  # tree edges over bag indices

    @property
    def width(self) -> int:
        return max((len(b) - 1 for b in self.bags if b), default=0)


class NiceNode:
    __slots__ = ("kind", "bag", "payload", "children")

    def __init__(self, kind: str, bag: frozenset, payload: object,
                 children: Optional[list] = None):
        self.kind = kind  # "leaf" | "introduce" | "forget" | "join"
        self.bag = bag
        # forgotten vertex, tuple of introduced ones, or None
        self.payload = payload
        self.children = [] if children is None else children


class HubCore(NamedTuple):
    q: frozenset
    sigma: int
    delta: int


def validate_td(g: Instance, td: TreeDecomposition) -> int:
    """Return the width, or raise ValueError naming a fault by file ids.

    With the bag tree rooted at bag 0, the bags holding a vertex are
    connected exactly when just one of them, its top, has no parent
    holding it.  Two connected sets of bags then meet exactly when one's
    top is in the other, so an edge uv is in a bag exactly when u is in
    v's top bag or v in u's."""
    nb = len(td.bags)
    for a, b in td.edges:
        if not (0 <= a < nb and 0 <= b < nb):
            raise ValueError(f"tree edge ({a + 1}, {b + 1}) out of range")
    # tree shape: connected and acyclic
    adj = {i: [] for i in range(nb)}
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = [None] * nb
    if nb:
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    parent[y] = x
                    stack.append(y)
        if len(seen) != nb or len(td.edges) != nb - 1:
            raise ValueError("bag graph is not a tree")
    top = [None] * g.n  # v's top bag; -1 once v has two
    for i, bag in enumerate(td.bags):
        up = () if parent[i] is None else td.bags[parent[i]]
        for v in bag:
            if not 0 <= v < g.n:
                raise ValueError(f"bag {i + 1} names vertex {v + 1}, outside "
                                 f"the graph's {g.n} vertices")
            if v not in up:
                top[v] = i if top[v] is None else -1
    for v in range(g.n):
        if top[v] is None:
            raise ValueError(f"vertex {v + 1} is in no bag")
        if top[v] < 0:
            raise ValueError(f"bags containing vertex {v + 1} are disconnected")
    for u, v in g.edges:
        if u not in td.bags[top[v]] and v not in td.bags[top[u]]:
            raise ValueError(f"edge ({u + 1}, {v + 1}) is in no bag")
    return td.width


def restrict_td(td: TreeDecomposition, keep) -> TreeDecomposition:
    """td on the subgraph induced by `keep` (ascending vertices), with
    keep[i] renamed i: each bag ∩ keep, on the same tree.  A kept
    vertex's bags and a kept edge's shared bag are those of td, so this
    is a decomposition of the induced subgraph, no wider than td.  It is
    the one way a decomposition is narrowed: dpsolve._solve_dp narrows a
    given one to the vertices with more than one DP state, and
    dpsolve.solve_ed_auto narrows one to each side of a split."""
    pos = {v: i for i, v in enumerate(keep)}
    return TreeDecomposition(
        tuple(frozenset([pos[v] for v in bag if v in pos])
              for bag in td.bags), td.edges)


def make_nice(td: TreeDecomposition) -> list[NiceNode]:
    """Rooted nice form: list of NiceNode in bottom-up (post-) order, root
    last with an empty bag.  A forget node drops one vertex; an introduce
    node adds every vertex its bag has and its child's lacks, and no
    introduce node's child is another.  Its payload lists them bottom-up,
    ascending within each decomposition edge (or leaf bag) they enter on:
    the order in which a one-vertex-per-node form would introduce them."""
    nodes: list[NiceNode] = []
    append = nodes.append

    def chain_to(top, have, want):
        """Forget have∖want one vertex per node, then introduce want∖have,
        ascending, in one node."""
        cur = have
        for v in sorted(have - want):
            cur = cur.difference((v,))
            append(NiceNode("forget", cur, v, [top]))
            top = len(nodes) - 1
        new = want - have
        if not new:
            return top
        new, kids = tuple(sorted(new)), [top]
        if top == len(nodes) - 1 and nodes[top].kind == "introduce":
            # nothing was forgotten: extend the introduce node below,
            # its vertices first, so that none is another's child
            prev = nodes.pop()
            new, kids = prev.payload + new, prev.children
        append(NiceNode("introduce", cur.union(new), new, kids))
        return len(nodes) - 1

    nb = len(td.bags)
    bags = [frozenset(b) for b in td.bags]
    adj = {i: [] for i in range(nb)}
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
    for kids in adj.values():
        kids.sort()

    def build(root) -> int:
        """Post-order over the tree from `root` (explicit stack): a bag's
        subtrees are emitted in sorted child order, each followed by its
        chain up to the bag, then the joins; returns the top node."""
        seen = {root}
        stack = [(root, iter(adj[root]), [])]  # bag, kids, tops
        while True:
            i, kids, tops = stack[-1]
            c = next(kids, None)
            if c is not None:
                if c in seen:
                    raise ValueError("bag graph is not a tree")
                seen.add(c)
                stack.append((c, iter([x for x in adj[c] if x != i]), []))
                continue
            bag = bags[i]
            if not tops:
                append(NiceNode("leaf", frozenset(), None, []))
                top = chain_to(len(nodes) - 1, frozenset(), bag)
            else:
                top = tops[0]
                for other in tops[1:]:
                    append(NiceNode("join", bag, None, [top, other]))
                    top = len(nodes) - 1
            stack.pop()
            if not stack:
                return top
            parent, _, parent_tops = stack[-1]
            parent_tops.append(chain_to(top, bag, bags[parent]))

    if nb == 0:
        append(NiceNode("leaf", frozenset(), None, []))
    else:
        chain_to(build(0), bags[0], frozenset())
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
# builder: the min-fill elimination order -> tree decomposition


def _min_fill_order(n, edges):
    """Min-fill elimination order, ties to the smallest vertex, and each
    vertex's later neighbours as a set.

    A heap holds (fill, v) with stale entries skipped.  Each live vertex's
    fill count (non-adjacent pairs among its live neighbours) is kept
    current, one update per fill edge, with N(.) the live neighbourhoods:
    eliminating x lowers each neighbour w's count by |N(w)∖N[x]|, the
    pairs it had with x; adding a fill edge ab then lowers the count of
    each common neighbour of a and b by 1 and raises a's by |N(a)∖N[b]|
    and b's by |N(b)∖N[a]|, the pairs the new neighbour brings.  An
    eliminated vertex's set is never touched again, so it ends as its
    later neighbours."""
    nbhd = [set() for _ in range(n)]  # live neighbours
    for u, v in edges:
        if u != v:
            nbhd[u].add(v)
            nbhd[v].add(u)

    def fill(v):
        ns = nbhd[v]
        d = len(ns)
        linked = sum([len(ns & nbhd[w]) for w in ns])  # ordered pairs
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
        for w in ns:
            old[w] = fills[w]
            nw = nbhd[w]
            nw.discard(x)
            fills[w] -= len(nw) - len(nw & ns)
        if f:  # add the fill edges among ns
            rest = set(ns)
            for a in ns:
                rest.discard(a)  # each pair once
                for b in rest - nbhd[a]:
                    na, nb = nbhd[a], nbhd[b]
                    common = na & nb
                    for c in common:
                        if c not in old:
                            old[c] = fills[c]
                        fills[c] -= 1
                    k = len(common)
                    fills[a] += len(na) - k
                    fills[b] += len(nb) - k
                    na.add(b)
                    nb.add(a)
        for w, was in old.items():
            if fills[w] != was:
                heapq.heappush(heap, (fills[w], w))
    return order, nbhd


def _link(order, later) -> TreeDecomposition:
    """Bag i is order[i] with its later neighbours; its parent is the bag
    of the first of them eliminated, or bag i + 1 if it has none (the
    next component's first bag)."""
    pos = [0] * len(order)
    for i, x in enumerate(order):
        pos[x] = i
    bags, tedges = [], []
    for i, x in enumerate(order):
        ws = later[x]
        bags.append(frozenset([x, *ws]))
        if ws:
            tedges.append((i, min([pos[w] for w in ws])))
        elif i + 1 < len(order):
            tedges.append((i, i + 1))
    return TreeDecomposition(tuple(bags) or (frozenset(),), tuple(tedges))


def build_td(g: Instance) -> TreeDecomposition:
    """The decomposition of the min-fill order, ties to the smallest
    vertex: a heuristic, so its width may exceed the treewidth."""
    return _link(*_min_fill_order(g.n, g.edges))


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
                if counts is None:
                    raise ParseError(
                        f"line {ln}: tree edge before solution line")
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
    """The PACE text parse_td reads.  No command writes one, but it stays
    beside parse_td as the writer of the format `solve --td` reads."""
    lines = [f"s td {len(td.bags)} {_largest_bag(td)} {n}"]
    for i, bag in enumerate(td.bags, 1):
        lines.append(" ".join(["b", str(i)] + [str(v + 1)
                                               for v in sorted(bag)]))
    for a, b in td.edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def parse_core(text: str) -> HubCore:
    """`q <p> <sigma> <delta>` followed by p distinct vertex ids
    (1-indexed); a negative count or a repeated id is a ParseError."""
    toks = set()
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
            if min(nums) < 0:
                raise ParseError(f"line {ln}: negative count")
            header = tuple(nums)
        elif min(nums) < 1:
            raise ParseError(f"line {ln}: vertex ids start at 1")
        else:
            for v in nums:
                if v - 1 in toks:
                    raise ParseError(f"line {ln}: core vertex {v} repeated")
                toks.add(v - 1)
    if header is None:
        raise ParseError("missing core header")
    p, sigma, delta = header
    if len(toks) != p:
        raise ParseError(f"expected {p} core vertices, got {len(toks)}")
    return HubCore(frozenset(toks), sigma, delta)


def format_core(core: HubCore) -> str:
    """The text parse_core reads.  No command writes one, but it stays
    beside parse_core as the writer of the format `solve --core` reads."""
    body = " ".join(str(v + 1) for v in sorted(core.q))
    out = f"q {len(core.q)} {core.sigma} {core.delta}\n"
    return out + (body + "\n" if body else "")

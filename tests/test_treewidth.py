import hashlib
import os
import random
import re
import subprocess
import sys
import time
from itertools import permutations

import pytest

from lhomdel.graphs import Instance, ParseError
from lhomdel.treewidth import (HubCore, TreeDecomposition, build_td,
                               core_to_td, format_core, format_td, make_nice,
                               parse_core, parse_td, restrict_td,
                               validate_core, validate_td, _link,
                               _min_fill_order)

import families


def _random_graph(rng, n, p=0.4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Instance(n, edges, [frozenset({0})] * n)


def _grid(rows, cols, diagonals=False):
    n, edges = families.grid(rows, cols, diagonals)
    return Instance(n, edges, [frozenset({0})] * n)


def _partial_ktree(rng, n, k, keep=0.7):
    n, edges = families.partial_ktree(rng, n, k, keep)
    return Instance(n, edges, [frozenset({0})] * n)


def _td_from_order(n, edges, order) -> TreeDecomposition:
    """Reference decomposition of an elimination order: plays the
    elimination game again on set neighbourhoods, adding the fill-in."""
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
        later = bags[link[v]] - {v}
        if later:  # the parent is the bag of the next of them eliminated
            tedges.append((link[v], link[min(later, key=pos.__getitem__)]))
        elif link[v] + 1 < len(bags):
            tedges.append((link[v], link[v] + 1))
    if not bags:
        bags = [frozenset()]
    return TreeDecomposition(tuple(bags), tuple(tedges))


def test_validate_td_rejects_bad_decompositions():
    g = Instance(3, [(0, 1), (1, 2)], [frozenset({0})] * 3)
    with pytest.raises(ValueError):  # vertex in no bag
        validate_td(g, TreeDecomposition((frozenset({0, 1}),), ()))
    with pytest.raises(ValueError):  # edge in no bag
        validate_td(g, TreeDecomposition(
            (frozenset({0, 1}), frozenset({2})), ((0, 1),)))
    with pytest.raises(ValueError):  # occurrences disconnected
        validate_td(g, TreeDecomposition(
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({0})),
            ((0, 1), (1, 2))))
    with pytest.raises(ValueError):  # not a tree
        validate_td(g, TreeDecomposition(
            (frozenset({0, 1, 2}), frozenset({0, 1, 2})), ()))


def _validate_td_per_vertex(g, td):
    """Reference validate_td: searches each vertex's bags for connectivity
    on its own; the same checks and messages, in the same order."""
    nb = len(td.bags)
    for a, b in td.edges:
        if not (0 <= a < nb and 0 <= b < nb):
            raise ValueError(f"tree edge ({a + 1}, {b + 1}) out of range")
    adj = {i: [] for i in range(nb)}
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)

    def reach(start, inside):
        seen, stack = {start}, [start]
        while stack:
            for y in adj[stack.pop()]:
                if y in inside and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    if nb and (len(reach(0, set(range(nb)))) != nb
               or len(td.edges) != nb - 1):
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
        if reach(occ[v][0], set(occ[v])) != set(occ[v]):
            raise ValueError(
                f"bags containing vertex {v + 1} are disconnected")
    for u, v in g.edges:
        if not any({u, v} <= bag for bag in td.bags):
            raise ValueError(f"edge ({u + 1}, {v + 1}) is in no bag")
    return td.width


def _outcome(validate, g, td):
    try:
        return validate(g, td)
    except ValueError as e:
        return str(e)


def test_validate_td_matches_the_per_vertex_search():
    # randomly mutated decompositions: a dropped vertex, a moved
    # occurrence, an extra tree edge, a vertex out of range
    rng = random.Random(55)
    faults = set()
    for trial in range(300):
        if trial % 3 == 0:
            g = _random_graph(rng, rng.randint(1, 12), rng.random())
        elif trial % 3 == 1:
            g = _grid(rng.randint(1, 4), rng.randint(1, 6), trial % 2 == 0)
        else:
            g = _partial_ktree(rng, rng.randint(6, 16), rng.randint(1, 4))
        td = build_td(g)
        bags = [set(b) for b in td.bags]
        tedges = list(td.edges)
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(bags))
            kind = rng.randrange(4)
            if kind == 0 and bags[i]:
                bags[i].discard(rng.choice(sorted(bags[i])))
            elif kind == 1 and bags[i]:
                v = rng.choice(sorted(bags[i]))
                bags[i].discard(v)
                bags[rng.randrange(len(bags))].add(v)
            elif kind == 2:
                tedges.insert(rng.randint(0, len(tedges)),
                              (i, rng.randrange(len(bags))))
            elif kind == 3:
                bags[i].add(g.n + rng.randrange(2))
        bad = TreeDecomposition(tuple(map(frozenset, bags)), tuple(tedges))
        want = _outcome(_validate_td_per_vertex, g, bad)
        assert _outcome(validate_td, g, bad) == want, trial
        faults.add("width" if isinstance(want, int)
                   else re.sub(r"\d+", "#", want))
    assert faults == {
        "width", "bag graph is not a tree", "vertex # is in no bag",
        "bag # names vertex #, outside the graph's # vertices",
        "bags containing vertex # are disconnected",
        "edge (#, #) is in no bag"}


def test_build_td_is_exact_on_small_graphs():
    rng = random.Random(51)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(1, 6))
        td = build_td(g)
        width = validate_td(g, td)
        best = min(validate_td(g, _td_from_order(g.n, g.edges, list(p)))
                   for p in permutations(range(g.n)))
        assert width == best


def _check_nice(nodes, edges):
    """The nice form's invariants: post-order, node kinds and bags, one
    tree, and for each edge the placement the DP reads: the end forgotten
    first has the other end in its forget node's child bag."""
    assert nodes[-1].bag == frozenset()
    for i, nd in enumerate(nodes):
        for c in nd.children:
            assert c < i  # post-order: children precede parents
        if nd.kind == "leaf":
            assert nd.bag == frozenset() and not nd.children
        elif nd.kind == "introduce":
            child = nodes[nd.children[0]]
            assert child.kind != "introduce"
            assert nd.payload and len(set(nd.payload)) == len(nd.payload)
            assert nd.bag == child.bag | set(nd.payload)
            assert child.bag.isdisjoint(nd.payload)
        elif nd.kind == "forget":
            child = nodes[nd.children[0]]
            assert nd.bag == child.bag - {nd.payload}
            assert nd.payload in child.bag
        else:
            assert nd.kind == "join"
            c1, c2 = nd.children
            assert nodes[c1].bag == nodes[c2].bag == nd.bag
    # every node but the root (the last) is the child of one node
    refs = [0] * len(nodes)
    for nd in nodes:
        for c in nd.children:
            refs[c] += 1
    assert refs == [1] * (len(nodes) - 1) + [0]
    # each vertex any bag holds is forgotten once, after every node whose
    # bag holds it: the DP lays its axes out by that forget node's index
    forgotten = {}
    for i, nd in enumerate(nodes):
        if nd.kind == "forget":
            assert nd.payload not in forgotten
            forgotten[nd.payload] = i
    held = set().union(*(nd.bag for nd in nodes))
    assert set(forgotten) == held
    for i, nd in enumerate(nodes):
        for v in nd.bag:
            assert i < forgotten[v]
    for u, v in edges:
        first, other = (u, v) if forgotten[u] < forgotten[v] else (v, u)
        assert other in nodes[nodes[forgotten[first]].children[0]].bag


def test_make_nice_invariants():
    rng = random.Random(52)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(1, 7))
        _check_nice(make_nice(build_td(g)), g.edges)
    with pytest.raises(ValueError):  # a cycle of bags
        make_nice(TreeDecomposition((frozenset({0}),) * 3,
                                    ((0, 1), (1, 2), (2, 0))))


def test_restrict_td_decomposes_the_induced_subgraph():
    # min-fill and hub-core decompositions of random graphs, each
    # restricted to no vertex, every vertex and a random subset: bags that
    # become empty or equal to a neighbour's must leave a valid nice form,
    # renumbered or in the graph's own ids with the rest dropped from bags
    rng = random.Random(56)
    emptied = merged = 0
    for _ in range(200):
        g = _random_graph(rng, rng.randint(0, 10),
                          rng.choice((0.15, 0.3, 0.6)))
        q = frozenset(rng.sample(range(g.n), rng.randint(0, g.n // 2)))
        for td in (build_td(g), core_to_td(g, HubCore(q, g.n, g.n))):
            width = validate_td(g, td)
            for keep in ([], list(range(g.n)),
                         sorted(rng.sample(range(g.n), rng.randint(0, g.n)))):
                pos = {v: i for i, v in enumerate(keep)}
                sub = Instance(len(keep), [
                    (pos[u], pos[v]) for u, v in g.edges
                    if u in pos and v in pos], [frozenset({0})] * len(keep))
                small = restrict_td(td, keep)
                assert small.edges == td.edges
                assert [{keep[x] for x in b} for b in small.bags] == \
                    [b & set(keep) for b in td.bags]
                assert validate_td(sub, small) <= width
                _check_nice(make_nice(small), sub.edges)
                drop = frozenset(range(g.n)) - set(keep)
                inner = [(u, v) for u, v in g.edges
                         if u not in drop and v not in drop]
                _check_nice(make_nice(TreeDecomposition(
                    tuple(b - drop for b in td.bags), td.edges)), inner)
                emptied += sum(bool(b) and not s
                               for b, s in zip(td.bags, small.bags))
                merged += sum(td.bags[a] != td.bags[b] and
                              small.bags[a] == small.bags[b]
                              for a, b in td.edges)
    assert emptied > 100 and merged > 100, (emptied, merged)


def test_make_nice_node_counts_are_pinned():
    # at most one introduce node per decomposition edge and leaf
    g = _grid(6, 18)
    assert len(make_nice(build_td(g))) == 331
    g = _partial_ktree(random.Random(54), 100, 6)
    td = build_td(g)
    assert td.width == 6 and len(make_nice(td)) == 359


def test_td_roundtrip():
    rng = random.Random(53)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(1, 7))
        td = build_td(g)
        back = parse_td(format_td(td, g.n))
        assert back.bags == td.bags
        assert sorted(back.edges) == sorted(td.edges)
        validate_td(g, back)
    # zero bags: width+1 is 0, and format_td writes what parse_td accepts
    empty = TreeDecomposition((), ())
    assert parse_td(format_td(empty, 0), 0) == empty


def test_td_parse_errors():
    with pytest.raises(ParseError):
        parse_td("b 1 1\ns td 1 1 1")
    with pytest.raises(ParseError):
        parse_td("s td 1 1 1\nb 2 1")
    with pytest.raises(ParseError):
        parse_td("")
    with pytest.raises(ParseError,
                       match="line 1: tree edge before solution line"):
        parse_td("1 2\ns td 2 1 2\nb 1 1\nb 2 2")
    for text in ("s td 1 1 1\nb 1 1 x",  # non-integer vertex
                 "s td 1 1 1\nb",  # truncated bag line
                 "s",  # truncated solution line
                 "s td x 1 1",  # non-integer bag count
                 "s td 2 1 2\nb 1 1\nb 2 2\n1 y",  # non-integer tree edge
                 "s td 1 3 2\nb 1 1 2",  # width+1 above the largest bag
                 "s td 0 1 0",  # width+1 of 1 with no bags
                 "s td 2 2 2\nb 2 1 2\n1 2"):  # bag 1 has no b line
        with pytest.raises(ParseError, match="line"):
            parse_td(text)
    # a header vertex count other than the instance's is a precondition
    with pytest.raises(ValueError, match="for 3 vertices") as err:
        parse_td("s td 1 2 3\nb 1 1 2", 2)
    assert not isinstance(err.value, ParseError)
    with pytest.raises(ParseError, match="line 2"):  # non-integer core id
        parse_core("q 2 1 1\n1 x")
    with pytest.raises(ParseError, match="line 1"):  # non-integer sigma
        parse_core("q 2 s 1\n1 2")
    with pytest.raises(ParseError, match="start at 1"):  # core id 0
        parse_core("q 2 1 1\n0 1")
    with pytest.raises(ParseError, match="^line 2: core vertex 1 repeated$"):
        parse_core("q 2 3 1\n1 1")
    for text in ("q 1 -2 -5\n1", "q -1 1 1\n"):  # negative sigma, delta, p
        with pytest.raises(ParseError, match="^line 1: negative count$"):
            parse_core(text)


def test_core_roundtrip_and_validation():
    core = HubCore(frozenset({0, 2}), 2, 2)
    back = parse_core(format_core(core))
    assert back == core
    g = Instance(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [frozenset({0})] * 5)
    validate_core(g, HubCore(frozenset({2}), 2, 1))
    with pytest.raises(ValueError):  # component of size 4 exceeds sigma
        validate_core(g, HubCore(frozenset({4}), 2, 1))
    with pytest.raises(ParseError):
        parse_core("q 2 1 1\n1")


def test_core_to_td():
    g = Instance(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)],
                 [frozenset({0})] * 6)
    core = HubCore(frozenset({0, 3}), 2, 2)
    td = core_to_td(g, core)
    assert validate_td(g, td) < len(core.q) + max(core.sigma, 1)
    assert td.bags[0] == frozenset(core.q)
    # one leaf bag per component of G - Q, by smallest vertex
    assert td.bags[1:] == (frozenset({0, 1, 3}), frozenset({0, 2, 3}),
                           frozenset({0, 3, 4, 5}))


def _min_fill_order_rescan(n, edges):
    """Reference min-fill: rescan every live vertex at every step."""
    nbhd = {v: set() for v in range(n)}
    for u, v in edges:
        if u != v:
            nbhd[u].add(v)
            nbhd[v].add(u)
    alive = set(range(n))
    order = []
    while alive:
        best, best_fill = None, None
        for v in sorted(alive):
            ns = nbhd[v] & alive
            # each non-adjacent pair of ns, counted from both ends
            fill = sum(len(ns - nbhd[a] - {a}) for a in ns) // 2
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        ns = nbhd[best] & alive
        for a in ns:
            nbhd[a].update(ns - {a})
        alive.discard(best)
        order.append(best)
    return order


def _star(leaves):
    return Instance(leaves + 1, [(0, v) for v in range(1, leaves + 1)],
                    [frozenset({0})] * (leaves + 1))


def _broom(handle, bristles):
    """A path 0..handle with `bristles` leaves on its last vertex."""
    n = handle + 1 + bristles
    edges = [(v, v + 1) for v in range(handle)]
    edges += [(handle, v) for v in range(handle + 1, n)]
    return Instance(n, edges, [frozenset({0})] * n)


def test_min_fill_order_matches_full_rescan():
    rng = random.Random(54)
    graphs = [_random_graph(rng, n, rng.choice((1.5, 3, 6)) / n)
              for n in (13, 20, 40, 80, 150, 300) for _ in range(3)]
    graphs += [_star(40), _broom(10, 30), _broom(25, 5)]
    # dense fill: partial k-trees and triangulated grids make many fill
    # edges per elimination, each with common neighbours to update
    graphs += [_partial_ktree(rng, rng.randint(50, 100), k, keep)
               for k in (5, 6, 7) for keep in (0.5, 0.7, 0.9)]
    graphs += [_grid(5, 20, diagonals=True), _grid(20, 5, diagonals=True)]
    for g in graphs:
        assert _min_fill_order(g.n, g.edges)[0] == \
            _min_fill_order_rescan(g.n, g.edges)
        validate_td(g, build_td(g))


def test_build_td_on_a_large_star():
    """Min-fill on a vertex of degree 10^4 (each leaf elimination used to
    recount the centre's fill over all its live neighbours)."""
    g = _star(10 ** 4)
    td = build_td(g)
    assert td.width == 1
    assert validate_td(g, td) == 1


def test_linked_bags_match_the_fill_in_reference():
    """The min-fill later-neighbour masks, linked, give the decomposition
    that replaying the elimination game on its order gives."""
    rng = random.Random(56)
    graphs = [Instance(0, [], [])]
    for n in range(1, 15):
        graphs += [_random_graph(rng, n, p) for p in (0, 0.2, 0.4, 0.7, 1)]
        # isolated vertices and disconnected parts
        a = rng.randint(0, n)
        left = _random_graph(rng, a, 0.5).edges
        right = [(u + a, v + a)
                 for u, v in _random_graph(rng, n - a, 0.6).edges
                 if rng.random() < 0.8]
        graphs.append(Instance(n, left + right, [frozenset({0})] * n))
    ladder = _grid(3, 334)
    for g in graphs + [ladder]:
        order, later = _min_fill_order(g.n, g.edges)
        want = _td_from_order(g.n, g.edges, order)
        assert build_td(g) == _link(order, later) == want, g.edges
        validate_td(g, want)


def test_build_td_outputs_are_pinned():
    """SHA-256 of format_td(build_td(g)): any change to the elimination
    orders, and so to the widths and witnesses, shows here."""
    graphs = {
        "grid6x18": (_grid(6, 18),
                     "0e074f7dafa8803ed0fe62f07bdd478c"
                     "7cc9428a6af36979c0fe3c1bbbc22462"),
        "ktree6": (_partial_ktree(random.Random(61), 100, 6),
                   "06bc65deb9b33c4c3141d903628c36ad"
                   "4306fdff9125ff4ac790d9d324bd7aa5"),
        "random12": (_random_graph(random.Random(62), 12, 0.4),
                     "55e024388a7243f0dabf9cbe15342e8c"
                     "7359edddff31f92fd99673efd4a4a4c3"),
        "random11": (_random_graph(random.Random(63), 11, 0.3),
                     "d494700a7aae9247a047c028a9e39b19"
                     "4da79bdd22c10b6780b2815f2247b827"),
    }
    for name, (g, want) in graphs.items():
        text = format_td(build_td(g), g.n)
        assert hashlib.sha256(text.encode()).hexdigest() == want, name


_BUILD_TD_OF_A_TREE = """
import random, resource
from lhomdel.graphs import Instance
from lhomdel.treewidth import build_td
n = 10 ** 5
rng = random.Random(1)
g = Instance(n, [(rng.randrange(v), v) for v in range(1, n)],
             [frozenset({0})] * n)
# the address space the interpreter holds now, plus 256 MiB
pages = int(open("/proc/self/statm").read().split()[0])
limit = pages * resource.getpagesize() + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
assert build_td(g).width == 1
"""


def test_build_td_of_a_large_tree_size_ladder():
    """Min-fill on a 10^5-vertex random recursive tree, in a child process
    under an address-space limit: n-bit neighbourhood masks would need
    hundreds of MB here, sets take a few tens."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", _BUILD_TD_OF_A_TREE],
                         env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert out.returncode == 0, out.stderr
    assert elapsed < 5.0, elapsed

import random
from itertools import permutations

import pytest

from lhomdel.graphs import Instance, ParseError
from lhomdel.treewidth import (HubCore, TreeDecomposition, build_td,
                               core_to_td, format_core, format_td, make_nice,
                               parse_core, parse_td, validate_core,
                               validate_td, _min_fill_order, _td_from_order)


def _random_graph(rng, n, p=0.4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Instance(n, edges, [frozenset({0})] * n)


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


def test_build_td_is_exact_on_small_graphs():
    rng = random.Random(51)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(1, 6))
        td = build_td(g)
        width = validate_td(g, td)
        best = min(validate_td(g, _td_from_order(g.n, g.edges, list(p)))
                   for p in permutations(range(g.n)))
        assert width == best


def test_make_nice_invariants():
    rng = random.Random(52)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(1, 7))
        td = build_td(g)
        nodes = make_nice(td, g.edges)
        assert nodes[-1].bag == frozenset()
        edges_seen = []
        for i, nd in enumerate(nodes):
            for c in nd.children:
                assert c < i  # post-order: children precede parents
            if nd.kind == "leaf":
                assert nd.bag == frozenset() and not nd.children
            elif nd.kind == "introduce":
                child = nodes[nd.children[0]]
                assert nd.bag == child.bag | {nd.payload}
                assert nd.payload not in child.bag
            elif nd.kind == "forget":
                child = nodes[nd.children[0]]
                assert nd.bag == child.bag - {nd.payload}
                assert nd.payload in child.bag
            elif nd.kind == "join":
                c1, c2 = nd.children
                assert nodes[c1].bag == nodes[c2].bag == nd.bag
            else:
                assert nd.kind == "introduce_edge"
                u, v = nd.payload
                assert u in nd.bag and v in nd.bag
                assert nd.bag == nodes[nd.children[0]].bag
                edges_seen.append(tuple(sorted((u, v))))
        want = sorted(tuple(sorted(e)) for e in g.edges)
        assert sorted(edges_seen) == want  # each edge exactly once
        # every node but the root (the last) is the child of one node
        refs = [0] * len(nodes)
        for nd in nodes:
            for c in nd.children:
                refs[c] += 1
        assert refs == [1] * (len(nodes) - 1) + [0]
        # an edge sits above the lowest-index node, introduce-edge nodes
        # aside, whose bag holds both of its ends
        for nd in nodes:
            if nd.kind != "introduce_edge":
                continue
            u, v = nd.payload
            below = nd.children[0]
            while nodes[below].kind == "introduce_edge":
                below = nodes[below].children[0]
            assert below == min(i for i, x in enumerate(nodes)
                                if x.kind != "introduce_edge"
                                and {u, v} <= x.bag)
    with pytest.raises(ValueError):  # a cycle of bags
        make_nice(TreeDecomposition((frozenset({0}),) * 3,
                                    ((0, 1), (1, 2), (2, 0))), [])


def test_td_roundtrip():
    rng = random.Random(53)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(1, 7))
        td = build_td(g)
        back = parse_td(format_td(td, g.n))
        assert back.bags == td.bags
        assert sorted(back.edges) == sorted(td.edges)
        validate_td(g, back)


def test_td_parse_errors():
    with pytest.raises(ParseError):
        parse_td("b 1 1\ns td 1 1 1")
    with pytest.raises(ParseError):
        parse_td("s td 1 1 1\nb 2 1")
    with pytest.raises(ParseError):
        parse_td("")
    for text in ("s td 1 1 1\nb 1 1 x",  # non-integer vertex
                 "s td 1 1 1\nb",  # truncated bag line
                 "s",  # truncated solution line
                 "s td x 1 1",  # non-integer bag count
                 "s td 2 1 2\nb 1 1\nb 2 2\n1 y"):  # non-integer tree edge
        with pytest.raises(ParseError, match="line"):
            parse_td(text)
    with pytest.raises(ParseError, match="line 2"):  # non-integer core id
        parse_core("q 2 1 1\n1 x")
    with pytest.raises(ParseError, match="line 1"):  # non-integer sigma
        parse_core("q 2 s 1\n1 2")
    with pytest.raises(ParseError, match="start at 1"):  # core id 0
        parse_core("q 2 1 1\n0 1")


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
            fill = sum(1 for a in ns for b in ns
                       if a < b and b not in nbhd[a])
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
    for g in graphs:
        assert _min_fill_order(g.n, g.edges) == \
            _min_fill_order_rescan(g.n, g.edges)
        validate_td(g, build_td(g))


def test_build_td_on_a_large_star():
    """Min-fill on a vertex of degree 10^4 (each leaf elimination used to
    recount the centre's fill over all its live neighbours)."""
    g = _star(10 ** 4)
    td = build_td(g)
    assert td.width == 1
    assert validate_td(g, td) == 1

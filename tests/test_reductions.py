import random
from itertools import combinations, product

import pytest

from lhomdel import dpsolve, gadgets, oracle, reductions
from lhomdel.graphs import Instance, ParseError
from lhomdel.treewidth import HubCore

import families


def _rand_graph(rng, n, p=0.5):
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def _vc(n, edges):
    for r in range(n + 1):
        for sub in combinations(range(n), r):
            s = set(sub)
            if all(u in s or v in s for u, v in edges):
                return r


def _annotated_maxcut(n, edges, left=(), right=()):
    best = 0
    for bits in product((0, 1), repeat=n):
        if any(bits[v] != 0 for v in left) or any(bits[v] != 1
                                                  for v in right):
            continue
        best = max(best, sum(1 for u, v in edges if bits[u] != bits[v]))
    return best


def _is_bipartite(n, edges, removed):
    color = {}
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        if u not in removed and v not in removed:
            adj[u].append(v)
            adj[v].append(u)
    for root in range(n):
        if root in removed or root in color:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def _oct(n, edges):
    for r in range(n + 1):
        for sub in combinations(range(n), r):
            if _is_bipartite(n, edges, set(sub)):
                return r


def _st_cut(n, edges, s, t):
    best = None
    for bits in product((0, 1), repeat=n):
        if bits[s] != 0 or bits[t] != 1:
            continue
        c = sum(1 for u, v in edges if bits[u] != bits[v])
        best = c if best is None else min(best, c)
    return best


def _edge_multiway(n, edges, terminals):
    """Min cross edges over labelings; free vertices may take a terminal's
    label or a private one of their own."""
    k = len(terminals)
    tidx = {t: i for i, t in enumerate(terminals)}
    free = [v for v in range(n) if v not in tidx]
    best = None
    for choice in product(range(k + 1), repeat=len(free)):
        lab = dict(tidx)
        for v, c in zip(free, choice):
            lab[v] = c if c < k else k + v
        c = sum(1 for u, v in edges if lab[u] != lab[v])
        best = c if best is None else min(best, c)
    return best


def _vertex_multiway(n, edges, terminals):
    tset = set(terminals)
    others = [v for v in range(n) if v not in tset]

    def separated(removed):
        adj = {v: [] for v in range(n)}
        for u, v in edges:
            if u not in removed and v not in removed:
                adj[u].append(v)
                adj[v].append(u)
        for t in terminals:
            seen = {t}
            stack = [t]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        if y in tset:
                            return False
                        seen.add(y)
                        stack.append(y)
        return True

    for r in range(len(others) + 1):
        for sub in combinations(others, r):
            if separated(set(sub)):
                return r


def test_vertex_cover_identity():
    rng = random.Random(81)
    for _ in range(25):
        n = rng.randint(1, 8)
        edges = _rand_graph(rng, n)
        h, inst = reductions.encode_classic(
            reductions.ClassicInstance("vertex-cover", n, edges))
        assert dpsolve.solve_vd_dp(h, inst).cost == _vc(n, edges)


def test_maxcut_identity():
    rng = random.Random(82)
    for _ in range(25):
        n = rng.randint(1, 8)
        edges = _rand_graph(rng, n)
        sides = rng.sample(range(n), rng.randint(0, n))
        cut = rng.randint(0, len(sides))
        left, right = tuple(sides[:cut]), tuple(sides[cut:])
        c = reductions.ClassicInstance("max-cut", n, edges,
                                       left=left, right=right)
        h, inst = reductions.encode_classic(c)
        want = len(edges) - _annotated_maxcut(n, edges, left, right)
        assert dpsolve.solve_ed_dp(h, inst).cost == want


def test_oct_identity():
    rng = random.Random(83)
    for _ in range(20):
        n = rng.randint(1, 7)
        edges = _rand_graph(rng, n)
        h, inst = reductions.encode_classic(
            reductions.ClassicInstance("oct", n, edges))
        assert dpsolve.solve_vd_dp(h, inst).cost == _oct(n, edges)


def test_st_min_cut_identity():
    rng = random.Random(84)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = _rand_graph(rng, n)
        s, t = rng.sample(range(n), 2)
        c = reductions.ClassicInstance("st-min-cut", n, edges,
                                       source=s, sink=t)
        h, inst = reductions.encode_classic(c)
        assert dpsolve.solve_ed_dp(h, inst).cost == _st_cut(n, edges, s, t)


def test_edge_multiway_identity():
    rng = random.Random(85)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = _rand_graph(rng, n)
        terms = tuple(rng.sample(range(n), rng.randint(1, min(3, n))))
        c = reductions.ClassicInstance("edge-multiway", n, edges,
                                       terminals=terms)
        h, inst = reductions.encode_classic(c)
        assert dpsolve.solve_ed_dp(h, inst).cost == \
            _edge_multiway(n, edges, terms)


def test_vertex_multiway_identity():
    rng = random.Random(86)
    done = 0
    while done < 20:
        n = rng.randint(2, 6)
        edges = _rand_graph(rng, n, 0.4)
        terms = tuple(rng.sample(range(n), rng.randint(1, min(3, n))))
        c = reductions.ClassicInstance("vertex-multiway", n, edges,
                                       terminals=terms)
        try:
            h, inst = reductions.encode_classic(c)
        except ValueError:  # adjacent terminals
            continue
        assert dpsolve.solve_vd_dp(h, inst).cost == \
            _vertex_multiway(n, edges, terms)
        done += 1


def test_vertex_multiway_rejects_adjacent_terminals():
    c = reductions.ClassicInstance("vertex-multiway", 2, [(0, 1)],
                                   terminals=(0, 1))
    with pytest.raises(ValueError):
        reductions.encode_classic(c)


def test_decode_to_vertex_multiway():
    rng = random.Random(87)
    for _ in range(15):
        k = rng.randint(1, 3)
        h = families.independent_reflexive(k)
        n = rng.randint(1, 3)
        inst = Instance(n, _rand_graph(rng, n),
                        [frozenset(rng.sample(range(k), rng.randint(1, k)))
                         for _ in range(n)])
        classic, offset = reductions.decode_to_vertex_multiway(h, inst)
        want = oracle.oracle_vd(h, inst).cost + offset
        assert _vertex_multiway(classic.n, classic.edges,
                                classic.terminals) == want


def test_decode_to_edge_multiway():
    rng = random.Random(88)
    done = 0
    while done < 15:
        k = rng.randint(1, 2)
        h = families.independent_reflexive(k)
        n = rng.randint(1, 3)
        inst = Instance(n, _rand_graph(rng, n),
                        [frozenset(rng.sample(range(k), rng.randint(1, k)))
                         for _ in range(n)])
        classic, offset = reductions.decode_to_edge_multiway(h, inst)
        if classic.n - k > 9:  # keep the labeling brute force tractable
            continue
        done += 1
        want = oracle.oracle_ed(h, inst).cost + offset
        assert _edge_multiway(classic.n, classic.edges,
                              classic.terminals) == want


def test_annotated_maxcut_folding():
    rng = random.Random(89)
    for _ in range(15):
        n = rng.randint(2, 5)
        edges = _rand_graph(rng, n)
        sides = rng.sample(range(n), rng.randint(1, n))
        cut = rng.randint(0, len(sides))
        c = reductions.ClassicInstance("max-cut", n, edges,
                                       left=tuple(sides[:cut]),
                                       right=tuple(sides[cut:]))
        plain, offset = reductions.annotated_maxcut_to_maxcut(c)
        want = _annotated_maxcut(n, edges, c.left, c.right) + offset
        assert _annotated_maxcut(plain.n, plain.edges) == want


def _min_vd_to_colorable(n, edges, q):
    for r in range(n + 1):
        for sub in combinations(range(n), r):
            rest = [v for v in range(n) if v not in sub]
            sub_edges = [(u, v) for u, v in edges
                         if u in rest and v in rest]
            if _colorable(rest, sub_edges, q):
                return r


def _colorable(verts, edges, q):
    for coloring in product(range(q), repeat=len(verts)):
        col = dict(zip(verts, coloring))
        if all(col[u] != col[v] for u, v in edges):
            return True
    return False


def _min_ed_to_colorable(n, edges, q):
    best = None
    for coloring in product(range(q), repeat=n):
        bad = sum(1 for u, v in edges if coloring[u] == coloring[v])
        best = bad if best is None else min(best, bad)
    return best


def test_coloring_vd_pipeline():
    h = families.independent_reflexive(3)
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for g_n, g_edges in ((3, [(0, 1), (1, 2), (0, 2)]), (4, k4)):
        need = _min_vd_to_colorable(g_n, g_edges, 3)
        for k in (0, 1):
            inst, spro = reductions.coloring_vd_to_lhomvd(h, g_n, g_edges, k)
            assert inst.budget == k + spro.meta["alpha"] * len(g_edges)
            cost = dpsolve.solve_vd_dp(h, inst).cost
            assert (cost <= inst.budget) == (need <= k)


def test_coloring_ed_pipeline():
    h = families.irreflexive_kq(2)
    neq = gadgets.synthesize_neq(h, 0, 1)
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    need = _min_ed_to_colorable(5, c5, 2)
    assert need == 1
    for z in (0, 1, 2):
        inst, alpha = reductions.coloring_ed_to_lhomed(h, 5, c5, z, neq)
        assert inst.budget == alpha * len(c5) + z
        cost = dpsolve.solve_ed_dp(h, inst).cost
        assert (cost <= inst.budget) == (need <= z)


def test_pipeline_core_arithmetic():
    core = HubCore(frozenset({0, 1, 2}), 3, 1)
    out = reductions.pipeline_core(core, 10)
    assert out.q == core.q
    assert out.sigma == 3 + 3 * 10 + 1 * 10
    assert out.delta == 2


def test_classic_roundtrip():
    rng = random.Random(90)
    cases = [
        reductions.ClassicInstance("vertex-cover", 4, [(0, 1), (2, 3)],
                                   budget=2),
        reductions.ClassicInstance("max-cut", 3, [(0, 1)], left=(0,),
                                   right=(1,)),
        reductions.ClassicInstance("st-min-cut", 3, [(0, 1), (1, 2)],
                                   source=0, sink=2),
        reductions.ClassicInstance("edge-multiway", 4, [(0, 1), (1, 2)],
                                   terminals=(0, 2)),
        reductions.ClassicInstance("coloring-vd", 3, [(0, 1)], q=3,
                                   budget=1),
    ]
    for c in cases:
        back = reductions.parse_classic(reductions.format_classic(c))
        assert (back.kind, back.n, back.edges, back.terminals, back.source,
                back.sink, back.left, back.right, back.q, back.budget) == \
            (c.kind, c.n, c.edges, c.terminals, c.source, c.sink, c.left,
             c.right, c.q, c.budget)


def test_classic_validation():
    with pytest.raises(ValueError):
        reductions.ClassicInstance("nope", 1, [])
    with pytest.raises(ValueError):
        reductions.ClassicInstance("vertex-cover", 2, [(0, 0)])
    with pytest.raises(ValueError):
        reductions.ClassicInstance("st-min-cut", 2, [], source=0, sink=0)
    with pytest.raises(ValueError):
        reductions.ClassicInstance("edge-multiway", 2, [])
    with pytest.raises(ValueError):
        reductions.ClassicInstance("coloring-vd", 2, [])


@pytest.mark.parametrize("text", [
    "p vertex-cover 2 1 9\ne 1 2\n",    # extra token on the header
    "p vertex-cover 2 1\ne 1 2 5\n",    # extra token on an edge
    "p vertex-cover 2 1\ne 1 2\nk 1 2\n",  # extra token on the budget
    "p vertex-cover 2 1\ne 1\n",        # missing token on an edge
    # a second line of a value read once
    "p st-min-cut 3 1\ne 1 2\ns 1\nt 2\nt 3\n",
    "p st-min-cut 3 1\ne 1 2\ns 1\ns 3\nt 2\n",
    "p coloring-vd 2 1\ne 1 2\nq 3\nq 3\n",
    "p vertex-cover 2 1\ne 1 2\nk 1\nk 2\n",
    # a line the kind does not read
    "p vertex-cover 3 1\ne 1 2\nt 2\n",
    "p vertex-cover 3 1\ne 1 2\ns 1\n",
    "p vertex-cover 3 1\ne 1 2\nl 3\n",
    "p vertex-cover 3 1\ne 1 2\nr 3\n",
    "p vertex-cover 3 1\ne 1 2\nq 4\n",
    "p max-cut 3 1\ne 1 2\nt 3\n",
    "p st-min-cut 3 1\ne 1 2\ns 1\nt 2\nl 3\n",
    "p edge-multiway 3 1\ne 1 2\nt 1\ns 2\n",
    "p coloring-ed 3 1\ne 1 2\nq 3\nr 1\n",
    "p vertex-cover -1 0\n",  # a negative vertex count
])
def test_classic_parse_errors(text):
    with pytest.raises(ParseError):
        reductions.parse_classic(text)

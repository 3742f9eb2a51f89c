import heapq
import random
import time
from itertools import permutations, product
from math import prod

import networkx as nx
import pytest

from lhomdel import _kernels, analysis, gadgets, graphs
from lhomdel.graphs import max_incomparable

import families

X = _kernels.DELETED


def test_splitter_base_cost():
    h = families.independent_reflexive(3)
    g = gadgets.build_splitter(h, {0, 1, 2}, 0)
    assert g.meta["alpha"] == 1
    assert gadgets.base_cost(gadgets.cost_table(h, g, "vd")) == 1


def test_matcher_on_three_independent():
    h = families.independent_reflexive(3)
    g = gadgets.build_matcher(h, 0, 1)
    assert g.meta["alpha"] == 2
    t = g.tables["vd"]
    assert t[(0, 0)] > 2 and t[(1, 1)] >= 2
    assert all(t[k] == 2 for k in product((0, 1, X), repeat=2)
               if k not in ((0, 0), (1, 1)))


def test_matcher_on_reflexive_c4():
    h = families.reflexive_cycle(4)
    g = gadgets.build_matcher(h, 0, 2)
    assert g.meta["alpha"] == 0


def test_translator_cases_and_costs():
    rng = random.Random(71)
    found = {}
    while len(found) < 4:
        h = families.random_target(rng, rng.randint(4, 6), loop_p=1.0)
        pairs = [tuple(sorted(p)) for p in gadgets.incomparable_pairs(h)]
        for a, b in pairs:
            if h.has_edge(a, b):
                continue
            for vp, wp in pairs:
                try:
                    g, orient = gadgets.build_translator(h, vp, wp, a, b)
                except gadgets.GadgetError:
                    continue
                found.setdefault(g.meta["case"], g.meta["alpha"])
    assert found == {"a": 0, "b": 1, "c": 2, "d": 1}


def test_translator_preconditions():
    with pytest.raises(gadgets.GadgetError):  # irreflexive vertex present
        gadgets.build_translator(families.loopless_k1(), 0, 0, 0, 0)
    h = families.reflexive_clique(3)
    with pytest.raises(gadgets.GadgetError):  # adjacent destination
        gadgets.build_translator(h, 0, 1, 0, 1)


def test_pair_context_is_two_mask_operations():
    # vertices 2..199 form a reflexive clique, plus the edges 0-199 and
    # 1-198; a search over vertex pairs took seconds here
    n = 200
    h = graphs.TargetGraph.from_edges(
        n, [(u, v) for u in range(2, n) for v in range(u, n)]
        + [(0, 199), (1, 198)])
    start = time.perf_counter()
    assert gadgets._pair_context(h, 0, 1, None, None) == (199, 198)
    assert time.perf_counter() - start < 0.01
    # the first pair in (v, w) order of the search it replaces
    rng = random.Random(5)
    for _ in range(300):
        h = families.random_target(rng, rng.randint(2, 7))
        vp, wp = rng.sample(range(h.n), 2)
        want = next(((v, w) for v in range(h.n) for w in range(h.n)
                     if h.has_edge(v, vp) and not h.has_edge(w, vp)
                     and h.has_edge(w, wp) and not h.has_edge(v, wp)), None)
        if want is None:
            with pytest.raises(gadgets.GadgetError):
                gadgets._pair_context(h, vp, wp, None, None)
        else:
            assert gadgets._pair_context(h, vp, wp, None, None) == want


def test_prohibitor_contract():
    h = families.independent_reflexive(3)
    g = gadgets.build_prohibitor(h, {0, 1, 2}, 1)
    a = g.meta["alpha"]
    t = g.tables["vd"]
    for x, y in product((0, 1, 2, X), repeat=2):
        if (x, y) == (1, 1):
            assert t[(x, y)] > a
        else:
            assert t[(x, y)] == a


def test_prohibitor_compositional_table_matches_enumeration():
    # C4 prohibitors are small enough for a full enumeration cross-check
    h = families.reflexive_cycle(4)
    g = gadgets.build_prohibitor(h, {0, 2}, 0)
    plain = gadgets.Gadget(g.n, g.edges, g.lists, g.portals)
    assert gadgets.enumerate_cost_table(h, plain, "vd") == g.tables["vd"]


def test_s_prohibitor_contract():
    h = families.independent_reflexive(3)
    g = gadgets.build_s_prohibitor(h, {0, 1, 2})
    a = g.meta["alpha"]
    assert a == 18
    t = g.tables["vd"]
    for x, y in product((0, 1, 2, X), repeat=2):
        if x == y and x != X:
            assert t[(x, y)] > a
        else:
            assert t[(x, y)] == a


def test_prohibitor_on_reflexive_c4():
    h = families.reflexive_cycle(4)
    g = gadgets.build_prohibitor(h, {0, 2}, 0)
    assert g.meta["alpha"] == 2


def test_add_cost_pendants():
    h = families.independent_reflexive(3)
    g = gadgets.path_gadget([frozenset({0, 1}), frozenset({0, 1})])
    t0 = dict(gadgets.cost_table(h, g, "ed"))
    g2 = gadgets.add_cost_pendants(h, g, 0, 0, 2)
    t2 = g2.tables["ed"]
    for key, c in t0.items():
        assert t2[key] == c + (2 if key[0] == 0 else 0)
    plain = gadgets.Gadget(g2.n, g2.edges, g2.lists, g2.portals)
    assert gadgets.enumerate_cost_table(h, plain, "ed") == t2


def test_normalize_and_compose_moves():
    h = families.independent_reflexive(3)
    m1 = gadgets.normalize_move(h, gadgets.adjacent_pair_move(h, {0, 1},
                                                             {1, 2}))
    m2 = gadgets.normalize_move(h, gadgets.adjacent_pair_move(h, {1, 2},
                                                             {0, 2}))
    t = gadgets.cost_table(h, m1, "ed")
    lin = sorted(m1.lists[m1.portals[0]])
    lout = sorted(m1.lists[m1.portals[1]])
    mins = {u: min(t[(u, v)] for v in lout) for u in lin}
    assert len(set(mins.values())) == 1  # row minima equalized
    g = gadgets.serial_glue(h, m1, m2, "ed")
    rep = gadgets.move_report(h, g)
    assert all(len(rep.jmap[u]) == 1 for u in rep.jmap)
    vals = set().union(*rep.jmap.values())
    assert vals <= {0, 2} and len(vals) == 2
    plain = gadgets.Gadget(g.n, g.edges, g.lists, g.portals)
    assert gadgets.enumerate_cost_table(h, plain, "ed") == g.tables["ed"]


def test_move_between_pairs_forced_bijection():
    h = families.independent_reflexive(3)
    for p1, p2 in (({0, 1}, {1, 2}), ({0, 1}, {0, 1}), ({0, 2}, {1, 2})):
        g = gadgets.move_between_pairs(h, frozenset(p1), frozenset(p2))
        rep = gadgets.move_report(h, g)
        imgs = [rep.forced[u] for u in sorted(p1)]
        assert len(set(imgs)) == 2 and set(imgs) <= p2


def _eliminated(h, g, mode):
    """g's cost table by bucket elimination, with no bound on its size:
    the variables are the portals, in order, then the other vertices,
    eliminated in vertex order rather than enumerate_cost_table's
    min-fill order."""
    order = list(g.portals) + [v for v in range(g.n) if v not in g.portals]
    pos = {v: i for i, v in enumerate(order)}
    states = [tuple(sorted(g.lists[v])) + ((X,) if mode == "vd" else ())
              for v in order]
    npr = len(g.portals)
    flat = _kernels.scan_table(h.nbhd, states,
                               [(pos[u], pos[v]) for u, v in g.edges], npr,
                               mode == "vd", range(npr, g.n))
    return {key: int(c) for key, c in zip(product(*states[:npr]), flat)}


def _reflexive_matcher(k):
    # a reflexive target has no irreflexive vertex, so the matcher is
    # translator + (a,b)-matcher + reversed translator
    h = families.reflexive_cycle(k)
    return h, gadgets.build_matcher(h, 0, 2), "vd"


def _forced_pair_move():
    h = families.independent_reflexive(3)
    move = gadgets.path_gadget([{0, 1}, {0, 1}, {0, 2}])
    out = gadgets.force_from_allow(h, move)
    assert out is not move  # the move is doubled and padded, not kept
    return h, out, "ed"


def test_pair_move_reports_each_gadget_once(monkeypatch):
    # the path does not force the bijection, so _ensure_forced hands its
    # report on to force_from_allow's body, which reports the doubled move
    reported = []
    report = gadgets.move_report
    monkeypatch.setattr(gadgets, "move_report",
                        lambda h, g: reported.append(g) or report(h, g))
    h = families.independent_reflexive(3)
    g = gadgets.adjacent_pair_move(h, {0, 1}, {0, 2})
    assert len(reported) == 2 and reported[0] is not g and reported[1] is g

def test_force_from_allow_detours_a_portal_edge():
    # the move is one edge between its portals; it forces 0->0 and
    # allows 1->2, and the portal edge becomes a two-vertex detour
    h = families.independent_reflexive(3)
    g = gadgets.force_from_allow(h, gadgets.path_gadget([{0, 1}, {0, 2}]))
    assert g.n == 8
    assert gadgets.move_report(h, g).forced == {0: 0, 1: 2}
    assert g.tables["ed"] == _eliminated(h, g, "ed")


def _three_way_s_prohibitor():
    # 52 vertices: far above ENUM_BOUND, so `gadget --verify` cannot check
    # this table; elimination on the series-parallel gadget still can
    h = families.independent_reflexive(3)
    return h, gadgets.build_s_prohibitor(h, {0, 1, 2}), "vd"


def _junction_deleted_path():
    # 0, 1, 2 pairwise non-adjacent: keeping both ends forces the junction
    # out, so the minimum at (0, 2) is the one that charges its deletion
    h = families.independent_reflexive(3)
    parts = [gadgets.path_gadget(lists) for lists in ([{0}, {1}], [{1}, {2}])]
    g = gadgets.serial_glue(h, *parts, "vd")
    assert g.tables["vd"][(0, 2)] == 1
    return h, g, "vd"


@pytest.mark.parametrize("build", [
    lambda: _reflexive_matcher(4),
    lambda: _reflexive_matcher(5),
    _forced_pair_move,
    _three_way_s_prohibitor,
    _junction_deleted_path,
], ids=["matcher-c4", "matcher-c5", "force-from-allow", "s-prohibitor",
        "vd-junction-deleted"])
def test_glued_tables_match_elimination(build):
    h, g, mode = build()
    assert mode in g.tables  # composed while gluing, not eliminated
    assert g.tables[mode] == _eliminated(h, g, mode)


def test_path_tables_are_the_elimination():
    # cost_table composes a path gadget's table from its edges' tables;
    # the engine's table over the same gadget has the same keys and costs
    rng = random.Random(44)
    for _ in range(2000):
        h = graphs.random_target(rng, rng.randint(2, 10))
        lists = [rng.sample(range(h.n), rng.randint(1, min(4, h.n)))
                 for _ in range(rng.randint(2, 8))]
        for mode in ("vd", "ed"):
            g = gadgets.path_gadget(lists)
            assert gadgets.cost_table(h, g, mode) == \
                gadgets.enumerate_cost_table(h, g, mode), (h.nbhd, lists)


def _path_fold_reference(h, gadget, mode):
    """A path gadget's table as the left fold of serial_table over one
    (value, value)-keyed dict per edge."""
    nb, bad = h.nbhd, _kernels.INF if mode == "vd" else 1
    states = [sorted(lst) + [X] if mode == "vd" else sorted(lst)
              for lst in gadget.lists]

    def edge(lu, lv):
        return {(a, b): 0 if a == X or b == X or nb[a] >> b & 1
                else bad for a in lu for b in lv}

    t = edge(states[0], states[1])
    for i in range(1, gadget.n - 1):
        t = gadgets.serial_table(t, edge(states[i], states[i + 1]),
                                 states[i], mode)
    return t


def test_path_table_is_the_fold_of_serial_table():
    # the one-kernel fold against one serial_table per edge; sparse
    # targets give vd edge rows that are INF on every value but DELETED
    rng = random.Random(46)
    isolated = 0
    for _ in range(1500):
        h = graphs.random_target(rng, rng.randint(2, 9), rng.random(),
                                 rng.random())
        lists = [rng.sample(range(h.n), rng.randint(1, min(4, h.n)))
                 for _ in range(rng.randint(2, 9))]
        g = gadgets.path_gadget(lists)
        isolated += any(not h.nbhd[a] & sum(1 << b for b in nxt)
                        for lst, nxt in zip(lists, lists[1:]) for a in lst)
        for mode in ("vd", "ed"):
            assert gadgets._path_table(h, g, mode) == \
                _path_fold_reference(h, g, mode), (h.nbhd, lists, mode)
    assert isolated > 100


def test_min_plus_is_the_least_sum_over_the_junction():
    # rows and columns holding INF, whole INF rows and columns among them
    rng = random.Random(47)
    inf = _kernels.INF
    costs = (0, 1, 2, 3, inf)
    for _ in range(500):
        k = rng.randint(1, 5)

        def cost_list():
            if rng.random() < 0.2:
                return [inf] * k
            return [rng.choice(costs) for _ in range(k)]

        rows = [cost_list() for _ in range(rng.randint(1, 4))]
        cols = [cost_list() for _ in range(rng.randint(1, 4))]
        want = [[min(inf, *(r[j] + c[j] for j in range(k))) for c in cols]
                for r in rows]
        assert gadgets._min_plus(rows, cols) == want


def _serial_reference(t1, t2, junction, mode):
    """serial_table as a triple loop over both portals and the junction."""
    out = {}
    for a in sorted({k[0] for k in t1}):
        for b in sorted({k[1] for k in t2}):
            best = _kernels.INF
            for c in junction:
                cost = t1[(a, c)] + t2[(c, b)]
                if mode == "vd" and c == X:
                    cost += 1
                best = min(best, cost)
            out[(a, b)] = min(best, _kernels.INF)
    return out


def test_serial_table_is_the_triple_loop():
    # tables holding INF, keys inserted in random order: the same items
    # in the same order
    rng = random.Random(45)
    costs = (0, 1, 2, 3, _kernels.INF)
    for _ in range(500):
        mode = rng.choice(("vd", "ed"))
        ends = [rng.sample(range(6), rng.randint(1, 4)) for _ in range(3)]
        if mode == "vd":
            ends = [vals + [X] for vals in ends]
        left, junction, right = ends
        t1 = {(a, c): rng.choice(costs) for a in rng.sample(left, len(left))
              for c in junction}
        t2 = {(c, b): rng.choice(costs) for c in junction
              for b in rng.sample(right, len(right))}
        got = gadgets.serial_table(t1, t2, junction, mode)
        assert list(got.items()) == list(
            _serial_reference(t1, t2, junction, mode).items())


def _no_engine(*args, **kwargs):
    raise AssertionError("construction ran the elimination engine")


def test_construction_runs_no_elimination(monkeypatch):
    # every table these builders make is a path's, composed from its
    # edges, or a glue of such tables, NEQ's mirror-doubled path included;
    # an AssertionError is not a GadgetError, so no builder's retry loop
    # can swallow an engine call
    monkeypatch.setattr(_kernels, "eliminate", _no_engine)
    mirrored = 0
    targets = [(name, h) for name, h, vd, _ in families.DICHOTOMY_CORPUS
               if vd == "np-hard" and h.n > 1]
    targets += [("windowed3", families.windowed_family(3)),
                ("crossing2", families.crossing_family(2)),
                ("refl-cycle6", families.reflexive_cycle(6))]
    moves = {"windowed3": ((0, 1), (1, 2)), "crossing2": ((1, 5), (8, 9))}
    for name, h in targets:
        s = sorted(max_incomparable(h)[1])
        pairs = [tuple(sorted(p)) for p in gadgets.incomparable_pairs(h)]
        gadgets.build_splitter(h, s, s[0])
        gadgets.build_matcher(h, *pairs[0])
        gadgets.build_prohibitor(h, s, s[0])
        gadgets.build_s_prohibitor(h, s)
        gadgets.move_between_pairs(h, *moves.get(name, (pairs[0], pairs[-1])))
        if h.is_reflexive():
            dest = next(q for q in pairs if not h.has_edge(*q))
            gadgets.build_translator(h, *pairs[0], *dest)
        ob = analysis.find_obstruction(h)
        g = ob and gadgets.synthesize_neq(h, *ob.vertices[:2])
        mirrored += bool(g) and not gadgets._is_path(g)
    assert mirrored >= 3  # reflexive C5 and C6, three independent


def test_check_costs_relations():
    t = {(0, 0): 3, (0, 1): 2, (1, 0): 2, (1, 1): 2}
    cells = list(t)
    gadgets._check_costs(t, cells, 2, "g", above={(0, 0)},
                         at_least={(1, 1)})
    with pytest.raises(gadgets.GadgetError):  # (0, 0) is not alpha
        gadgets._check_costs(t, cells, 2, "g")
    with pytest.raises(gadgets.GadgetError):  # (1, 1) is not above alpha
        gadgets._check_costs(t, cells, 2, "g", above={(0, 0), (1, 1)})
    with pytest.raises(gadgets.GadgetError):  # (0, 1) is below alpha
        gadgets._check_costs(t, cells, 3, "g", above=(),
                             at_least={(0, 0), (0, 1), (1, 0), (1, 1)})


def test_large_move_table_matches_composition():
    # 17 vertices and 7.9e6 assignments: far beyond a per-assignment scan
    # in a unit test, while the compositional table is exact
    h = graphs.random_target(random.Random("target_analysis:10:1"), 10)
    g = gadgets.move_between_pairs(h, {0, 1}, {8, 9})
    assert g.n == 17
    assert prod(len(lst) for lst in g.lists) == 7_864_320
    plain = gadgets.Gadget(g.n, g.edges, g.lists, g.portals)
    assert gadgets.enumerate_cost_table(h, plain, "ed") == g.tables["ed"]


def test_indicator():
    h = families.independent_reflexive(3)
    g, relation = gadgets.build_indicator(h, {0, 1, 2}, 0, 1)
    per = {}
    for key in relation:
        per.setdefault(key[0], set()).add(key[1:])
    assert set(per) == {0, 1, 2}
    rows = list(per.values())
    for i, r in enumerate(rows):
        assert r
        for r2 in rows[i + 1:]:
            assert not r & r2
    k = min(g.tables["ed"].values())
    for key, c in g.tables["ed"].items():
        assert (c == k) == (key in relation)


def test_indicator_relation_is_the_product_of_its_submoves():
    # the relation is read off the joint table's minimum entries; the
    # reference rebuilds each normalized submove as build_indicator does
    # and takes, per input, the product of its least-cost outputs
    rng = random.Random(47)
    built = 0
    while built < 30:
        h = families.random_target(rng, rng.randint(3, 7),
                                   loop_p=rng.random(), edge_p=rng.random())
        pairs = gadgets.incomparable_pairs(h)
        if not pairs:
            continue
        s = sorted(max_incomparable(h)[1])[:3]
        a, b = sorted(rng.choice(pairs))
        try:
            _, relation = gadgets.build_indicator(h, s, a, b)
        except gadgets.GadgetError:
            continue
        aux, jmaps = gadgets._aux_context(h), []
        for x, y in permutations(s, 2):
            chain = gadgets._move_chain(h, aux, {x, y}, {a, b})
            if chain[0].lists[chain[0].portals[0]] != frozenset(s):
                chain[0] = gadgets.relax_input_list(h, chain[0], s)
            m = gadgets.normalize_move(h, gadgets._compose_chain(h, chain))
            jmaps.append(gadgets.move_report(h, m).jmap)
        assert relation == {
            (u,) + outs for u in s
            for outs in product((a, b), repeat=len(jmaps))
            if all(o in jmap[u] for jmap, o in zip(jmaps, outs))}
        built += 1


def test_neq_synthesis_worked_example():
    h = families.independent_reflexive(3)
    g = gadgets.synthesize_neq(h, 0, 1)
    assert g is not None
    t = gadgets.cost_table(h, g, "ed")
    assert t[(0, 1)] == t[(1, 0)] == 3
    assert t[(0, 0)] == t[(1, 1)] == 4
    assert gadgets.verify_realizes(h, g, {(0, 1), (1, 0)})


def test_neq_on_irreflexive_edge():
    h = families.irreflexive_kq(2)
    g = gadgets.synthesize_neq(h, 0, 1)
    t = gadgets.cost_table(h, g, "ed")
    assert t[(0, 1)] == t[(1, 0)] == 0
    assert t[(0, 0)] == t[(1, 1)] == 1


def test_aux_variants():
    # three independent reflexive vertices: every pair is in both
    # variants, and P is a triangle
    h = families.independent_reflexive(3)
    for variant in ("star", "good"):
        assert gadgets.pair_graph(h, variant) == [[1, 2], [1, 5], [2, 5]]
    # irreflexive a = 0 and b = 1 with reflexive private neighbors r1 = 2
    # and r2 = 3: {a, b} is bad, so neither variant keeps it; star keeps
    # only {r1, r2} (key 2·4 + 3), good also {a, r2} and {b, r1}
    h = graphs.TargetGraph.from_edges(4, [(0, 2), (1, 3), (2, 2), (3, 3)])
    assert gadgets.incomparable_pairs(h) == [
        frozenset(p) for p in ((0, 1), (0, 3), (1, 2), (2, 3))]
    assert gadgets.pair_graph(h, "star") == [[], [], [11], [11]]
    assert gadgets.pair_graph(h, "good") == [[3], [6], [6, 11], [3, 11]]


def _reference_aux(h, variant):
    """Aux-variant materialised as an adjacency dict {pair: [intersecting
    pairs]}, keys and lists in incomparable_pairs order, with the good
    test read per private neighbor: the form the pair-graph search
    replaced."""
    def keep(a, b):
        if variant == "star":
            return h.has_loop(a) and h.has_loop(b)
        return (h.has_loop(a) or h.has_loop(b) or h.has_edge(a, b)
                or not all(h.has_loop(x)
                           for x in graphs.bits(h.nbhd[a] ^ h.nbhd[b])))
    return _line_graph([p for p in gadgets.incomparable_pairs(h)
                        if keep(*sorted(p))])


def _line_graph(pairs):
    """{pair: [the other pairs it meets]}, in the order of pairs."""
    return {p: [q for q in pairs if q != p and p & q] for p in pairs}


def _reference_path(aux, s, t):
    """The two-ended BFS over the materialised adjacency dict."""
    if s not in aux or t not in aux:
        return None
    if s == t:
        return [s]
    pred, succ = {s: None}, {t: None}
    fringe = [[s], [t]]
    while fringe[0] and fringe[1]:
        side = 0 if len(fringe[0]) <= len(fringe[1]) else 1
        tree, other = (pred, succ) if side == 0 else (succ, pred)
        level, fringe[side] = fringe[side], []
        for v in level:
            for w in aux[v]:
                if w not in tree:
                    tree[w] = v
                    fringe[side].append(w)
                if w in other:
                    return _tree_path(pred, w)[::-1] + _tree_path(succ, w)[1:]
    return None


def _tree_path(tree, w):
    """w, its parent, and so on up to the root of a BFS tree."""
    path = []
    while w is not None:
        path.append(w)
        w = tree[w]
    return path


def test_aux_path_matches_the_materialised_search():
    rng = random.Random(31)
    checked = outside = 0
    for _ in range(150):
        h = families.random_target(rng, rng.randint(2, 10))
        for variant in ("star", "good"):
            aux = _reference_aux(h, variant)
            at = gadgets.pair_graph(h, variant)
            pairs = list(aux)
            for s, t in product(pairs, repeat=2):
                want = _reference_path(aux, s, t)
                assert gadgets._aux_path(at, s, t) == want
                checked += 1
            # an incomparable pair the variant drops, and one out of range
            missing = [p for p in gadgets.incomparable_pairs(h)
                       if p not in aux][:1] + [frozenset((h.n, h.n + 1))]
            outside += len(missing) > 1
            for q in missing:
                assert gadgets._aux_path(at, q, q) is None
                for p in pairs[:1]:
                    assert gadgets._aux_path(at, p, q) is None
                    assert gadgets._aux_path(at, q, p) is None
    assert checked > 50000 and outside > 100
    # P drawn as a sparse graph on up to 20 vertices, where shortest paths
    # in Aux run to 10 pairs
    longest = 0
    for _ in range(100):
        n = rng.randint(3, 20)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.12]
        at = [[] for _ in range(n)]
        for a, b in edges:
            at[a].append(a * n + b)
            at[b].append(a * n + b)
        aux = _line_graph([frozenset(e) for e in edges])
        for s, t in product(aux, repeat=2):
            want = _reference_path(aux, s, t)
            assert gadgets._aux_path(at, s, t) == want
            longest = max(longest, len(want or ()))
    assert longest >= 10


def test_aux_path_matches_networkx():
    # the reference graph is Aux as an nx.Graph, with its pairs added in
    # incomparable_pairs order, so its adjacency order is that order too;
    # with this seed a one-way BFS picks another shortest path for 4 of
    # the (s, t)
    rng = random.Random(63)
    checked = 0
    for _ in range(300):
        h = families.random_target(rng, rng.randint(2, 10))
        for variant in ("star", "good"):
            at = gadgets.pair_graph(h, variant)
            keys = sorted(set().union(*at))
            pairs = [frozenset(divmod(k, h.n)) for k in keys]
            ref = nx.Graph()
            ref.add_nodes_from(pairs)
            for i, p in enumerate(pairs):
                for q in pairs[i + 1:]:
                    if p & q:
                        ref.add_edge(p, q)
            # Aux is P's line graph: a pair's neighbors, in order, are
            # the merged incidence lists of its two ends
            for k, p in zip(keys, pairs):
                a, b = divmod(k, h.n)
                assert [frozenset(divmod(x, h.n))
                        for x in heapq.merge(at[a], at[b]) if x != k] \
                    == list(ref.adj[p])
            for s, t in product(pairs, repeat=2):
                try:
                    want = nx.shortest_path(ref, s, t)
                except nx.NetworkXNoPath:
                    want = None
                assert gadgets._aux_path(at, s, t) == want
                checked += 1
    assert checked > 100000


def parse_gadget(text: str, h) -> gadgets.Gadget:
    """The inverse of gadgets.format_gadget: an instance file plus one
    `portal` line."""
    lines = text.splitlines()
    portal_lines = [ln for ln in lines if ln.strip().startswith("portal")]
    if len(portal_lines) != 1:
        raise graphs.ParseError("gadget needs exactly one portal line")
    rest = "\n".join(ln for ln in lines if not ln.strip().startswith("portal"))
    inst = graphs.parse_instance(rest, h)
    portals = tuple(int(t) - 1 for t in portal_lines[0].split()[1:])
    return gadgets.Gadget(inst.n, tuple(inst.edges), tuple(inst.lists),
                          portals)


def test_gadget_roundtrip():
    h = families.independent_reflexive(3)
    g = gadgets.build_splitter(h, {0, 1, 2}, 0)
    back = parse_gadget(gadgets.format_gadget(g), h)
    assert (back.n, tuple(sorted(back.edges)), back.lists, back.portals) == \
        (g.n, tuple(sorted(tuple(sorted(e)) for e in g.edges)), g.lists,
         g.portals)


def test_glue_rejects_a_parallel_edge_stored_either_way():
    h = families.independent_reflexive(3)
    lists = (frozenset({0, 1}), frozenset({1, 2}))
    forward = gadgets.Gadget(2, ((0, 1),), lists, (0, 1))
    backward = gadgets.Gadget(2, ((1, 0),), lists, (0, 1))
    for g1, g2 in ((forward, backward), (backward, forward),
                   (backward, backward), (forward, forward)):
        for mode in ("vd", "ed"):
            with pytest.raises(gadgets.GadgetError,
                               match="gluing would create a parallel edge"):
                gadgets.parallel_glue(h, g1, g2, mode)


def test_format_gadget_normalises_reversed_edges():
    lists = (frozenset({0}), frozenset({0, 1}), frozenset({2}),
             frozenset({1, 2}))
    want = ("p lhom 4 3\ne 1 2\ne 1 4\ne 3 4\n"
            "l 1 1 1\nl 2 2 1 2\nl 3 1 3\nl 4 2 2 3\nportal 1 4\n")
    for edges in (((0, 1), (0, 3), (2, 3)), ((3, 2), (1, 0), (3, 0))):
        g = gadgets.Gadget(4, edges, lists, (0, 3))
        assert gadgets.format_gadget(g) == want


def test_glue_rejects_mismatched_lists():
    h = families.independent_reflexive(3)
    g1 = gadgets.path_gadget([frozenset({0}), frozenset({1})])
    g2 = gadgets.path_gadget([frozenset({2}), frozenset({0})])
    for mode in ("vd", "ed"):
        with pytest.raises(gadgets.GadgetError):
            gadgets.serial_glue(h, g1, g2, mode)


def test_relax_input_list():
    h = families.independent_reflexive(3)
    g = gadgets.move_between_pairs(h, frozenset({0, 1}), frozenset({0, 1}))
    wide = gadgets.relax_input_list(h, g, {0, 1, 2})
    assert wide.lists[wide.portals[0]] == frozenset({0, 1, 2})
    rep0 = gadgets.move_report(h, g)
    rep1 = gadgets.move_report(h, wide)
    for u in (0, 1):
        assert rep0.jmap[u] == rep1.jmap[u]

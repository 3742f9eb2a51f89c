import random
from itertools import product
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
    g = gadgets.compose_moves(h, m1, m2)
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
    for part in parts:
        gadgets.cost_table(h, part, "vd")
    g = gadgets.serial_glue(*parts)
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


def test_neq_synthesis_worked_example():
    h = families.independent_reflexive(3)
    g = gadgets.synthesize_neq(h, 0, 1)
    assert g is not None
    t = gadgets.cost_table(h, g, "ed")
    assert t[(0, 1)] == t[(1, 0)] == 3
    assert t[(0, 0)] == t[(1, 1)] == 4
    assert gadgets.verify_realizes(h, g, {(0, 1), (1, 0)}, omega=1)


def test_neq_on_irreflexive_edge():
    h = families.irreflexive_kq(2)
    g = gadgets.synthesize_neq(h, 0, 1)
    t = gadgets.cost_table(h, g, "ed")
    assert t[(0, 1)] == t[(1, 0)] == 0
    assert t[(0, 0)] == t[(1, 1)] == 1


def test_aux_variants():
    h = families.independent_reflexive(3)
    full = gadgets.build_aux(h, "full")
    assert set(full) == set(gadgets.incomparable_pairs(h))
    assert nx.is_connected(nx.Graph(gadgets.build_aux(h, "star")))
    with pytest.raises(ValueError):
        gadgets.build_aux(h, "bogus")


def test_aux_path_matches_networkx():
    # the reference graph is built as an nx.Graph over the pairs in
    # incomparable_pairs order, so its adjacency order is that order too;
    # with this seed a one-way BFS picks another shortest path on 8 pairs
    rng = random.Random(63)
    checked = 0
    for _ in range(300):
        h = families.random_target(rng, rng.randint(2, 10))
        order = gadgets.incomparable_pairs(h)
        for variant in ("full", "star", "good"):
            aux = gadgets.build_aux(h, variant)
            pairs = list(aux)
            assert pairs == [p for p in order if p in aux]
            ref = nx.Graph()
            ref.add_nodes_from(pairs)
            for i, p in enumerate(pairs):
                for q in pairs[i + 1:]:
                    if p & q:
                        ref.add_edge(p, q)
            assert all(aux[p] == list(ref.adj[p]) for p in pairs)
            for s, t in product(pairs, repeat=2):
                try:
                    want = nx.shortest_path(ref, s, t)
                except nx.NetworkXNoPath:
                    want = None
                assert gadgets._aux_path(aux, s, t) == want
                checked += 1
            missing = frozenset((h.n, h.n + 1))
            for p in pairs[:1]:
                assert gadgets._aux_path(aux, p, missing) is None
                assert gadgets._aux_path(aux, missing, p) is None
    assert checked > 200000


def test_gadget_roundtrip():
    h = families.independent_reflexive(3)
    g = gadgets.build_splitter(h, {0, 1, 2}, 0)
    back = gadgets.parse_gadget(gadgets.format_gadget(g), h)
    assert (back.n, tuple(sorted(back.edges)), back.lists, back.portals) == \
        (g.n, tuple(sorted(tuple(sorted(e)) for e in g.edges)), g.lists,
         g.portals)


def test_glue_rejects_mismatched_lists():
    g1 = gadgets.path_gadget([frozenset({0}), frozenset({1})])
    g2 = gadgets.path_gadget([frozenset({2}), frozenset({0})])
    with pytest.raises(gadgets.GadgetError):
        gadgets.serial_glue(g1, g2)


def test_relax_input_list():
    h = families.independent_reflexive(3)
    g = gadgets.move_between_pairs(h, frozenset({0, 1}), frozenset({0, 1}))
    wide = gadgets.relax_input_list(h, g, {0, 1, 2})
    assert wide.lists[wide.portals[0]] == frozenset({0, 1, 2})
    rep0 = gadgets.move_report(h, g)
    rep1 = gadgets.move_report(h, wide)
    for u in (0, 1):
        assert rep0.jmap[u] == rep1.jmap[u]

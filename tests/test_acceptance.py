"""End-to-end acceptance checks, one test per criterion."""

import random
from itertools import combinations

import networkx as nx

from lhomdel import (_kernels, analysis, dpsolve, gadgets, oracle, polysolve,
                     reductions)
from lhomdel.graphs import Instance, TargetGraph, bits, max_incomparable

import families
import test_reductions as rb  # classic brute-force oracles


def _random_small_lists_instance(rng, h, n, cap=3):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.4]
    lists = [frozenset(rng.sample(range(h.n),
                                  rng.randint(1, min(cap, h.n))))
             for _ in range(n)]
    return Instance(n, edges, lists)


def test_criterion_01_dichotomy_corpus():
    for name, h, vd, ed in families.DICHOTOMY_CORPUS:
        assert analysis.classify_vd(h)[0] == vd, name
        assert analysis.classify_ed(h)[0] == ed, name


def test_criterion_02_invariant_families():
    for q in range(1, 9):
        assert max_incomparable(families.irreflexive_kq(q))[0] == q
    for k in (3, 4, 5):
        h = families.windowed_family(k)
        assert max_incomparable(h)[0] == k
        assert analysis.i_bullet(h)[0] == 3
        h = families.crossing_family(k)
        assert max_incomparable(h)[0] == k
        assert analysis.i_bullet(h)[0] == 2


def test_criterion_03_solvers_match_oracle():
    rng = random.Random(103)
    vd_poly = ed_poly = 0
    for _ in range(500):
        h = families.random_target(rng, rng.randint(1, 6))
        inst = _random_small_lists_instance(rng, h, rng.randint(1, 10))
        want = oracle.oracle_vd(h, inst).cost
        assert dpsolve.solve_vd_dp(h, inst).cost == want
        assert dpsolve.solve_vd_auto(h, inst).cost == want
        if analysis.classify_vd(h)[0] == "poly":
            assert polysolve.solve_vd_poly(h, inst).cost == want
            vd_poly += 1
        want = oracle.oracle_ed(h, inst).cost
        assert dpsolve.solve_ed_dp(h, inst).cost == want
        assert dpsolve.solve_ed_auto(h, inst).cost == want
        if analysis.classify_ed(h)[0] == "poly":
            assert polysolve.solve_ed_poly(h, inst).cost == want
            ed_poly += 1
    assert vd_poly > 10 and ed_poly > 10  # both poly paths were exercised


def test_criterion_04_vd_dichotomy_is_the_invariant_threshold():
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        loops = [(v, v) for v in range(n)]
        for mask in range(1 << len(pairs)):
            edges = loops + [pairs[i] for i in range(len(pairs))
                             if mask >> i & 1]
            h = TargetGraph.from_edges(n, edges)
            poly = analysis.classify_vd(h)[0] == "poly"
            assert poly == (max_incomparable(h)[0] <= 2), edges


def _random_strong_split(rng):
    """Reflexive clique plus an irreflexive independent set with random
    edges across."""
    b = rng.randint(1, 4)
    c = rng.randint(max(0, 2 - b), 4)
    n = b + c
    edges = [(u, v) for u in range(b) for v in range(u, b)]
    edges += [(u, v) for u in range(b) for v in range(b, n)
              if rng.random() < 0.5]
    return TargetGraph.from_edges(n, edges)


def test_criterion_05_split_detectors_vs_bruteforce():
    rng = random.Random(105)

    def check(h):
        found = oracle.oracle_decomposition(h)
        split = _kernels.find_split(h.nbhd, h.reflexive_mask(),
                                    (1 << h.n) - 1)
        assert (split is None) == (found is None)
        if split is not None:
            a, b, c = (list(bits(m)) for m in split)
            assert oracle.is_valid_decomposition(h, a, b, c)

    strong = 0
    while strong < 100:
        h = _random_strong_split(rng)
        full = (1 << h.n) - 1
        if any(h.nbhd[v] in (full, 0) for v in range(h.n)):
            continue  # universal/isolated: a one-vertex split, not grown
        check(h)
        strong += 1
    non_strong = 0
    while non_strong < 100:
        h = families.random_target(rng, rng.randint(2, 8))
        if analysis.is_strong_split(h):
            continue
        check(h)
        non_strong += 1


def test_criterion_06_dp_state_bounds():
    rng = random.Random(106)
    for _ in range(150):
        h = families.random_target(rng, rng.randint(1, 5))
        inst = _random_small_lists_instance(rng, h, rng.randint(1, 8),
                                            cap=h.n)
        i = max_incomparable(h)[0]
        sol = dpsolve.solve_vd_dp(h, inst)  # _run_dp asserts internally too
        assert sol.stats["max_bag_states"] <= \
            (i + 1) ** (sol.stats["width"] + 1)
        # ED: the bound holds per dispatched subtarget
        dec = analysis.find_decomposition(h)
        if dec is None:
            sol = dpsolve.solve_ed_dp(h, inst)
            assert sol.stats["max_bag_states"] <= \
                i ** (sol.stats["width"] + 1)
        else:
            sp = dpsolve.split_by_decomposition(h, dec, inst)
            for sub_h, sub in ((h.induced(sp.target_a), sp.sub_a),
                               (h.induced(sp.target_bc), sp.sub_bc)):
                if not sub.n:
                    continue
                sub_i = max_incomparable(sub_h)[0]
                s = dpsolve.solve_ed_dp(sub_h, sub)
                assert s.stats["max_bag_states"] <= \
                    sub_i ** (s.stats["width"] + 1)


def test_criterion_07_gadget_contracts():
    # concrete base costs on canonical targets
    triple = families.independent_reflexive(3)
    assert gadgets.build_splitter(triple, {0, 1, 2}, 0).meta["alpha"] == 1
    assert gadgets.build_matcher(triple, 0, 1).meta["alpha"] == 2
    wit = analysis.classify_vd(triple)[1]
    assert gadgets._ab_matcher(triple, wit, 0, 1).meta["alpha"] == 2
    c4 = families.reflexive_cycle(4)
    assert gadgets.build_matcher(c4, 0, 2).meta["alpha"] == 0
    wit = analysis.classify_vd(c4)[1]
    assert gadgets._ab_matcher(c4, wit, wit.vertices[0],
                               wit.vertices[2]).meta["alpha"] == 0
    # translator case with base cost 1 on a reflexive np-hard target
    rng = random.Random(1071)
    case_b = None
    while case_b is None:
        h = families.random_target(rng, rng.randint(4, 6), loop_p=1.0)
        if analysis.classify_vd(h)[0] != "np-hard":
            continue
        pairs = [tuple(sorted(p)) for p in gadgets.incomparable_pairs(h)]
        for a, b in pairs:
            if h.has_edge(a, b):
                continue
            for vp, wp in pairs:
                try:
                    g, _ = gadgets.build_translator(h, vp, wp, a, b)
                except gadgets.GadgetError:
                    continue
                if g.meta["case"] == "b":
                    case_b = g
                    break
            if case_b is not None:
                break
    assert case_b.meta["alpha"] == 1

    # every construction self-verifies its cost table; run the full VD
    # calculus over >= 50 NP-hard targets
    rng = random.Random(107)
    vd_targets = 0
    while vd_targets < 50:
        h = families.random_target(rng, rng.randint(3, 6))
        if analysis.classify_vd(h)[0] != "np-hard":
            continue
        i, s = max_incomparable(h)
        if i < 2:
            continue
        spro = gadgets.build_s_prohibitor(h, s)
        assert spro.meta["alpha"] >= 0
        vd_targets += 1

    # ED calculus: moves and indicators on undecomposable obstruction targets
    ed_targets = moves_checked = 0
    while ed_targets < 10:
        h = families.random_target(rng, rng.randint(3, 5))
        if analysis.find_obstruction(h) is None:
            continue
        if analysis.is_decomposable(h):
            continue
        pairs = gadgets.incomparable_pairs(h)
        if len(pairs) < 2:
            continue
        p1, p2 = pairs[0], pairs[-1]
        g = gadgets.move_between_pairs(h, p1, p2)
        plain = gadgets.Gadget(g.n, g.edges, g.lists, g.portals)
        try:
            assert gadgets.enumerate_cost_table(h, plain, "ed") == \
                g.tables["ed"]
            moves_checked += 1
        except gadgets.GadgetError:
            pass  # composed move too large for full enumeration
        if ed_targets < 3 and h.n >= 3:
            _, s = max_incomparable(h)
            if len(s) >= 2:
                a, b = sorted(pairs[0])
                gadgets.build_indicator(h, s, a, b)  # self-verifying
        ed_targets += 1
    assert moves_checked >= 5


def test_criterion_08_reduction_identities():
    rng = random.Random(108)
    for _ in range(10):
        n = rng.randint(1, 8)
        edges = rb._rand_graph(rng, n)
        h, inst = reductions.encode_classic(
            reductions.ClassicInstance("vertex-cover", n, edges))
        assert dpsolve.solve_vd_dp(h, inst).cost == rb._vc(n, edges)
        h, inst = reductions.encode_classic(
            reductions.ClassicInstance("max-cut", n, edges))
        assert dpsolve.solve_ed_dp(h, inst).cost == \
            len(edges) - rb._annotated_maxcut(n, edges)
        h, inst = reductions.encode_classic(
            reductions.ClassicInstance("oct", n, edges))
        assert dpsolve.solve_vd_dp(h, inst).cost == rb._oct(n, edges)
    # multiway decoders, with their stated offsets
    for _ in range(8):
        k = rng.randint(1, 2)
        h = families.independent_reflexive(k)
        n = rng.randint(1, 3)
        inst = Instance(n, rb._rand_graph(rng, n),
                        [frozenset(rng.sample(range(k), rng.randint(1, k)))
                         for _ in range(n)])
        classic, off = reductions.decode_to_vertex_multiway(h, inst)
        assert rb._vertex_multiway(classic.n, classic.edges,
                                   classic.terminals) == \
            oracle.oracle_vd(h, inst).cost + off
        classic, off = reductions.decode_to_edge_multiway(h, inst)
        if classic.n - k <= 9:
            assert rb._edge_multiway(classic.n, classic.edges,
                                     classic.terminals) == \
                oracle.oracle_ed(h, inst).cost + off
    # coloring pipelines decision-match the source problem at the mapped
    # budgets
    h3 = families.independent_reflexive(3)
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for g_n, g_edges in ((3, [(0, 1), (1, 2), (0, 2)]), (4, k4)):
        need = rb._min_vd_to_colorable(g_n, g_edges, 3)
        for k in (0, 1):
            inst, _ = reductions.coloring_vd_to_lhomvd(h3, g_n, g_edges, k)
            cost = dpsolve.solve_vd_dp(h3, inst).cost
            assert (cost <= inst.budget) == (need <= k)
    h2 = families.irreflexive_kq(2)
    neq = gadgets.synthesize_neq(h2, 0, 1)
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    need = rb._min_ed_to_colorable(5, c5, 2)
    for z in (0, 1, 2):
        inst, _ = reductions.coloring_ed_to_lhomed(h2, 5, c5, z, neq)
        cost = dpsolve.solve_ed_dp(h2, inst).cost
        assert (cost <= inst.budget) == (need <= z)


def test_criterion_09_split_then_solve_matches_dp():
    rng = random.Random(109)
    done = 0
    while done < 200:
        h = families.random_target(rng, rng.randint(2, 6))
        dec = analysis.find_decomposition(h)
        if dec is None:
            continue
        inst = _random_small_lists_instance(rng, h, rng.randint(1, 7),
                                            cap=h.n)
        want = dpsolve.solve_ed_dp(h, inst).cost
        sp = dpsolve.split_by_decomposition(h, dec, inst)
        cost = len(sp.forced)
        cost += dpsolve.solve_ed_dp(h.induced(sp.target_a), sp.sub_a).cost
        cost += dpsolve.solve_ed_dp(h.induced(sp.target_bc), sp.sub_bc).cost
        assert cost == want
        assert dpsolve.solve_ed_auto(h, inst).cost == want
        done += 1


def test_criterion_10_aux_connectivity_and_moves():
    rng = random.Random(110)
    targets = moves = 0
    while targets < 100:
        h = families.random_target(rng, rng.randint(2, 7))
        if analysis.find_obstruction(h) is None:
            continue
        if analysis.is_decomposable(h):
            continue
        variant = "star" if analysis.is_strong_split(h) else "good"
        aux = gadgets.build_aux(h, variant)
        if len(aux) > 0:
            assert nx.is_connected(nx.Graph(aux))
        targets += 1
        if moves < 50 and len(aux) >= 2:
            nodes = sorted(aux, key=sorted)
            p1, p2 = rng.sample(nodes, 2)
            g = gadgets.move_between_pairs(h, p1, p2)
            rep = gadgets.move_report(h, g)
            imgs = [rep.forced[u] for u in sorted(p1)]
            assert len(set(imgs)) == 2 and set(imgs) <= set(p2)
            moves += 1
    assert moves >= 50

import random
from itertools import permutations, product

import pytest

from lhomdel import analysis, dpsolve, graphs, mincut, oracle, polysolve
from lhomdel.graphs import Instance, reduce_list

import families


def test_staircase_params_units():
    assert polysolve.staircase_params([[1, 0], [0, 1]]) == (1, 1, 2, 2)
    assert polysolve.staircase_params([[1, 1], [1, 1]]) == (2, 2, 1, 1)
    assert polysolve.staircase_params([[0, 0], [0, 0]]) == (0, 0, 3, 3)
    assert polysolve.staircase_params([[1, 0], [1, 1]]) is not None
    # anti-diagonal ones are not a staircase
    assert polysolve.staircase_params([[0, 1], [1, 0]]) is None


def _staircase_case(seed):
    """An obstruction-free target and two to five lists of up to four of
    its vertices, unreduced, so that some orders fail the per-vertex
    check and some list sets have no joint order."""
    rng = random.Random(seed)
    while True:
        h = families.random_target(rng, rng.randint(3, 6),
                                   loop_p=rng.random(), edge_p=rng.random())
        if analysis.classify_ed(h)[0] == "poly":
            break
    return h, [frozenset(rng.sample(range(h.n), rng.randint(1, min(4, h.n))))
               for _ in range(rng.randint(2, 5))]


def test_staircase_orders_match_an_exhaustive_joint_search():
    # the reference tests every permutation against every vertex and each
    # pair of orders, an order with itself too, in both directions; seeds
    # 1817, 5449 and 5832 make the backtracking back up to an earlier list
    backed_up = failed_per_vertex = 0
    for seed in list(range(150)) + [1817, 5449, 5832]:
        h, lists = _staircase_case(seed)
        distinct = sorted(set(lists), key=sorted)
        cands = [[p for p in permutations(sorted(lst))
                  if polysolve._per_vertex_types_ok(h, p)]
                 for lst in distinct]
        failed_per_vertex += sum(len(c) < len(list(permutations(lst)))
                                 for c, lst in zip(cands, distinct))

        def fits(a, b):
            return all(polysolve.staircase_params(
                polysolve.interaction_matrix(h, x, y)) is not None
                       for x, y in ((a, b), (b, a)))

        want = next((dict(zip(distinct, tup)) for tup in product(*cands)
                     if all(fits(a, b) for i, a in enumerate(tup)
                            for b in tup[i:])), None)
        if want is None:
            with pytest.raises(ValueError):
                polysolve.staircase_orders(h, lists)
            continue
        assert polysolve.staircase_orders(h, lists) == want, seed
        greedy = []  # each list's first order that fits the ones before
        for c in cands:
            p = next((p for p in c if all(fits(p, q) for q in greedy + [p])),
                     None)
            if p is None:
                break
            greedy.append(p)
        backed_up += greedy != [want[lst] for lst in distinct]
    assert backed_up >= 3 and failed_per_vertex > 0


def test_rectangle_cover_partition():
    for m in ([[1, 0], [0, 1]], [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
              [[0, 0], [0, 0]], [[1, 0], [1, 1]]):
        rc = polysolve.rectangle_cover(m)  # asserts the exact partition
        zeros = {(i + 1, j + 1) for i in range(len(m))
                 for j in range(len(m[0])) if not m[i][j]}
        assert rc.cells("r1") | rc.cells("r2") | rc.cells("r3") == zeros
    with pytest.raises(ValueError):
        polysolve.rectangle_cover([[0, 1], [1, 0]])


def test_two_clique_cover():
    rng = random.Random(41)
    done = 0
    while done < 40:
        h = families.random_target(rng, rng.randint(1, 6), loop_p=1.0)
        if analysis.classify_vd(h)[0] != "poly":
            continue
        cover = analysis.two_clique_cover(h)
        assert cover.left | cover.right == set(range(h.n))
        assert not cover.left & cover.right
        assert analysis._is_chain_clique(h, cover.left)
        assert analysis._is_chain_clique(h, cover.right)
        done += 1


def test_vd_poly_vs_oracle():
    rng = random.Random(42)
    done = 0
    while done < 80:
        h = families.random_target(rng, rng.randint(1, 5), loop_p=1.0)
        if analysis.classify_vd(h)[0] != "poly":
            continue
        inst = families.random_instance(rng, h, rng.randint(1, 8))
        sol = polysolve.solve_vd_poly(h, inst)  # self-checks the witness
        assert sol.cost == oracle.oracle_vd(h, inst).cost
        done += 1


def test_ed_poly_vs_oracle():
    rng = random.Random(43)
    done = 0
    while done < 80:
        h = families.random_target(rng, rng.randint(1, 5))
        if analysis.classify_ed(h)[0] != "poly":
            continue
        inst = families.random_instance(rng, h, rng.randint(1, 8))
        sol = polysolve.solve_ed_poly(h, inst)
        assert sol.cost == oracle.oracle_ed(h, inst).cost
        done += 1


def test_poly_solver_preconditions():
    hard_vd = families.loopless_k1()
    inst = Instance(1, [], [frozenset({0})])
    with pytest.raises(ValueError):
        polysolve.solve_vd_poly(hard_vd, inst)
    hard_ed = families.irreflexive_kq(2)
    inst = Instance(1, [], [frozenset({0})])
    with pytest.raises(ValueError):
        polysolve.solve_ed_poly(hard_ed, inst)


def test_vd_poly_forced_deletions():
    # an empty reduced list forces deletion of that vertex
    h = families.reflexive_clique(2)
    inst = Instance(2, [(0, 1)], [frozenset(), frozenset({0})])
    sol = polysolve.solve_vd_poly(h, inst)
    assert sol.cost == 1 and sol.deleted == [0]


def _few_list_instance(rng, h, n, k):
    """G(n, 0.4) whose lists are drawn from k random nonempty sets."""
    pool = [frozenset(rng.sample(range(h.n), rng.randint(1, h.n)))
            for _ in range(k)]
    inst = families.random_instance(rng, h, n)
    inst.lists = [rng.choice(pool) for _ in range(n)]
    return inst


def test_poly_vs_oracle_with_few_distinct_lists():
    rng = random.Random(44)
    done = {"vd": 0, "ed": 0}
    while min(done.values()) < 60:
        h = families.random_target(rng, rng.randint(2, 5))
        for mode, classify, solve, ref in (
                ("vd", analysis.classify_vd, polysolve.solve_vd_poly,
                 oracle.oracle_vd),
                ("ed", analysis.classify_ed, polysolve.solve_ed_poly,
                 oracle.oracle_ed)):
            if classify(h)[0] != "poly":
                continue
            inst = _few_list_instance(rng, h, rng.randint(2, 8),
                                      rng.randint(1, 3))
            assert solve(h, inst).cost == ref(h, inst).cost
            done[mode] += 1


def test_ed_poly_works_once_per_distinct_key(monkeypatch):
    # a long path whose lists cycle through three sets: one reduction per
    # distinct list and one rectangle cover per distinct pair of orders,
    # not one per vertex and per edge
    h = families.reflexive_path(4)
    pool = [frozenset({0, 3}), frozenset({0, 1, 3}), frozenset({1, 2})]
    n = 300
    inst = Instance(n, [(v, v + 1) for v in range(n - 1)],
                    [pool[v % 3] for v in range(n)])
    counts = {"reduce_list": 0, "rectangle_cover": 0}
    cover = polysolve.rectangle_cover

    def counted_reduce(h, lst):
        counts["reduce_list"] += 1
        return reduce_list(h, lst)

    def counted_cover(m):
        counts["rectangle_cover"] += 1
        return cover(m)

    monkeypatch.setattr(graphs, "reduce_list", counted_reduce)
    monkeypatch.setattr(polysolve, "rectangle_cover", counted_cover)
    sol = polysolve.solve_ed_poly(h, inst)
    assert counts["reduce_list"] == len(pool)
    red = [reduce_list(h, lst) for lst in pool]
    orders = polysolve.staircase_orders(h, red)
    keys = {(orders[red[v % 3]], orders[red[(v + 1) % 3]])
            for v in range(n - 1)}
    assert counts["rectangle_cover"] == len(keys) == 3
    monkeypatch.undo()
    assert sol.cost == dpsolve.solve_ed_dp(h, inst).cost


def test_ed_network_has_nodes_for_free_positions_only(monkeypatch):
    # position 0 of a vertex's order is t and its last position is s, so
    # a vertex gets len(order) - 1 nodes and a one-element list none; the
    # only unit arcs are the cover's corner arcs
    cut = polysolve.min_cut
    nets = []

    def captured(n, arcs, s, t):
        nets.append((n, list(arcs), s, t))
        return cut(n, arcs, s, t)

    monkeypatch.setattr(polysolve, "min_cut", captured)
    cases = families.poly_cut_cases(120)
    for name in ("p4tree", "stcut"):
        h, inst = cases[name, "ed"]
        sol = polysolve.solve_ed_poly(h, inst)
        (n, arcs, s, t), = nets
        nets.clear()
        red = graphs.reduce_lists(h, inst)
        orders = polysolve.staircase_orders(h, red.lists)
        order_of = [orders[frozenset(lst)] for lst in red.lists]
        assert any(len(order) == 1 for order in order_of), name
        assert n == 2 + sum(len(order) - 1 for order in order_of), name
        assert {s, t} <= set(range(n)) and s != t
        assert all(u != t and v != s and u != v for u, v, _ in arcs), name
        corners = 0
        for u, w in inst.edges:
            rc = polysolve.rectangle_cover(polysolve.interaction_matrix(
                h, order_of[min(u, w)], order_of[max(u, w)]))
            corners += sum(r is not None for r in (rc.r1, rc.r2, rc.r3))
        assert sum(unit for *_, unit in arcs) == corners, name
        assert sol.stats["flow_value"] == sol.cost


def test_vd_network_has_no_nodes_that_every_cut_fixes(monkeypatch):
    # the source is the in-node of a vertex with an arc from s and the sink
    # the out-node of one with an arc to t; a vertex on no arc has no node
    sep, cut = polysolve.min_vertex_separator, mincut.min_cut
    digraphs, nets = [], []

    def captured_sep(n, arcs, s, t):
        digraphs.append((n, list(arcs), s, t))
        return sep(n, arcs, s, t)

    def captured_cut(n, arcs, s, t):
        nets.append((n, list(arcs), s, t))
        return cut(n, arcs, s, t)

    monkeypatch.setattr(polysolve, "min_vertex_separator", captured_sep)
    monkeypatch.setattr(mincut, "min_cut", captured_cut)
    cases = families.poly_cut_cases(120)
    for name in ("p4tree", "multiway"):
        h, inst = cases[name, "vd"]
        sol = polysolve.solve_vd_poly(h, inst)
        (n, arcs, s, t), = digraphs
        (nodes, net, source, sink), = nets
        digraphs.clear()
        nets.clear()
        on_arc = {x for arc in arcs for x in arc} - {s, t}
        fed = {v for u, v in arcs if u == s}
        drained = {u for u, v in arcs if v == t}
        assert fed and drained and not fed & drained, name
        assert nodes == 2 + 2 * len(on_arc) - len(fed) - len(drained), name
        assert {source, sink} == {0, 1}, name
        assert all(v != source and u != sink for u, v, _ in net), name
        assert sol.stats["flow_value"] + sum(
            not lst for lst in graphs.reduce_lists(h, inst).lists) == sol.cost

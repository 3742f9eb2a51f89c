import random
from itertools import permutations, product

import pytest

from lhomdel import analysis, dpsolve, graphs, mincut, oracle, polysolve
from lhomdel.graphs import Infeasible, Instance, Solution, reduce_list

import families


def test_staircase_params_units():
    assert polysolve.staircase_params([[1, 0], [0, 1]]) == (1, 1, 2, 2)
    assert polysolve.staircase_params([[1, 1], [1, 1]]) == (2, 2, 1, 1)
    assert polysolve.staircase_params([[0, 0], [0, 0]]) == (0, 0, 3, 3)
    assert polysolve.staircase_params([[1, 0], [1, 1]]) is not None
    # anti-diagonal ones are not a staircase
    assert polysolve.staircase_params([[0, 1], [1, 0]]) is None
    # a middle row band (row 2) with a zero between its ones, and the
    # transpose's middle column band
    assert polysolve.staircase_params(
        [[1, 0, 0], [1, 0, 1], [0, 0, 1]]) is None
    assert polysolve.staircase_params(
        [[1, 1, 0], [0, 0, 0], [0, 1, 1]]) is None


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


# ---------------------------------------------------------------------------
# the solver bodies as they were before their networks were numbered on
# flat per-vertex arrays: node lists, dicts and has_edge per vertex and
# edge.  Each calls the cut through polysolve, so one spy sees both sides.


def _reference_solve_vd_poly(h, inst):
    cover = analysis.two_clique_cover(h)
    if cover is None:
        raise ValueError("solve_vd_poly requires a Poly-classified target")
    red = graphs.reduce_lists(h, inst)
    alive = [v for v in range(inst.n) if red.lists[v]]
    pos = {v: i for i, v in enumerate(alive)}
    n = len(alive)
    s, t = n, n + 1
    lelem, relem, parts = {}, {}, {}
    for v in alive:
        lst = red.lists[v]
        if lst not in parts:
            ls = sorted(lst & cover.left)
            rs = sorted(lst & cover.right)
            if len(ls) > 1 or len(rs) > 1:
                raise AssertionError(
                    f"reduced list of vertex {v} meets a cover part twice")
            parts[lst] = ls, rs
        ls, rs = parts[lst]
        if ls:
            lelem[v] = ls[0]
        if rs:
            relem[v] = rs[0]
    arcs = []
    for v in alive:
        if v not in relem:
            arcs.append((s, pos[v]))
        if v not in lelem:
            arcs.append((pos[v], t))
    for u, v in inst.edges:
        if u not in pos or v not in pos:
            continue
        for x, y in ((u, v), (v, u)):
            if x in lelem and y in relem and not h.has_edge(lelem[x], relem[y]):
                arcs.append((pos[x], pos[y]))
    value, sep, reach = polysolve.min_vertex_separator(n + 2, arcs, s, t)
    hom = {}
    for v in alive:
        if pos[v] in sep:
            continue
        hom[v] = lelem[v] if pos[v] in reach else relem[v]
    return Solution.of(h, inst, "vd", inst.n - n + value, hom, "poly",
                       {"flow_value": value})


def _reference_solve_ed_poly(h, inst):
    if analysis.classify_ed(h)[0] != "poly":
        raise ValueError("solve_ed_poly requires a Poly-classified target")
    if any(not lst for lst in inst.lists):
        raise Infeasible("vertex with an empty list")
    red = graphs.reduce_lists(h, inst)
    orders = polysolve.staircase_orders(h, red.lists)
    order_of = [orders[frozenset(red.lists[v])] for v in range(inst.n)]
    s, t = 0, 1
    node, n = [], 2
    arcs = []
    for order in order_of:
        ln = len(order)
        node.append([t, *range(n, n + ln - 1), s])
        arcs += [(x, x + 1, False) for x in range(n, n + ln - 2)]
        n += ln - 1
    covers = {}
    for u, w in inst.edges:
        v, w = (u, w) if u < w else (w, u)
        key = order_of[v], order_of[w]
        rc = covers.get(key)
        if rc is None:
            rc = covers[key] = polysolve.rectangle_cover(
                polysolve.interaction_matrix(h, *key))
        if rc.r1 is not None:
            _, rhi, clo, _ = rc.r1
            arcs.append((node[v][rhi], node[w][clo - 1], True))
        if rc.r3 is not None:
            rlo, _, _, chi = rc.r3
            arcs.append((node[w][chi], node[v][rlo - 1], True))
        if rc.r2 is not None:
            rlo, rhi, _, _ = rc.r2
            arcs.append((node[v][rhi], node[v][rlo - 1], True))
    value, s_side = polysolve.min_cut(n, arcs, s, t)
    hom = {}
    for v, order in enumerate(order_of):
        trans = next(i for i in range(1, len(order) + 1)
                     if s_side[node[v][i]])
        hom[v] = order[trans - 1]
    return Solution.of(h, inst, "ed", value, hom, "poly",
                       {"flow_value": value})


_REFERENCE = {"vd": _reference_solve_vd_poly, "ed": _reference_solve_ed_poly}
_SOLVER = {"vd": polysolve.solve_vd_poly, "ed": polysolve.solve_ed_poly}


def _spy_cuts(monkeypatch):
    """Every network handed to polysolve's cuts, as (n, arcs, s, t)."""
    nets = []
    for name in ("min_cut", "min_vertex_separator"):
        def spy(n, arcs, s, t, real=getattr(mincut, name)):
            arcs = list(arcs)
            nets.append((n, arcs, s, t))
            return real(n, arcs, s, t)
        monkeypatch.setattr(polysolve, name, spy)
    return nets


def _outcome(solve, h, inst, nets):
    """The network solve cuts and what it returns or raises."""
    try:
        sol = solve(h, inst)
    except Infeasible as e:
        got = "infeasible", str(e)
    else:
        got = (sol.cost, list(sol.hom.items()), sol.deleted, sol.stats,
               sol.algorithm)
    net = nets[:]
    nets.clear()
    return net, got


def _assert_same_as_reference(mode, h, inst, nets, label):
    want = _outcome(_REFERENCE[mode], h, inst, nets)
    assert _outcome(_SOLVER[mode], h, inst, nets) == want, label


def test_poly_solvers_cut_the_reference_networks(monkeypatch):
    nets = _spy_cuts(monkeypatch)
    for size in (120, 400, 900):
        for (name, mode), (h, inst) in families.poly_cut_cases(size).items():
            _assert_same_as_reference(mode, h, inst, nets, (size, name))


def _small_poly_cases(rng, mode, count):
    """count seeded instances of 0-9 vertices over 40 random targets that
    mode classifies poly; vd lists may be empty, and sparse edge draws
    leave isolated vertices."""
    classify = {"vd": analysis.classify_vd, "ed": analysis.classify_ed}[mode]
    targets = []
    while len(targets) < 40:
        h = families.random_target(
            rng, rng.randint(1, 6),
            loop_p=1.0 if rng.random() < 0.7 else rng.random(),
            edge_p=rng.random())
        if classify(h)[0] == "poly":
            targets.append(h)
    low = 0 if mode == "vd" else 1
    for _ in range(count):
        h = rng.choice(targets)
        n, p = rng.randint(0, 9), rng.random() * 0.6
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        lists = [frozenset(rng.sample(range(h.n), rng.randint(low, h.n)))
                 for _ in range(n)]
        yield h, Instance(n, edges, lists)


def test_poly_solvers_match_the_reference_on_small_cases(monkeypatch):
    nets = _spy_cuts(monkeypatch)
    rng = random.Random(4747)
    seen = {"empty": 0, "single": 0, "isolated": 0}
    for mode in ("vd", "ed"):
        for k, (h, inst) in enumerate(_small_poly_cases(rng, mode, 600)):
            _assert_same_as_reference(mode, h, inst, nets, (mode, k))
            ends = {x for e in inst.edges for x in e}
            seen["empty"] += sum(not lst for lst in inst.lists)
            seen["single"] += sum(len(lst) == 1 for lst in inst.lists)
            seen["isolated"] += inst.n - len(ends)
    assert min(seen.values()) > 100, seen

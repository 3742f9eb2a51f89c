import random
from itertools import combinations

import pytest

from lhomdel import _kernels, analysis, dpsolve, oracle
from lhomdel.graphs import (Infeasible, Instance, Solution, TargetGraph,
                            max_incomparable, reduce_lists)
from lhomdel.treewidth import build_td, make_nice

import families


def test_vd_dp_vs_oracle():
    rng = random.Random(61)
    for _ in range(120):
        h = families.random_target(rng, rng.randint(1, 5))
        inst = families.random_instance(rng, h, rng.randint(1, 8))
        want = oracle.oracle_vd(h, inst).cost
        assert dpsolve.solve_vd_dp(h, inst).cost == want
        assert dpsolve.solve_vd_auto(h, inst).cost == want


def test_ed_dp_vs_oracle():
    rng = random.Random(62)
    for _ in range(120):
        h = families.random_target(rng, rng.randint(1, 5))
        inst = families.random_instance(rng, h, rng.randint(1, 8))
        want = oracle.oracle_ed(h, inst).cost
        assert dpsolve.solve_ed_dp(h, inst).cost == want
        assert dpsolve.solve_ed_auto(h, inst).cost == want


def test_explicit_td_accepted():
    rng = random.Random(63)
    h = families.reflexive_cycle(5)
    inst = families.random_instance(rng, h, 7)
    td = build_td(inst)
    assert dpsolve.solve_vd_dp(h, inst, td).cost == \
        dpsolve.solve_vd_dp(h, inst).cost
    assert dpsolve.solve_ed_dp(h, inst, td).cost == \
        dpsolve.solve_ed_dp(h, inst).cost


def test_ed_infeasible_on_empty_list():
    h = families.reflexive_clique(2)
    inst = Instance(2, [(0, 1)], [frozenset(), frozenset({0})])
    with pytest.raises(Infeasible):
        dpsolve.solve_ed_dp(h, inst)
    with pytest.raises(Infeasible):
        dpsolve.solve_ed_auto(h, inst)
    # VD handles the same instance by deleting the listless vertex
    assert dpsolve.solve_vd_dp(h, inst).cost == 1


@pytest.fixture
def checked(monkeypatch):
    """The algorithm of each solution that Solution.check is called on."""
    seen = []
    check = Solution.check

    def counting_check(sol, *args):
        seen.append(sol.algorithm)
        check(sol, *args)

    monkeypatch.setattr(Solution, "check", counting_check)
    return seen


@pytest.mark.parametrize("h", [families.reflexive_path(3),  # poly case
                               families.irreflexive_kq(3)])  # undecomposable
def test_ed_auto_checks_its_witness_once(h, checked):
    inst = Instance(3, [(0, 1), (1, 2)], [frozenset(range(h.n))] * 3)
    assert dpsolve.solve_ed_auto(h, inst).algorithm == "auto"
    assert len(checked) == 1


def test_ed_split_checks_only_the_root_merge(checked):
    # the inner merges are composed into the root's witness; each part's
    # poly or DP solver still checks its own
    rng = random.Random(67)
    h = families.windowed_family(3)
    splits = 0
    for _ in range(10):
        inst = families.random_instance(rng, h, rng.randint(4, 9))
        checked.clear()
        sol = dpsolve.solve_ed_auto(h, inst)
        if "parts" in sol.stats:
            splits += 1
            assert checked.count("auto") == 1
            assert len(checked) > 1  # the parts were checked too
        assert sol.cost == dpsolve.solve_ed_dp(h, inst).cost
    assert splits


def test_split_matches_direct_dp():
    rng = random.Random(64)
    done = 0
    while done < 60:
        h = families.random_target(rng, rng.randint(2, 6))
        dec = analysis.find_decomposition(h)
        if dec is None:
            continue
        inst = families.random_instance(rng, h, rng.randint(1, 7))
        sp = dpsolve.split_by_decomposition(h, dec, inst)
        cost_a = dpsolve.solve_ed_dp(h.induced(sp.target_a), sp.sub_a).cost
        cost_bc = dpsolve.solve_ed_dp(h.induced(sp.target_bc), sp.sub_bc).cost
        total = cost_a + cost_bc + len(sp.forced)
        assert total == dpsolve.solve_ed_dp(h, inst).cost
        done += 1


def test_state_bounds_in_stats():
    rng = random.Random(65)
    for _ in range(60):
        h = families.random_target(rng, rng.randint(1, 5))
        inst = families.random_instance(rng, h, rng.randint(1, 8))
        i = max_incomparable(h)[0]
        sol = dpsolve.solve_vd_dp(h, inst)
        assert sol.stats["max_bag_states"] <= (i + 1) ** (sol.stats["width"] + 1)
        sol = dpsolve.solve_ed_dp(h, inst)
        assert sol.stats["max_bag_states"] <= i ** (sol.stats["width"] + 1)


def test_dp_does_not_compute_i_of_h(monkeypatch):
    # the state bound follows from each reduced list being pairwise
    # incomparable, so the DP never runs the branch and bound for i(H),
    # which took 2 s on this 56-vertex target: 22 vertices, each joined
    # to an interval of a 34-vertex edgeless pool
    def no_i_of_h(nb, S):
        raise AssertionError("i(H) computed")

    monkeypatch.setattr(_kernels, "max_incomparable_mask", no_i_of_h)
    rng = random.Random(120)
    edges = []
    for v in range(22):
        a, b = sorted((rng.randrange(34), rng.randrange(34)))
        edges += [(v, 22 + p) for p in range(a, b + 1)]
    h = TargetGraph.from_edges(56, edges)
    inst = Instance(2, [(0, 1)], [frozenset({0}), frozenset({22})])
    for solve in (dpsolve.solve_vd_dp, dpsolve.solve_ed_dp):
        assert solve(h, inst).cost == 1


# ---------------------------------------------------------------------------
# reference: the sparse DP, one {state: cost} dict per nice node


def _dict_dp(h, inst, td, mode):
    """(cost, max_states) of the dict-of-tuples DP: states are tuples of
    images aligned with sorted(bag), VD adds the DELETED symbol; every
    state present has finite cost.  Unlike _run_dp, a deletion is charged
    where its vertex is introduced and subtracted again at each join."""
    nodes = make_nice(td, inst.edges)
    tables = []
    most = 1  # the leaf's; forgets and joins never grow a table
    for nd in nodes:
        bag = sorted(nd.bag)
        if nd.kind == "leaf":
            table = {(): 0}
        elif nd.kind == "introduce":
            at = bag.index(nd.payload)
            choices = sorted(inst.lists[nd.payload])
            if mode == "vd":
                choices = choices + [dpsolve.DELETED]
            elif not choices:
                raise Infeasible(f"vertex {nd.payload} has an empty list")
            table = {}
            for cstate, ccost in tables[nd.children[0]].items():
                for img in choices:
                    st = cstate[:at] + (img,) + cstate[at:]
                    cost = ccost + (1 if img == dpsolve.DELETED else 0)
                    table[st] = min(cost, table.get(st, dpsolve.INF))
            most = max(most, len(table))  # before any edge removes states
            for edge in nd.edges:
                iu, iv = (bag.index(x) for x in edge)
                kept = {}
                for st, cost in table.items():
                    a, b = st[iu], st[iv]
                    if dpsolve.DELETED in (a, b) or h.has_edge(a, b):
                        kept[st] = cost
                    elif mode == "ed":
                        kept[st] = cost + 1
                table = kept
        elif nd.kind == "forget":
            at = sorted(nodes[nd.children[0]].bag).index(nd.payload)
            table = {}
            for cstate, ccost in tables[nd.children[0]].items():
                st = cstate[:at] + cstate[at + 1:]
                table[st] = min(ccost, table.get(st, dpsolve.INF))
        else:  # join
            c1, c2 = (tables[c] for c in nd.children)
            table = {st: cost1 + c2[st] - st.count(dpsolve.DELETED)
                     for st, cost1 in c1.items() if st in c2}
        tables.append(table)
    if () not in tables[-1]:
        raise Infeasible("no feasible assignment")
    return tables[-1][()], most


# ---------------------------------------------------------------------------
# reference: the dense DP with one broadcast, add and clamp per edge


def _per_edge_dp(h, inst, td, mode):
    """(cost, hom, max_states) of _run_dp's dense DP done one edge at a
    time: an introduce node repeats its child along the new axis, then
    adds each edge's penalty to the whole table and clamps it at INF;
    every introduce node counts its child's finite entries, every node
    sorts its bag again, and no table is freed."""
    import numpy as np

    INF, DELETED = dpsolve.INF, dpsolve.DELETED
    choices = []
    for v in range(inst.n):
        lst = sorted(inst.lists[v])
        if mode == "vd":
            lst.append(DELETED)
        choices.append(lst)

    def penalty(lu, lv):
        if mode == "vd":
            bad = [[0 if a == DELETED or b == DELETED or h.has_edge(a, b)
                    else INF for b in lv] for a in lu]
        else:
            bad = [[0 if h.has_edge(a, b) else 1 for b in lv] for a in lu]
        return np.array(bad, dtype=np.int64)

    nodes = make_nice(td, inst.edges)
    tables = []
    argmins = {}
    max_states = 1
    for idx, nd in enumerate(nodes):
        bag = sorted(nd.bag)
        if nd.kind == "leaf":
            table = np.zeros((), dtype=np.int64)
        elif nd.kind == "introduce":
            v = nd.payload
            child = tables[nd.children[0]]
            at = bag.index(v)
            max_states = max(max_states, int(np.count_nonzero(child < INF))
                             * len(choices[v]))
            table = np.repeat(np.expand_dims(child, at), len(choices[v]),
                              axis=at)
            for u, w in nd.edges:
                pen = penalty(choices[u], choices[w])
                shape = [1] * len(bag)
                shape[bag.index(u)], shape[bag.index(w)] = pen.shape
                table += pen.reshape(shape)
                np.minimum(table, INF, out=table)
        elif nd.kind == "forget":
            v = nd.payload
            child = tables[nd.children[0]].copy()
            at = sorted(nodes[nd.children[0]].bag).index(v)
            if mode == "vd":
                child[(slice(None),) * at + (-1,)] += 1
            argmins[idx] = child.argmin(axis=at)
            table = child.min(axis=at)
        else:
            c1, c2 = nd.children
            table = np.minimum(tables[c1] + tables[c2], INF)
        tables.append(table)
    root = len(nodes) - 1
    cost = int(tables[root][()])
    if cost >= INF:
        raise Infeasible("no feasible assignment")
    hom = {}
    chosen = {root: ()}
    for idx in range(root, -1, -1):
        nd = nodes[idx]
        st = chosen.pop(idx)
        if nd.kind == "forget":
            v = nd.payload
            at = sorted(nodes[nd.children[0]].bag).index(v)
            pick = int(argmins[idx][st])
            if choices[v][pick] != DELETED:
                hom[v] = choices[v][pick]
            chosen[nd.children[0]] = st[:at] + (pick,) + st[at:]
        elif nd.kind == "introduce":
            at = sorted(nd.bag).index(nd.payload)
            chosen[nd.children[0]] = st[:at] + st[at + 1:]
        else:
            for c in nd.children:
                chosen[c] = st
    return cost, hom, max_states


def test_dense_dp_matches_dict_reference():
    rng = random.Random(66)
    targets = (families.irreflexive_kq(3), families.independent_reflexive(3),
               families.reflexive_cycle(5))
    graphs = [families.grid(3, 7), families.grid(4, 5),
              families.grid(3, 6, True), families.grid(4, 5, True),
              families.partial_ktree(rng, 14, 5, 0.7),
              families.partial_ktree(rng, 13, 6, 0.7)]
    widths = set()
    for n, edges in graphs:
        for h in targets:
            inst = Instance(n, edges, [
                frozenset(rng.sample(range(h.n), rng.choice((1, 2, 3, 3))))
                for _ in range(n)])
            red = reduce_lists(h, inst)
            td = build_td(red)
            widths.add(td.width)
            for mode in ("vd", "ed"):
                cost, hom, states = dpsolve._run_dp(h, red, td, mode)
                assert (cost, states) == _dict_dp(h, red, td, mode)
                assert (cost, hom, states) == \
                    _per_edge_dp(h, red, td, mode)  # witness ties too
                if mode == "vd":
                    deleted = [v for v in range(n) if v not in hom]
                else:
                    deleted = [(u, v) for u, v in edges
                               if not h.has_edge(hom[u], hom[v])]
                Solution(mode, cost, deleted, hom, "dp").check(h, red)
    assert widths == {3, 4, 5, 6}


def test_vd_clique_clips_each_edge_penalty():
    # K12 over three independent reflexive vertices, vertex v listed at
    # v mod 3: the one 12-vertex bag's last introduce completes 11 edges,
    # up to 8 of them violated, and 8 INF penalties overflow int64
    h = families.independent_reflexive(3)
    n = 12
    inst = Instance(n, list(combinations(range(n), 2)),
                    [frozenset({v % 3}) for v in range(n)])
    sol = dpsolve.solve_vd_dp(h, inst)
    assert sol.cost == oracle.oracle_vd(h, inst).cost == 8
    td = build_td(inst)
    for mode in ("vd", "ed"):
        assert dpsolve._run_dp(h, inst, td, mode) == \
            _per_edge_dp(h, inst, td, mode)


def test_dense_dp_matches_per_edge_reference():
    # seeded random instances with lists of 1-3 vertices, on random,
    # grid and partial k-tree graphs, over random and named targets
    rng = random.Random(68)
    named = (families.irreflexive_kq(3), families.independent_reflexive(3),
             families.reflexive_cycle(5), families.windowed_family(2))
    widths = set()
    for trial in range(80):
        h = (rng.choice(named) if trial % 2
             else families.random_target(rng, rng.randint(2, 6)))
        if trial % 3 == 0:
            g = families.random_instance(rng, h, rng.randint(1, 12),
                                         rng.choice((0.2, 0.5, 0.8)))
            n, edges = g.n, g.edges
        elif trial % 3 == 1:
            n, edges = families.grid(rng.randint(1, 4), rng.randint(1, 6),
                                     rng.random() < 0.5)
        else:
            n, edges = families.partial_ktree(rng, rng.randint(6, 14),
                                              rng.randint(2, 5))
        inst = Instance(n, edges, [
            frozenset(rng.sample(range(h.n), rng.randint(1, min(3, h.n))))
            for _ in range(n)])
        red = reduce_lists(h, inst)
        td = build_td(red)
        widths.add(td.width)
        for mode in ("vd", "ed"):
            assert dpsolve._run_dp(h, red, td, mode) == \
                _per_edge_dp(h, red, td, mode), (trial, mode)
    assert max(widths) >= 5


def test_long_grid_solves_without_recursion_error():
    # 3 x 400 grid (1200 vertices): the nice form is far deeper than the
    # interpreter's recursion limit
    n, edges = families.grid(3, 400)
    h = families.irreflexive_kq(3)
    sol = dpsolve.solve_vd_dp(h, Instance(n, edges, [frozenset(range(3))] * n))
    assert sol.cost == 0 and sol.stats["width"] == 3


import random
from collections import deque
from itertools import combinations

import pytest

from lhomdel import mincut, polysolve
from lhomdel.mincut import Uncuttable, min_cut, min_vertex_separator

import families


def _crossing(arcs, side):
    return [(u, v, unit) for u, v, unit in arcs if side[u] and not side[v]]


def test_known_network():
    # unit-capacity diamond: two disjoint s-t paths plus a crossing arc
    s, a, b, t = range(4)
    arcs = [(s, a, True), (s, b, True), (a, b, True), (a, t, True),
            (b, t, True)]
    value, s_side = min_cut(4, arcs, s, t)
    assert value == 2
    assert s_side[s] and not s_side[t]
    assert len(_crossing(arcs, s_side)) == 2


def test_unit_chain():
    arcs = [(0, 1, True), (1, 2, True), (2, 3, True)]
    value, s_side = min_cut(4, arcs, 0, 3)
    assert value == 1 and len(_crossing(arcs, s_side)) == 1


def test_uncuttable():
    s, m, t = range(3)
    with pytest.raises(Uncuttable):
        min_cut(3, [(s, m, False), (m, t, False), (s, t, True)], s, t)


def test_source_side_is_least_minimum_cut():
    # the residual-reachable side is the intersection of the source sides
    # of all minimum cuts, so it cannot depend on the augmenting order
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 7)
        arcs = [(u, v, rng.random() < 0.8) for u in range(n)
                for v in range(n) if u != v and rng.random() < 0.35]
        s, t = rng.sample(range(n), 2)
        heavy = sum(unit for *_, unit in arcs) + 1
        cuts = {}
        others = [v for v in range(n) if v not in (s, t)]
        for r in range(len(others) + 1):
            for sub in combinations(others, r):
                side = set(sub) | {s}
                cuts[frozenset(side)] = sum(
                    1 if unit else heavy for u, v, unit in arcs
                    if u in side and v not in side)
        best = min(cuts.values())
        if best >= heavy:
            with pytest.raises(Uncuttable):
                min_cut(n, arcs, s, t)
            continue
        value, s_side = min_cut(n, arcs, s, t)
        assert value == best
        least = frozenset.intersection(
            *(side for side, w in cuts.items() if w == best))
        assert {v for v in range(n) if s_side[v]} == least


def _reach(n, arcs, s, removed):
    adj = {v: [] for v in range(n)}
    for u, v in arcs:
        adj[u].append(v)
    seen = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in removed and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _brute_separator(n, arcs, s, t):
    others = [v for v in range(n) if v not in (s, t)]
    for r in range(len(others) + 1):
        for sub in combinations(others, r):
            if t not in _reach(n, arcs, s, set(sub)):
                return r
    return None


def test_vertex_separator_vs_bruteforce():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(2, 7)
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.3]
        s, t = rng.sample(range(n), 2)
        want = _brute_separator(n, arcs, s, t)
        if want is None:
            with pytest.raises(Uncuttable):
                min_vertex_separator(n, arcs, s, t)
            continue
        value, sep, _ = min_vertex_separator(n, arcs, s, t)
        assert value == want == len(sep)
        assert s not in sep and t not in sep
        # removing the separator really disconnects s from t
        remaining = [(u, v) for u, v in arcs
                     if u not in sep and v not in sep]
        assert _brute_separator(n, remaining, s, t) == 0


def test_separator_side_is_reachability():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(2, 12)
        p = rng.choice((0.1, 0.2, 0.35))
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < p]
        s, t = rng.sample(range(n), 2)
        try:
            _, sep, reach = min_vertex_separator(n, arcs, s, t)
        except Uncuttable:
            continue
        assert reach == _reach(n, arcs, s, sep)
        assert t not in reach and not reach & sep


def test_separator_without_an_arc_out_of_s_or_into_t(monkeypatch):
    # no path from s to t: the answer is read off the digraph, with no
    # network and no min_cut call, and it is the references' answer
    def no_cut(*args):
        raise AssertionError("min_cut ran")

    monkeypatch.setattr(mincut, "min_cut", no_cut)
    rng = random.Random(48)
    seen = set()
    for trial in range(300):
        n = rng.randint(2, 10)
        s, t = rng.sample(range(n), 2)
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < rng.choice((0.2, 0.4))]
        if trial % 2:  # no arc into t
            arcs = [(u, v) for u, v in arcs if v != t]
        else:  # no arc out of s
            arcs = [(u, v) for u, v in arcs if u != s]
        value, sep, reach = min_vertex_separator(n, arcs, s, t)
        assert value == _brute_separator(n, arcs, s, t) == 0
        assert sep == set()
        assert reach == _reach(n, arcs, s, set())
        assert t not in reach
        seen.add((trial % 2, len(reach) > 1))
    # reach is more than s itself whenever s has an arc out
    assert seen == {(0, False), (1, False), (1, True)}


def _full_bfs_min_cut(n, arcs, s, t, phases=None):
    """Dinic whose every BFS labels the whole residual reach of s: the
    reference min_cut's two-ended BFS must agree with.  Each BFS appends
    to phases, if given."""
    heavy = sum(unit for *_, unit in arcs) + 1
    adj = [[] for _ in range(n)]
    head, cap = [], []
    for u, v, unit in arcs:
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head += (v, u)
        cap += (1 if unit else heavy, 0)

    def levels():
        if phases is not None:
            phases.append(1)
        level = [-1] * n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for i in adj[u]:
                if cap[i] and level[head[i]] < 0:
                    level[head[i]] = level[u] + 1
                    q.append(head[i])
        return level

    value = 0
    while (level := levels())[t] >= 0:
        it = [0] * n
        while True:  # one augmenting path per pass, depth first
            nodes, path = [s], []
            while nodes and nodes[-1] != t:
                x = nodes[-1]
                if it[x] == len(adj[x]):
                    nodes.pop()
                    if path:
                        path.pop()
                        it[nodes[-1]] += 1
                    continue
                i = adj[x][it[x]]
                if cap[i] and level[head[i]] == level[x] + 1:
                    nodes.append(head[i])
                    path.append(i)
                else:
                    it[x] += 1
            if not nodes:
                break
            pushed = min(cap[i] for i in path)
            for i in path:
                cap[i] -= pushed
                cap[i ^ 1] += pushed
            value += pushed
    if value >= heavy:
        raise Uncuttable
    return value, [lv >= 0 for lv in level]


def _outcome(cut, n, arcs, s, t):
    try:
        return cut(n, arcs, s, t)
    except Uncuttable:
        return "uncuttable"


def test_min_cut_matches_full_bfs_reference(monkeypatch):
    rng = random.Random(22)
    nets = []
    for _ in range(150):
        n = rng.randint(20, 400)
        unit_p = rng.choice((0.6, 0.9, 1.0))
        arcs = []
        for _ in range(rng.randint(n, 4 * n)):
            u, v = rng.sample(range(n), 2)
            arcs.append((u, v, rng.random() < unit_p))
        s, t = rng.sample(range(n), 2)
        if rng.random() < 0.2:  # an unbreakable s-t path: uncuttable
            path = [s] + rng.sample(range(n), 3) + [t]
            arcs += [(u, v, False) for u, v in zip(path, path[1:]) if u != v]
        nets.append((n, arcs, s, t))
    # the networks both poly solvers build on seeded sparse instances
    cut = mincut.min_cut

    def captured(n, arcs, s, t):
        nets.append((n, list(arcs), s, t))
        return cut(n, arcs, s, t)

    monkeypatch.setattr(mincut, "min_cut", captured)
    monkeypatch.setattr(polysolve, "min_cut", captured)
    for size in (60, 150, 300):
        for (_, mode), (h, inst) in families.poly_cut_cases(size).items():
            solve = (polysolve.solve_vd_poly if mode == "vd"
                     else polysolve.solve_ed_poly)
            solve(h, inst)
    monkeypatch.undo()
    assert len(nets) == 150 + 3 * 6
    outcomes = []
    for n, arcs, s, t in nets:
        want = _outcome(_full_bfs_min_cut, n, arcs, s, t)
        assert _outcome(min_cut, n, arcs, s, t) == want
        outcomes.append(want == "uncuttable")
    assert 10 <= sum(outcomes) <= len(nets) - 10


def _reference_networks():
    """The networks of test_min_cut_matches_full_bfs_reference: random ones,
    then those both poly solvers build on seeded sparse instances."""
    rng = random.Random(22)
    nets = []
    for _ in range(150):
        n = rng.randint(20, 400)
        unit_p = rng.choice((0.6, 0.9, 1.0))
        arcs = []
        for _ in range(rng.randint(n, 4 * n)):
            u, v = rng.sample(range(n), 2)
            arcs.append((u, v, rng.random() < unit_p))
        s, t = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            path = [s] + rng.sample(range(n), 3) + [t]
            arcs += [(u, v, False) for u, v in zip(path, path[1:]) if u != v]
        nets.append((n, arcs, s, t))
    cut = mincut.min_cut

    def captured(n, arcs, s, t):
        nets.append((n, list(arcs), s, t))
        return cut(n, arcs, s, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mincut, "min_cut", captured)
        mp.setattr(polysolve, "min_cut", captured)
        for size in (60, 150, 300):
            for (_, mode), (h, inst) in families.poly_cut_cases(size).items():
                solve = (polysolve.solve_vd_poly if mode == "vd"
                         else polysolve.solve_ed_poly)
                solve(h, inst)
    return nets


def test_min_cut_takes_as_many_phases_as_full_bfs_reference(monkeypatch):
    # a level graph that missed some shortest augmenting paths would still
    # give the right cut, only after more phases
    nets = _reference_networks()
    assert len(nets) == 150 + 3 * 6
    levels, calls = mincut._levels, []

    def counted(*args):
        calls.append(1)
        return levels(*args)

    monkeypatch.setattr(mincut, "_levels", counted)
    for n, arcs, s, t in nets:
        phases = []
        _outcome(lambda *net: _full_bfs_min_cut(*net, phases), n, arcs, s, t)
        calls.clear()
        _outcome(min_cut, n, arcs, s, t)
        assert len(calls) == len(phases) > 0

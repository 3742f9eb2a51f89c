import random
from itertools import combinations

import pytest

from lhomdel.mincut import Uncuttable, min_cut, min_vertex_separator


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

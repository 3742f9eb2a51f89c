"""Exact solvers agree on the optimum of seeded instances far beyond the
oracle's reach:

- on a poly target, the tree-decomposition DP and the flow solver, on
  200-1200 vertices (partial 1-3-trees, 2-4-row grids and sparse graphs)
  over targets of 2-9 vertices from random_target;
- on a split-composed target (families.split_composed_target), the ED
  auto solver, which splits the target and solves each part, and the ED
  DP over the whole target, on 200-600 vertices of the same graphs;
- on the poly-target cases, the DP under min-fill's decomposition and
  under a second one of the same instance: min-fill's bags in reverse
  order, and a hub core where one is narrow enough to solve.

Each family has a tier-1 slice and a full run marked slow
(`pytest -m slow`)."""

import math
import random

import pytest

import families
from lhomdel import analysis, dpsolve, polysolve
from lhomdel.graphs import (Instance, max_incomparable, random_target,
                            reduce_lists)
from lhomdel.treewidth import (HubCore, TreeDecomposition, build_td,
                               core_to_td, validate_core)

CLASSIFY = {"vd": analysis.classify_vd, "ed": analysis.classify_ed}
DP = {"vd": dpsolve.solve_vd_dp, "ed": dpsolve.solve_ed_dp}
POLY = {"vd": polysolve.solve_vd_poly, "ed": polysolve.solve_ed_poly}


def _poly_target(rng, mode):
    """A target of 2-9 vertices on which `mode` is polynomial, drawn by
    rejection with loop and edge probabilities that often give one."""
    size = rng.randint(2, 9)
    while True:
        h = random_target(rng, size, rng.choice((0.5, 0.9, 1.0)),
                          rng.choice((0.5, 0.8, 0.9)))
        if CLASSIFY[mode](h)[0] == "poly":
            return h


def _graph(rng, n):
    """(name, (n', edges)): a partial k-tree (k = 1..3), a grid of 2-4
    rows, or a random tree with up to n/20 chords."""
    kind = rng.choice(("ktree", "grid", "sparse"))
    if kind == "ktree":
        return kind, families.partial_ktree(rng, n, rng.randint(1, 3))
    if kind == "grid":
        rows = rng.randint(2, 4)
        return kind, families.grid(rows, n // rows)
    return kind, families.sparse_graph(rng, n, rng.randint(0, n // 20))


def agreement_cases(seed, mode, count):
    """Seeded (label, target, instance) cases.  Most lists are the whole
    of a maximum incomparable set, which reduction keeps, so the DP runs
    on most vertices; the others are random nonempty subsets of V(H)."""
    rng = random.Random(f"agree:{seed}:{mode}")
    for i in range(count):
        h = _poly_target(rng, mode)
        kind, (n, edges) = _graph(rng, rng.randint(200, 1200))
        inc = max_incomparable(h)[1]
        lists = [frozenset(inc if rng.random() < 0.6 else
                           rng.sample(range(h.n), rng.randint(1, h.n)))
                 for _ in range(n)]
        yield f"{seed}/{i}: {kind} n={n} h={h.nbhd}", h, Instance(
            n, edges, lists)


def _dp_poly_mismatches(seeds, mode, count):
    """(label, DP cost, poly cost) of each case where they differ."""
    wrong = []
    for seed in seeds:
        for label, h, inst in agreement_cases(seed, mode, count):
            dp, poly = DP[mode](h, inst), POLY[mode](h, inst)
            if dp.cost != poly.cost:
                wrong.append((label, dp.cost, poly.cost))
    return wrong


@pytest.mark.parametrize("mode", ("vd", "ed"))
def test_dp_and_poly_solvers_agree_on_large_instances(mode):
    # a mismatch is a bug in one of the two solvers
    assert _dp_poly_mismatches([1], mode, 40) == []


@pytest.mark.slow
@pytest.mark.parametrize("mode", ("vd", "ed"))
def test_dp_and_poly_solvers_agree_full_run(mode):
    # 2400 cases per mode: about 95 s in vd, 45 s in ed
    assert _dp_poly_mismatches(range(11, 19), mode, 300) == []


def _hub_core(red, mode, cap=1 << 20, picks=14):
    """A hub core of the reduced instance red whose bags' DP tables stay
    within cap entries, or None.  It starts from the vertices with one DP
    state, which the DP fixes, so they widen no table; while some bag Q ∪
    C (C a component of G − Q) has a larger table, the vertex of C with
    the most neighbours in C joins Q, at most `picks` times.  In VD only
    an empty list gives one state, so Q starts empty and a core seldom
    fits."""
    sizes = [len(lst) + (mode == "vd") for lst in red.lists]
    q = {v for v, size in enumerate(sizes) if size == 1}
    nbrs = [[] for _ in range(red.n)]
    for u, w in red.edges:
        nbrs[u].append(w)
        nbrs[w].append(u)
    for _ in range(picks + 1):
        comps = validate_core(red, HubCore(frozenset(q), red.n, red.n))
        hub = math.prod(sizes[v] for v in q)
        widest = max(comps, default=(), key=lambda c: math.prod(
            sizes[v] for v in c))
        if hub * math.prod(sizes[v] for v in widest) <= cap:
            return HubCore(frozenset(q), red.n, red.n)
        c = set(widest)
        q.add(max(widest, key=lambda v: sum(w in c for w in nbrs[v])))
    return None


def _second_td_mismatches(seeds, count):
    """(label, decomposition, its cost, min-fill's) of each case where the
    DP's optimum under a second decomposition differs from its optimum
    under min-fill's (built on the kept vertices); also the number of
    cases a hub core reached with a table of more than one entry."""
    wrong, cores = [], 0
    for seed in seeds:
        for mode in ("vd", "ed"):
            for label, h, inst in agreement_cases(seed, mode, count):
                want = DP[mode](h, inst).cost
                red = reduce_lists(h, inst)
                td = build_td(red)
                k = len(td.bags)
                trees = {"reversed": TreeDecomposition(
                    td.bags[::-1],
                    tuple((k - 1 - a, k - 1 - b) for a, b in td.edges))}
                core = _hub_core(red, mode)
                if core is not None:
                    trees["hub-core"] = core_to_td(red, core)
                for kind, tree in trees.items():
                    got = DP[mode](h, inst, tree)
                    cores += kind == "hub-core" and got.stats[
                        "max_bag_states"] > 1
                    if got.cost != want:
                        wrong.append((label, kind, got.cost, want))
    return wrong, cores


def test_dp_optimum_is_the_same_under_a_second_decomposition():
    # the bag list reversed makes make_nice root the tree at its other
    # end, so the DP forgets the vertices in another order
    wrong, cores = _second_td_mismatches([3], 12)
    assert wrong == [] and cores >= 3


@pytest.mark.slow
def test_dp_optimum_is_the_same_under_a_second_decomposition_full_run():
    # 800 cases, about 50 s
    wrong, cores = _second_td_mismatches(range(21, 25), 100)
    assert wrong == [] and cores >= 100


def split_cases(seed, count):
    """Seeded (label, target, instance) cases over split-composed targets
    of one or two wraps.  Each list holds 1-4 vertices: from one side of
    the split tree (A or a wrap's B∪C) with probability 0.6, so that a
    part solves it alone, else from all of V(H)."""
    rng = random.Random(f"agree-split:{seed}")
    for i in range(count):
        h, sides = families.split_composed_target(rng, rng.choice((1, 1, 2)))
        kind, (n, edges) = _graph(rng, rng.randint(200, 600))
        lists = []
        for _ in range(n):
            pool = rng.choice(sides) if rng.random() < 0.6 else range(h.n)
            lists.append(frozenset(rng.sample(
                pool, rng.randint(1, min(4, len(pool))))))
        yield f"{seed}/{i}: {kind} n={n} h={h.nbhd}", h, Instance(
            n, edges, lists)


def _split_mismatches(seeds, count, monkeypatch):
    """(label, auto cost, DP cost) of each case where they differ; also
    asserts that auto reaches two or more DP parts on every case."""
    dp, parts, wrong = dpsolve.solve_ed_dp, [], []

    def spy(h, inst, td=None):
        parts.append(inst.n)
        return dp(h, inst, td)

    for seed in seeds:
        for label, h, inst in split_cases(seed, count):
            want = dp(h, inst)
            parts.clear()
            with monkeypatch.context() as m:
                m.setattr(dpsolve, "solve_ed_dp", spy)
                got = dpsolve.solve_ed_auto(h, inst)
            assert sum(n > 0 for n in parts) >= 2, label
            if got.cost != want.cost:
                wrong.append((label, got.cost, want.cost))
    return wrong


def test_ed_auto_and_dp_agree_on_split_composed_targets(monkeypatch):
    # auto solves each part of the split on its own; the DP solves the
    # whole target at once, so a mismatch is a bug in one of them
    assert _split_mismatches([1], 80, monkeypatch) == []


@pytest.mark.slow
def test_ed_auto_and_dp_agree_on_split_composed_targets_full_run(
        monkeypatch):
    # 4000 cases, about 60 s
    assert _split_mismatches(range(2, 12), 400, monkeypatch) == []

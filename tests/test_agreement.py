"""The two exact solvers of a poly target, the tree-decomposition DP and
the flow solver, agree on the optimum of seeded instances far beyond the
oracle's reach: 200-1200 vertices on partial 1-3-trees, 2-4-row grids
and sparse graphs, over targets of 2-9 vertices from random_target."""

import random

import pytest

import families
from lhomdel import analysis, dpsolve, polysolve
from lhomdel.graphs import Instance, max_incomparable, random_target

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


@pytest.mark.parametrize("mode", ("vd", "ed"))
def test_dp_and_poly_solvers_agree_on_large_instances(mode):
    # a mismatch is a bug in one of the two solvers
    wrong = []
    for label, h, inst in agreement_cases(1, mode, 40):
        dp, poly = DP[mode](h, inst), POLY[mode](h, inst)
        if dp.cost != poly.cost:
            wrong.append((label, dp.cost, poly.cost))
    assert wrong == []

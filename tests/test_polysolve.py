import random

import pytest

from lhomdel import analysis, oracle, polysolve
from lhomdel.graphs import Instance

import families


def test_staircase_params_units():
    assert polysolve.staircase_params([[1, 0], [0, 1]]) == (1, 1, 2, 2)
    assert polysolve.staircase_params([[1, 1], [1, 1]]) == (2, 2, 1, 1)
    assert polysolve.staircase_params([[0, 0], [0, 0]]) == (0, 0, 3, 3)
    assert polysolve.staircase_params([[1, 0], [1, 1]]) is not None
    # anti-diagonal ones are not a staircase
    assert polysolve.staircase_params([[0, 1], [1, 0]]) is None


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
        cover = polysolve.two_clique_cover(h)
        assert cover.left | cover.right == set(range(h.n))
        assert not cover.left & cover.right
        assert polysolve._is_chain_clique(h, cover.left)
        assert polysolve._is_chain_clique(h, cover.right)
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

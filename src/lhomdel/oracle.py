"""Brute-force reference solvers.

Everything here is exhaustive enumeration with deterministic (lexicographic)
witness selection; the fast solvers are tested against these.  The
deletion oracles search the assignments of the engine's state tuples
(_kernels.states_of) with _kernels.scan_best over plain lists, so they
never load numpy.
"""

from __future__ import annotations

from itertools import accumulate, product
from operator import mul

from . import _kernels
from .analysis import is_valid_decomposition
from .graphs import Infeasible, Instance, Solution, TargetGraph

ENUM_BOUND = 10 ** 8


def _oracle(h: TargetGraph, inst: Instance, mode: str) -> Solution:
    """Exhaustive minimum deletion solution in either mode."""
    vd = mode == "vd"
    if not vd and any(not lst for lst in inst.lists):
        raise Infeasible("vertex with an empty list")
    states = _kernels.states_of(inst.lists, vd)
    if any(size > ENUM_BOUND  # each tuple is nonempty
           for size in accumulate(map(len, states), mul)):
        raise ValueError("instance too large for exhaustive enumeration")
    cost, digits = _kernels.scan_best(h.nbhd, states, inst.edges, vd)
    if cost >= _kernels.INF:  # deleting everything is always feasible
        raise AssertionError(f"{mode} scan found no feasible assignment")
    hom = {v: states[v][d] for v, d in enumerate(digits)
           if states[v][d] != _kernels.DELETED}
    return Solution.of(h, inst, mode, cost, hom, "oracle")


def oracle_vd(h: TargetGraph, inst: Instance) -> Solution:
    return _oracle(h, inst, "vd")


def oracle_ed(h: TargetGraph, inst: Instance) -> Solution:
    return _oracle(h, inst, "ed")


def oracle_decompositions(h: TargetGraph):
    """All valid decompositions (A, B, C), each as three vertex masks,
    lexicographic in the assignment (A=0, B=1, C=2 per vertex, vertex 0
    most significant).  An assignment is one int, the masks of A, B and
    C in its low, middle and high n bits: the sum of one bit per vertex."""
    n, full = h.n, (1 << h.n) - 1
    for assign in product(*((1 << v, 1 << v + n, 1 << v + 2 * n)
                            for v in range(n))):
        x = sum(assign)
        a, b, c = x & full, x >> n & full, x >> 2 * n
        if is_valid_decomposition(h, a, b, c):
            yield a, b, c


def oracle_decomposition(h: TargetGraph):
    """First valid decomposition (three vertex masks) or None: the
    reference that analysis.find_decomposition matches in polynomial time."""
    return next(oracle_decompositions(h), None)


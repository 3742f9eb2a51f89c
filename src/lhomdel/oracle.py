"""Brute-force reference solvers.

Everything here is exhaustive enumeration with deterministic (lexicographic)
witness selection; the fast solvers are tested against these.  The
deletion oracles search the assignments with _kernels.scan_best over plain
lists, so they never load numpy.
"""

from __future__ import annotations

from itertools import accumulate, product
from operator import mul

from . import _kernels
from .analysis import is_valid_decomposition
from .graphs import Infeasible, Instance, Solution, TargetGraph

ENUM_BOUND = 10 ** 8


def _scan_arrays(h: TargetGraph, inst: Instance, mode: str):
    """Mixed-radix encoding of an instance for the oracles' scan_best, as
    plain lists.

    Variable j's digits enumerate sorted(L(j)) and, in vd mode, the deletion
    symbol h.n last, at cost 1; its val and base rows, padded to the largest
    radix, are shared by every variable with the same list.  The adjacency
    matrix is h's, in vd mode with an all-True row and column for h.n.
    """
    vd = mode == "vd"
    radix = [len(lst) + vd for lst in inst.lists]
    rmax = max(radix, default=1)
    rows = {}  # a list -> its (val, base) rows
    for lst in inst.lists:
        if lst not in rows:
            pad = [0] * (rmax - len(lst) - vd)
            rows[lst] = (sorted(lst) + [h.n] * vd + pad,
                         [0] * len(lst) + [1] * vd + pad)
    val = [rows[lst][0] for lst in inst.lists]
    base = [rows[lst][1] for lst in inst.lists]
    eu = [u for u, _ in inst.edges]
    ev = [v for _, v in inst.edges]
    adj = [[h.has_edge(u, v) for v in range(h.n)] + [True] * vd
           for u in range(h.n)] + [[True] * (h.n + 1)] * vd
    return radix, val, base, eu, ev, adj


def _oracle(h: TargetGraph, inst: Instance, mode: str) -> Solution:
    """Exhaustive minimum deletion solution in either mode."""
    ed = mode == "ed"
    if ed and any(not lst for lst in inst.lists):
        raise Infeasible("vertex with an empty list")
    radix, val, base, eu, ev, adj = _scan_arrays(h, inst, mode)
    if any(size > ENUM_BOUND for size in accumulate(radix, mul)):  # radix >= 1
        raise ValueError("instance too large for exhaustive enumeration")
    cost, digits = _kernels.scan_best(radix, val, base, eu, ev, adj, ed)
    if cost >= _kernels.INF:  # deleting everything is always feasible
        raise AssertionError(f"{mode} scan found no feasible assignment")
    hom = {v: val[v][d] for v, d in enumerate(digits)
           if d < len(inst.lists[v])}  # len(L(v)) is the vd deletion digit
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


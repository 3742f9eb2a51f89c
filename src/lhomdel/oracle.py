"""Brute-force reference solvers.

Everything here is exhaustive enumeration with deterministic (lexicographic)
witness selection; the fast solvers are tested against these.
"""

from __future__ import annotations

from itertools import product
from math import prod

from . import _kernels
from .graphs import Infeasible, Instance, Solution, TargetGraph

ENUM_BOUND = 10 ** 8


def _scan_arrays(h: TargetGraph, inst: Instance, mode: str):
    """Mixed-radix encoding of an instance for the oracles' scan_best.

    Variable j's digits enumerate sorted(L(j)) and, in vd mode, the deletion
    symbol h.n last, at cost 1.  The adjacency matrix is h's, in vd mode
    with an all-True row and column for h.n.
    """
    import numpy as np

    vd = mode == "vd"
    radix = np.array([len(inst.lists[v]) + (1 if vd else 0)
                      for v in range(inst.n)], dtype=np.int64)
    rmax = max(1, int(radix.max(initial=0)))
    val = np.zeros((inst.n, rmax), dtype=np.int64)
    base = np.zeros((inst.n, rmax), dtype=np.int64)
    for v in range(inst.n):
        lst = sorted(inst.lists[v])
        for d, x in enumerate(lst):
            val[v, d] = x
        if vd:
            val[v, len(lst)] = h.n
            base[v, len(lst)] = 1
    eu = np.array([e[0] for e in inst.edges], dtype=np.int64)
    ev = np.array([e[1] for e in inst.edges], dtype=np.int64)
    size = h.n + 1 if vd else h.n
    adj = np.ones((size, size), dtype=np.bool_)
    adj[:h.n, :h.n] = [[h.has_edge(u, v) for v in range(h.n)]
                       for u in range(h.n)]
    return radix, val, base, eu, ev, adj


def _check_bound(radix) -> None:
    if prod(int(r) for r in radix) > ENUM_BOUND:
        raise ValueError("instance too large for exhaustive enumeration")


def _oracle(h: TargetGraph, inst: Instance, mode: str) -> Solution:
    """Exhaustive minimum deletion solution in either mode."""
    ed = mode == "ed"
    if ed and any(not lst for lst in inst.lists):
        raise Infeasible("vertex with an empty list")
    radix, val, base, eu, ev, adj = _scan_arrays(h, inst, mode)
    _check_bound(radix)
    cost, digits = _kernels.scan_best(radix, val, base, eu, ev, adj, ed)
    if cost >= _kernels.INF:  # deleting everything is always feasible
        raise AssertionError(f"{mode} scan found no feasible assignment")
    hom = {}
    for v in range(inst.n):
        lst = sorted(inst.lists[v])
        d = int(digits[v])
        if d < len(lst):  # d == len(lst) is the vd deletion symbol
            hom[v] = lst[d]
    if ed:
        deleted = [(u, v) for u, v in inst.edges
                   if not h.has_edge(hom[u], hom[v])]
    else:
        deleted = [v for v in range(inst.n) if v not in hom]
    sol = Solution(mode, int(cost), deleted, hom, "oracle")
    sol.check(h, inst)
    return sol


def oracle_vd(h: TargetGraph, inst: Instance) -> Solution:
    return _oracle(h, inst, "vd")


def oracle_ed(h: TargetGraph, inst: Instance) -> Solution:
    return _oracle(h, inst, "ed")


def oracle_decompositions(h: TargetGraph):
    """All valid decompositions (A, B, C), lexicographic in the assignment
    (A=0, B=1, C=2 per vertex, vertex 0 most significant)."""
    for assign in product((0, 1, 2), repeat=h.n):
        a = [v for v in range(h.n) if assign[v] == 0]
        b = [v for v in range(h.n) if assign[v] == 1]
        c = [v for v in range(h.n) if assign[v] == 2]
        if is_valid_decomposition(h, a, b, c):
            yield (a, b, c)


def oracle_decomposition(h: TargetGraph):
    """First valid decomposition, or None: the reference that
    analysis.find_decomposition matches in polynomial time."""
    return next(oracle_decompositions(h), None)


def is_valid_decomposition(h: TargetGraph, a, b, c) -> bool:
    """(A,B,C): A nonempty, B a reflexive clique fully joined to A, C an
    irreflexive independent set with no edges to A, B or C nonempty."""
    if not a or not (b or c):
        return False
    for u in b:
        for v in b:
            if not h.has_edge(u, v):  # u == v checks the loop
                return False
        for v in a:
            if not h.has_edge(u, v):
                return False
    for u in c:
        if h.has_loop(u):
            return False
        for v in c:
            if u != v and h.has_edge(u, v):
                return False
        for v in a:
            if h.has_edge(u, v):
                return False
    return True

"""Dynamic programming over nice tree decompositions for both deletion
modes, the decomposition-splitting recursion for ED, and the auto
dispatchers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, polysolve
from .graphs import (Infeasible, Instance, Solution, TargetGraph,
                     max_incomparable, reduce_lists)
from .treewidth import TreeDecomposition, build_td, make_nice, validate_td

DELETED = -1  # vertex-deletion state symbol
INF = 1 << 60
# Largest DP table (entries) a solve may allocate; 2^24 int64 entries take
# 128 MiB, and a join holds two tables of its size.
MAX_TABLE_ENTRIES = 1 << 24


class TableTooLarge(ValueError):
    """A bag's DP table would exceed MAX_TABLE_ENTRIES entries."""


def _run_dp(h: TargetGraph, inst: Instance, td: TreeDecomposition, mode: str):
    """Bottom-up DP; returns (cost, hom, max_states) with hom omitting
    deleted vertices.

    Each node's table is an int64 array with one axis per vertex of
    sorted(bag), indexed by position in the vertex's sorted list; VD adds
    the DELETED symbol as the last index.  Entries >= INF are infeasible.
    Each G edge is charged at its unique introduce-edge node: VD makes
    states with kept non-adjacent images infeasible, ED pays 1.
    max_states counts finite entries, the states a sparse table would hold.
    """
    base = max_incomparable(h)[0] + (1 if mode == "vd" else 0)
    choices = []
    for v in range(inst.n):
        lst = sorted(inst.lists[v])
        if mode == "vd":
            lst.append(DELETED)
        elif not lst:
            raise Infeasible(f"vertex {v} has an empty list")
        if len(lst) > base:  # so no table exceeds base ** len(bag)
            raise AssertionError(
                f"list of vertex {v} has {len(lst)} states, above the "
                f"bound {base}")
        choices.append(lst)
    for bag in td.bags:
        size = math.prod(len(choices[v]) for v in bag)
        if size > MAX_TABLE_ENTRIES:
            raise TableTooLarge(
                f"a bag of {len(bag)} vertices needs a table of {size} "
                f"entries, above the cap of {MAX_TABLE_ENTRIES}")
    nodes = make_nice(td, inst.edges)
    # per-axis cost of each index: 1 for DELETED (VD), 0 otherwise
    del_cost = [np.array([int(x == DELETED) for x in lst], dtype=np.int64)
                for lst in choices]
    penalties = {}  # (list u, list v) -> edge penalty matrix

    def penalty(lu, lv):
        key = (tuple(lu), tuple(lv))
        if key not in penalties:
            if mode == "vd":
                bad = [[0 if a == DELETED or b == DELETED or h.has_edge(a, b)
                        else INF for b in lv] for a in lu]
            else:
                bad = [[0 if h.has_edge(a, b) else 1 for b in lv] for a in lu]
            penalties[key] = np.array(bad, dtype=np.int64)
        return penalties[key]

    def along(vec, at, ndim):
        """vec reshaped to broadcast along axis `at` of an ndim array."""
        shape = [1] * ndim
        shape[at] = len(vec)
        return vec.reshape(shape)

    tables = [None] * len(nodes)
    argmins = {}  # forget node -> index of the forgotten vertex's image
    max_states = 1  # the leaf's table {(): 0}
    for idx, nd in enumerate(nodes):
        bag = sorted(nd.bag)
        if nd.kind == "leaf":
            table = np.zeros((), dtype=np.int64)
        elif nd.kind == "introduce":
            v = nd.payload
            child = tables[nd.children[0]]
            at = bag.index(v)
            table = (child.reshape(child.shape[:at] + (1,) + child.shape[at:])
                     + along(del_cost[v], at, len(bag)))
            # only introduce nodes grow the number of finite entries
            max_states = max(max_states, int(np.count_nonzero(child < INF))
                             * len(choices[v]))
        elif nd.kind == "introduce_edge":
            u, v = nd.payload
            iu, iv = bag.index(u), bag.index(v)
            table = tables[nd.children[0]]
            pen = penalty(choices[u], choices[v])
            shape = [1] * len(bag)
            shape[iu], shape[iv] = pen.shape  # iu < iv: payloads are sorted
            table += pen.reshape(shape)
            np.minimum(table, INF, out=table)
        elif nd.kind == "forget":
            child = tables[nd.children[0]]
            at = sorted(nodes[nd.children[0]].bag).index(nd.payload)
            argmins[idx] = child.argmin(axis=at).astype(
                np.min_scalar_type(len(choices[nd.payload]) - 1))
            table = child.min(axis=at)
        else:  # join: both children paid for the deleted bag vertices
            c1, c2 = nd.children
            table = tables[c1]
            table += tables[c2]
            if mode == "vd":
                for at, v in enumerate(bag):
                    table -= along(del_cost[v], at, len(bag))
            np.minimum(table, INF, out=table)
        for c in nd.children:
            tables[c] = None
        tables[idx] = table
    root = len(nodes) - 1
    cost = int(tables[root][()])
    if cost >= INF:
        raise Infeasible("no feasible assignment")
    # top-down traceback; a vertex's image is read off when it is forgotten
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
        else:  # introduce-edge and join keep the state; leaf has no child
            for c in nd.children:
                chosen[c] = st
    return cost, hom, max_states


def solve_vd_dp(h: TargetGraph, inst: Instance,
                td: Optional[TreeDecomposition] = None) -> Solution:
    red = reduce_lists(h, inst)
    if td is None:
        td = build_td(red)
    width = validate_td(red, td)
    cost, hom, max_states = _run_dp(h, red, td, "vd")
    deleted = sorted(v for v in range(inst.n) if v not in hom)
    sol = Solution("vd", cost, deleted, hom, "dp",
                   {"width": width, "max_bag_states": max_states})
    sol.check(h, inst)
    return sol


def solve_ed_dp(h: TargetGraph, inst: Instance,
                td: Optional[TreeDecomposition] = None) -> Solution:
    if any(not lst for lst in inst.lists):
        raise Infeasible("vertex with an empty list")
    red = reduce_lists(h, inst)
    if td is None:
        td = build_td(red)
    width = validate_td(red, td)
    cost, hom, max_states = _run_dp(h, red, td, "ed")
    deleted = sorted((u, v) for u, v in inst.edges
                     if not h.has_edge(hom[u], hom[v]))
    if len(deleted) != cost:
        raise AssertionError(
            f"DP cost {cost} but the witness deletes {len(deleted)} edges")
    sol = Solution("ed", cost, deleted, hom, "dp",
                   {"width": width, "max_bag_states": max_states})
    sol.check(h, inst)
    return sol


# ---------------------------------------------------------------------------
# decomposition splitting


@dataclass(frozen=True)
class Split:
    forced: tuple           # G edges always deleted (A–C pairs)
    sub_a: Instance         # over H[A]
    sub_bc: Instance        # over H[B∪C]
    verts_a: tuple          # sub_a index -> G vertex
    verts_bc: tuple
    target_a: tuple         # H[A] index -> H vertex
    target_bc: tuple


def split_by_decomposition(h: TargetGraph, dec: analysis.Decomposition,
                           inst: Instance) -> Split:
    """A–B edges of G are discarded, A–C edges forced-deleted; the two
    sides become independent subinstances over H[A] and H[B∪C]."""
    red = reduce_lists(h, inst)
    a, b, c = set(dec.a), set(dec.b), set(dec.c)
    side = []
    for v in range(red.n):
        lst = red.lists[v]
        if not (lst <= a or lst <= b or lst <= c):
            raise ValueError(
                f"reduced list of vertex {v} straddles the partition")
        side.append("a" if lst <= a else "bc")
    verts_a = tuple(v for v in range(red.n) if side[v] == "a")
    verts_bc = tuple(v for v in range(red.n) if side[v] == "bc")
    pos_a = {v: i for i, v in enumerate(verts_a)}
    pos_bc = {v: i for i, v in enumerate(verts_bc)}
    target_a = tuple(sorted(a))
    target_bc = tuple(sorted(b | c))
    tpos_a = {x: i for i, x in enumerate(target_a)}
    tpos_bc = {x: i for i, x in enumerate(target_bc)}
    ea, ebc, forced = [], [], []
    for u, v in red.edges:
        if side[u] == side[v]:
            (ea if side[u] == "a" else ebc).append(
                (pos_a[u], pos_a[v]) if side[u] == "a"
                else (pos_bc[u], pos_bc[v]))
        else:
            x = u if side[u] == "a" else v  # A-side endpoint
            y = v if x == u else u
            if red.lists[y] <= c:
                forced.append(tuple(sorted((u, v))))
            # A–B pairs are always compatible (full join): drop the edge
    sub_a = Instance(len(verts_a),
                     sorted(tuple(sorted(e)) for e in ea),
                     [frozenset(tpos_a[x] for x in red.lists[v])
                      for v in verts_a], None)
    sub_bc = Instance(len(verts_bc),
                      sorted(tuple(sorted(e)) for e in ebc),
                      [frozenset(tpos_bc[x] for x in red.lists[v])
                       for v in verts_bc], None)
    return Split(tuple(sorted(forced)), sub_a, sub_bc,
                 verts_a, verts_bc, target_a, target_bc)


def solve_vd_auto(h: TargetGraph, inst: Instance,
                  td: Optional[TreeDecomposition] = None) -> Solution:
    if analysis.classify_vd(h)[0] == "poly":
        if td is not None:  # unused here, but a bad file fails on every path
            validate_td(inst, td)
        sol = polysolve.solve_vd_poly(h, inst)
    else:
        sol = solve_vd_dp(h, inst, td)
    return Solution("vd", sol.cost, sol.deleted, sol.hom, "auto", sol.stats)


def solve_ed_auto(h: TargetGraph, inst: Instance,
                  td: Optional[TreeDecomposition] = None) -> Solution:
    """Poly solver when obstruction-free; otherwise walk H's decomposition
    tree, splitting along each node's decomposition, down to parts that
    are obstruction-free (poly solver) or undecomposable (DP).
    A `td` goes to a DP at the root; the other paths only validate it."""
    return _solve_ed_node(h, inst, td, None)


def _solve_ed_node(h: TargetGraph, inst: Instance,
                   td: Optional[TreeDecomposition],
                   node: Optional[analysis.DecompositionTreeNode]) -> Solution:
    """solve_ed_auto on h, the target of `node`; at the root node is None,
    and the tree is only built once h is known to be hard."""
    if analysis.classify_ed(h)[0] == "poly":
        if td is not None:
            validate_td(inst, td)
        inner = polysolve.solve_ed_poly(h, inst)
        sol = Solution("ed", inner.cost, inner.deleted, inner.hom, "auto",
                       inner.stats)
        sol.check(h, inst)
        return sol
    if node is None:
        node = analysis.decomposition_tree(h)
    dec = node.local_decomposition
    if dec is None:
        inner = solve_ed_dp(h, inst, td)
        sol = Solution("ed", inner.cost, inner.deleted, inner.hom, "auto",
                       inner.stats)
        sol.check(h, inst)
        return sol
    if td is not None:
        validate_td(inst, td)
    if any(not lst for lst in inst.lists):
        raise Infeasible("vertex with an empty list")
    sp = split_by_decomposition(h, dec, inst)
    part_a, part_bc = node.children
    sol_a = _solve_ed_node(part_a.target, sp.sub_a, None, part_a)
    sol_bc = _solve_ed_node(part_bc.target, sp.sub_bc, None, part_bc)
    hom = {}
    for i, v in enumerate(sp.verts_a):
        hom[v] = sp.target_a[sol_a.hom[i]]
    for i, v in enumerate(sp.verts_bc):
        hom[v] = sp.target_bc[sol_bc.hom[i]]
    cost = sol_a.cost + sol_bc.cost + len(sp.forced)
    deleted = sorted(tuple(sorted((u, v))) for u, v in inst.edges
                     if not h.has_edge(hom[u], hom[v]))
    if len(deleted) != cost:
        raise AssertionError(
            f"split cost {cost} but the merged witness deletes "
            f"{len(deleted)} edges")
    sol = Solution("ed", cost, deleted, hom, "auto",
                   {"parts": 2, "forced": len(sp.forced)})
    sol.check(h, inst)
    return sol

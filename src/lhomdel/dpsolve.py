"""Dynamic programming over nice tree decompositions for both deletion
modes, the decomposition-splitting recursion for ED, and the auto
dispatchers."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import analysis, polysolve
from ._kernels import DELETED, INF, edge_penalty
from .graphs import (Infeasible, Instance, Solution, TargetGraph,
                     is_incomparable_set, reduce_lists)
from .treewidth import TreeDecomposition, build_td, make_nice, validate_td

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
    Each cost is charged once, at one kind of node.  An introduce node
    adds the G edges it completes as one penalty over their ends' axes:
    in VD an edge makes states with kept non-adjacent images infeasible,
    and the penalty, like every VD sum, is clamped at INF; in ED an edge
    pays 1.  A VD deletion is charged where its vertex is forgotten; a
    join just adds its children.  ED tables never hold INF (an entry
    counts deleted edges), so ED clamps nothing.  max_states counts
    finite entries, the states a sparse table would hold.
    """
    import numpy as np

    vd = mode == "vd"
    # a pairwise incomparable list has at most i(H) members, so no table
    # exceeds (i(H) + vd) ** len(bag); each distinct list is checked once
    states = {}
    for lst in set(inst.lists):
        if not is_incomparable_set(h, lst):
            raise AssertionError(f"list {sorted(lst)} is not incomparable")
        states[lst] = tuple(sorted(lst)) + ((DELETED,) if vd else ())
    choices = [states[lst] for lst in inst.lists]
    for bag in td.bags:
        size = math.prod(len(choices[v]) for v in bag)
        if size > MAX_TABLE_ENTRIES:
            raise TableTooLarge(
                f"a bag of {len(bag)} vertices needs a table of {size} "
                f"entries, above the cap of {MAX_TABLE_ENTRIES}")
    nodes = make_nice(td, inst.edges)
    penalties = {}  # (list u, list v) -> edge penalty matrix
    # two edges' penalties combined: VD's are 0 or INF, so their maximum
    # is their sum clamped at INF, and no sum of INFs can overflow int64
    combine = np.maximum if vd else np.add
    longest = max(map(len, states.values()), default=1)
    pick_type = np.min_scalar_type(longest - 1)  # holds any list index
    # axis of an introduced or forgotten vertex in sorted(bag ∪ {v})
    axes = [0] * len(nodes)
    tables = [None] * len(nodes)
    argmins = {}  # forget node -> index of the forgotten vertex's image
    max_states = 1  # the leaf's table {(): 0}
    for idx, nd in enumerate(nodes):
        kind = nd.kind
        if kind == "leaf":
            table = np.zeros((), dtype=np.int64)
        elif kind == "introduce":
            v = nd.payload
            child = tables[nd.children[0]]
            bag = sorted(nd.bag)
            at = axes[idx] = bag.index(v)
            k = len(choices[v])
            # only introduce nodes grow the number of finite entries, to
            # at most child.size * k
            if child.size * k > max_states:
                finite = (int(np.count_nonzero(child < INF)) if vd
                          else child.size)
                max_states = max(max_states, finite * k)
            shape = child.shape[:at] + (1,) + child.shape[at:]
            if not nd.edges:
                table = child.reshape(shape).repeat(k, at)
            else:
                pen = None
                for u, w in nd.edges:
                    cu, cw = choices[u], choices[w]
                    p = penalties.get((cu, cw))
                    if p is None:
                        p = penalties[cu, cw] = edge_penalty(
                            h.nbhd, cu, cw, INF if vd else 1)
                    ps = [1] * len(bag)
                    ps[bag.index(u)], ps[bag.index(w)] = p.shape  # u < w
                    p = p.reshape(ps)
                    pen = p if pen is None else combine(pen, p)
                table = child.reshape(shape) + pen
                if vd:  # the child is at most INF plus the deletions
                    # charged since its last clamp, the penalty INF
                    np.minimum(table, INF, out=table)
        elif kind == "forget":
            v = nd.payload
            child = tables[nd.children[0]]
            at = axes[idx] = sorted(nodes[nd.children[0]].bag).index(v)
            if vd:  # DELETED is the last index on v's axis
                child[(slice(None),) * at + (-1,)] += 1
            argmins[idx] = child.argmin(axis=at).astype(pick_type)
            table = child.min(axis=at)
        else:  # join
            c1, c2 = nd.children
            table = tables[c1]
            table += tables[c2]
            if vd:
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
        at = axes[idx]
        if nd.kind == "forget":
            v = nd.payload
            pick = int(argmins[idx][st])
            if choices[v][pick] != DELETED:
                hom[v] = choices[v][pick]
            chosen[nd.children[0]] = st[:at] + (pick,) + st[at:]
        elif nd.kind == "introduce":
            chosen[nd.children[0]] = st[:at] + st[at + 1:]
        else:  # a join keeps the state; a leaf has no child
            for c in nd.children:
                chosen[c] = st
    return cost, hom, max_states


def _solve_dp(h: TargetGraph, inst: Instance,
              td: Optional[TreeDecomposition], mode: str) -> Solution:
    if mode == "ed" and any(not lst for lst in inst.lists):
        raise Infeasible("vertex with an empty list")
    red = reduce_lists(h, inst)
    if td is None:
        td = build_td(red)
    width = validate_td(red, td)
    cost, hom, max_states = _run_dp(h, red, td, mode)
    if mode == "vd":
        deleted = sorted(v for v in range(inst.n) if v not in hom)
    else:
        deleted = sorted((u, v) for u, v in inst.edges
                         if not h.has_edge(hom[u], hom[v]))
    sol = Solution(mode, cost, deleted, hom, "dp",
                   {"width": width, "max_bag_states": max_states})
    sol.check(h, inst)
    return sol


def solve_vd_dp(h: TargetGraph, inst: Instance,
                td: Optional[TreeDecomposition] = None) -> Solution:
    return _solve_dp(h, inst, td, "vd")


def solve_ed_dp(h: TargetGraph, inst: Instance,
                td: Optional[TreeDecomposition] = None) -> Solution:
    return _solve_dp(h, inst, td, "ed")


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
        return replace(polysolve.solve_vd_poly(h, inst), algorithm="auto")
    return replace(solve_vd_dp(h, inst, td), algorithm="auto")


def solve_ed_auto(h: TargetGraph, inst: Instance,
                  td: Optional[TreeDecomposition] = None) -> Solution:
    """Poly solver when obstruction-free; otherwise walk H's decomposition
    tree, splitting along each node's decomposition, down to parts that
    are obstruction-free (poly solver) or undecomposable (DP).
    A `td` goes to a DP at the root; the other paths only validate it."""
    return replace(_solve_ed_node(h, inst, td, None), algorithm="auto")


def _solve_ed_node(h: TargetGraph, inst: Instance,
                   td: Optional[TreeDecomposition],
                   node: Optional[analysis.DecompositionTreeNode]) -> Solution:
    """solve_ed_auto on h, the target of `node`; at the root node is None,
    and the tree is only built once h is known to be hard.  The poly and
    DP solvers check their own solutions.  A merged one is checked against
    (h, inst) at the root only: each inner merge's hom and cost are
    composed into the root's, so the root's check covers them."""
    root = node is None
    if analysis.classify_ed(h)[0] == "poly":
        if td is not None:
            validate_td(inst, td)
        return polysolve.solve_ed_poly(h, inst)
    if root:
        node = analysis.decomposition_tree(h)
    dec = node.local_decomposition
    if dec is None:
        return solve_ed_dp(h, inst, td)
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
    deleted = sorted(tuple(sorted((u, v))) for u, v in inst.edges
                     if not h.has_edge(hom[u], hom[v]))
    sol = Solution("ed", sol_a.cost + sol_bc.cost + len(sp.forced), deleted,
                   hom, "auto", {"parts": 2, "forced": len(sp.forced)})
    if root:
        sol.check(h, inst)
    return sol

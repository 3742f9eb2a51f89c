"""Polynomial-time solvers for targets on the tractable side of each
dichotomy.

VD: reflexive targets coverable by two comparability-chain cliques; one
min vertex separator decides which clique each G-vertex maps into.

ED: obstruction-free targets; each distinct reduced list gets a staircase
order, interaction matrices decompose into at most three zero rectangles,
and one min cut over per-vertex paths pays exactly one unit per deleted
edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from . import analysis
from .graphs import (Infeasible, Instance, Solution, TargetGraph,
                     reduce_lists)
from .mincut import FlowNetwork, min_cut, min_vertex_separator


@dataclass(frozen=True)
class TwoCliqueCover:
    left: frozenset[int]
    right: frozenset[int]


def _is_chain_clique(h: TargetGraph, part) -> bool:
    for u, v in combinations(part, 2):
        if not h.has_edge(u, v):
            return False
        if h.nbhd[u] & ~h.nbhd[v] and h.nbhd[v] & ~h.nbhd[u]:
            return False  # incomparable pair inside a part
    return True


def two_clique_cover(h: TargetGraph) -> TwoCliqueCover:
    """Partition V(H) into two cliques with chain neighborhoods each.

    2-colors the loop-stripped complement; component orientations are
    searched (first valid in lexicographic flip order) since the chain
    condition can depend on them.
    """
    if analysis.classify_vd(h)[0] != "poly":
        raise ValueError("target is not on the tractable side for VD")
    # complement components with a fixed 2-coloring each
    comp_colors = []
    seen = set()
    for root in range(h.n):
        if root in seen:
            continue
        color = {root: 0}
        stack = [root]
        members = [root]
        while stack:
            u = stack.pop()
            for v in range(h.n):
                if v != u and not h.has_edge(u, v):  # complement edge
                    if v not in color:
                        color[v] = 1 - color[u]
                        members.append(v)
                        stack.append(v)
                    elif color[v] == color[u]:
                        raise ValueError("complement is not bipartite")
        seen.update(members)
        comp_colors.append(color)
    ncomp = len(comp_colors)
    for flips in range(1 << ncomp):
        left, right = set(), set()
        for c, color in enumerate(comp_colors):
            flip = flips >> c & 1
            for v, col in color.items():
                (left if col ^ flip == 0 else right).add(v)
        if _is_chain_clique(h, left) and _is_chain_clique(h, right):
            return TwoCliqueCover(frozenset(left), frozenset(right))
    raise ValueError("no chain two-clique cover found")


def solve_vd_poly(h: TargetGraph, inst: Instance) -> Solution:
    """Minimum vertex deletion via one min vertex separator."""
    if analysis.classify_vd(h)[0] != "poly":
        raise ValueError("solve_vd_poly requires a Poly-classified target")
    cover = two_clique_cover(h)
    red = reduce_lists(h, inst)
    forced = [v for v in range(inst.n) if not red.lists[v]]
    alive = [v for v in range(inst.n) if red.lists[v]]
    pos = {v: i for i, v in enumerate(alive)}
    n = len(alive)
    s, t = n, n + 1
    lelem: dict[int, int] = {}
    relem: dict[int, int] = {}
    for v in alive:
        ls = sorted(red.lists[v] & cover.left)
        rs = sorted(red.lists[v] & cover.right)
        if len(ls) > 1 or len(rs) > 1:  # chain parts, reduced lists
            raise AssertionError(
                f"reduced list of vertex {v} meets a cover part twice")
        if ls:
            lelem[v] = ls[0]
        if rs:
            relem[v] = rs[0]
    arcs = []
    for v in alive:
        if v not in relem:
            arcs.append((s, pos[v]))
        if v not in lelem:
            arcs.append((pos[v], t))
    for u, v in inst.edges:
        if u not in pos or v not in pos:
            continue
        for x, y in ((u, v), (v, u)):
            if x in lelem and y in relem and not h.has_edge(lelem[x], relem[y]):
                arcs.append((pos[x], pos[y]))
    value, sep = min_vertex_separator(n + 2, arcs, s, t)
    deleted = forced + sorted(alive[i] for i in sep)
    # side assignment: reachable from s avoiding the separator -> left clique
    adj = {i: [] for i in range(n + 2)}
    for a, b in arcs:
        adj[a].append(b)
    reach = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in reach and y not in sep and y != t:
                reach.add(y)
                stack.append(y)
    hom = {}
    for v in alive:
        if pos[v] in sep:
            continue
        hom[v] = lelem[v] if pos[v] in reach else relem[v]
    sol = Solution("vd", len(deleted), deleted, hom, "poly",
                   {"flow_value": value})
    sol.check(h, inst)
    return sol


# ---------------------------------------------------------------------------
# ED: staircase orders, interaction matrices, rectangle covers, min cut


def interaction_matrix(h: TargetGraph, xorder, yorder):
    """M[i][j] = 1 iff x_{i+1} and y_{j+1} are adjacent in H."""
    return [[1 if h.has_edge(x, y) else 0 for y in yorder] for x in xorder]


def staircase_params(m) -> Optional[tuple[int, int, int, int]]:
    """(i1, j1, i2, j2), 1-indexed, if the ones form two corner rectangles
    {i≤i1 ∧ j≤j1} ∪ {i≥i2 ∧ j≥j2} whose zero complement is coverable by
    the r1/r2/r3 rectangle grammar (and likewise for the transpose)."""
    rows, cols = len(m), len(m[0])
    if m[0][0]:
        i1 = next((i for i in range(rows) if not m[i][0]), rows)
        j1 = next((j for j in range(cols) if not m[0][j]), cols)
    else:
        i1 = j1 = 0
    if m[rows - 1][cols - 1]:
        up = next((d for d in range(rows) if not m[rows - 1 - d][cols - 1]),
                  rows)
        back = next((d for d in range(cols) if not m[rows - 1][cols - 1 - d]),
                    cols)
        i2, j2 = rows - up + 1, cols - back + 1
    else:
        i2, j2 = rows + 1, cols + 1
    # zero cells must fit the rectangle grammar: with i1 >= i2 a middle row
    # band (rows i2..i1) has ones only at j <= j1 or j >= j2, so its zeros
    # are uncoverable unless that band has none (j2 <= j1 + 1); same for
    # the transpose with a middle column band
    if i1 >= i2 and j2 > j1 + 1:
        return None
    if j1 >= j2 and i2 > i1 + 1:
        return None
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            ones = (i <= i1 and j <= j1) or (i >= i2 and j >= j2)
            if bool(m[i - 1][j - 1]) != ones:
                return None
    return i1, j1, i2, j2


@dataclass(frozen=True)
class RectangleCover:
    """Zero cells of an interaction matrix as up to three rectangles.

    r1 touches the top-right corner region, r3 the bottom-left, r2 is a
    full-width row band; each as (row_lo, row_hi, col_lo, col_hi), 1-indexed
    inclusive, or None.
    """
    r1: Optional[tuple[int, int, int, int]]
    r2: Optional[tuple[int, int, int, int]]
    r3: Optional[tuple[int, int, int, int]]

    def cells(self, which):
        r = getattr(self, which)
        if r is None:
            return set()
        rlo, rhi, clo, chi = r
        return {(i, j) for i in range(rlo, rhi + 1)
                for j in range(clo, chi + 1)}


def rectangle_cover(m) -> RectangleCover:
    params = staircase_params(m)
    if params is None:
        raise ValueError("matrix is not in staircase form")
    i1, j1, i2, j2 = params
    rows, cols = len(m), len(m[0])

    def rect(rlo, rhi, clo, chi):
        if rlo > rhi or clo > chi:
            return None
        return (rlo, rhi, clo, chi)

    if i1 < i2:
        r1 = rect(1, i1, j1 + 1, cols)
        r2 = rect(i1 + 1, i2 - 1, 1, cols)
        r3 = rect(i2, rows, 1, j2 - 1)
    else:
        r1 = rect(1, i2 - 1, j1 + 1, cols)
        r2 = None
        r3 = rect(i1 + 1, rows, 1, j2 - 1)
    rc = RectangleCover(r1, r2, r3)
    # the three rectangles partition the zero set exactly
    zeros = {(i + 1, j + 1) for i in range(rows) for j in range(cols)
             if not m[i][j]}
    c1, c2, c3 = rc.cells("r1"), rc.cells("r2"), rc.cells("r3")
    if (c1 & c2) or (c1 & c3) or (c2 & c3):
        raise AssertionError("rectangle cover parts overlap")
    if c1 | c2 | c3 != zeros:
        raise AssertionError("rectangle cover is not the zero set")
    return rc


def _per_vertex_types_ok(h: TargetGraph, order) -> bool:
    """Gamma(y) ∩ X must be a prefix, a suffix, ∅, or X for every y."""
    for y in range(h.n):
        hits = [1 if h.has_edge(y, x) else 0 for x in order]
        k = sum(hits)
        if k in (0, len(order)):
            continue
        if hits[:k] != [1] * k and hits[-k:] != [1] * k:
            return False
    return True


def staircase_orders(h: TargetGraph, lists) -> dict[frozenset, tuple]:
    """One order per distinct list, jointly satisfying all pairwise
    staircase constraints; backtracking, first solution in lexicographic
    order."""
    distinct = sorted({frozenset(lst) for lst in lists if lst},
                      key=lambda f: sorted(f))
    candidates = []
    for lst in distinct:
        perms = [p for p in permutations(sorted(lst))
                 if _per_vertex_types_ok(h, p)]
        if not perms:
            raise ValueError(f"no staircase order for list {sorted(lst)}")
        candidates.append(perms)
    chosen: list[tuple] = []

    def compatible(new_order) -> bool:
        for other in chosen + [new_order]:
            for a, b in ((new_order, other), (other, new_order)):
                if staircase_params(interaction_matrix(h, a, b)) is None:
                    return False
        return True

    def search(idx) -> bool:
        if idx == len(distinct):
            return True
        for p in candidates[idx]:
            if compatible(p):
                chosen.append(p)
                if search(idx + 1):
                    return True
                chosen.pop()
        return False

    if not search(0):
        raise ValueError("joint staircase order search failed")
    return dict(zip(distinct, chosen))


def solve_ed_poly(h: TargetGraph, inst: Instance) -> Solution:
    """Minimum edge deletion via one min cut over per-vertex paths."""
    if analysis.classify_ed(h)[0] != "poly":
        raise ValueError("solve_ed_poly requires a Poly-classified target")
    if any(not lst for lst in inst.lists):
        raise Infeasible("vertex with an empty list")
    red = reduce_lists(h, inst)
    orders = staircase_orders(h, red.lists)
    net = FlowNetwork("s", "t")
    order_of = [orders[frozenset(red.lists[v])] for v in range(inst.n)]

    def p(v, i):
        return ("p", v, i)

    for v in range(inst.n):
        ln = len(order_of[v])
        for i in range(1, ln + 1):
            net.add_arc(p(v, i - 1), p(v, i), "unbreakable")
        net.add_arc(p(v, 0), "t", "unbreakable")
        net.add_arc("s", p(v, ln), "unbreakable")
    for u, w in inst.edges:
        v, w = (u, w) if u < w else (w, u)
        rc = rectangle_cover(interaction_matrix(h, order_of[v], order_of[w]))
        if rc.r1 is not None:
            _, rhi, clo, _ = rc.r1   # bottom-left corner (rhi, clo)
            net.add_arc(p(v, rhi), p(w, clo - 1), 1)
        if rc.r3 is not None:
            rlo, _, _, chi = rc.r3   # top-right corner (rlo, chi)
            net.add_arc(p(w, chi), p(v, rlo - 1), 1)
        if rc.r2 is not None:
            rlo, rhi, _, _ = rc.r2
            net.add_arc(p(v, rhi), p(v, rlo - 1), 1)
    value, s_side, _ = min_cut(net)
    hom = {}
    for v in range(inst.n):
        trans = next(i for i in range(1, len(order_of[v]) + 1)
                     if p(v, i) in s_side)
        hom[v] = order_of[v][trans - 1]
    deleted = [(u, w) for u, w in inst.edges
               if not h.has_edge(hom[u], hom[w])]
    # one unit arc per violated edge: the cut pays each deletion exactly once
    if len(deleted) != value:
        raise AssertionError(
            f"{len(deleted)} edges deleted but the cut value is {value}")
    sol = Solution("ed", value, deleted, hom, "poly", {"flow_value": value})
    sol.check(h, inst)
    return sol

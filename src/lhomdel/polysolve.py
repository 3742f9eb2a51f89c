"""Polynomial-time solvers for targets on the tractable side of each
dichotomy.

VD: reflexive targets coverable by two comparability-chain cliques
(analysis.two_clique_cover, whose existence is the VD dichotomy); one min
vertex separator decides which clique each G-vertex maps into.

ED: obstruction-free targets; each distinct reduced list gets a staircase
order, interaction matrices decompose into at most three zero rectangles,
and one min cut over per-vertex paths pays exactly one unit per deleted
edge.  A vertex's path runs over the positions 0..len of its order; every
finite cut puts position 0 on the sink side and the last position on the
source side, so these are t and s themselves and only the positions in
between get nodes (a vertex with a one-element list gets none).

Work that depends only on a list or on a pair of orders is done once per
distinct key within a solve: each distinct list is reduced once (and, for
VD, split between the two cliques once), and each distinct pair of
staircase orders gets one interaction matrix and one rectangle cover,
however many vertices and edges share it.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple, Optional

from . import analysis
from .graphs import (Infeasible, Instance, Solution, TargetGraph,
                     reduce_lists)
from .mincut import min_cut, min_vertex_separator


def solve_vd_poly(h: TargetGraph, inst: Instance) -> Solution:
    """Minimum vertex deletion via one min vertex separator."""
    cover = analysis.two_clique_cover(h)
    if cover is None:
        raise ValueError("solve_vd_poly requires a Poly-classified target")
    red = reduce_lists(h, inst)
    alive = [v for v in range(inst.n) if red.lists[v]]
    pos = {v: i for i, v in enumerate(alive)}
    n = len(alive)
    s, t = n, n + 1
    lelem: dict[int, int] = {}
    relem: dict[int, int] = {}
    parts: dict[frozenset, tuple[list, list]] = {}  # one split per list
    for v in alive:
        lst = red.lists[v]
        if lst not in parts:
            ls = sorted(lst & cover.left)
            rs = sorted(lst & cover.right)
            if len(ls) > 1 or len(rs) > 1:  # chain parts, reduced lists
                raise AssertionError(
                    f"reduced list of vertex {v} meets a cover part twice")
            parts[lst] = ls, rs
        ls, rs = parts[lst]
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
    value, sep, reach = min_vertex_separator(n + 2, arcs, s, t)
    # reachable from s avoiding the separator -> left clique; the cost
    # counts the separator and the inst.n - n empty-list vertices
    hom = {}
    for v in alive:
        if pos[v] in sep:
            continue
        hom[v] = lelem[v] if pos[v] in reach else relem[v]
    return Solution.of(h, inst, "vd", inst.n - n + value, hom, "poly",
                       {"flow_value": value})


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


class RectangleCover(NamedTuple):
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
    order.

    Each unordered pair of orders is tested once: a matrix is a staircase
    exactly when its transpose is.  A one-vertex order is compatible with
    every order that passed the per-vertex check, which every order of at
    most two vertices passes."""
    distinct = sorted({frozenset(lst) for lst in lists if lst},
                      key=lambda f: sorted(f))
    candidates = []
    for lst in distinct:
        perms = [p for p in permutations(sorted(lst))
                 if len(p) <= 2 or _per_vertex_types_ok(h, p)]
        if not perms:
            raise ValueError(f"no staircase order for list {sorted(lst)}")
        candidates.append(perms)
    chosen: list[tuple] = []

    def compatible(new_order) -> bool:
        return len(new_order) == 1 or all(
            len(other) == 1 or staircase_params(
                interaction_matrix(h, new_order, other)) is not None
            for other in chosen + [new_order])

    tries = []  # per list chosen or being tried: its candidates left
    while len(chosen) < len(distinct):
        if len(tries) == len(chosen):
            tries.append(iter(candidates[len(chosen)]))
        p = next(filter(compatible, tries[-1]), None)
        if p is not None:
            chosen.append(p)
        elif chosen:  # back up to the previous list's next candidate
            tries.pop()
            chosen.pop()
        else:
            raise ValueError("joint staircase order search failed")
    return dict(zip(distinct, chosen))


def solve_ed_poly(h: TargetGraph, inst: Instance,
                  classified: bool = False) -> Solution:
    """Minimum edge deletion via one min cut over per-vertex paths;
    `classified` says the caller has already found h Poly-classified."""
    if not classified and analysis.classify_ed(h)[0] != "poly":
        raise ValueError("solve_ed_poly requires a Poly-classified target")
    if any(not lst for lst in inst.lists):
        raise Infeasible("vertex with an empty list")
    red = reduce_lists(h, inst)
    orders = staircase_orders(h, red.lists)
    order_of = [orders[frozenset(red.lists[v])] for v in range(inst.n)]
    # position i of v's order (0..len) is on the source side iff v maps to
    # one of the first i elements of its order, and unbreakable arcs run
    # from position i - 1 to i.  So position 0 is always on the sink side
    # and position len always on the source side: node[v][0] is t and
    # node[v][len] is s, and only positions 1..len-1 get nodes of their own
    s, t = 0, 1
    node, n = [], 2
    arcs = []
    for order in order_of:
        ln = len(order)
        node.append([t, *range(n, n + ln - 1), s])
        arcs += [(x, x + 1, False) for x in range(n, n + ln - 2)]
        n += ln - 1
    # a corner arc runs from a position >= 1 to one below its order's
    # length, so none leaves t, enters s or becomes a loop
    covers: dict[tuple, RectangleCover] = {}  # one per pair of orders
    for u, w in inst.edges:
        v, w = (u, w) if u < w else (w, u)
        key = order_of[v], order_of[w]
        rc = covers.get(key)
        if rc is None:
            rc = covers[key] = rectangle_cover(interaction_matrix(h, *key))
        if rc.r1 is not None:
            _, rhi, clo, _ = rc.r1   # bottom-left corner (rhi, clo)
            arcs.append((node[v][rhi], node[w][clo - 1], True))
        if rc.r3 is not None:
            rlo, _, _, chi = rc.r3   # top-right corner (rlo, chi)
            arcs.append((node[w][chi], node[v][rlo - 1], True))
        if rc.r2 is not None:
            rlo, rhi, _, _ = rc.r2
            arcs.append((node[v][rhi], node[v][rlo - 1], True))
    value, s_side = min_cut(n, arcs, s, t)
    hom = {}
    for v, order in enumerate(order_of):
        trans = next(i for i in range(1, len(order) + 1)
                     if s_side[node[v][i]])
        hom[v] = order[trans - 1]
    return Solution.of(h, inst, "ed", value, hom, "poly",
                       {"flow_value": value})

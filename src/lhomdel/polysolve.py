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
source side, so these are t and s themselves, and positions 1..len-1 of
vertex v are the nodes first[v]..first[v] + len - 2 (a vertex with a
one-element list gets none).

Work that depends only on a list or on a pair of orders is done once per
distinct key within a solve: each distinct list is reduced once (and, for
VD, split once into its (left, right) clique elements), and each distinct
pair of staircase orders gets one rectangle cover and one arc plan, whose
ends are t, s or offsets from an edge end's first node.  Per vertex and
per edge the network is then numbered on flat int lists.
"""

from __future__ import annotations

from itertools import accumulate, pairwise, permutations
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
    lists = reduce_lists(h, inst).lists
    split = {}  # one (left, right) element pair per list, -1 where absent
    for lst in dict.fromkeys(lists):  # in first-occurrence order
        ls, rs = lst & cover.left, lst & cover.right
        if len(ls) > 1 or len(rs) > 1:  # chain parts, reduced lists
            raise AssertionError(f"reduced list of vertex {lists.index(lst)}"
                                 " meets a cover part twice")
        split[lst] = min(ls, default=-1), min(rs, default=-1)
    left = [split[lst][0] for lst in lists]
    right = [split[lst][1] for lst in lists]
    alive = [v for v, lst in enumerate(lists) if lst]
    n = len(alive)
    s, t = n, n + 1
    pos = [-1] * inst.n
    arcs = []
    for i, v in enumerate(alive):
        pos[v] = i
        if right[v] < 0:
            arcs.append((s, i))
        if left[v] < 0:
            arcs.append((i, t))
    nb = h.nbhd  # an empty-list vertex has neither element, so no arc
    for u, v in inst.edges:
        x, y = left[u], right[v]
        if x >= 0 and y >= 0 and not nb[x] >> y & 1:
            arcs.append((pos[u], pos[v]))
        x, y = left[v], right[u]
        if x >= 0 and y >= 0 and not nb[x] >> y & 1:
            arcs.append((pos[v], pos[u]))
    value, sep, reach = min_vertex_separator(n + 2, arcs, s, t)
    # reachable from s avoiding the separator -> left clique; the cost
    # counts the separator and the inst.n - n empty-list vertices
    hom = {}
    for i, v in enumerate(alive):
        if i not in sep:
            hom[v] = left[v] if i in reach else right[v]
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
    lists = reduce_lists(h, inst).lists
    orders = staircase_orders(h, lists)
    order_of = [orders[lst] for lst in lists]
    # position i of v's order (0..len) is on the source side iff v maps to
    # one of the first i elements of its order, and unbreakable arcs run
    # from position i - 1 to i.  So position 0 is always on the sink side
    # and position len always on the source side: they are t and s, and
    # positions 1..len-1 are nodes first[v]..first[v + 1] - 1
    s, t = 0, 1
    first = list(accumulate([len(order) - 1 for order in order_of],
                            initial=2))
    arcs = [(x, x + 1, False) for a, b in pairwise(first) if b - a > 1
            for x in range(a, b - 1)]
    # a plan end is (0, i) for v's node i, (1, i) for w's, (2, s or t);
    # a corner arc runs from a position >= 1 to one below its order's
    # length, so none leaves t, enters s or becomes a loop
    plans: dict[tuple, list] = {}  # one per pair of orders

    def end(side, i, order):
        return (side, i - 1) if 0 < i < len(order) else (2, s if i else t)

    for u, w in inst.edges:
        v, w = (u, w) if u < w else (w, u)
        key = order_of[v], order_of[w]
        plan = plans.get(key)
        if plan is None:
            r1, r2, r3 = rectangle_cover(interaction_matrix(h, *key))
            plan = plans[key] = []
            if r1 is not None:  # bottom-left corner (rhi, clo)
                plan.append(end(0, r1[1], key[0]) + end(1, r1[2] - 1, key[1]))
            if r3 is not None:  # top-right corner (rlo, chi)
                plan.append(end(1, r3[3], key[1]) + end(0, r3[0] - 1, key[0]))
            if r2 is not None:
                plan.append(end(0, r2[1], key[0]) + end(0, r2[0] - 1, key[0]))
        base = first[v], first[w], 0
        for a, x, b, y in plan:
            arcs.append((base[a] + x, base[b] + y, True))
    value, s_side = min_cut(first[-1], arcs, s, t)
    hom = {}
    for v, (a, b) in enumerate(pairwise(first)):
        x = a  # the first position on the source side; s is position len
        while x < b and not s_side[x]:
            x += 1
        hom[v] = order_of[v][x - a]
    return Solution.of(h, inst, "ed", value, hom, "poly",
                       {"flow_value": value})

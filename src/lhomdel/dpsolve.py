"""The tree-decomposition DP for both deletion modes (one bucket-elimination
engine, _kernels.eliminate, in forget order), the decomposition-splitting
walk for ED over vertex masks of the target, and the auto dispatchers."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from . import _kernels, analysis, polysolve
from ._kernels import DELETED, INF
from .graphs import (Infeasible, Instance, Solution, TargetGraph, bits,
                     is_incomparable_set, reduce_lists)
from .treewidth import (TreeDecomposition, build_td, make_nice, restrict_td,
                        validate_td)

# Largest DP table (entries) a solve may allocate; 2^24 int64 entries take
# 128 MiB, and a bucket holds its table beside the factors it sums.
MAX_TABLE_ENTRIES = 1 << 24
# Most bytes of argmin records a DP may keep for its back-substitution: a
# constant, not the free memory, so that a refusal is deterministic.
MAX_RECORD_BYTES = 1 << 30


class TableTooLarge(ValueError):
    """A bag's DP table would exceed MAX_TABLE_ENTRIES entries, or the
    DP's argmin records MAX_RECORD_BYTES bytes."""


def _run_dp(h: TargetGraph, lists, edges, td: TreeDecomposition, mode: str,
            charge=None):
    """Min-plus DP over the vertices in td's bags, with lists[v] the list
    of vertex v and `edges` the edges among them; returns (cost, hom)
    with hom omitting deleted vertices.

    A vertex's states are its tuple from _kernels.states_of (its sorted
    list, in VD with DELETED last).  The DP is _kernels.eliminate with no
    portals, in forget order: the order in which make_nice(td)'s forget
    nodes drop the vertices.  An ED edge pays 1 and a violated VD edge
    more than any assignment deletes; the engine returns an infeasible VD
    optimum as INF, and Infeasible is raised on it.  charge[v], if given,
    is a vector over v's states.  The witness is read back in reverse
    order, each vertex's state the argmin its bucket kept at the states of
    the later vertices of its scope.

    This is the nice-form DP, witness and ties included.  x's bucket
    holds the edges from x to vertices forgotten later, which lie in the
    child bag of x's forget node (checked below), and the messages from
    vertices forgotten below that node, whose scopes lie there too.  So
    the bucket's scope is a subset of that child bag, and no bucket
    exceeds the largest product of state counts over the bags, which
    _check_table_sizes caps before any table is allocated.  The bucket
    sums every cost charged in x's subtree of the nice form that involves
    x, so it and the nice table at x's forget node differ by a function
    of the other vertices only, which the argmin along x does not see.
    """
    vd = mode == "vd"
    # the table bounds rest on every list being pairwise incomparable;
    # each distinct list is checked once
    for lst in set(lists):
        if not is_incomparable_set(h, lst):
            raise AssertionError(f"list {sorted(lst)} is not incomparable")
    states = _kernels.states_of(lists, vd)
    # one pass over the forget nodes: the order, each vertex's forget-node
    # bag (the vertices forgotten later that share a bag with it), and the
    # record bytes: x's record spans at most its bag, in eliminate's dtype
    import numpy as np
    sizes = [len(st) for st in states]
    order, bags, size = [], [()] * len(states), 0
    for nd in make_nice(td):
        if nd.kind == "forget":
            order.append(nd.payload)
            bags[nd.payload] = nd.bag
            size += math.prod(map(sizes.__getitem__, nd.bag))
    missing = [(u, w) if u < w else (w, u) for u, w in edges
               if w not in bags[u] and u not in bags[w]]
    if missing:
        u, w = min(missing)
        raise ValueError(f"edge ({u}, {w}) is in no bag")
    size *= np.min_scalar_type(max(sizes, default=1) - 1).itemsize
    if size > MAX_RECORD_BYTES:
        raise TableTooLarge(
            f"the DP would keep {size} bytes of argmin records, above the "
            f"cap of {MAX_RECORD_BYTES}")
    out, records = _kernels.eliminate(h.nbhd, states, edges, order, 0, vd,
                                      charge)
    cost = int(out)
    if cost >= INF:
        raise Infeasible("no feasible assignment")
    hom = {}
    pick = [0] * len(states)
    for v, (scope, best) in zip(reversed(order), reversed(records)):
        p = pick[v] = best.item(tuple([pick[x] for x in scope]))
        if states[v][p] != DELETED:
            hom[v] = states[v][p]
    return cost, hom


def _check_table_sizes(g: Instance, bags, vd: bool) -> int:
    """The largest table over `bags`, the product of its vertices' state
    counts (1 for an empty bag); refuse a bag whose table would
    exceed MAX_TABLE_ENTRIES.  A pairwise incomparable list has at most
    i(H) members, so no table exceeds (i(H) + vd) ** len(bag)."""
    sizes = [len(lst) + vd for lst in g.lists]
    most = 1
    for bag in bags:
        size = math.prod([sizes[v] for v in bag])
        if size > MAX_TABLE_ENTRIES:
            raise TableTooLarge(
                f"a bag of {len(bag)} vertices needs a table of {size} "
                f"entries, above the cap of {MAX_TABLE_ENTRIES}")
        most = max(most, size)
    return most


def _induced(red: Instance, keep) -> Instance:
    """red's sub-instance induced by the ascending vertices `keep`, keep[i]
    renamed i, its edges sorted and each (lower, higher).  It is built by
    Instance.from_checked: red's edges were checked when red was built.
    Each per-vertex and per-edge container is built whole by one call or
    comprehension, so a MemoryError midway frees what it held, and
    cli.main has the memory to report it."""
    pos = dict(zip(keep, range(len(keep))))
    edges = sorted([(pos[u], pos[w]) if u < w else (pos[w], pos[u])
                    for u, w in red.edges if u in pos and w in pos])
    return Instance.from_checked(len(keep), edges,
                                 [red.lists[v] for v in keep])


def _solve_dp(h: TargetGraph, inst: Instance,
              td: Optional[TreeDecomposition], mode: str) -> Solution:
    """The lists are reduced and each vertex with one DP state is fixed:
    in ED one whose reduced list is a singleton, mapped to its vertex; in
    VD one whose list is empty, deleted.  A fixed vertex multiplies no
    table, so the DP runs on one instance, the one induced by the other,
    kept vertices, renumbered in ascending order so that ties still go to
    the smallest vertex; only its hom is mapped back.  Its decomposition
    is min-fill's, built and validated on the kept instance, or a given
    td, validated on the whole reduced instance and narrowed to the kept
    vertices by restrict_td.  Either way stats.width is the width of the
    decomposition validated, stats.max_bag_states is the largest dense
    table over the bags the DP runs on, within (i(H) + vd) ** (width + 1),
    and no bag whose table would pass MAX_TABLE_ENTRIES reaches the DP.
    In ED the penalties a kept vertex pays against its fixed neighbours
    sum to one vector over its states, charged where it is forgotten with
    its other edges; fixed–fixed ED edges and VD deletions of fixed
    vertices add a constant.  Each axis dropped had size 1, and each moved
    penalty depends only on the state of the vertex that now pays it, so
    at each forget node the two DPs' tables differ by a function of the
    rest of the bag, which the argmin along the forgotten axis does not
    see: the witness, ties included, and max_bag_states are those of the
    DP over every vertex on the same tree with each fixed vertex added to
    every bag."""
    vd = mode == "vd"
    if not vd and any(not lst for lst in inst.lists):
        raise Infeasible("vertex with an empty list")
    red = reduce_lists(h, inst)
    keep = [v for v, lst in enumerate(red.lists) if len(lst) + vd > 1]
    g = _induced(red, keep)
    # a fixed vd vertex is deleted, and its edges cost nothing
    cost = red.n - g.n if vd else 0
    hom = {} if vd else {v: min(lst) for v, lst in enumerate(red.lists)
                         if len(lst) == 1}
    charge = {}
    if hom:  # the ed edges at a fixed vertex
        nb = h.nbhd
        images = {}  # kept vertex -> the images of its fixed neighbours
        for u, w in red.edges:
            if u in hom:
                if w in hom:
                    cost += not nb[hom[u]] >> hom[w] & 1
                else:
                    images.setdefault(w, []).append(hom[u])
            elif w in hom:
                images.setdefault(u, []).append(hom[w])
        import numpy as np
        states = _kernels.states_of(g.lists, False)
        rows = {}  # (states, images) -> the edges' summed penalty vector
        for i, v in enumerate(keep):
            imgs = images.get(v)
            if imgs:
                key = states[i], tuple(sorted(imgs))
                if key not in rows:  # per state of v, the edges it violates
                    rows[key] = np.array(
                        [sum(not nb[a] >> b & 1 for b in key[1])
                         for a in key[0]], dtype=np.int64)
                charge[i] = rows[key]
    if td is None:
        td = build_td(g)
        width = validate_td(g, td)
    else:
        width = validate_td(red, td)
        td = restrict_td(td, keep)
    max_states = _check_table_sizes(g, td.bags, vd)
    dp_cost, dp_hom = _run_dp(h, g.lists, g.edges, td, mode, charge)
    hom.update((keep[v], img) for v, img in dp_hom.items())
    return Solution.of(h, inst, mode, cost + dp_cost, hom, "dp",
                       {"width": width, "max_bag_states": max_states})


def solve_vd_dp(h: TargetGraph, inst: Instance,
                td: Optional[TreeDecomposition] = None) -> Solution:
    return _solve_dp(h, inst, td, "vd")


def solve_ed_dp(h: TargetGraph, inst: Instance,
                td: Optional[TreeDecomposition] = None) -> Solution:
    return _solve_dp(h, inst, td, "ed")


# ---------------------------------------------------------------------------
# decomposition splitting


class Split(NamedTuple):
    """The two sides of a split instance, their lists in H's vertex ids."""
    forced: tuple           # G edges always deleted (A–C pairs)
    sub_a: Instance         # lists inside A
    sub_bc: Instance        # lists inside B∪C
    verts_a: tuple          # sub_a index -> G vertex
    verts_bc: tuple


def split_by_decomposition(h: TargetGraph, dec: analysis.Decomposition,
                           inst: Instance) -> Split:
    """A–B edges of G are discarded, A–C edges forced-deleted; the two
    sides become independent subinstances over H[A] and H[B∪C]."""
    red = reduce_lists(h, inst)
    a, b, c = (set(bits(m)) for m in (dec.a, dec.b, dec.c))
    side = []
    for v in range(red.n):
        lst = red.lists[v]
        if not (lst <= a or lst <= b or lst <= c):
            raise ValueError(
                f"reduced list of vertex {v} straddles the partition")
        side.append("a" if lst <= a else "bc")
    verts_a = tuple(v for v in range(red.n) if side[v] == "a")
    verts_bc = tuple(v for v in range(red.n) if side[v] == "bc")
    # an A–C edge (its B∪C end's list inside C) is always deleted; A–B
    # pairs are always compatible (full join), so their edges are dropped
    forced = sorted(tuple(sorted((u, v))) for u, v in red.edges
                    if side[u] != side[v]
                    and red.lists[v if side[u] == "a" else u] <= c)
    return Split(tuple(forced), _induced(red, verts_a),
                 _induced(red, verts_bc), verts_a, verts_bc)


def solve_vd_auto(h: TargetGraph, inst: Instance,
                  td: Optional[TreeDecomposition] = None) -> Solution:
    if analysis.two_clique_cover(h) is not None:
        if td is not None:  # unused here, but a bad file fails on every path
            validate_td(inst, td)
        sol = polysolve.solve_vd_poly(h, inst)
    else:
        sol = solve_vd_dp(h, inst, td)
    sol.algorithm = "auto"
    return sol


def solve_ed_auto(h: TargetGraph, inst: Instance,
                  td: Optional[TreeDecomposition] = None) -> Solution:
    """Poly solver when obstruction-free; otherwise split along H's
    decomposition tree down to parts that are obstruction-free (poly
    solver) or undecomposable (DP).  A part is a vertex mask S of H,
    solved over h.restricted(S), so every part keeps H's vertex ids.
    The tree is walked with a stack, A before B∪C.  A part with no
    instance vertex is skipped, and one that holds its parent's
    obstruction (vertices and witnesses) is hard without a search, as
    obstructions are closed upward.  Each leaf's solver checks it; its
    cost and hom go into the root's, checked against (h, inst) once.  A
    given `td` is validated on every part it reaches, and a split hands
    each side `td` restricted to that side's vertices (restrict_td), so
    no DP leaf is wider than `td`."""
    full, refl = (1 << h.n) - 1, h.reflexive_mask()
    cost, hom, stats = 0, {}, {}
    stack = [(full, inst, range(inst.n), td, None)]
    while stack:
        S, sub, verts, td, ob = stack.pop()
        part = h if S == full else h.restricted(S)
        if ob is None or ob & ~S:
            found = _kernels.first_obstruction(h.nbhd, refl, S)
            ob = found and sum(set(found[1] + found[2]))  # bits may repeat
        if not ob:
            if td is not None:
                validate_td(sub, td)
            sol = polysolve.solve_ed_poly(part, sub, classified=True)
        elif (dec := analysis.find_decomposition(h, S, refl)) is None:
            sol = solve_ed_dp(part, sub, td)
        else:
            if td is not None:
                validate_td(sub, td)
            if any(not lst for lst in sub.lists):
                raise Infeasible("vertex with an empty list")
            sp = split_by_decomposition(part, dec, sub)
            cost += len(sp.forced)
            if S == full:
                stats = {"parts": 2, "forced": len(sp.forced)}
            for side, sub_s, vs in ((dec.b | dec.c, sp.sub_bc, sp.verts_bc),
                                    (dec.a, sp.sub_a, sp.verts_a)):
                if sub_s.n:
                    stack.append((side, sub_s, [verts[i] for i in vs],
                                  td and restrict_td(td, vs), ob))
            continue
        if S == full:
            sol.algorithm = "auto"
            return sol
        cost += sol.cost
        hom.update((v, sol.hom[i]) for i, v in enumerate(verts))
    return Solution.of(h, inst, "ed", cost, hom, "auto", stats)

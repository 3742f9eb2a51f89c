"""Hot enumeration kernels.

Two kinds of search dominate runtime.  Searches over the induced subgraphs
H[S] of a target graph -- the strong-split test, the split detector, the
first obstruction and the maximum incomparable set -- work on bitmasks
held in plain Python ints: nb[v] is the neighborhood of v
(TargetGraph.nbhd, bit v set iff v has a loop), refl the mask of looped
vertices and S the vertex mask of H[S].  Each is the package's only
implementation of its test: analysis and graphs call them on the whole
target (S = every vertex), analysis.i_bullet on split-tree leaves, and
dpsolve.solve_ed_auto, directly and through analysis.find_decomposition,
on each part of a split.  They serve classify and the polynomial
solvers, which never load numpy; subset_scan, which computes the i*
invariant over all 2^n induced subgraphs, is the tests' reference only.

Min-plus over lists has one engine, eliminate: bucket elimination in a
given order, with one state encoding (a vertex's sorted list, DELETED
last in vd mode) and one cost convention: costs are only added, and a
violated vd edge costs big, one more than the number of variables, so
a sum >= big is infeasible; eliminate returns every such entry as INF,
and its users read INF alone as infeasible.  Both of its users call it:
the tree-decomposition DP (dpsolve), in forget order with no portals,
and scan_table, the cost tables over their portals of the gadgets that
are neither paths nor glued and of `gadget --verify`.  scan_best, a
mixed-radix assignment scan, serves only the brute-force oracles.  The
numpy functions import it when called.
"""

from __future__ import annotations

INF = 1 << 60
DELETED = -1  # the vd state of a deleted vertex, last in its state tuple

# assignment indices costed per numpy pass of scan_best; bounds the
# temporaries
_CHUNK = 1 << 18


def using_numba() -> bool:
    """Always False: every kernel runs on numpy or plain Python ints.

    The numba builds were removed because the plain builds give the same
    results and numba is not needed to run the package; the function stays
    because benchmark result files record which backend ran.
    """
    return False


# ---------------------------------------------------------------------------
# assignment scans (the oracles' brute force)
#
# Variables 0..nv-1 each pick a digit < radix[j]; val[j, d] is the H-vertex
# (or nh = deleted) for that digit.  base[j, d] is the digit's own cost.
# Edge e joins the distinct variables eu[e] and ev[e].  adj is (nh+1) x
# (nh+1) with the deletion row/column all-True, so a deleted endpoint never
# violates an edge.  In vd mode a violated edge kills the assignment; in ed
# mode it costs 1.  Assignment index i enumerates the digits with the
# leftmost variable most significant.


def _arrays(radix, val, base, eu, ev, adj):
    import numpy as np

    return (np.asarray(radix, dtype=np.int64),
            np.asarray(val, dtype=np.int64),
            np.asarray(base, dtype=np.int64),
            np.asarray(eu, dtype=np.int64),
            np.asarray(ev, dtype=np.int64),
            np.asarray(adj, dtype=np.bool_))


def _places(radix):
    import numpy as np

    nv = radix.shape[0]
    place = np.ones(nv, dtype=np.int64)
    for j in range(nv - 2, -1, -1):
        place[j] = place[j + 1] * radix[j + 1]
    return place


def _chunk_costs(idx, radix, val, base, eu, ev, adj, ed_mode, place):
    """Cost of each assignment index in idx (INF for vd violations)."""
    import numpy as np

    nv = radix.shape[0]
    digits = (idx[:, None] // place[None, :]) % radix[None, :]
    cost = base[np.arange(nv)[None, :], digits].sum(axis=1)
    if eu.shape[0]:
        hs = val[np.arange(nv)[None, :], digits]
        viol = ~adj[hs[:, eu], hs[:, ev]]
        if ed_mode:
            cost = cost + viol.sum(axis=1)
        else:
            cost = np.where(viol.any(axis=1), INF, cost)
    return cost


def scan_best(radix, val, base, eu, ev, adj, ed_mode):
    """Min-cost assignment over the full mixed-radix space.

    Returns (cost, digits); digits is the lexicographically first minimizer
    (leftmost variable most significant).  cost == INF means no feasible
    assignment (vd mode with every assignment violating some edge, or an
    empty radix).  Assignments are costed _CHUNK consecutive indices at a
    time, so the temporaries stay bounded however large the space is.
    """
    import numpy as np

    radix, val, base, eu, ev, adj = _arrays(radix, val, base, eu, ev, adj)
    place = _places(radix)
    total = int(np.prod(radix, dtype=np.int64))
    best = INF
    best_idx = -1
    for lo in range(0, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        cost = _chunk_costs(idx, radix, val, base, eu, ev, adj, ed_mode,
                            place)
        j = int(np.argmin(cost))
        if cost[j] < best:
            best = cost[j]
            best_idx = lo + j
    if best_idx < 0:
        return INF, np.zeros(radix.shape[0], dtype=np.int64)
    return best, (best_idx // place) % radix


# ---------------------------------------------------------------------------
# edge penalties and min-plus elimination over state tuples


def edge_penalty(nb, lu, lv, bad):
    """One instance edge's cost matrix over the states lu x lv: entry
    (i, j) is 0 if lu[i] and lv[j] are adjacent in the target (nb[a] is
    a's neighbourhood mask) or either is DELETED, and bad otherwise."""
    import numpy as np

    # one flat list, reshaped: numpy reads it faster than nested rows
    return np.array([0 if a == DELETED or b == DELETED or nb[a] >> b & 1
                     else bad for a in lu for b in lv],
                    dtype=np.int64).reshape(len(lu), len(lv))


def eliminate(nb, states, edges, order, nportal, vd, charge=None):
    """Min-plus bucket elimination (Dechter 1999) of the variables in
    `order`, leaving the portals 0..nportal-1; returns (out, records).

    states[j] is variable j's state tuple, in vd mode with DELETED last.
    A variable's rank is its place in `order`; the portals rank above it,
    portal 0 highest.  A scope's axes run by falling rank, so a bucket's
    variable x is its last axis.  Each edge's penalty matrix (one per
    pair of state tuples) goes to the bucket of its lower-ranked end.  A
    bucket sums its factors over their joint scope, charges x its vd
    deletion and charge[x] (a vector over its states) if given, and takes
    the argmin along x, then the minima at it by a take at cached row
    starts: a factor over the scope without x, sent to the bucket of its
    lowest-ranked variable.  records[i] is (that scope, the argmin) for
    x = order[i]; out sums the factors left over the portals, in portal
    order.  A bucket's list is dropped once it is read, so no message
    outlives the bucket that sums it.  A violated vd edge costs big =
    len(states) + 1, more than any assignment deletes, so in vd mode
    out's entries >= big are infeasible, and are returned as INF.  No sum
    exceeds big * |E| + n <= (n + 1) * n(n - 1)/2 + n, with n =
    len(states), below 2^63 for n up to graphs.MAX_INSTANCE_VERTICES."""
    import numpy as np

    big = len(states) + 1
    size = [len(st) for st in states]
    rank = [-1] * len(states)
    for i, x in enumerate(order):
        rank[x] = i
    for p in range(nportal):
        rank[p] = len(order) + nportal - 1 - p
    buckets = [[] for _ in order]
    rest = []  # factors over portals only

    def place(scope, t):
        r = rank[scope[-1]] if scope else len(order)
        (buckets[r] if r < len(order) else rest).append((scope, t))

    penalties = {}
    for u, w in edges:
        if rank[u] < rank[w]:
            u, w = w, u
        key = states[u], states[w]
        if key not in penalties:
            penalties[key] = edge_penalty(nb, *key, big if vd else 1)
        place((u, w), penalties[key])
    pick_type = np.min_scalar_type(max(size, default=1) - 1)
    records = []
    rows = {}  # a bucket's shape -> the flat index of each row
    charge = charge or {}
    for i, x in enumerate(order):
        hit, buckets[i] = buckets[i], None
        scope = sorted({v for s, _ in hit for v in s} | {x},
                       key=rank.__getitem__, reverse=True)
        acc = np.zeros([size[v] for v in scope], dtype=np.int64)
        for s, t in hit:
            acc += t.reshape([size[v] if v in s else 1 for v in scope])
        if vd:  # DELETED is the last index on x's axis
            acc[..., -1] += 1
        if x in charge:
            acc += charge[x]
        best = acc.argmin(-1)
        # row r of acc starts at flat index r * size[x]; once the scope is
        # x alone the minimum is a numpy scalar, read as a 0-d array
        starts = rows.get(acc.shape)
        if starts is None:
            starts = rows[acc.shape] = np.arange(
                0, acc.size, size[x]).reshape(acc.shape[:-1])
        scope = tuple(scope[:-1])
        records.append((scope, best.astype(pick_type)))
        place(scope, acc.take(starts + best))
    out = np.zeros(size[:nportal], dtype=np.int64)
    for s, t in rest:
        out += t.reshape([size[v] if v in s else 1 for v in range(nportal)])
    if vd:
        out[out >= big] = INF
    return out, records


def scan_table(nb, states, edges, nportal, vd, order):
    """Min cost per portal state tuple; portals are variables 0..nportal-1.

    states[j] is variable j's tuple of target vertices, in vd mode with
    DELETED last; deleting a non-portal costs 1, a portal nothing.  A
    violated edge costs 1 in ed mode and kills the assignment (INF) in vd
    mode.  The non-portals, each listed once in `order`, are eliminated
    in that order by `eliminate`, whose table over the portals is raveled
    with the leftmost portal most significant."""
    return eliminate(nb, states, edges, order, nportal, vd)[0].ravel()


# ---------------------------------------------------------------------------
# bitmask searches on induced subgraphs H[S]
#
# Loops run over the set bits of a mask by peeling the lowest one:
# low = t & -t is its bit, low.bit_length() - 1 its vertex.


def is_strong_split(nb, refl, S):
    """H[S]'s reflexive part is a clique and its irreflexive part an
    independent set."""
    R = refl & S
    I = S & ~refl
    t = S
    while t:
        low = t & -t
        t ^= low
        g = nb[low.bit_length() - 1]
        if g & R != R if low & R else g & I:
            return False
    return True


def find_split(nb, refl, S):
    """A decomposition (A, B, C) of H[S] as three vertex masks, or None.

    A strong split graph (reflexive part a clique, irreflexive part an
    independent set) splits off a universal or an isolated vertex if it
    has one (the first in vertex order); otherwise B grows from the
    maximal vertices and C from the irreflexive vertices with a non-edge
    to B, alternately, and H[S] splits iff B | C misses a vertex.  Any
    other graph grows A from its irreflexive edges and reflexive
    non-edges, and splits iff A misses a vertex.
    """
    R = refl & S
    I = S & ~refl
    if not is_strong_split(nb, refl, S):
        A = 0
        t = S
        while t:
            low = t & -t
            t ^= low
            v = low.bit_length() - 1
            if low & R:
                miss = R & ~nb[v]
                if miss:
                    A |= miss | low
            elif nb[v] & I:
                A |= low
        changed = True
        while changed:
            changed = False
            t = S & ~A
            while t:
                low = t & -t
                t ^= low
                v = low.bit_length() - 1
                # reflexive with a non-edge to A, irreflexive with an edge
                if A & ~nb[v] if low & R else nb[v] & A:
                    A |= low
                    changed = True
        if A == S:
            return None
        return A, R & ~A, I & ~A
    if S.bit_count() < 2:
        return None
    t = S
    while t:
        low = t & -t
        t ^= low
        g = nb[low.bit_length() - 1] & S
        if g == S:
            return S ^ low, low, 0
        if not g:
            return S ^ low, 0, low
    B = 0
    t = S
    while t:
        low = t & -t
        t ^= low
        g = nb[low.bit_length() - 1] & S
        t2 = S ^ low
        while t2:
            lu = t2 & -t2
            t2 ^= lu
            gu = nb[lu.bit_length() - 1] & S
            if not g & ~gu and g != gu:
                break
        else:
            B |= low
    C = 0
    changed = True
    while changed:
        changed = False
        t = I & ~B & ~C
        while t:
            low = t & -t
            t ^= low
            if B & ~nb[low.bit_length() - 1]:
                C |= low
                changed = True
        t = R & ~B
        while t:
            low = t & -t
            t ^= low
            if nb[low.bit_length() - 1] & C:
                B |= low
                changed = True
    if B | C == S:
        return None
    return S & ~(B | C), B, C


def _incomparability(nb, S):
    """inc[v] = mask of the vertices of S incomparable with v in H[S]."""
    inc = [0] * len(nb)
    t = S
    while t:
        low = t & -t
        t ^= low
        v = low.bit_length() - 1
        g = nb[v] & S
        t2 = t
        while t2:
            lu = t2 & -t2
            t2 ^= lu
            u = lu.bit_length() - 1
            gu = nb[u] & S
            if g & ~gu and gu & ~g:
                inc[v] |= lu
                inc[u] |= low
    return inc


def max_incomparable_mask(nb, S):
    """Maximum incomparable set of H[S] as (size, vertex mask).

    Max clique of the incomparability graph by branch and bound; the first
    maximum in lexicographic expansion order, so a lone vertex is the
    lowest one of S.  (0, 0) for empty S.
    """
    inc = _incomparability(nb, S)
    best = (1, S & -S) if S else (0, 0)
    stack = [[0, 0, S]]  # per open clique: it, its size, candidates left
    while stack:
        top = stack[-1]
        clique, size, cand = top
        if cand and size + cand.bit_count() > best[0]:
            low = cand & -cand
            top[2] = cand = cand ^ low
            sub = cand & inc[low.bit_length() - 1]
            if sub:
                stack.append([clique | low, size + 1, sub])
            elif size + 1 > best[0]:  # a leaf of the search
                best = size + 1, clique | low
        else:
            stack.pop()
    return best


def _lowest(masks):
    return tuple((m & -m).bit_length() - 1 for m in masks)


def first_obstruction(nb, refl, S):
    """H[S]'s lexicographically first obstruction as (kind, vertices,
    witnesses), or None: irreflexive edges first, then triples, each tried
    for private neighbours (one per member) before co-private ones (one
    per pair, in pair order); each witness is the lowest qualifying vertex
    of S.  Both kinds of triple are pairwise incomparable."""
    I = S & ~refl
    t = I
    while t:
        low = t & -t
        t ^= low
        m = nb[low.bit_length() - 1] & I
        if m:  # the first such u: its partners all lie above it
            return "irreflexive_edge", _lowest((low, m)), ()
    inc = _incomparability(nb, S)
    t = S
    while t:
        low = t & -t
        t ^= low
        a = low.bit_length() - 1
        ga = nb[a] & S
        t2 = t & inc[a]
        while t2:
            lb = t2 & -t2
            t2 ^= lb
            b = lb.bit_length() - 1
            gb = nb[b] & S
            t3 = t2 & inc[b]
            while t3:
                lc = t3 & -t3
                t3 ^= lc
                c = lc.bit_length() - 1
                gc = nb[c] & S
                private = (ga & ~gb & ~gc, gb & ~ga & ~gc, gc & ~ga & ~gb)
                if all(private):
                    return "private_triple", (a, b, c), _lowest(private)
                co = (ga & gb & ~gc, ga & gc & ~gb, gb & gc & ~ga)
                if all(co):
                    return "co_private_triple", (a, b, c), _lowest(co)
    return None


def subset_scan(nb, refl):
    """Max i(H[S]) over undecomposable S containing an obstruction.

    Returns (best, subset_mask); (0, 0) if no subset qualifies.  The witness
    is the first qualifying subset (ascending mask order) at the max.
    Exponential: analysis.i_bullet finds the same answer from split-tree
    leaves, and this scan is the tests' reference for it.  It stays here
    while the benchmark's tracer still wraps it by name (ROADMAP item 2).
    """
    best = 0
    best_mask = 0
    for S in range(1, 1 << len(nb)):
        if S.bit_count() <= best:
            continue
        if first_obstruction(nb, refl, S) is None:
            continue
        if find_split(nb, refl, S) is not None:
            continue
        i = max_incomparable_mask(nb, S)[0]
        if i > best:
            best = i
            best_mask = S
    return best, best_mask

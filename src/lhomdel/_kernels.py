"""Hot enumeration kernels.

Two kinds of search dominate runtime.  Searches over the induced subgraphs
H[S] of a target graph -- the split detector, the obstruction test and the
maximum incomparable set -- work on bitmasks held in plain Python ints:
nb[v] is the neighborhood of v (TargetGraph.nbhd, bit v set iff v has a
loop), refl the mask of looped vertices and S the vertex mask of H[S].
They serve classify and the polynomial solvers, which never load numpy;
subset_scan, which computes the i* invariant over all 2^n induced
subgraphs, is the tests' reference only.  Mixed-radix assignment scans
(scan_best), vectorized with numpy, serve only the brute-force oracles;
gadget cost tables (scan_table) take the same encoding but come from
min-plus variable elimination over numpy factors, which the gadgets'
treewidth of 1-2 keeps small, so they never enumerate the assignments.
The numpy functions import it when called.
"""

from __future__ import annotations

INF = 1 << 60

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
# assignment scans and cost tables
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


def scan_table(radix, val, base, eu, ev, adj, ed_mode, nportal):
    """Min cost per portal digit tuple; portals are variables 0..nportal-1.

    Exact min-plus variable elimination.  The factors are one unary cost
    per variable and one pair penalty per edge; the non-portal variables
    are eliminated fewest neighbours first (lowest index on ties), each by
    summing the factors that contain it and taking the min along its axis.
    The portal factors that remain are summed and raveled with the
    leftmost portal most significant.  A violated vd edge costs big, more
    than any feasible assignment, and entries >= big become INF once at
    the end, so no sum can overflow."""
    import numpy as np

    radix, val, base, eu, ev, adj = _arrays(radix, val, base, eu, ev, adj)
    nv = radix.shape[0]
    if not radix.all():
        return np.full(int(np.prod(radix[:nportal], dtype=np.int64)), INF,
                       dtype=np.int64)
    big = int(base.max(initial=0)) * nv + eu.shape[0] + 1
    pen = np.where(adj, 0, 1 if ed_mode else big)
    factors = [((j,), base[j, :radix[j]]) for j in range(nv)]
    nbr = [set() for _ in range(nv)]
    for u, v in zip(eu.tolist(), ev.tolist()):
        u, v = min(u, v), max(u, v)
        factors.append(((u, v), pen[val[u, :radix[u], None],
                                    val[v, :radix[v]]]))
        nbr[u].add(v)
        nbr[v].add(u)
    left = set(range(nportal, nv))
    while left:
        x = min(left, key=lambda v: (len(nbr[v]), v))
        left.remove(x)
        for u in nbr[x]:
            nbr[u] |= nbr[x]
            nbr[u] -= {u, x}
        hit = [f for f in factors if x in f[0]]
        factors = [f for f in factors if x not in f[0]]
        # scopes stay sorted, so each factor lines up with the sorted union
        # by a reshape that gives its missing variables length-1 axes
        scope = sorted(set().union(*(s for s, _ in hit)))
        acc = None
        for s, t in hit:
            t = t.reshape([int(radix[v]) if v in s else 1 for v in scope])
            acc = t if acc is None else acc + t
        factors.append((tuple(v for v in scope if v != x),
                        acc.min(axis=scope.index(x))))
    # only portal variables are left in the scopes
    out = np.zeros([int(r) for r in radix[:nportal]], dtype=np.int64)
    for s, t in factors:
        out += t.reshape([int(radix[v]) if v in s else 1
                          for v in range(nportal)])
    out = out.ravel()
    out[out >= big] = INF
    return out


# ---------------------------------------------------------------------------
# bitmask searches on induced subgraphs H[S]
#
# Loops run over the set bits of a mask by peeling the lowest one:
# low = t & -t is its bit, low.bit_length() - 1 its vertex.


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
    strong = True
    t = S
    while t and strong:
        low = t & -t
        t ^= low
        v = low.bit_length() - 1
        strong = nb[v] & R == R if low & R else not nb[v] & I
    if not strong:
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
    best = [1, S & -S] if S else [0, 0]

    def expand(clique, size, cand):
        if not cand:
            if size > best[0]:
                best[:] = size, clique
            return
        while cand and size + cand.bit_count() > best[0]:
            low = cand & -cand
            cand ^= low
            expand(clique | low, size + 1,
                   cand & inc[low.bit_length() - 1])

    expand(0, 0, S)
    return best[0], best[1]


def _has_obstruction(nb, refl, S):
    """H[S] has an irreflexive edge, or a triple with private or co-private
    neighbors (such a triple is pairwise incomparable)."""
    I = S & ~refl
    t = I
    while t:
        low = t & -t
        t ^= low
        if nb[low.bit_length() - 1] & I:
            return True
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
                gc = nb[lc.bit_length() - 1] & S
                if ga & ~gb & ~gc and gb & ~ga & ~gc and gc & ~ga & ~gb:
                    return True   # private neighbors
                if ga & gb & ~gc and ga & gc & ~gb and gb & gc & ~ga:
                    return True   # co-private neighbors
    return False


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
        if not _has_obstruction(nb, refl, S):
            continue
        if find_split(nb, refl, S) is not None:
            continue
        i = max_incomparable_mask(nb, S)[0]
        if i > best:
            best = i
            best_mask = S
    return best, best_mask

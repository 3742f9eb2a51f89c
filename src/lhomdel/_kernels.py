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
are neither paths nor glued and of `gadget --verify`; they import numpy
when called.  scan_best, a depth-first search over the assignments of a
mixed-radix encoding on plain lists, serves only the brute-force oracles.
"""

from __future__ import annotations

INF = 1 << 60
DELETED = -1  # the vd state of a deleted vertex, last in its state tuple


def using_numba() -> bool:
    """Always False: every kernel runs on numpy or plain Python ints.

    The numba builds were removed because the plain builds give the same
    results and numba is not needed to run the package; the function stays
    because benchmark result files record which backend ran.
    """
    return False


# ---------------------------------------------------------------------------
# assignment search (the oracles' brute force)
#
# Variables 0..nv-1 each pick a digit < radix[j]; val[j][d] is the H-vertex
# (or nh = deleted) for that digit, base[j][d] its own cost.  Edge e joins
# the distinct variables eu[e] and ev[e].  adj is (nh+1) x (nh+1) with the
# deletion row/column all-True, so a deleted endpoint never violates an
# edge.  In vd mode a violated edge kills the assignment; in ed it costs 1.


def scan_best(radix, val, base, eu, ev, adj, ed_mode):
    """Min-cost assignment by depth-first search: (cost, digits), digits
    the lexicographically first minimizer (leftmost variable most
    significant).  cost == INF means no feasible assignment (vd mode with
    every assignment violating some edge, or a zero radix); no variables
    is one assignment, of cost 0.  Variables go in index order, digits
    ascending, each edge charged at its later end; a digit is skipped once
    its partial cost reaches the best complete cost so far, so, as costs
    only grow, the first assignment found at the least cost is kept.  The
    search keeps a digit and a partial cost per variable, not a call
    stack: one-state variables do not count against oracle.ENUM_BOUND,
    and an instance can hold 10^6 of them."""
    nv = len(radix)
    back = [[] for _ in radix]  # per variable, its earlier neighbours
    for u, w in zip(eu, ev):
        if u < w:
            u, w = w, u
        back[u].append(w)
    bad = 1 if ed_mode else INF
    best, best_digits = INF, [0] * nv
    digit, pick = [0] * nv, [0] * nv  # pick[j]: the H-vertex of digit[j]
    cost = [0] * (nv + 1)  # cost[j]: the partial cost of variables < j
    j = d = 0  # digit d of variable j is tried next
    while True:
        if j < nv and d < radix[j]:
            c = cost[j] + base[j][d]
            row = adj[val[j][d]]
            for i in back[j]:
                if not row[pick[i]]:
                    c += bad
                    if c >= best:
                        break
            if c < best:
                digit[j], pick[j], cost[j + 1] = d, val[j][d], c
                j, d = j + 1, 0
            else:
                d += 1
            continue
        if j == nv:  # a complete assignment, cheaper than best
            best, best_digits = cost[j], digit[:]
        if not j:
            return best, best_digits
        j -= 1
        d = digit[j] + 1


# ---------------------------------------------------------------------------
# min-plus elimination over state tuples


def eliminate(nb, states, edges, order, nportal, vd, charge=None):
    """Min-plus bucket elimination (Dechter 1999) of the variables in
    `order`, leaving the portals 0..nportal-1; returns (out, records).

    states[j] is variable j's state tuple, in vd mode with DELETED last.
    A variable's rank is its place in `order`; the portals rank above it,
    portal 0 highest.  A scope's axes run by falling rank, so a bucket's
    variable x is its last axis.  Each edge's penalty matrix (one per
    pair of state tuples) goes to the bucket of its lower-ranked end x, in
    vd the first one as a copy with x's deletion added.  A bucket sums its
    factors over their joint scope, with x's vd deletion if it has no
    edge and charge[x] (a vector over its states) if given, into its
    message over the whole scope if it has one, else into one new table;
    it takes the argmin along x, then the minima at it by a take at cached
    row starts: a factor over the scope without x, sent to the bucket of
    its lowest-ranked variable.  records[i] is (that scope, the argmin) for
    x = order[i]; out sums the factors left over the portals, in portal
    order.  A bucket's lists are dropped once read, so no message
    outlives the bucket that sums it.  A violated vd edge costs big =
    len(states) + 1, more than any assignment deletes, so in vd mode
    out's entries >= big are infeasible, and are returned as INF.  No sum
    exceeds big * |E| + n <= (n + 1) * n(n - 1)/2 + n, with n =
    len(states), below 2^63 for n up to graphs.MAX_INSTANCE_VERTICES."""
    import numpy as np

    big = len(states) + 1
    bad = big if vd else 1
    size = [len(st) for st in states]
    rank = [-1] * len(states)
    for i, x in enumerate(order):
        rank[x] = i
    for p in range(nportal):
        rank[p] = len(order) + nportal - 1 - p
    ends = [[] for _ in order]  # bucket -> its edges as (other end, penalty)
    messages = [[] for _ in order]  # bucket -> its messages as (scope, t)
    rest = []  # factors over portals only
    penalties = {}
    deletion = {}  # vd: a penalty key or a state count -> deletion added
    for u, w in edges:
        if rank[u] < rank[w]:
            u, w = w, u
        key = states[u], states[w]
        if key not in penalties:  # 0 where adjacent in nb or DELETED
            penalties[key] = np.array(
                [0 if a == DELETED or b == DELETED or nb[a] >> b & 1 else bad
                 for a in key[0] for b in key[1]],
                dtype=np.int64).reshape(size[u], size[w])
        t, r = penalties[key], rank[w]
        if r >= len(order):
            rest.append(((u, w), t))
            continue
        if vd and not ends[r]:  # the first edge charges w's deletion
            if key not in deletion:
                deletion[key] = t + np.eye(size[w], dtype=np.int64)[-1]
            t = deletion[key]
        ends[r].append((u, t))
    pick_type = np.min_scalar_type(max(size, default=1) - 1)
    records = []
    rows = {}  # a bucket's shape -> the flat index of each row
    charge = charge or {}
    for i, x in enumerate(order):
        edge, msg = ends[i], messages[i]
        ends[i] = messages[i] = None
        scope = {u for u, _ in edge}
        scope.add(x)
        for s, _ in msg:
            scope.update(s)
        scope = sorted(scope, key=rank.__getitem__, reverse=True)
        k = len(scope)
        acc = None  # a message over the whole scope: no other bucket reads it
        terms = []  # the other factors; a suffix of the scope broadcasts
        for s, t in msg:
            if len(s) == k and acc is None:
                acc = t
            else:
                terms.append(t if scope[k - len(s)] == s[0] else t.reshape(
                    [size[v] if v in s else 1 for v in scope]))
        for u, t in edge:
            terms.append(t if scope[-2] == u else t.reshape(
                [size[v] if v == u or v == x else 1 for v in scope]))
        if vd and not edge:  # DELETED is the last index on x's axis
            if size[x] not in deletion:
                deletion[size[x]] = np.eye(size[x], dtype=np.int64)[-1]
            terms.append(deletion[size[x]])
        if x in charge:
            terms.append(charge[x])
        if acc is None and len(terms) > 1:  # messages first: the largest
            acc = np.add(terms[0], terms[1], out=np.empty(
                [size[v] for v in scope], dtype=np.int64))
            del terms[:2]
        elif acc is None:  # one factor or none: read, never written
            acc = terms.pop() if terms else np.zeros(size[x], dtype=np.int64)
        for t in terms:
            acc += t
        best = acc.argmin(-1)
        # row r of acc starts at flat index r * size[x]; once the scope is
        # x alone the minimum is a numpy scalar, read as a 0-d array
        starts = rows.get(acc.shape)
        if starts is None:
            starts = rows[acc.shape] = np.arange(
                0, acc.size, size[x]).reshape(acc.shape[:-1])
        scope = tuple(scope[:-1])
        records.append((scope, best.astype(pick_type)))
        r = rank[scope[-1]] if scope else len(order)
        (messages[r] if r < len(order) else rest).append(
            (scope, acc.take(starts + best)))
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


def first_obstruction(nb, refl, S):
    """H[S]'s lexicographically first obstruction as (kind, vertices,
    witnesses), or None: irreflexive edges first, then triples, each tried
    for private neighbours (one per member) before co-private ones (one
    per pair, in pair order); each witness is the lowest qualifying vertex
    of S.  Both kinds of triple are pairwise incomparable.  Vertices and
    witnesses are one-bit masks; a witness may be one of the vertices."""
    I = S & ~refl
    t = I
    while t:
        low = t & -t
        t ^= low
        m = nb[low.bit_length() - 1] & I
        if m:  # the first such u: its partners all lie above it
            return "irreflexive_edge", (low, m & -m), ()
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
                    return ("private_triple", (low, lb, lc),
                            tuple(p & -p for p in private))
                co = (ga & gb & ~gc, ga & gc & ~gb, gb & gc & ~ga)
                if all(co):
                    return ("co_private_triple", (low, lb, lc),
                            tuple(p & -p for p in co))
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

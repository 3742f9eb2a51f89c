"""Named target-graph families used across the tests, the seeded random
targets and instances of lhomdel.graphs, and instance graphs of bounded
treewidth as (n, edges)."""

from itertools import combinations

from lhomdel.graphs import (TargetGraph, random_instance,  # noqa: F401
                            random_target)


def loopless_k1():
    return TargetGraph(1, (0,))


def irreflexive_kq(q):
    return TargetGraph.from_edges(
        q, [(u, v) for u in range(q) for v in range(u + 1, q)])


def reflexive_clique(q):
    return TargetGraph.from_edges(
        q, [(u, v) for u in range(q) for v in range(u, q)])


def reflexive_cycle(q):
    edges = [(v, v) for v in range(q)]
    edges += [(v, (v + 1) % q) for v in range(q)]
    return TargetGraph.from_edges(q, edges)


def reflexive_path(q):
    edges = [(v, v) for v in range(q)]
    edges += [(v, v + 1) for v in range(q - 1)]
    return TargetGraph.from_edges(q, edges)


def independent_reflexive(q):
    return TargetGraph.from_edges(q, [(v, v) for v in range(q)])


def windowed_family(k):
    """k irreflexive vertices with sliding windows over a reflexive clique
    of size 2k-1, plus an irreflexive triangle joined to the clique.

    Largest incomparable set has size k; the largest undecomposable piece
    with an obstruction is the triangle, giving an inner invariant of 3.
    """
    a = list(range(k))                      # irreflexive, independent
    b = list(range(k, k + 2 * k - 1))       # reflexive clique
    t = list(range(k + 2 * k - 1, k + 2 * k + 2))  # irreflexive triangle
    edges = []
    for i, bi in enumerate(b):
        for bj in b[i:]:
            edges.append((bi, bj))          # includes loops
    for i, ai in enumerate(a):
        for j in range(i, i + k):
            edges.append((ai, b[j]))
    for i, ti in enumerate(t):
        for tj in t[i + 1:]:
            edges.append((ti, tj))
        for bi in b:
            edges.append((ti, bi))
    return TargetGraph.from_edges(k + 2 * k - 1 + 3, edges)


def crossing_family(k):
    """k irreflexive vertices crossing a reflexive clique v_0..v_{k+1},
    w_0..w_{k+1} in opposite directions, plus an irreflexive edge joined to
    the clique.

    Largest incomparable set has size k; every undecomposable piece with an
    obstruction has invariant 2.
    """
    m = k + 2
    v = list(range(m))
    w = list(range(m, 2 * m))
    u = list(range(2 * m, 2 * m + k))
    x, y = 2 * m + k, 2 * m + k + 1
    refl = v + w
    edges = []
    for i, ri in enumerate(refl):
        for rj in refl[i:]:
            edges.append((ri, rj))          # one reflexive clique
    for i in range(k):
        ui = u[i]
        for j in range(i + 1, m):
            edges.append((ui, v[j]))
        for j in range(0, i + 1):
            edges.append((ui, w[j]))
    edges.append((x, y))
    for r in refl:
        edges.append((x, r))
        edges.append((y, r))
    return TargetGraph.from_edges(2 * m + k + 2, edges)


DICHOTOMY_CORPUS = [
    # (name, target, vd verdict, ed verdict)
    ("loopless-K1", loopless_k1(), "np-hard", "poly"),
    ("irreflexive-K2", irreflexive_kq(2), "np-hard", "np-hard"),
    ("reflexive-K2", reflexive_clique(2), "poly", "poly"),
    ("reflexive-P3", reflexive_path(3), "poly", "poly"),
    # the cycles also carry co-private triples, so both modes are hard
    ("reflexive-C4", reflexive_cycle(4), "np-hard", "np-hard"),
    ("reflexive-C5", reflexive_cycle(5), "np-hard", "np-hard"),
    ("3-independent-reflexive", independent_reflexive(3), "np-hard",
     "np-hard"),
]


def grid(rows, cols, diagonals=False):
    """rows x cols grid; with `diagonals`, each square gets the diagonal
    from its top-left to its bottom-right corner."""
    n = rows * cols
    edges = []
    for v in range(n):
        r, c = divmod(v, cols)
        if c + 1 < cols:
            edges.append((v, v + 1))
        if r + 1 < rows:
            edges.append((v, v + cols))
            if diagonals and c + 1 < cols:
                edges.append((v, v + cols + 1))
    return n, edges


def partial_ktree(rng, n, k, keep=0.7):
    """A random k-tree on n > k vertices (each new vertex joins a random
    k-subset of an existing (k+1)-clique), each edge kept with
    probability `keep`: treewidth at most k."""
    edges = set(combinations(range(k + 1), 2))
    cliques = [tuple(range(k + 1))]
    for v in range(k + 1, n):
        base = list(rng.choice(cliques))
        del base[rng.randrange(k + 1)]
        edges.update((u, v) for u in base)
        cliques.append(tuple(base) + (v,))
    return n, sorted(e for e in edges if rng.random() < keep)

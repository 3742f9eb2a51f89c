"""Named target-graph families used across the tests, the seeded random
targets and instances of lhomdel.graphs, targets composed along the
paper's decomposition, instance graphs of bounded treewidth as
(n, edges), and seeded cut instances for the poly solvers."""

import random
from itertools import combinations

from lhomdel import _kernels, analysis
from lhomdel.graphs import (Instance, TargetGraph, bits,  # noqa: F401
                            random_instance, random_target)


def induced(h, verts):
    """H[verts] as a target of its own; vertex i of the result is
    verts[i].  The solvers work on vertex masks of H (TargetGraph
    .restricted); this copy is the tests' reference."""
    verts = list(verts)
    pos = {v: i for i, v in enumerate(verts)}
    nb = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in bits(h.nbhd[v]):
            if u in pos:
                nb[i] |= 1 << pos[u]
    return TargetGraph(len(verts), tuple(nb))


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


def peeled_family(k):
    """H_k: a reflexive triangle 0, 1, 2, irreflexive vertices 3, 4, 5,
    each j + 3 adjacent only to j, and k reflexive vertices 6..k+5
    adjacent to every vertex.

    The triangle and its pendants hold a private triple.  Each split
    peels one universal vertex, so the split tree is k levels deep, and
    an instance whose lists lie inside 0..5 leaves each peeled vertex's
    part with no instance vertex.
    """
    n = k + 6
    edges = [(u, v) for u in range(3) for v in range(u, 3)]
    edges += [(j, j + 3) for j in range(3)]
    edges += [(u, v) for u in range(6, n) for v in range(n) if v <= u or v < 6]
    return TargetGraph.from_edges(n, edges)


def _is_hard(h, S):
    return _kernels.first_obstruction(h.nbhd, h.reflexive_mask(), S) \
        is not None


def split_composed_target(rng, depth=1):
    """A target whose split tree has two or more hard leaves, as
    (h, sides): a hard undecomposable random target A of 2-5 vertices,
    wrapped `depth` times by a reflexive clique B of 2-4 vertices fully
    joined to everything so far and an irreflexive independent set C of
    2-4 vertices with no edge to it, with random B–C edges, each B∪C
    redrawn until it is hard.  Each wrap is a valid decomposition (so far,
    B, C); a leaf holding A and a wrap vertex would split, so A is a leaf
    and each B∪C holds another hard one.  Vertex ids are shuffled; sides
    lists A and each B∪C in h's ids."""
    while True:
        a = random_target(rng, rng.randint(2, 5), rng.random(), rng.random())
        full = (1 << a.n) - 1
        if _is_hard(a, full) and analysis.find_decomposition(a) is None:
            break
    n, edges = a.n, list(a.edges())
    sides = [list(range(n))]
    for _ in range(depth):
        while True:
            b = list(range(n, n + rng.randint(2, 4)))
            c = list(range(b[-1] + 1, b[-1] + 1 + rng.randint(2, 4)))
            bc = [(u, v) for u in b for v in c if rng.random() < 0.5]
            wrap = TargetGraph.from_edges(c[-1] + 1, bc + [
                (u, v) for u in b for v in range(u, b[-1] + 1)])
            if _is_hard(wrap, sum(1 << v for v in b + c)):
                break
        edges += bc + [(u, v) for u in b for v in range(u + 1)]
        sides.append(b + c)
        n = c[-1] + 1
    perm = list(range(n))
    rng.shuffle(perm)
    h = TargetGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    return h, [sorted(perm[v] for v in side) for side in sides]


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


def sparse_graph(rng, n, extra):
    """A random recursive tree on n vertices plus `extra` random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    size = len(edges) + extra
    while len(edges) < size:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return n, sorted(edges)


def terminals(rng, g):
    """Two distinct non-adjacent vertices of g."""
    n, edges = g
    while True:
        s, t = rng.sample(range(n), 2)
        if (min(s, t), max(s, t)) not in edges:
            return s, t


def ladder_with_terminals(cols):
    """A 3 x cols grid plus s joined to its first column and t to its last:
    every s-t cut, by edges or by inner vertices, has 3 elements."""
    n, edges = grid(3, cols)
    s, t = n, n + 1
    edges = edges + [(r * cols, s) for r in range(3)]
    edges += [(r * cols + cols - 1, t) for r in range(3)]
    return (n + 2, sorted(edges)), s, t


def st_cut_instance(g, s, t):
    """Edge deletion over two independent loops: the optimum is the
    minimum s-t edge cut of g."""
    n, edges = g
    lists = [frozenset({0, 1})] * n
    lists[s], lists[t] = frozenset({0}), frozenset({1})
    return Instance(n, edges, lists)


def vertex_multiway_instance(g, s, t):
    """Vertex deletion over two independent loops: the optimum is the
    minimum s-t vertex cut of g with s and t undeletable.  The terminals
    are removed and each of their neighbours gets 1 + min(deg s, deg t)
    pendant copies of its terminal: more than a minimum cut has vertices,
    since the neighbours of either terminal form a cut."""
    n, edges = g
    keep = [v for v in range(n) if v not in (s, t)]
    pos = {v: i for i, v in enumerate(keep)}
    out = [(pos[u], pos[v]) for u, v in edges if u in pos and v in pos]
    lists = [frozenset({0, 1})] * len(keep)
    copies = 1 + min(sum(x in e for e in edges) for x in (s, t))
    for label, term in ((0, s), (1, t)):
        for u, v in edges:
            if term in (u, v):
                w = pos[u if v == term else v]
                for _ in range(copies):
                    out.append((w, len(lists)))
                    lists.append(frozenset({label}))
    return Instance(len(lists), out, lists)


def poly_cut_cases(n):
    """Seeded instances of about n vertices for the poly solvers, as
    {(name, mode): (target, instance)}: an s-t edge cut and a vertex
    multiway cut on sparse graphs over two loops, a random tree with random
    lists over the reflexive P4 in both modes, and both cuts of a 3-row
    ladder with terminals."""
    two, p4 = independent_reflexive(2), reflexive_path(4)
    rng = random.Random(f"poly-cuts:{n}")
    cases = {}
    g = sparse_graph(rng, n, n // 4)
    cases["stcut", "ed"] = two, st_cut_instance(g, *terminals(rng, g))
    g = sparse_graph(rng, n, n // 4)
    cases["multiway", "vd"] = two, vertex_multiway_instance(
        g, *terminals(rng, g))
    tree = sparse_graph(rng, n, 0)[1]
    lists = [frozenset(rng.sample(range(4), rng.choice((1, 2, 3, 4))))
             for _ in range(n)]
    for mode in ("vd", "ed"):
        cases["p4tree", mode] = p4, Instance(n, tree, lists)
    g, s, t = ladder_with_terminals(n // 3)
    cases["ladder", "ed"] = two, st_cut_instance(g, s, t)
    cases["ladder", "vd"] = two, vertex_multiway_instance(g, s, t)
    return cases

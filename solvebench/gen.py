"""Seeded inputs for the solve/classify benchmark.

Everything here is plain Python on (n, edges) pairs and does not import
lhomdel: the program only ever sees the files these functions write.
Targets are (n, edges) with loops as (v, v); instances are
(n, edges, lists) with 0-indexed vertices and lists as sorted tuples.
"""

from __future__ import annotations

import random
from itertools import combinations

# ---------------------------------------------------------------------------
# file formats (the .hg and .lhi formats of the lhomdel CLI, 1-indexed)


def target_text(h) -> str:
    n, edges = h
    lines = [f"h {n}"] + [f"e {u + 1} {v + 1}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def instance_text(inst) -> str:
    n, edges, lists = inst
    lines = [f"p lhom {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    for v, lst in enumerate(lists):
        lines.append(f"l {v + 1} {len(lst)} " + " ".join(str(x + 1) for x in lst))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# targets


def irreflexive_k3():
    return 3, [(0, 1), (0, 2), (1, 2)]


def independent_reflexive(q):
    return q, [(v, v) for v in range(q)]


def reflexive_cycle(q):
    return q, [(v, v) for v in range(q)] + [
        tuple(sorted((v, (v + 1) % q))) for v in range(q)]


def reflexive_path(q):
    return q, [(v, v) for v in range(q)] + [(v, v + 1) for v in range(q - 1)]


def reflexive_clique(q):
    return q, [(u, v) for u in range(q) for v in range(u, q)]


def windowed_family(k):
    """k irreflexive vertices with sliding windows over a reflexive clique
    of size 2k-1, plus an irreflexive triangle joined to the clique."""
    a = list(range(k))
    b = list(range(k, 3 * k - 1))
    t = list(range(3 * k - 1, 3 * k + 2))
    edges = [(bi, bj) for i, bi in enumerate(b) for bj in b[i:]]
    edges += [(ai, b[j]) for i, ai in enumerate(a) for j in range(i, i + k)]
    edges += [(ti, tj) for i, ti in enumerate(t) for tj in t[i + 1:]]
    edges += [(bi, ti) for ti in t for bi in b]
    return 3 * k + 2, edges


def crossing_family(k):
    """k irreflexive vertices crossing a reflexive clique v_0..v_{k+1},
    w_0..w_{k+1} in opposite directions, plus an irreflexive edge joined to
    the clique."""
    m = k + 2
    refl = list(range(2 * m))
    edges = [(ri, rj) for i, ri in enumerate(refl) for rj in refl[i:]]
    for i in range(k):
        u = 2 * m + i
        edges += [(j, u) for j in range(i + 1, m)]
        edges += [(m + j, u) for j in range(i + 1)]
    x, y = 2 * m + k, 2 * m + k + 1
    edges.append((x, y))
    edges += [(r, z) for r in refl for z in (x, y)]
    return 2 * m + k + 2, edges


DICHOTOMY_CORPUS = {
    "loopless-K1": (1, []),
    "irreflexive-K2": (2, [(0, 1)]),
    "reflexive-K2": reflexive_clique(2),
    "reflexive-P3": reflexive_path(3),
    "reflexive-C4": reflexive_cycle(4),
    "reflexive-C5": reflexive_cycle(5),
    "3-independent-reflexive": independent_reflexive(3),
}


def random_target(rng, n, loop_p=0.5, edge_p=0.5):
    return n, [(u, v) for u in range(n) for v in range(u, n)
               if rng.random() < (loop_p if u == v else edge_p)]


# ---------------------------------------------------------------------------
# instance graphs: (n, sorted edge list with u < v)


def grid(rows, cols, diagonals=False):
    def at(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((at(r, c), at(r, c + 1)))
            if r + 1 < rows:
                edges.append((at(r, c), at(r + 1, c)))
            if diagonals and r + 1 < rows and c + 1 < cols:
                edges.append((at(r, c), at(r + 1, c + 1)))
    return rows * cols, sorted(edges)


def partial_ktree(rng, n, k, keep):
    """Random k-tree on n vertices with each edge kept with probability
    `keep` (treewidth at most k)."""
    edges = set(combinations(range(k + 1), 2))
    cliques = [tuple(range(k + 1))]
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        drop = rng.randrange(k + 1)
        clique = base[:drop] + base[drop + 1:]
        edges.update((u, v) for u in clique)
        cliques.append(clique + (v,))
    return n, sorted(e for e in edges if rng.random() < keep)


def random_tree(rng, n):
    """Random recursive tree: vertex v hangs off a uniform earlier vertex,
    so the depth is logarithmic."""
    return n, sorted((rng.randrange(v), v) for v in range(1, n))


def random_lists(rng, n, hn, sizes):
    return [tuple(sorted(rng.sample(range(hn), rng.choice(sizes))))
            for _ in range(n)]


def full_lists(n, hn):
    return [tuple(range(hn))] * n


def sparse_graph(rng, n, extra):
    """Random recursive tree plus `extra` random chords."""
    _, tree = random_tree(rng, n)
    edges = set(tree)
    while len(edges) < len(tree) + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return n, sorted(edges)


# ---------------------------------------------------------------------------
# classic cut problems, encoded over independent reflexive targets


def st_cut_instance(g, s, t):
    """Edge deletion over two independent loops: the optimum is the
    minimum s-t edge cut of g."""
    n, edges = g
    lists = [(0, 1)] * n
    lists[s], lists[t] = (0,), (1,)
    return n, edges, lists


def vertex_multiway_instance(g, s, t):
    """Vertex deletion over two independent loops: the optimum is the
    minimum s-t vertex cut of g with s and t undeletable.

    The terminals are removed; each terminal neighbour w gets c pendant
    copies of the terminal (c above any cut value), so keeping w with the
    other label is never cheaper than deleting w.
    """
    n, edges = g
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if t in adj[s]:
        raise ValueError("adjacent terminals")
    keep = [v for v in range(n) if v not in (s, t)]
    pos = {v: i for i, v in enumerate(keep)}
    out = sorted((pos[u], pos[v]) for u, v in edges if u in pos and v in pos)
    lists = [(0, 1)] * len(keep)
    copies = min(len(adj[s]), len(adj[t])) + 1
    nxt = len(keep)
    for label, term in ((0, s), (1, t)):
        for w in sorted(adj[term]):
            for _ in range(copies):
                out.append((pos[w], nxt))
                lists.append((label,))
                nxt += 1
    return nxt, out, lists


def ladder_with_terminals(cols):
    """A 3 x cols grid plus s joined to its first column and t to its last;
    every s-t cut, by edges or by inner vertices, has 3 elements at least
    (one column) and one column achieves it."""
    n, edges = grid(3, cols)
    s, t = n, n + 1
    edges = edges + [(r * cols, s) for r in range(3)]
    edges += [(r * cols + cols - 1, t) for r in range(3)]
    return (n + 2, sorted(edges)), s, t


# ---------------------------------------------------------------------------
# independent references


def tree_optimum(h, inst, mode):
    """Exact deletion optimum on a forest instance by dynamic programming
    over the forest (vd: a vertex may take the extra label "deleted")."""
    hn, hedges = h
    n, edges, lists = inst
    adjh = {(u, v) for u, v in hedges} | {(v, u) for u, v in hedges}
    nbrs = {v: [] for v in range(n)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    dead = -1
    best = 0
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        order, parent, stack = [], {root: None}, [root]
        seen[root] = True
        while stack:
            v = stack.pop()
            order.append(v)
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    stack.append(w)
        cost = {}
        for v in reversed(order):
            labels = list(lists[v]) + ([dead] if mode == "vd" else [])
            row = {}
            for x in labels:
                c = 1 if x == dead else 0
                for w in nbrs[v]:
                    if parent.get(w) != v:
                        continue
                    c += min(cw + (0 if x == dead or y == dead or (x, y) in adjh
                                   else (1 if mode == "ed" else 1 << 40))
                             for y, cw in cost[w].items())
                row[x] = c
            cost[v] = row
        best += min(cost[root].values())
    return best

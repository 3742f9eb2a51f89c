"""Target-graph analysis: dichotomy verdicts, obstructions, decompositions,
and the i* invariant."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from . import _kernels, oracle
from .graphs import TargetGraph, bits, max_incomparable

# brute-force decomposition search up to this many vertices, the split
# detector beyond
EXHAUSTIVE_DECOMP_LIMIT = 12


@dataclass(frozen=True)
class Obstruction:
    kind: str          # "irreflexive_edge" | "private_triple" | "co_private_triple"
    vertices: tuple[int, ...]
    witnesses: tuple[int, ...]  # per-vertex (private) or per-pair (co-private)


@dataclass(frozen=True)
class Decomposition:
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]


@dataclass(frozen=True)
class VDWitness:
    kind: str  # "irreflexive_vertex" | "three_independent" | "induced_c4" | "induced_c5"
    vertices: tuple[int, ...]


def _private_witnesses(h: TargetGraph, triple) -> Optional[tuple[int, ...]]:
    """For each member, the lowest-index vertex adjacent to it alone."""
    out = []
    for i, v in enumerate(triple):
        others = [u for j, u in enumerate(triple) if j != i]
        mask = h.nbhd[v] & ~h.nbhd[others[0]] & ~h.nbhd[others[1]]
        # mask is Gamma(v) minus the others' neighborhoods: adjacent to v,
        # to neither other member
        if not mask:
            return None
        out.append(next(bits(mask)))
    return tuple(out)


def _co_private_witnesses(h: TargetGraph, triple) -> Optional[tuple[int, ...]]:
    """For each pair, the lowest-index vertex adjacent to exactly that pair."""
    out = []
    for i, j in combinations(range(3), 2):
        k = 3 - i - j
        mask = h.nbhd[triple[i]] & h.nbhd[triple[j]] & ~h.nbhd[triple[k]]
        if not mask:
            return None
        out.append(next(bits(mask)))
    return tuple(out)


def find_obstruction(h: TargetGraph) -> Optional[Obstruction]:
    """Lexicographically first LHomED hardness witness, or None."""
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if h.has_edge(u, v) and not h.has_loop(u) and not h.has_loop(v):
                return Obstruction("irreflexive_edge", (u, v), ())
    for triple in combinations(range(h.n), 3):
        w = _private_witnesses(h, triple)
        if w is not None:
            return Obstruction("private_triple", triple, w)
        w = _co_private_witnesses(h, triple)
        if w is not None:
            return Obstruction("co_private_triple", triple, w)
    return None


def classify_ed(h: TargetGraph):
    """("poly", None) or ("np-hard", Obstruction)."""
    ob = find_obstruction(h)
    return ("poly", None) if ob is None else ("np-hard", ob)


def _induced_cycle(h: TargetGraph, size: int) -> Optional[tuple[int, ...]]:
    """First induced (loop-stripped) cycle of the given size, in cyclic order."""
    for sub in combinations(range(h.n), size):
        deg = {v: [u for u in sub if u != v and h.has_edge(u, v)] for v in sub}
        if any(len(deg[v]) != 2 for v in sub):
            continue
        # 2-regular on 4 or 5 vertices is a single cycle; walk it
        order = [sub[0], deg[sub[0]][0]]
        while len(order) < size:
            nxt = [u for u in deg[order[-1]] if u != order[-2]]
            order.append(nxt[0])
        return tuple(order)
    return None


def classify_vd(h: TargetGraph):
    """("poly", None) or ("np-hard", VDWitness).

    Hard iff H has an irreflexive vertex, three pairwise non-adjacent
    vertices, or an induced reflexive C4 or C5.
    """
    for v in range(h.n):
        if not h.has_loop(v):
            return ("np-hard", VDWitness("irreflexive_vertex", (v,)))
    for triple in combinations(range(h.n), 3):
        if all(not h.has_edge(u, v) for u, v in combinations(triple, 2)):
            return ("np-hard", VDWitness("three_independent", triple))
    c4 = _induced_cycle(h, 4)
    if c4 is not None:
        return ("np-hard", VDWitness("induced_c4", c4))
    c5 = _induced_cycle(h, 5)
    if c5 is not None:
        return ("np-hard", VDWitness("induced_c5", c5))
    return ("poly", None)


def is_strong_split(h: TargetGraph) -> bool:
    """Reflexive part a clique and irreflexive part an independent set."""
    refl = [v for v in range(h.n) if h.has_loop(v)]
    irr = [v for v in range(h.n) if not h.has_loop(v)]
    return (all(h.has_edge(u, v) for u, v in combinations(refl, 2))
            and all(not h.has_edge(u, v) for u, v in combinations(irr, 2)))


def is_decomposable(h: TargetGraph) -> bool:
    full = (1 << h.n) - 1
    return _kernels.find_split(h.nbhd, h.reflexive_mask(), full) is not None


def find_decomposition(h: TargetGraph) -> Optional[Decomposition]:
    """A valid decomposition (A,B,C), or None.

    Brute-force 3-partition search (first in lexicographic order) for small
    H; the split detector takes over beyond the bound, its answer checked.
    """
    if h.n <= EXHAUSTIVE_DECOMP_LIMIT:
        found = oracle.oracle_decomposition(h)
        if found is None:
            return None
        a, b, c = found
        return Decomposition(tuple(a), tuple(b), tuple(c))
    split = _kernels.find_split(h.nbhd, h.reflexive_mask(), (1 << h.n) - 1)
    if split is None:
        return None
    dec = Decomposition(*(tuple(bits(m)) for m in split))
    if not oracle.is_valid_decomposition(h, dec.a, dec.b, dec.c):
        raise AssertionError(f"split detector gave an invalid {dec}")
    return dec


def i_bullet(h: TargetGraph) -> tuple[int, Optional[list[int]]]:
    """Max i(H') over undecomposable induced subgraphs containing an
    obstruction; 1 with no witness if H has no obstruction."""
    if find_obstruction(h) is None:
        return 1, None
    best, mask = _kernels.subset_scan(h.nbhd, h.reflexive_mask())
    if best < 1 or not mask:
        raise AssertionError(
            f"i* scan found no witness on a target with an obstruction "
            f"(best {best}, mask {mask:#x})")
    return best, list(bits(mask))


@dataclass
class DecompositionTreeNode:
    vertices: tuple[int, ...]          # original H vertex ids
    decomposition: Optional[Decomposition]  # in original ids
    children: list

    def leaves(self):
        if not self.children:
            yield self
        else:
            for ch in self.children:
                yield from ch.leaves()

    def to_json(self):
        d = None
        if self.decomposition is not None:
            d = {"a": [v + 1 for v in self.decomposition.a],
                 "b": [v + 1 for v in self.decomposition.b],
                 "c": [v + 1 for v in self.decomposition.c]}
        return {"vertices": [v + 1 for v in self.vertices],
                "decomposition": d,
                "children": [ch.to_json() for ch in self.children]}


def decomposition_tree(h: TargetGraph,
                       verts: Optional[tuple[int, ...]] = None) -> DecompositionTreeNode:
    """Recursively split H into H[A] and H[B∪C] until undecomposable."""
    if verts is None:
        verts = tuple(range(h.n))
    sub = h.induced(verts)
    dec = find_decomposition(sub)
    if dec is None:
        return DecompositionTreeNode(verts, None, [])
    back = lambda t: tuple(verts[i] for i in t)
    dec_orig = Decomposition(back(dec.a), back(dec.b), back(dec.c))
    children = [decomposition_tree(h, back(dec.a)),
                decomposition_tree(h, tuple(sorted(back(dec.b) + back(dec.c))))]
    return DecompositionTreeNode(verts, dec_orig, children)


def classification_json(h: TargetGraph) -> dict:
    vd, vdw = classify_vd(h)
    ed, obstruction = classify_ed(h)
    i, _ = max_incomparable(h)
    ib, ibw = i_bullet(h)
    out = {
        "vd": vd,
        "vd_witness": None if vdw is None else {
            "kind": vdw.kind, "vertices": [v + 1 for v in vdw.vertices]},
        "ed": ed,
        "ed_obstruction": None if obstruction is None else {
            "kind": obstruction.kind,
            "vertices": [v + 1 for v in obstruction.vertices],
            "witnesses": [v + 1 for v in obstruction.witnesses]},
        "i": i,
        "i_bullet": ib,
        "i_bullet_witness": None if ibw is None else [v + 1 for v in ibw],
        "decomposition_tree": decomposition_tree(h).to_json(),
    }
    return out

"""Target-graph analysis: dichotomy verdicts, obstructions, decompositions,
and the i* invariant."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

from . import _kernels, oracle
from .graphs import TargetGraph, bits, max_incomparable

# up to this many vertices find_decomposition returns the lexicographically
# first decomposition (the one the recorded classify JSON holds); beyond it,
# the split detector's, which can differ
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


def _lex_first_split(h: TargetGraph):
    """The first decomposition in oracle_decompositions order, as three
    vertex masks (A, B, C), or None; polynomial time.

    Let x_v mean v ∈ A; otherwise a looped v goes to B and an irreflexive
    one to C.  Every pair rule of is_valid_decomposition is then a unit
    clause (non-adjacent looped pairs and adjacent irreflexive pairs go to
    A) or an implication between a looped r and an irreflexive i (r ⇒ i
    if adjacent, i ⇒ r if not).  So the valid A are the sets closed under
    the implications that hold the forced vertices, other than ∅ and V(H).
    Vertices are fixed in order, each put in A if a valid A still extends
    the choices made.
    """
    n = h.n
    full = (1 << n) - 1
    refl = h.reflexive_mask()
    irr = full & ~refl
    reach = []  # reach[v]: the vertices that v ∈ A puts in A
    forced = 0
    for v in range(n):
        nb = h.nbhd[v] & ~(1 << v)
        if refl >> v & 1:
            reach.append(1 << v | irr & nb)
            unit = refl & ~nb & ~(1 << v)
        else:
            reach.append(1 << v | refl & ~nb)
            unit = irr & nb
        if unit:
            forced |= 1 << v
    for k in range(n):  # transitive closure
        for v in range(n):
            if reach[v] >> k & 1:
                reach[v] |= reach[k]

    def extends(a, out):
        """Whether a valid A holds a (a closed set) and avoids out."""
        if a & out:
            return False
        if a:
            return a != full
        return any(not reach[v] & out and reach[v] != full
                   for v in bits(full & ~out))

    a = out = 0
    for v in bits(forced):
        a |= reach[v]
    if not extends(a, out):
        return None
    for v in range(n):
        if a >> v & 1:
            continue
        if extends(a | reach[v], out):
            a |= reach[v]
        else:
            out |= 1 << v
    return a, refl & ~a, irr & ~a


def find_decomposition(h: TargetGraph) -> Optional[Decomposition]:
    """A valid decomposition (A,B,C), or None, its validity checked.

    Up to EXHAUSTIVE_DECOMP_LIMIT vertices, the first one in lexicographic
    order (oracle.oracle_decomposition's answer) by a polynomial search;
    beyond it, the split detector's.
    """
    if h.n <= EXHAUSTIVE_DECOMP_LIMIT:
        split = _lex_first_split(h)
    else:
        split = _kernels.find_split(h.nbhd, h.reflexive_mask(),
                                    (1 << h.n) - 1)
    if split is None:
        return None
    dec = Decomposition(*(tuple(bits(m)) for m in split))
    if not oracle.is_valid_decomposition(h, dec.a, dec.b, dec.c):
        raise AssertionError(f"decomposition search gave an invalid {dec}")
    return dec


def i_bullet(h: TargetGraph) -> tuple[int, Optional[list[int]]]:
    """Max i(H') over undecomposable induced subgraphs containing an
    obstruction, with the least such vertex mask at the max; 1 with no
    witness if H has no obstruction.

    Decompositions are hereditary: a valid (A, B, C) of H[X] restricts to
    one of every induced subgraph that meets both A and B∪C.  So each
    undecomposable H[S] lies inside one leaf L of the split tree of any
    H[X] ⊇ H[S], and, as i is monotone and obstructions are closed upward,
    the value is the max i(L) over the leaves L with an obstruction.  The
    witness is fixed from the highest vertex b down, starting from X = V(H)
    and R = ∅: b leaves X if a leaf L of the tree of H[X−b] with R ⊆ L has
    an obstruction and i(L) = i*, since some qualifying S with R ⊆ S ⊆ X−b
    exists exactly then; otherwise b joins R.  At the end X = R, the least
    qualifying mask.  The cost is n + 1 split trees and one i(L) per
    distinct leaf.
    """
    if find_obstruction(h) is None:
        return 1, None
    nb, refl = h.nbhd, h.reflexive_mask()
    full = (1 << h.n) - 1
    leaf_i = {}  # leaf mask -> i(H[L]) if H[L] has an obstruction, else 0

    def leaves(S):
        stack = [S]
        while stack:
            S = stack.pop()
            split = _kernels.find_split(nb, refl, S)
            if split is None:
                if S not in leaf_i:
                    leaf_i[S] = (
                        _kernels.max_incomparable_mask(nb, S)[0]
                        if _kernels._has_obstruction(nb, refl, S) else 0)
                yield S
            else:
                stack += (split[1] | split[2], split[0])

    best = max(leaf_i[L] for L in leaves(full))
    if best < 1:
        raise AssertionError(
            "i* leaf walk found no witness on a target with an obstruction")
    X, R = full, 0
    for b in range(h.n - 1, -1, -1):
        if any(not R & ~L and leaf_i[L] == best
               for L in leaves(X & ~(1 << b))):
            X &= ~(1 << b)
        else:
            R |= 1 << b
    if (_kernels.find_split(nb, refl, R) is not None
            or not _kernels._has_obstruction(nb, refl, R)
            or _kernels.max_incomparable_mask(nb, R)[0] != best):
        raise AssertionError(
            f"i* witness {R:#x} is decomposable, has no obstruction or "
            f"misses i* = {best}")
    return best, list(bits(R))


class DecompositionTreeNode:
    """A node of the split recursion: the subtarget H[vertices], its
    decomposition and its children H[A] and H[B∪C].  The decomposition
    and the children are found on first access, so a walk that stops
    early searches only the nodes it reaches."""

    def __init__(self, target: TargetGraph, vertices: tuple[int, ...]):
        self.target = target      # H[vertices]; its vertex i is vertices[i]
        self.vertices = vertices  # original H vertex ids

    @cached_property
    def local_decomposition(self) -> Optional[Decomposition]:
        """The decomposition of self.target, in its own vertex ids."""
        return find_decomposition(self.target)

    @cached_property
    def decomposition(self) -> Optional[Decomposition]:
        """The decomposition in original ids."""
        d = self.local_decomposition
        if d is None:
            return None
        back = lambda t: tuple(self.vertices[i] for i in t)
        return Decomposition(back(d.a), back(d.b), back(d.c))

    @cached_property
    def children(self) -> list:
        d = self.local_decomposition
        if d is None:
            return []
        return [DecompositionTreeNode(self.target.induced(part),
                                      tuple(self.vertices[i] for i in part))
                for part in (d.a, tuple(sorted(d.b + d.c)))]

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
    """Root of the recursion that splits H[verts] into H[A] and H[B∪C]
    until undecomposable."""
    if verts is None:
        verts = tuple(range(h.n))
    return DecompositionTreeNode(h.induced(verts), tuple(verts))


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

"""Target-graph analysis: dichotomy verdicts, obstructions, decompositions,
and the i* invariant."""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional

from . import _kernels
from .graphs import TargetGraph, bits, max_incomparable

# up to this many vertices find_decomposition returns the lexicographically
# first decomposition (the one the recorded classify JSON holds); beyond it,
# the split detector's, which can differ
EXHAUSTIVE_DECOMP_LIMIT = 12


class Obstruction(NamedTuple):
    kind: str          # "irreflexive_edge" | "private_triple" | "co_private_triple"
    vertices: tuple[int, ...]
    witnesses: tuple[int, ...]  # per-vertex (private) or per-pair (co-private)


class Decomposition(NamedTuple):
    """A decomposition (A, B, C) as three vertex masks of H."""
    a: int
    b: int
    c: int


class VDWitness(NamedTuple):
    kind: str  # "irreflexive_vertex" | "three_independent" | "induced_c4" | "induced_c5"
    vertices: tuple[int, ...]


def find_obstruction(h: TargetGraph) -> Optional[Obstruction]:
    """Lexicographically first LHomED hardness witness, or None."""
    found = _kernels.first_obstruction(h.nbhd, h.reflexive_mask(),
                                       (1 << h.n) - 1)
    return None if found is None else Obstruction(found[0], *(
        tuple(m.bit_length() - 1 for m in ms) for ms in found[1:]))


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


class TwoCliqueCover(NamedTuple):
    left: frozenset[int]
    right: frozenset[int]


def _is_chain_clique(h: TargetGraph, part) -> bool:
    for u, v in combinations(part, 2):
        if not h.has_edge(u, v):
            return False
        if h.nbhd[u] & ~h.nbhd[v] and h.nbhd[v] & ~h.nbhd[u]:
            return False  # incomparable pair inside a part
    return True


def two_clique_cover(h: TargetGraph) -> Optional[TwoCliqueCover]:
    """Partition of V(H) into two cliques with chain neighborhoods each,
    or None; it exists exactly when LHomVD(H) is polynomial.

    None if H is not reflexive.  Otherwise the loop-stripped complement is
    2-colored once, each component's least vertex on the left, and the
    result is None if the coloring meets an odd cycle or a color class is
    not a chain clique.  No other coloring needs a try: if H is
    VD-tractable, its complement is bipartite and 2K2-free (an induced C4
    in H is a 2K2 in the complement), so at most one complement component
    has an edge and every other vertex is universal in H, which fits
    either class.  So the first coloring is valid exactly when any is.
    """
    full = (1 << h.n) - 1
    if h.reflexive_mask() != full:
        return None
    color = [None] * h.n
    for root in range(h.n):
        if color[root] is not None:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in bits(full & ~h.nbhd[u]):  # complement neighbors
                if color[v] is None:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return None  # odd cycle
    parts = [frozenset(v for v in range(h.n) if color[v] == c) for c in (0, 1)]
    if not all(_is_chain_clique(h, part) for part in parts):
        return None
    return TwoCliqueCover(*parts)


def classify_vd(h: TargetGraph):
    """("poly", None) or ("np-hard", VDWitness).

    Hard iff H has an irreflexive vertex, three pairwise non-adjacent
    vertices, or an induced reflexive C4 or C5; poly iff H has a chain
    two-clique cover.  Only a target without a cover runs the search for
    the triple, then the C4, then the C5 that is its witness.
    """
    for v in range(h.n):
        if not h.has_loop(v):
            return ("np-hard", VDWitness("irreflexive_vertex", (v,)))
    if two_clique_cover(h) is not None:
        return ("poly", None)
    for triple in combinations(range(h.n), 3):
        if all(not h.has_edge(u, v) for u, v in combinations(triple, 2)):
            return ("np-hard", VDWitness("three_independent", triple))
    c4 = _induced_cycle(h, 4)
    if c4 is not None:
        return ("np-hard", VDWitness("induced_c4", c4))
    c5 = _induced_cycle(h, 5)
    if c5 is not None:
        return ("np-hard", VDWitness("induced_c5", c5))
    raise AssertionError(
        "target has no chain two-clique cover and no VD hardness witness")


def is_strong_split(h: TargetGraph) -> bool:
    """Reflexive part a clique and irreflexive part an independent set."""
    return _kernels.is_strong_split(h.nbhd, h.reflexive_mask(),
                                    (1 << h.n) - 1)


def is_decomposable(h: TargetGraph) -> bool:
    full = (1 << h.n) - 1
    return _kernels.find_split(h.nbhd, h.reflexive_mask(), full) is not None


def _lex_first_split(nb, refl, S):
    """The first decomposition of H[S] in oracle_decompositions order (on
    H[S] with its vertices in ascending order), as three vertex masks
    (A, B, C) of H, or None; polynomial time.  find_decomposition wraps
    the masks in a Decomposition as they are.

    Let x_v mean v ∈ A; otherwise a looped v goes to B and an irreflexive
    one to C.  Every pair rule of is_valid_decomposition is then a unit
    clause (non-adjacent looped pairs and adjacent irreflexive pairs go to
    A) or an implication between a looped r and an irreflexive i (r ⇒ i
    if adjacent, i ⇒ r if not).  So the valid A are the sets closed under
    the implications that hold the forced vertices, other than ∅ and S.
    Vertices are fixed in order, each put in A if a valid A still extends
    the choices made.
    """
    refl &= S
    irr = S & ~refl
    verts = list(bits(S))
    reach = {}  # reach[v]: the vertices that v ∈ A puts in A
    forced = 0
    for v in verts:
        nb_v = nb[v] & S & ~(1 << v)
        if refl >> v & 1:
            reach[v] = 1 << v | irr & nb_v
            unit = refl & ~nb_v & ~(1 << v)
        else:
            reach[v] = 1 << v | refl & ~nb_v
            unit = irr & nb_v
        if unit:
            forced |= 1 << v
    for k in verts:  # transitive closure
        for v in verts:
            if reach[v] >> k & 1:
                reach[v] |= reach[k]

    def extends(a, out):
        """Whether a valid A holds a (a closed set) and avoids out."""
        if a & out:
            return False
        if a:
            return a != S
        return any(not reach[v] & out and reach[v] != S
                   for v in bits(S & ~out))

    a = out = 0
    for v in bits(forced):
        a |= reach[v]
    if not extends(a, out):
        return None
    for v in verts:
        if a >> v & 1:
            continue
        if extends(a | reach[v], out):
            a |= reach[v]
        else:
            out |= 1 << v
    return a, refl & ~a, irr & ~a


def find_decomposition(h: TargetGraph, S: Optional[int] = None,
                       refl: Optional[int] = None) -> Optional[Decomposition]:
    """A valid decomposition (A,B,C) of H[S] as vertex masks of H, or
    None: the search's three masks, their validity checked.  S is a vertex
    mask, every vertex by default.  refl is h.reflexive_mask(), for a
    caller that asks about many masks.

    Up to EXHAUSTIVE_DECOMP_LIMIT vertices in S, the first one in
    lexicographic order (oracle.oracle_decomposition's answer on H[S]) by
    a polynomial search; beyond it, the split detector's.
    """
    if S is None:
        S = (1 << h.n) - 1
    search = (_lex_first_split if S.bit_count() <= EXHAUSTIVE_DECOMP_LIMIT
              else _kernels.find_split)
    if refl is None:
        refl = h.reflexive_mask()
    split = search(h.nbhd, refl, S)
    if split is None:
        return None
    dec = Decomposition(*split)
    if not is_valid_decomposition(h, *split):
        raise AssertionError(f"decomposition search gave an invalid {dec}")
    return dec


def is_valid_decomposition(h: TargetGraph, a: int, b: int, c: int) -> bool:
    """Whether the vertex masks (A,B,C) are a decomposition: A nonempty,
    B a reflexive clique fully joined to A, C an irreflexive independent
    set with no edges to A, B or C nonempty.  So each B vertex's
    neighbourhood covers A∪B, its own loop included, and each C vertex's
    misses A∪C, its own loop included."""
    if not a or not (b or c):
        return False
    for u in bits(b):
        if (a | b) & ~h.nbhd[u]:
            return False
    for u in bits(c):
        if (a | c) & h.nbhd[u]:
            return False
    return True


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
                        if _kernels.first_obstruction(nb, refl, S) is not None
                        else 0)
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
            or _kernels.first_obstruction(nb, refl, R) is None
            or _kernels.max_incomparable_mask(nb, R)[0] != best):
        raise AssertionError(
            f"i* witness {R:#x} is decomposable, has no obstruction or "
            f"misses i* = {best}")
    return best, list(bits(R))


def decomposition_tree(h: TargetGraph) -> dict:
    """The split of H[S] into H[A] and H[B∪C] until undecomposable, from
    S = V(H), as `classify` prints it: each node's vertices, decomposition
    (None at a leaf) and children, in 1-based ids.  Nodes are vertex masks
    of H, walked with a stack: no target copy and no recursion limit."""
    root = {}
    stack = [(root, (1 << h.n) - 1)]
    refl = h.reflexive_mask()
    while stack:
        node, S = stack.pop()
        dec = find_decomposition(h, S, refl)
        node["vertices"] = [v + 1 for v in bits(S)]
        node["decomposition"] = None if dec is None else {
            k: [v + 1 for v in bits(part)]
            for k, part in zip("abc", (dec.a, dec.b, dec.c))}
        node["children"] = [] if dec is None else [{}, {}]
        if dec is not None:
            a, bc = node["children"]
            stack += ((bc, dec.b | dec.c), (a, dec.a))
    return root


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
        "decomposition_tree": decomposition_tree(h),
    }
    return out

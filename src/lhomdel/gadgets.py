"""Gadget data model and the two construction calculi.

VD family: splitter / matcher / translator paths assembled into
(v,S)-prohibitors and S-prohibitors.  ED family: moves between
incomparable pairs, pendant cost shifts, normalization, composition,
Aux-graph routing, indicators, and bounded synthesis of NEQ realizers.
Aux is searched as the line graph of the pair graph P on V(H), from P's
incidence lists, so it is never built.

Tables are composed by one list kernel, _min_plus, whose rows and
columns are cost lists over one junction's values: an entry is the least
row-plus-column sum, capped at INF.  serial_table lays two tables out as
such lists for serial_glue, _path_table folds a path gadget's edges,
0/bad lists, through it, and parallel_glue sums its parts' tables
pointwise.  A glue composes the table of the mode it is given, so no
path or glued gadget needs an elimination of its own, and it skips
Gadget's checks, which its parts passed.  Bucket elimination over the
gadget's own lists (_kernels.scan_table) builds the tables of the other
gadgets, and the tests and `gadget --verify` check every table by it.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import add
from typing import Optional

from . import _kernels, analysis, dpsolve
from ._kernels import DELETED, INF
from .graphs import (Instance, TargetGraph, bits, format_instance,
                     incomparable, is_incomparable_set)
from .treewidth import _min_fill_order

ENUM_BOUND = 10 ** 7


class GadgetError(ValueError):
    """Construction precondition or verification failure."""


class Gadget:
    __slots__ = ("n", "edges", "lists", "portals", "tables", "meta")

    def __init__(self, n: int, edges: tuple, lists: tuple, portals: tuple,
                 tables: Optional[dict] = None, meta: Optional[dict] = None):
        self.n, self.edges = n, edges
        self.lists = lists  # frozensets over V(H)
        self.portals = portals  # distinct vertex indices
        self.tables = {} if tables is None else tables  # mode -> {tuple: cost}
        self.meta = {} if meta is None else meta
        if len(set(self.portals)) != len(self.portals):
            raise GadgetError("portals must be distinct")
        for p in self.portals:
            if not 0 <= p < self.n:
                raise GadgetError("portal out of range")
        if len(self.lists) != self.n:
            raise GadgetError("need one list per gadget vertex")
        if any(not lst for lst in self.lists):
            raise GadgetError("every gadget list must be nonempty")
        pairs = {(min(e), max(e)) for e in self.edges}
        if len(pairs) < len(self.edges) or any(
                not 0 <= u < v < self.n for u, v in pairs):
            raise GadgetError("gadget edges must join two distinct vertices "
                              "in range, at most once")

    def portal_lists(self):
        return tuple(self.lists[p] for p in self.portals)


class MoveReport:
    __slots__ = ("jmap", "forced")

    def __init__(self, jmap: dict, forced: dict):
        self.jmap = jmap  # input value -> frozenset of min-cost outputs
        self.forced = forced  # input value -> output, where forced


def path_gadget(lists) -> Gadget:
    lists = tuple(frozenset(s) for s in lists)
    edges = tuple((i, i + 1) for i in range(len(lists) - 1))
    return Gadget(len(lists), edges, lists, (0, len(lists) - 1))


# ---------------------------------------------------------------------------
# cost tables


def enumerate_cost_table(h: TargetGraph, gadget: Gadget, mode: str) -> dict:
    """Exact table from the gadget graph alone, by the DP's one
    bucket-elimination engine (_kernels.eliminate, through scan_table)
    over its lists, portals first and left uneliminated, the others in
    min-fill order.  cost_table uses it for gadgets that are not paths,
    and `gadget --verify` for every gadget, path tables included, so it
    checks each composed table independently.

    The name stays because the benchmark tracer wraps it by name, and
    gadgets with more than ENUM_BOUND assignments still raise GadgetError,
    because recorded `gadget --verify` outputs say "table too large to
    enumerate" for them (every s-prohibitor of the benchmark corpus).
    """
    vd = mode == "vd"
    if prod(len(lst) + vd for lst in gadget.lists) > ENUM_BOUND:
        raise GadgetError("gadget too large for exhaustive enumeration")
    nportal = len(gadget.portals)
    order = list(gadget.portals) + [v for v in range(gadget.n)
                                    if v not in gadget.portals]
    pos = {v: i for i, v in enumerate(order)}
    states = [tuple(sorted(gadget.lists[v])) + ((DELETED,) if vd else ())
              for v in order]
    edges = [(pos[u], pos[v]) for u, v in gadget.edges]
    elim = [v for v in _min_fill_order(gadget.n, edges)[0] if v >= nportal]
    flat = _kernels.scan_table(h.nbhd, states, edges, nportal, vd, elim)
    return dict(zip(product(*states[:nportal]), flat.tolist()))


def _is_path(gadget: Gadget) -> bool:
    """Whether the gadget's graph is the path 0-1-...-(n-1) between its
    portals 0 and n-1 (Gadget admits no repeated edge, so n-1 edges that
    each join consecutive vertices are that path)."""
    n = gadget.n
    return (gadget.portals == (0, n - 1) and len(gadget.edges) == n - 1
            and all(abs(u - v) == 1 for u, v in gadget.edges))


def _path_table(h: TargetGraph, gadget: Gadget, mode: str) -> dict:
    """A path gadget's table: its edges folded left through _min_plus.
    An edge costs 0 where its ends' images are adjacent or either is
    DELETED, and otherwise INF in vd and 1 in ed; a deleted interior
    vertex costs 1, charged in the column of the edge leaving it."""
    vd = mode == "vd"
    nb, bad = h.nbhd, INF if vd else 1
    states = [[DELETED, *sorted(lst)] if vd else sorted(lst)
              for lst in gadget.lists]

    def column(junction, b, charge):
        # the costs of the edges from each junction value into b
        if b == DELETED:
            return [charge if c == DELETED else 0 for c in junction]
        m = nb[b]
        return [charge if c == DELETED else 0 if m >> c & 1 else bad
                for c in junction]

    rows = [column(states[1], a, 0) for a in states[0]]  # nb is symmetric
    for junction, right in zip(states[1:-1], states[2:]):
        rows = _min_plus(rows, [column(junction, b, 1) for b in right])
    return {(a, b): cost for a, row in zip(states[0], rows)
            for b, cost in zip(states[-1], row)}


def cost_table(h: TargetGraph, gadget: Gadget, mode: str) -> dict:
    """The gadget's cached table for mode (portal-value tuple, DELETED
    allowed in vd -> cost), made on first use: composed from its edges
    if the gadget is a path (_is_path), else by elimination."""
    if mode not in ("vd", "ed"):
        raise ValueError("mode must be 'vd' or 'ed'")
    if mode not in gadget.tables:
        gadget.tables[mode] = (
            _path_table(h, gadget, mode) if _is_path(gadget)
            else enumerate_cost_table(h, gadget, mode))
    return gadget.tables[mode]


def base_cost(t: dict) -> int:
    """Least finite cost of a table."""
    return min(c for c in t.values() if c < INF)


def _check_costs(t: dict, cells, alpha: int, what: str,
                 above=(), at_least=()) -> None:
    """Raise GadgetError unless t costs alpha on every cell, except that it
    must cost more on the cells of `above` and at least alpha on those of
    `at_least`."""
    for cell in cells:
        c = t[cell]
        if cell in above:
            ok, want = c > alpha, "above"
        elif cell in at_least:
            ok, want = c >= alpha, "at least"
        else:
            ok, want = c == alpha, "exactly"
        if not ok:
            raise GadgetError(f"{what} costs {c} at {cell}, "
                              f"not {want} alpha = {alpha}")


def verify_realizes(h: TargetGraph, gadget: Gadget, relation) -> bool:
    """True iff the gadget 1-realizes the relation in ED mode: its cost is
    a constant k on the relation and k + 1 off it, over tuples drawn from
    the portal lists."""
    t = cost_table(h, gadget, "ed")
    domain = list(product(*(sorted(lst) for lst in gadget.portal_lists())))
    rel = {tuple(r) for r in relation}
    if not rel:
        return False
    on = [t[key] for key in domain if key in rel]
    off = [t[key] for key in domain if key not in rel]
    k = on[0]
    return all(c == k for c in on) and all(c == k + 1 for c in off)


def move_report(h: TargetGraph, gadget: Gadget) -> MoveReport:
    """Per-input minimum-cost reachable sets of a binary ED gadget."""
    t = cost_table(h, gadget, "ed")
    lin, lout = gadget.portal_lists()
    jmap, forced = {}, {}
    for u in sorted(lin):
        row = {v: t[(u, v)] for v in sorted(lout)}
        m = min(row.values())
        jmap[u] = frozenset(v for v, c in row.items() if c == m)
        if len(jmap[u]) == 1:
            (forced[u],) = jmap[u]
    return MoveReport(jmap, forced)


# ---------------------------------------------------------------------------
# gluing


def _prechecked(n: int, edges: tuple, lists: tuple, portals: tuple,
                tables: dict) -> Gadget:
    """A Gadget of parts that passed Gadget.__init__'s checks already."""
    g = Gadget.__new__(Gadget)
    g.n, g.edges, g.lists, g.portals = n, edges, lists, portals
    g.tables, g.meta = tables, {}
    return g


def _glue(g1: Gadget, g2: Gadget, ident: dict, portals1: tuple,
          portals2: tuple) -> Gadget:
    """Union of g1 and g2 with g2-vertex -> g1-vertex identifications,
    with portals g1's portals1 then g2's portals2, and no table yet.  Its
    parts are checked, so it checks only glued lists and parallel edges."""
    for b, a in ident.items():
        if g1.lists[a] != g2.lists[b]:
            raise GadgetError("glued vertices must carry equal lists")
    map2 = {}
    lists = list(g1.lists)
    nxt = g1.n
    for v in range(g2.n):
        if v in ident:
            map2[v] = ident[v]
        else:
            map2[v] = nxt
            lists.append(g2.lists[v])
            nxt += 1
    edges = {(u, v) if u < v else (v, u) for u, v in g1.edges}
    for u, v in g2.edges:
        u, v = map2[u], map2[v]
        edges.add((u, v) if u < v else (v, u))
    if len(edges) < len(g1.edges) + len(g2.edges):
        raise GadgetError("gluing would create a parallel edge")
    return _prechecked(nxt, tuple(sorted(edges)), tuple(lists),
                       portals1 + tuple(map2[v] for v in portals2), {})


def serial_glue(h: TargetGraph, g1: Gadget, g2: Gadget, mode: str) -> Gadget:
    """Identify g1's second portal with g2's first; the mode's table is
    the min-plus composition of the parts' tables over the junction's
    values."""
    g = _glue(g1, g2, {g2.portals[0]: g1.portals[1]}, g1.portals[:1],
              g2.portals[1:])
    junction = sorted(g1.lists[g1.portals[1]])
    g.tables[mode] = serial_table(
        cost_table(h, g1, mode), cost_table(h, g2, mode),
        junction + [DELETED] if mode == "vd" else junction, mode)
    return g


def parallel_glue(h: TargetGraph, g1: Gadget, g2: Gadget,
                  mode: str) -> Gadget:
    """Identify both portal pairs; the mode's table is the pointwise sum
    of the parts' tables."""
    g = _glue(g1, g2, {g2.portals[0]: g1.portals[0],
                       g2.portals[1]: g1.portals[1]}, g1.portals, ())
    g.tables[mode] = parallel_table(cost_table(h, g1, mode),
                                    cost_table(h, g2, mode))
    return g


def _reversed(h: TargetGraph, g: Gadget, mode: str) -> Gadget:
    """A binary gadget with its portals swapped and the mode's table
    transposed."""
    t = cost_table(h, g, mode)
    return _prechecked(g.n, g.edges, g.lists, g.portals[::-1],
                       {mode: {key[::-1]: c for key, c in t.items()}})


def _min_plus(rows: list, cols: list) -> list:
    """The min-plus product of cost lists over one junction's values: for
    each row, the least row[j] + col[j] over the junction for each column,
    capped at INF."""
    return [[m if (m := min(map(add, row, col))) < INF else INF
             for col in cols] for row in rows]


def serial_table(t1: dict, t2: dict, junction, mode: str) -> dict:
    """Min-plus composition at one shared junction vertex; in VD mode a
    deleted junction vertex costs 1 (it is interior to the composition).
    Keys run over t1's first and t2's second portal values, each sorted;
    costs are capped at INF."""
    charge = [1 if mode == "vd" and c == DELETED else 0 for c in junction]
    left = sorted({k[0] for k in t1})
    right = sorted({k[1] for k in t2})
    rows = [[t1[a, c] for c in junction] for a in left]
    cols = [[t2[c, b] + x for c, x in zip(junction, charge)] for b in right]
    return {(a, b): cost for a, row in zip(left, _min_plus(rows, cols))
            for b, cost in zip(right, row)}


def parallel_table(t1: dict, t2: dict) -> dict:
    return {k: min(t1[k] + t2[k], INF) for k in t1}


# ---------------------------------------------------------------------------
# VD family: splitter, matcher, translator, prohibitors


def _private(h: TargetGraph, v: int, w: int) -> int:
    """The mask of Γ(v) ∖ Γ(w): v's private neighbors against w."""
    return h.nbhd[v] & ~h.nbhd[w]


def _low(mask: int) -> int:
    """The least vertex of a nonempty vertex mask."""
    return (mask & -mask).bit_length() - 1


def _outside(h: TargetGraph, v: int) -> frozenset:
    """V(H) ∖ Γ(v)."""
    return frozenset(bits(~h.nbhd[v] & ((1 << h.n) - 1)))


def _check_incomparable(h: TargetGraph, s) -> None:
    if not is_incomparable_set(h, s):
        raise GadgetError(
            f"{sorted(v + 1 for v in s)} is not an incomparable set")


def build_splitter(h: TargetGraph, s, v: int,
                   w: Optional[int] = None,
                   vp: Optional[int] = None,
                   wp: Optional[int] = None) -> Gadget:
    """Path S − (V(H)∖Γ(v)) − {v} − {v',w'}; base cost 1; minimum met
    exactly on (v,v') and (u,v'), (u,w') for u in S∖{v}.

    The free choices (w in S∖{v} and the private neighbors v', w') default
    to the lowest-index candidates but can be pinned by the caller.
    """
    s = frozenset(s)
    if v not in s or len(s) < 2:
        raise GadgetError("need v in S and |S| >= 2")
    _check_incomparable(h, s)
    if w is None:
        w = min(s - {v})
    if vp is None:
        vp = _low(_private(h, v, w))
    if wp is None:
        wp = _low(_private(h, w, v))
    g = path_gadget([s, _outside(h, v), {v}, {vp, wp}])
    g.meta = {"v": v, "w": w, "vp": vp, "wp": wp, "alpha": 1}
    t = cost_table(h, g, "vd")
    _check_costs(t, product(sorted(s), (vp, wp)), 1, "splitter",
                 above={(v, wp)})
    if base_cost(t) != 1:
        raise GadgetError("splitter base cost is not 1")
    return g


def _pair_context(h: TargetGraph, vp: int, wp: int,
                  v: Optional[int], w: Optional[int]) -> tuple:
    """The first (v, w) with vp in Γ(v)∖Γ(w) and wp in Γ(w)∖Γ(v).  The
    conditions on v and on w are independent: v ranges over Γ(vp)∖Γ(wp)
    and w over Γ(wp)∖Γ(vp)."""
    if v is not None and w is not None:
        return v, w
    vs, ws = _private(h, vp, wp), _private(h, wp, vp)
    if not vs or not ws:
        raise GadgetError("no generating pair for the given private neighbors")
    return _low(vs), _low(ws)


def _verify_matcher(t: dict, p: int, q: int, alpha: int) -> None:
    """alpha off the diagonal, more at (p,p), at least alpha at (q,q)."""
    _check_costs(t, product((p, q, DELETED), repeat=2), alpha, "matcher",
                 above={(p, p)}, at_least={(q, q)})


def _cycle_as(cycle, first: int, second: int):
    """Rotation/reflection of a cyclic order putting `first` at position 0
    and `second` at position 2."""
    k = len(cycle)
    seqs = [tuple(cycle[(cycle.index(first) + d * i) % k] for i in range(k))
            for d in (1, -1)]
    for seq in seqs:
        if seq[2] == second:
            return seq
    raise GadgetError("vertices are not at distance two on the cycle")


def _ab_matcher(h: TargetGraph, witness, p: int, q: int) -> Gadget:
    """(p,q)-matcher over a reflexive hardness witness; penalizes (p,p)."""
    kind, verts = witness.kind, witness.vertices
    if kind == "three_independent":
        third = min(set(verts) - {p, q})
        g = path_gadget([{p, q}, {q}, {third}, {p}, {q}, {p, q}])
        alpha = 2
    elif kind == "induced_c4":
        a, x, b, y = _cycle_as(list(verts), p, q)
        g = path_gadget([{a, b}, {x, b}, {x, y}, {b, y}, {a, b}])
        alpha = 0
    elif kind == "induced_c5":
        a, x, b, y, z = _cycle_as(list(verts), p, q)
        g = path_gadget([{a, b}, {x, y}, {b, z}, {a, b}])
        alpha = 0
    else:
        raise GadgetError(f"no (p,q)-matcher for witness kind {kind}")
    g.meta = {"alpha": alpha, "p": p, "q": q, "witness": kind}
    _verify_matcher(cost_table(h, g, "vd"), p, q, alpha)
    return g


def build_translator(h: TargetGraph, vp: int, wp: int, a: int, b: int,
                     v: Optional[int] = None,
                     w: Optional[int] = None) -> tuple:
    """Move {vp,wp} -> {a,b} penalizing one diagonal; returns the gadget
    and its orientation (c,d), meaning vp -> c is the cheap transition.

    Only valid on reflexive targets: the case analysis leans on loops.
    """
    if not h.is_reflexive():
        raise GadgetError("translator requires a reflexive target")
    if h.has_edge(a, b):
        raise GadgetError("translator destination pair must be non-adjacent")
    v, w = _pair_context(h, vp, wp, v, w)
    if h.has_edge(a, vp):
        if h.has_edge(b, w):
            g = path_gadget([{vp, wp}, {a, w}, {a, b}])
            orient, alpha, case = (a, b), 0, "a"
        else:
            g = path_gadget([{vp, wp}, {w}, {b}, {a, b}])
            orient, alpha, case = (b, a), 1, "d"
    else:
        if h.has_edge(b, vp):
            g = path_gadget([{vp, wp}, {w}, {vp}, {a, b}])
            orient, alpha, case = (b, a), 1, "b"
        else:
            g = path_gadget([{vp, wp}, {w}, {vp}, {b}, {a}, {a, b}])
            orient, alpha, case = (a, b), 2, "c"
    c, d = orient
    _check_costs(cost_table(h, g, "vd"),
                 product((vp, wp, DELETED), (a, b, DELETED)),
                 alpha, "translator", above={(vp, d)}, at_least={(wp, c)})
    g.meta = {"alpha": alpha, "orientation": orient, "case": case}
    return g, orient


def build_matcher(h: TargetGraph, vp: int, wp: int,
                  v: Optional[int] = None,
                  w: Optional[int] = None) -> Gadget:
    """(vp,wp)-matcher: minimum cost everywhere except both portals at vp.

    With an irreflexive vertex available, each candidate picks the path
    shape from its adjacencies to the portals and is verified outright;
    the first verified candidate wins.
    """
    irr = [i for i in range(h.n) if not h.has_loop(i)]
    last_err = None
    for i in irr:
        try:
            if h.has_edge(i, vp) and h.has_edge(i, wp):
                _, wv = _pair_context(h, vp, wp, v, w)
                g = path_gadget([{vp, wp}, {wv, i}, {i}, {i},
                                 {wv, i}, {vp, wp}])
                alpha = 1
            elif h.has_edge(i, wp):
                g = path_gadget([{vp, wp}, {i}, {i}, {vp, wp}])
                alpha = 1
            else:
                vv, wv = _pair_context(h, vp, wp, v, w)
                g = path_gadget([{vp, wp}, {vv, wv}, {wp}, {i}, {i},
                                 {wp}, {vv, wv}, {vp, wp}])
                alpha = 2
            g.meta = {"alpha": alpha, "p": vp, "q": wp}
            _verify_matcher(cost_table(h, g, "vd"), vp, wp, alpha)
            return g
        except GadgetError as exc:
            last_err = exc
    if irr:
        raise last_err
    # reflexive H: translator + (a,b)-matcher + reversed translator
    cls, witness = analysis.classify_vd(h)
    if cls != "np-hard":
        raise GadgetError("matcher needs an NP-hard target")
    verts = witness.vertices
    if witness.kind == "three_independent":
        a, b = sorted(verts)[:2]
    else:
        a, b = verts[0], verts[2]
    tr, (c, d) = build_translator(h, vp, wp, a, b, v, w)
    mat = _ab_matcher(h, witness, c, d)
    g = serial_glue(h, serial_glue(h, tr, mat, "vd"), _reversed(h, tr, "vd"),
                    "vd")
    alpha = 2 * tr.meta["alpha"] + mat.meta["alpha"]
    g.meta = {"alpha": alpha, "p": vp, "q": wp}
    _verify_matcher(g.tables["vd"], vp, wp, alpha)
    return g


def build_prohibitor(h: TargetGraph, s, v: int) -> Gadget:
    """(v,S)-prohibitor: cost alpha on every portal behavior over
    (S ∪ {x})² except (v,v), which costs more.

    Searches the free choices (w and the private neighbors) for a
    combination whose matcher verifies.
    """
    s = frozenset(s)
    last_err = GadgetError("no candidate choices")
    for w, vp, wp in ((w, vp, wp) for w in sorted(s - {v})
                      for vp in bits(_private(h, v, w))
                      for wp in bits(_private(h, w, v))):
        try:
            spl = build_splitter(h, s, v, w, vp, wp)
            mat = build_matcher(h, vp, wp, v, w)
            break
        except GadgetError as exc:
            last_err = exc
    else:
        raise last_err
    g = serial_glue(h, serial_glue(h, spl, mat, "vd"),
                    _reversed(h, spl, "vd"), "vd")
    alpha = 2 * spl.meta["alpha"] + mat.meta["alpha"]
    _check_costs(g.tables["vd"], product(sorted(s) + [DELETED], repeat=2),
                 alpha, "prohibitor", above={(v, v)})
    g.meta = {"alpha": alpha, "v": v, "s": s}
    return g


def build_s_prohibitor(h: TargetGraph, s) -> Gadget:
    """All (v,S)-prohibitors glued at shared portals; cost alpha = sum of
    base costs off the diagonal, more on every (v,v)."""
    s = frozenset(s)
    parts = [build_prohibitor(h, s, v) for v in sorted(s)]
    g = parts[0]
    for other in parts[1:]:
        g = parallel_glue(h, g, other, "vd")
    alpha = sum(p.meta["alpha"] for p in parts)
    _check_costs(g.tables["vd"], product(sorted(s) + [DELETED], repeat=2),
                 alpha, "S-prohibitor", above={(u, u) for u in s})
    g.meta = {"alpha": alpha, "s": s}
    return g


# ---------------------------------------------------------------------------
# ED calculus: pendants, normalization, composition


def add_cost_pendants(h: TargetGraph, gadget: Gadget, portal_index: int,
                      a: int, k: int) -> Gadget:
    """k pendant vertices with list V(H)∖Γ(a) on one portal: +k exactly on
    table entries where that portal takes value a."""
    p = gadget.portals[portal_index]
    if a not in gadget.lists[p]:
        raise GadgetError("a must be in the portal's list")
    _check_incomparable(h, gadget.lists[p])
    pend = _outside(h, a)
    if not pend:
        raise GadgetError("no pendant list available: Γ(a) = V(H)")
    t = cost_table(h, gadget, "ed")
    new = range(gadget.n, gadget.n + k)
    g = Gadget(gadget.n + k, tuple(gadget.edges) + tuple((p, v) for v in new),
               tuple(gadget.lists) + (pend,) * k, gadget.portals,
               meta=dict(gadget.meta))
    g.tables["ed"] = {key: c + (k if key[portal_index] == a else 0)
                      for key, c in t.items()}
    return g


def normalize_move(h: TargetGraph, move: Gadget) -> Gadget:
    """Equalize row minima so the move realizes {(u,v): v in J(u)}."""
    t = cost_table(h, move, "ed")
    lin = sorted(move.lists[move.portals[0]])
    lout = sorted(move.lists[move.portals[1]])
    mins = {u: min(t[(u, v)] for v in lout) for u in lin}
    kstar = max(mins.values())
    g = move
    for u in lin:
        if mins[u] < kstar:
            g = add_cost_pendants(h, g, 0, u, kstar - mins[u])
    tn = g.tables["ed"]
    _check_costs(tn, product(lin, lout), min(tn.values()), "normalized move",
                 above={(u, v) for u in lin for v in lout
                        if t[(u, v)] != mins[u]})
    g.meta = {**move.meta, "normalized": True}
    return g


def force_from_allow(h: TargetGraph, move: Gadget) -> Gadget:
    """Turn a move that forces a->c and allows b->d into one forcing both:
    parallel doubling (detouring a portal edge if present) plus +1 pendants
    on input b and output c."""
    return _force_from_allow(h, move, move_report(h, move))[0]


def _force_from_allow(h: TargetGraph, move: Gadget,
                      rep: MoveReport) -> tuple[Gadget, MoveReport]:
    """force_from_allow(h, move) and its report, given move's report rep."""
    lin = sorted(move.lists[move.portals[0]])
    lout = sorted(move.lists[move.portals[1]])
    if len(lin) != 2 or len(lout) != 2:
        raise GadgetError("force_from_allow expects a pair-to-pair move")
    forced = [u for u in lin if len(rep.jmap[u]) == 1]
    if len(forced) == 2 and rep.forced[lin[0]] != rep.forced[lin[1]]:
        return move, rep
    if len(forced) != 1:
        raise GadgetError("move must force exactly one input")
    a = forced[0]
    (c,) = rep.jmap[a]
    b = next(u for u in lin if u != a)
    d = next(v for v in lout if v != c)
    if rep.jmap[b] != frozenset(lout):
        raise GadgetError("move does not allow b->d")
    _check_incomparable(h, frozenset(lin))
    _check_incomparable(h, frozenset(lout))
    g = move
    x, y = g.portals
    pe = tuple(sorted((x, y)))
    if pe in {tuple(sorted(e)) for e in g.edges}:
        ap, bp = _low(_private(h, a, b)), _low(_private(h, b, a))
        edges = [e for e in g.edges if tuple(sorted(e)) != pe]
        lists = list(g.lists) + [frozenset({ap, bp}), frozenset(lin)]
        edges += [(x, g.n), (g.n, g.n + 1), (g.n + 1, y)]
        g = Gadget(g.n + 2, tuple(edges), tuple(lists), g.portals)
    out = add_cost_pendants(h, parallel_glue(h, g, g, "ed"), 0, b, 1)
    out = add_cost_pendants(h, out, 1, c, 1)
    rep2 = move_report(h, out)
    if rep2.forced.get(a) != c or rep2.forced.get(b) != d:
        raise GadgetError("force_from_allow verification failed")
    return out, rep2


def adjacent_pair_move(h: TargetGraph, pair1, pair2) -> Gadget:
    """Forcing move between intersecting (or equal) incomparable pairs."""
    p1, p2 = frozenset(pair1), frozenset(pair2)
    _check_incomparable(h, p1)
    _check_incomparable(h, p2)
    shared = sorted(p1 & p2)
    if not shared:
        raise GadgetError("pairs must intersect")
    if len(p1) != 2 or len(p2) != 2:
        raise GadgetError("need 2-vertex pairs")
    a = shared[0]
    (b,), (c,) = p1 - {a}, p2 - {a}
    bp, cp = _low(_private(h, b, a)), _low(_private(h, c, a))
    free = _private(h, a, b) & _private(h, a, c)
    if free:
        g = path_gadget([p1, {_low(free), bp}, p2])
        return _ensure_forced(h, g, {a: a, b: c})
    ap, app = _low(_private(h, a, b)), _low(_private(h, a, c))
    g = path_gadget([p1, {ap, bp}, {c, b}, {cp, app}, p2])
    return _ensure_forced(h, g, {a: c, b: a})


def _ensure_forced(h: TargetGraph, g: Gadget, want: dict) -> Gadget:
    rep = move_report(h, g)
    if all(rep.forced.get(u) == v for u, v in want.items()):
        return g
    g2, rep2 = _force_from_allow(h, g, rep)
    if not all(rep2.forced.get(u) == v for u, v in want.items()):
        raise GadgetError("pair move fails to force the intended bijection")
    return g2


# ---------------------------------------------------------------------------
# Aux graphs and moving between arbitrary pairs


def incomparable_pairs(h: TargetGraph):
    return [frozenset((u, v)) for u in range(h.n) for v in range(u + 1, h.n)
            if incomparable(h, u, v)]


def _in_variant(h: TargetGraph, variant: str, refl: int, a: int,
                b: int) -> bool:
    """Whether the incomparable pair {a, b} is a vertex of Aux-variant;
    refl is h.reflexive_mask().  star keeps the pairs of two reflexive
    vertices; good drops the bad pairs: two non-adjacent irreflexive
    vertices whose private neighbors (Γ(a) xor Γ(b)) are all reflexive."""
    if variant == "star":
        return h.has_loop(a) and h.has_loop(b)
    return bool(h.has_loop(a) or h.has_loop(b) or h.has_edge(a, b)
                or (h.nbhd[a] ^ h.nbhd[b]) & ~refl)


def pair_graph(h: TargetGraph, variant: str) -> list:
    """The graph P on V(H) whose edges are the pairs of Aux-variant (star
    or good), Aux being P's line graph, as incidence lists: at[v] holds
    the key a·n + b of each pair {a, b} at v, a < b, in ascending order,
    which is incomparable_pairs order."""
    n, refl = h.n, h.reflexive_mask()
    at = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if incomparable(h, a, b) and _in_variant(h, variant, refl, a, b):
                at[a].append(a * n + b)
                at[b].append(a * n + b)
    return at


def _aux_path(at: list, s, t) -> Optional[list]:
    """A shortest s-t path in Aux, given as pair_graph's incidence lists
    at, or None if there is none.

    Two-ended BFS: each step expands the smaller fringe (the forward one
    on ties) and stops at the first pair both searches have reached, so
    the path returned among several shortest ones is fixed by the order
    of a pair's neighbors: the merge of the lists at its two ends, which
    holds the pair itself too (so s = t meets at once).  Each list is
    scanned once: a pair both sides label ends the search, so once one
    side has labelled every pair at x, the other side's first pair at x
    ends it, and a second scan of at[x] by the same side would do nothing.
    """
    n = len(at)
    (a, b), (c, d) = sorted(s), sorted(t)
    s, t = a * n + b, c * n + d
    if b >= n or d >= n or s not in at[a] or t not in at[c]:
        return None
    pred, succ = {s: None}, {t: None}  # parent in each search tree
    fringe, scanned = [[s], [t]], set()
    while fringe[0] and fringe[1]:
        side = 0 if len(fringe[0]) <= len(fringe[1]) else 1
        tree, other = (pred, succ) if side == 0 else (succ, pred)
        level, fringe[side] = fringe[side], []
        for v in level:
            ends = [x for x in divmod(v, n) if x not in scanned]
            scanned.update(ends)
            for w in sorted(k for x in ends for k in at[x]):
                if w not in tree:
                    tree[w] = v
                    fringe[side].append(w)
                if w in other:  # back up the pred tree, on down succ's
                    path = [w]
                    while pred[path[0]] is not None:
                        path.insert(0, pred[path[0]])
                    while succ[path[-1]] is not None:
                        path.append(succ[path[-1]])
                    return [frozenset(divmod(k, n)) for k in path]
    return None


def _shift_gadget(h: TargetGraph, pair, reflexive_private: bool) -> tuple:
    """Path {a,b} - {a',b'} forcing each element to a private neighbor;
    returns (gadget, new pair)."""
    a, b = sorted(pair)
    pa = _private(h, a, b)
    if reflexive_private:
        pa &= h.reflexive_mask()
    ap, bp = _low(pa), _low(_private(h, b, a))
    g = path_gadget([{a, b}, {ap, bp}])
    rep = move_report(h, g)
    if rep.forced.get(a) != ap or rep.forced.get(b) != bp:
        raise GadgetError("pair shift fails to force private neighbors")
    return g, frozenset((ap, bp))


def _aux_context(h: TargetGraph) -> tuple:
    """What every move chain of a build shares: whether H is a strong
    split, the Aux variant that follows, and its pair graph."""
    strong = analysis.is_strong_split(h)
    variant = "star" if strong else "good"
    return strong, variant, pair_graph(h, variant)


def _move_chain(h: TargetGraph, aux: tuple, pair1, pair2) -> list:
    """Primitive forcing moves composing to a move from pair1 to pair2,
    routed through Aux as given by aux (_aux_context)."""
    p1, p2 = frozenset(pair1), frozenset(pair2)
    for p in (p1, p2):
        if len(p) != 2:
            raise GadgetError(f"pair {sorted(v + 1 for v in p)} "
                              "is not two distinct vertices")
        _check_incomparable(h, p)
    strong, variant, at = aux
    refl = h.reflexive_mask()
    chain, start, end, endchain = [], p1, p2, []
    if not _in_variant(h, variant, refl, *sorted(p1)):
        g, start = _shift_gadget(h, p1, reflexive_private=not strong)
        chain.append(g)
    if not _in_variant(h, variant, refl, *sorted(p2)):
        # the shift's one edge forces a->a' and b->b', so its ED table is 0
        # at (a, a') and (b, b') and 1 at (a, b') and (b, a'): reversed, it
        # forces a'->a and b'->b
        g, end = _shift_gadget(h, p2, reflexive_private=not strong)
        endchain.append(_reversed(h, g, "ed"))
    nodes = _aux_path(at, start, end)
    if nodes is None:
        raise GadgetError(
            f"pairs not connected in Aux-{variant}: is H undecomposable?")
    if len(nodes) == 1:
        chain.append(adjacent_pair_move(h, nodes[0], nodes[0]))
    for u, v in zip(nodes, nodes[1:]):
        chain.append(adjacent_pair_move(h, u, v))
    return chain + endchain


def _compose_chain(h: TargetGraph, chain) -> Gadget:
    """The moves of a chain, each normalized, glued in series."""
    parts = [normalize_move(h, m) for m in chain]
    g = parts[0]
    for m in parts[1:]:
        g = serial_glue(h, g, m, "ed")
    return g


def move_between_pairs(h: TargetGraph, pair1, pair2) -> Gadget:
    """Composed move forcing a bijection from pair1 onto pair2."""
    g = _compose_chain(h, _move_chain(h, _aux_context(h), pair1, pair2))
    rep = move_report(h, g)
    vals = [rep.jmap[u] for u in sorted(frozenset(pair1))]
    if (any(len(s) != 1 for s in vals) or vals[0] == vals[1]
            or not set().union(*vals) <= set(pair2)):
        raise GadgetError("composed move is not a forced bijection")
    return g


def relax_input_list(h: TargetGraph, move: Gadget, s) -> Gadget:
    """Widen the input portal's list to S; re-verify the original forcing."""
    s = frozenset(s)
    old = move.lists[move.portals[0]]
    if not old <= s:
        raise GadgetError("S must contain the input list")
    _check_incomparable(h, s)
    rep_before = move_report(h, move)
    lists = list(move.lists)
    lists[move.portals[0]] = s
    g = Gadget(move.n, move.edges, tuple(lists), move.portals)
    rep_after = move_report(h, g)
    for u in sorted(old):
        if rep_after.jmap[u] != rep_before.jmap[u]:
            raise GadgetError("list relaxation changed the forcing")
    return g


def build_indicator(h: TargetGraph, s, a: int, b: int) -> tuple:
    """Indicator of S over {a,b}: one normalized forcing move per ordered
    pair of S, glued at a shared input portal.  Returns (gadget, I), I
    being the joint table's minimum entries: every submove is normalized,
    so these are the tuples each of whose submoves takes a least-cost
    output."""
    s = sorted(frozenset(s))
    if len(s) < 2:
        raise GadgetError("need |S| >= 2")
    entries = len(s) << len(s) * (len(s) - 1)  # 2 outputs per submove
    if entries > dpsolve.MAX_TABLE_ENTRIES:
        raise GadgetError(f"the indicator's joint table has {entries} "
                          f"entries, above the cap of "
                          f"{dpsolve.MAX_TABLE_ENTRIES}")
    aux = _aux_context(h)
    moves = []
    for x in s:
        for y in s:
            if x == y:
                continue
            chain = _move_chain(h, aux, frozenset((x, y)), frozenset((a, b)))
            if chain[0].lists[chain[0].portals[0]] != frozenset(s):
                chain[0] = relax_input_list(h, chain[0], frozenset(s))
            m = normalize_move(h, _compose_chain(h, chain))
            rep = move_report(h, m)
            if (len(rep.jmap[x]) != 1 or len(rep.jmap[y]) != 1
                    or rep.jmap[x] == rep.jmap[y]):
                raise GadgetError("indicator submove is not forcing")
            moves.append(m)
    g = moves[0]
    for m in moves[1:]:
        g = _glue(g, m, {m.portals[0]: g.portals[0]}, g.portals,
                  m.portals[1:])
    # joint table: submoves are independent given the shared input
    tabs = [cost_table(h, m, "ed") for m in moves]
    g.tables["ed"] = joint = {
        (u,) + outs: sum(t[(u, o)] for t, o in zip(tabs, outs))
        for u in s for outs in product((a, b), repeat=len(moves))}
    k = min(joint.values())
    relation = {key for key, c in joint.items() if c == k}
    rows = [{key[1:] for key in relation if key[0] == u} for u in s]
    for i, iu in enumerate(rows):
        if not iu:
            raise GadgetError("indicator axiom: I(u) empty")
        if any(iu & iv for iv in rows[i + 1:]):
            raise GadgetError("indicator axiom: I(u), I(v) intersect")
    g.meta = {"s": tuple(s), "pair": (a, b)}
    return g, frozenset(relation)


# ---------------------------------------------------------------------------
# NEQ synthesis


def _path_close(state, lst, nbhd, cap):
    """Each cost vector over V(H) extended by one path vertex with list
    lst: the vertex takes v at the least entry over Γ(v), or at the least
    entry anywhere plus one (the edge deleted), capped."""
    out = []
    for vec in state:
        new = [cap] * len(vec)
        step = min(min(vec) + 1, cap)
        for v in lst:
            new[v] = min([step] + [vec[u] for u in bits(nbhd[v])])
        out.append(tuple(new))
    return tuple(out)


def synthesize_neq(h: TargetGraph, a: int, b: int,
                   budget: int = 6) -> Optional[Gadget]:
    """Bounded search for a path gadget (possibly mirror-doubled) that
    1-realizes NEQ(a,b).  Lists are drawn from the obstruction and its
    witnesses; deterministic first find."""
    obs = analysis.find_obstruction(h)
    if obs is None or not {a, b} <= set(obs.vertices):
        raise GadgetError("{a,b} must lie inside an obstruction")
    if h.has_edge(a, b) and not h.has_loop(a) and not h.has_loop(b):
        g = path_gadget([{a, b}, {a, b}])
        if verify_realizes(h, g, {(a, b), (b, a)}):
            return g
    pool = sorted(set(obs.vertices) | set(obs.witnesses))
    cands = [frozenset({u}) for u in pool] + \
            [frozenset({u, v}) for i, u in enumerate(pool)
             for v in pool[i + 1:]]
    cap = 8

    def neq_ok(t):
        k = min(t.values())
        return (t[(a, b)] == k and t[(b, a)] == k
                and t[(a, a)] == k + 1 and t[(b, b)] == k + 1)

    start_a = tuple(0 if v == a else cap for v in range(h.n))
    start_b = tuple(0 if v == b else cap for v in range(h.n))
    frontier = {(start_a, start_b): []}
    for _ in range(budget):
        nxt = {}
        for state in sorted(frontier):
            path = frontier[state]
            for lst in cands:
                ns = _path_close(state, lst, h.nbhd, cap)
                if ns not in nxt:
                    nxt[ns] = path + [lst]
        frontier = nxt
        for state in sorted(frontier):
            closed = _path_close(state, frozenset({a, b}), h.nbhd, cap)
            t = {(a, x): closed[0][x] for x in (a, b)}
            t.update({(b, x): closed[1][x] for x in (a, b)})
            if max(t.values()) >= cap:
                continue
            lists = [frozenset({a, b})] + frontier[state] + \
                    [frozenset({a, b})]
            if neq_ok(t):
                g = path_gadget(lists)
                if verify_realizes(h, g, {(a, b), (b, a)}):
                    return g
            ts = {k2: t[k2] + t[(k2[1], k2[0])] for k2 in t}
            if neq_ok(ts):
                g1 = path_gadget(lists)
                g = parallel_glue(h, g1, _reversed(h, g1, "ed"), "ed")
                if verify_realizes(h, g, {(a, b), (b, a)}):
                    return g
    return None


# ---------------------------------------------------------------------------
# file format


def format_gadget(g: Gadget) -> str:
    body = format_instance(Instance(
        g.n, sorted((u, v) if u < v else (v, u) for u, v in g.edges),
        list(g.lists)))
    return body + "portal " + " ".join(str(p + 1) for p in g.portals) + "\n"


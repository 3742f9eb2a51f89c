import contextlib
import io
import math
import random
from itertools import combinations

import pytest

from lhomdel import _kernels, analysis, cli, dpsolve, oracle, polysolve
from lhomdel.graphs import (MAX_INSTANCE_VERTICES, Infeasible, Instance,
                            Solution, TargetGraph, format_instance,
                            format_target, max_incomparable, reduce_lists)
from lhomdel.treewidth import (HubCore, TreeDecomposition, build_td,
                               core_to_td, format_core, format_td, make_nice,
                               restrict_td, validate_td)

import families


def test_vd_dp_vs_oracle():
    rng = random.Random(61)
    for _ in range(120):
        h = families.random_target(rng, rng.randint(1, 5))
        inst = families.random_instance(rng, h, rng.randint(1, 8))
        want = oracle.oracle_vd(h, inst).cost
        assert dpsolve.solve_vd_dp(h, inst).cost == want
        assert dpsolve.solve_vd_auto(h, inst).cost == want


def test_ed_dp_vs_oracle():
    rng = random.Random(62)
    for _ in range(120):
        h = families.random_target(rng, rng.randint(1, 5))
        inst = families.random_instance(rng, h, rng.randint(1, 8))
        want = oracle.oracle_ed(h, inst).cost
        assert dpsolve.solve_ed_dp(h, inst).cost == want
        assert dpsolve.solve_ed_auto(h, inst).cost == want


def test_explicit_td_accepted():
    rng = random.Random(63)
    h = families.reflexive_cycle(5)
    inst = families.random_instance(rng, h, 7)
    td = build_td(inst)
    assert dpsolve.solve_vd_dp(h, inst, td).cost == \
        dpsolve.solve_vd_dp(h, inst).cost
    assert dpsolve.solve_ed_dp(h, inst, td).cost == \
        dpsolve.solve_ed_dp(h, inst).cost


def test_empty_join_bag():
    # the star of an empty hub core over a disconnected instance: the join
    # bag is empty, so each child's table has lost every axis
    rng = random.Random(64)
    for _ in range(40):
        h = families.random_target(rng, rng.randint(1, 4))
        inst = families.random_instance(rng, h, rng.randint(2, 5), 0.0)
        td = TreeDecomposition(
            (frozenset(),) + tuple(frozenset((v,)) for v in range(inst.n)),
            tuple((0, v + 1) for v in range(inst.n)))
        assert dpsolve.solve_vd_dp(h, inst, td).cost == \
            oracle.oracle_vd(h, inst).cost
        assert dpsolve.solve_ed_dp(h, inst, td).cost == \
            oracle.oracle_ed(h, inst).cost


def test_ed_infeasible_on_empty_list():
    h = families.reflexive_clique(2)
    inst = Instance(2, [(0, 1)], [frozenset(), frozenset({0})])
    with pytest.raises(Infeasible):
        dpsolve.solve_ed_dp(h, inst)
    with pytest.raises(Infeasible):
        dpsolve.solve_ed_auto(h, inst)
    # VD handles the same instance by deleting the listless vertex
    assert dpsolve.solve_vd_dp(h, inst).cost == 1


@pytest.fixture
def checked(monkeypatch):
    """The algorithm of each solution that Solution.check is called on."""
    seen = []
    check = Solution.check

    def counting_check(sol, *args):
        seen.append(sol.algorithm)
        check(sol, *args)

    monkeypatch.setattr(Solution, "check", counting_check)
    return seen


@pytest.mark.parametrize("h", [families.reflexive_path(3),  # poly case
                               families.irreflexive_kq(3)])  # undecomposable
def test_ed_auto_checks_its_witness_once(h, checked):
    inst = Instance(3, [(0, 1), (1, 2)], [frozenset(range(h.n))] * 3)
    assert dpsolve.solve_ed_auto(h, inst).algorithm == "auto"
    assert len(checked) == 1


def test_ed_split_checks_only_the_root_merge(checked):
    # the inner merges are composed into the root's witness; each part's
    # poly or DP solver still checks its own
    rng = random.Random(67)
    h = families.windowed_family(3)
    splits = 0
    for _ in range(10):
        inst = families.random_instance(rng, h, rng.randint(4, 9))
        checked.clear()
        sol = dpsolve.solve_ed_auto(h, inst)
        if "parts" in sol.stats:
            splits += 1
            assert checked.count("auto") == 1
            assert len(checked) > 1  # the parts were checked too
        assert sol.cost == dpsolve.solve_ed_dp(h, inst).cost
    assert splits


def test_split_matches_direct_dp():
    rng = random.Random(64)
    done = 0
    while done < 60:
        h = families.random_target(rng, rng.randint(2, 6))
        dec = analysis.find_decomposition(h)
        if dec is None:
            continue
        inst = families.random_instance(rng, h, rng.randint(1, 7))
        sp = dpsolve.split_by_decomposition(h, dec, inst)
        cost_a = dpsolve.solve_ed_dp(h.restricted(dec.a), sp.sub_a).cost
        cost_bc = dpsolve.solve_ed_dp(
            h.restricted(dec.b | dec.c), sp.sub_bc).cost
        total = cost_a + cost_bc + len(sp.forced)
        assert total == dpsolve.solve_ed_dp(h, inst).cost
        done += 1



def _reference_ed_auto(h, inst, td=None):
    """solve_ed_auto as a recursion, one call per part of H's split
    tree: each part classified over h.restricted(S), then solved by the
    poly solver, a DP, or a split whose two sides' solutions are merged,
    each side given a `td` restricted to its vertices; only the root's
    merge is checked."""
    full = (1 << h.n) - 1

    def solve(S, inst, td):
        part = h if S == full else h.restricted(S)
        if analysis.classify_ed(part)[0] == "poly":
            if td is not None:
                validate_td(inst, td)
            return polysolve.solve_ed_poly(part, inst, classified=True)
        dec = analysis.find_decomposition(h, S)
        if dec is None:
            return dpsolve.solve_ed_dp(part, inst, td)
        if td is not None:
            validate_td(inst, td)
        if any(not lst for lst in inst.lists):
            raise Infeasible("vertex with an empty list")
        sp = dpsolve.split_by_decomposition(part, dec, inst)
        sol_a = solve(dec.a, sp.sub_a, td and restrict_td(td, sp.verts_a))
        sol_bc = solve(dec.b | dec.c, sp.sub_bc,
                       td and restrict_td(td, sp.verts_bc))
        hom = {v: sol_a.hom[i] for i, v in enumerate(sp.verts_a)}
        hom.update((v, sol_bc.hom[i]) for i, v in enumerate(sp.verts_bc))
        deleted = sorted(tuple(sorted((u, v))) for u, v in inst.edges
                         if not h.has_edge(hom[u], hom[v]))
        sol = Solution("ed", sol_a.cost + sol_bc.cost + len(sp.forced),
                       deleted, hom, "auto",
                       {"parts": 2, "forced": len(sp.forced)})
        if S == full:
            sol.check(h, inst)
        return sol

    sol = solve(full, inst, td)
    sol.algorithm = "auto"
    return sol


def _two_hard_leaves():
    """A = {0, 1, 2} an irreflexive triangle, B = {3, 4, 5} a reflexive
    triangle joined to it, C = {6, 7, 8} three irreflexive pendants of B:
    both sides of its split are hard leaves."""
    return TargetGraph.from_edges(9, [
        (0, 1), (0, 2), (1, 2), (3, 6), (4, 7), (5, 8)]
        + [(u, v) for u in range(3, 6) for v in range(6) if v < 3 or v >= u])


def _ed_auto_outcome(solve, h, inst, td):
    """(cost, hom items sorted, deleted, stats, algorithm), or the
    exception's type and message.  The CLI prints hom by sorted key, so
    no output reads the order in which the walk fills it."""
    try:
        sol = solve(h, inst, td)
    except Exception as e:
        return type(e), str(e)
    return (sol.cost, sorted(sol.hom.items()), sol.deleted, sol.stats,
            sol.algorithm)


def test_ed_auto_walk_matches_the_recursion(monkeypatch):
    # random targets of 1-9 vertices, then the named split families and
    # H_k, whose split tree peels one universal vertex per level; some
    # instances get an empty list or a `td`, valid or not, so the error
    # paths are compared too
    rng = random.Random(68)
    cases = []
    for _ in range(3000):
        h = families.random_target(rng, rng.randint(1, 9),
                                   loop_p=rng.random(), edge_p=rng.random())
        cases.append((h, families.random_instance(rng, h, rng.randint(0, 6))))
    peeled = [families.peeled_family(k) for k in range(1, 9)]
    for h in peeled:  # the size rung's instance: opt 1, every part empty
        cases.append((h, Instance(2, [(0, 1)], [frozenset({3, 4, 5})] * 2)))
    named = [families.windowed_family(k) for k in (1, 2, 3)]
    named += [families.crossing_family(k) for k in (1, 2, 3)]
    named.append(_two_hard_leaves())
    for h in named + peeled:
        for _ in range(15):
            cases.append((h, families.random_instance(rng, h,
                                                      rng.randint(1, 7))))
    splits = errors = 0
    for h, inst in cases:
        r = rng.random()
        if inst.n and r < 0.05:
            inst.lists[rng.randrange(inst.n)] = frozenset()
        td = (build_td(inst) if 0.05 <= r < 0.15 else
              TreeDecomposition((frozenset(),), ()) if r >= 0.95 else None)
        want = _ed_auto_outcome(_reference_ed_auto, h, inst, td)
        assert _ed_auto_outcome(dpsolve.solve_ed_auto, h, inst, td) == want, \
            (h, inst, td)
        splits += len(want) == 5 and "parts" in want[3]
        errors += len(want) == 2
    assert splits > 500 and errors > 100, (splits, errors)
    # with every DP leaf that has an instance vertex raising an error that
    # names its part, the first one raised is the same: A's subtree is
    # solved before B∪C's
    dp = dpsolve.solve_ed_dp

    def refuse(h, inst, td=None):
        if inst.n:
            raise dpsolve.TableTooLarge(str(h.nbhd))
        return dp(h, inst, td)

    monkeypatch.setattr(dpsolve, "solve_ed_dp", refuse)
    raised = set()
    for h, inst in cases:
        want = _ed_auto_outcome(_reference_ed_auto, h, inst, None)
        assert _ed_auto_outcome(dpsolve.solve_ed_auto, h, inst, None) == \
            want, (h, inst)
        raised.add(want[1] if len(want) == 2 else None)
    assert len(raised) > 10, raised


def test_ed_auto_restricts_a_given_td_to_each_part(monkeypatch):
    # a given min-fill or hub-core decomposition reaches both hard leaves
    # of the split, restricted to their vertices: no leaf is wider than
    # it, and the optimum is the oracle's
    h = _two_hard_leaves()
    dp = dpsolve.solve_ed_dp
    leaves = []

    def spy(h, inst, td=None):
        sol = dp(h, inst, td)
        leaves.append((td, sol.stats["width"]))
        return sol

    monkeypatch.setattr(dpsolve, "solve_ed_dp", spy)
    rng = random.Random(70)
    both = 0
    for trial in range(40):
        inst = families.random_instance(rng, h, rng.randint(2, 7))
        for v in range(inst.n):  # each list inside A, B or C
            a = 3 * rng.randrange(3)
            inst.lists[v] = frozenset(rng.sample(range(a, a + 3),
                                                 rng.randint(1, 3)))
        q = frozenset(rng.sample(range(inst.n), rng.randint(0, inst.n)))
        td = (build_td(inst) if trial % 2 else
              core_to_td(inst, HubCore(q, inst.n, inst.n)))
        width = validate_td(inst, td)
        leaves.clear()
        sol = dpsolve.solve_ed_auto(h, inst, td)
        assert sol.cost == oracle.oracle_ed(h, inst).cost
        assert sol.stats["parts"] == 2
        assert leaves and all(t is not None and w <= width
                              for t, w in leaves), (leaves, width)
        both += len(leaves) == 2
    assert both > 20, both


def test_ed_auto_matches_the_oracle_on_split_composed_targets(monkeypatch):
    # 500 targets of 9-16 vertices whose split tree has two or more hard
    # leaves, each instance list inside A or one wrap's B∪C, half of them
    # with a min-fill decomposition: the optimum is the oracle's, a given
    # decomposition reaches every DP leaf no wider, and most solves reach
    # two or more DP leaves, each with its own decomposition
    dp = dpsolve.solve_ed_dp
    leaves = []

    def spy(h, inst, td=None):
        sol = dp(h, inst, td)
        if inst.n:
            leaves.append((td, sol.stats["width"]))
        return sol

    monkeypatch.setattr(dpsolve, "solve_ed_dp", spy)
    rng = random.Random(72)
    multi = 0
    for trial in range(500):
        h = None
        while h is None or not 9 <= h.n <= 16:
            h, sides = families.split_composed_target(rng,
                                                      rng.choice((1, 1, 2)))
        n = rng.randint(2, 6)
        edges = [(u, v) for u, v in combinations(range(n), 2)
                 if rng.random() < 0.4]
        lists = []
        for _ in range(n):
            side = rng.choice(sides)
            lists.append(frozenset(rng.sample(
                side, rng.randint(1, min(3, len(side))))))
        inst = Instance(n, edges, lists)
        td = build_td(inst) if trial % 2 else None
        leaves.clear()
        sol = dpsolve.solve_ed_auto(h, inst, td)
        assert sol.cost == oracle.oracle_ed(h, inst).cost, (h, inst)
        if td is not None:
            width = validate_td(inst, td)
            assert all(t is not None and w <= width for t, w in leaves)
        multi += len(leaves) >= 2
    assert multi > 300, multi


def _largest_table(h, inst, mode):
    """The largest product of reduced-list sizes (plus deletion in VD)
    over the bags of the decomposition the default path runs on, with
    each fixed vertex in every bag, where it counts 1."""
    red = reduce_lists(h, inst)
    return max([math.prod([len(red.lists[v]) + (mode == "vd") for v in bag])
                for bag in _kept_td(h, inst, mode)[1].bags], default=1)


def test_state_bounds_in_stats():
    # max_bag_states is the largest dense table, within the paper's bound
    rng = random.Random(65)
    for _ in range(60):
        h = families.random_target(rng, rng.randint(1, 5))
        inst = families.random_instance(rng, h, rng.randint(1, 8))
        i = max_incomparable(h)[0]
        sol = dpsolve.solve_vd_dp(h, inst)
        assert sol.stats["max_bag_states"] == _largest_table(h, inst, "vd")
        assert sol.stats["max_bag_states"] <= (i + 1) ** (sol.stats["width"] + 1)
        sol = dpsolve.solve_ed_dp(h, inst)
        assert sol.stats["max_bag_states"] == _largest_table(h, inst, "ed")
        assert sol.stats["max_bag_states"] <= i ** (sol.stats["width"] + 1)
    # ed instances with singleton lists, whose width is that of the
    # decomposition of the other vertices
    for _ in range(60):
        h = families.random_target(rng, rng.randint(2, 5))
        inst = families.random_instance(rng, h, rng.randint(1, 12), 0.6)
        for v in rng.sample(range(inst.n), rng.randint(1, inst.n)):
            inst.lists[v] = frozenset([min(inst.lists[v])])
        i = max_incomparable(h)[0]
        sol = dpsolve.solve_ed_dp(h, inst)
        assert sol.stats["max_bag_states"] == _largest_table(h, inst, "ed")
        assert sol.stats["max_bag_states"] <= i ** (sol.stats["width"] + 1)


def test_dp_does_not_compute_i_of_h(monkeypatch):
    # the state bound follows from each reduced list being pairwise
    # incomparable, so the DP never runs the branch and bound for i(H),
    # which took 2 s on this 56-vertex target: 22 vertices, each joined
    # to an interval of a 34-vertex edgeless pool
    def no_i_of_h(nb, S):
        raise AssertionError("i(H) computed")

    monkeypatch.setattr(_kernels, "max_incomparable_mask", no_i_of_h)
    rng = random.Random(120)
    edges = []
    for v in range(22):
        a, b = sorted((rng.randrange(34), rng.randrange(34)))
        edges += [(v, 22 + p) for p in range(a, b + 1)]
    h = TargetGraph.from_edges(56, edges)
    inst = Instance(2, [(0, 1)], [frozenset({0}), frozenset({22})])
    for solve in (dpsolve.solve_vd_dp, dpsolve.solve_ed_dp):
        assert solve(h, inst).cost == 1


# ---------------------------------------------------------------------------
# reference: the sparse DP, one {state: cost} dict per nice node


def _later_end(edge, payload):
    """The end of an introduced edge that comes later in the payload."""
    return max((v for v in edge if v in payload), key=payload.index)


def _first_holders(nodes, edges):
    """node index -> the sorted edges first held by its bag: each edge
    placed at the first node in post-order whose bag holds both ends, an
    introduce node with one end in its payload.  The references charge
    each edge there, not where _run_dp does, at the forget node of its
    first-forgotten end."""
    at = {}
    for u, w in sorted((u, w) if u < w else (w, u) for u, w in edges):
        i = next(i for i, nd in enumerate(nodes) if u in nd.bag
                 and w in nd.bag)
        at.setdefault(i, []).append((u, w))
    return at


def _dict_dp(h, inst, td, mode):
    """The cost of the dict-of-tuples DP: states are tuples of images
    aligned with sorted(bag), VD adds the DELETED symbol; every state
    present has finite cost.  Unlike _run_dp, an edge is charged at the
    introduce node that completes it, and a deletion where its vertex is
    introduced and subtracted again at each join."""
    nodes = make_nice(td)
    placed = _first_holders(nodes, inst.edges)
    tables = []
    for i, nd in enumerate(nodes):
        if nd.kind == "leaf":
            table = {(): 0}
        elif nd.kind == "introduce":
            # one vertex at a time, in payload order; each applies the
            # edges whose later end in the payload it is
            table = tables[nd.children[0]]
            cur = set(nodes[nd.children[0]].bag)
            for x in nd.payload:
                cur.add(x)
                bag = sorted(cur)
                at = bag.index(x)
                choices = sorted(inst.lists[x])
                if mode == "vd":
                    choices = choices + [dpsolve.DELETED]
                elif not choices:
                    raise Infeasible(f"vertex {x} has an empty list")
                grown = {}
                for cstate, ccost in table.items():
                    for img in choices:
                        st = cstate[:at] + (img,) + cstate[at:]
                        cost = ccost + (1 if img == dpsolve.DELETED else 0)
                        grown[st] = min(cost, grown.get(st, dpsolve.INF))
                table = grown
                for edge in placed.get(i, ()):
                    if _later_end(edge, nd.payload) != x:
                        continue
                    iu, iv = (bag.index(y) for y in edge)
                    kept = {}
                    for st, cost in table.items():
                        a, b = st[iu], st[iv]
                        if dpsolve.DELETED in (a, b) or h.has_edge(a, b):
                            kept[st] = cost
                        elif mode == "ed":
                            kept[st] = cost + 1
                    table = kept
        elif nd.kind == "forget":
            at = sorted(nodes[nd.children[0]].bag).index(nd.payload)
            table = {}
            for cstate, ccost in tables[nd.children[0]].items():
                st = cstate[:at] + cstate[at + 1:]
                table[st] = min(ccost, table.get(st, dpsolve.INF))
        else:  # join
            c1, c2 = (tables[c] for c in nd.children)
            table = {st: cost1 + c2[st] - st.count(dpsolve.DELETED)
                     for st, cost1 in c1.items() if st in c2}
        tables.append(table)
    if () not in tables[-1]:
        raise Infeasible("no feasible assignment")
    return tables[-1][()]


# ---------------------------------------------------------------------------
# reference: the dense DP with one broadcast, add and clamp per edge


def _per_edge_dp(h, inst, td, mode):
    """(cost, hom) of a dense DP over every vertex of inst, done one
    vertex and one edge at a time: an introduce node adds its payload
    vertex by vertex, in payload order, each time repeating the table
    along the new axis, then adding the penalty of each edge it completes
    whose later end the vertex is to the whole table and clamping it at
    INF, a VD violation's penalty; joins clamp too.  Every node sorts its
    bag again, and no table is freed."""
    import numpy as np

    INF, DELETED = dpsolve.INF, dpsolve.DELETED
    choices = []
    for v in range(inst.n):
        lst = sorted(inst.lists[v])
        if mode == "vd":
            lst.append(DELETED)
        choices.append(lst)

    def penalty(lu, lv):
        if mode == "vd":
            bad = [[0 if a == DELETED or b == DELETED or h.has_edge(a, b)
                    else INF for b in lv] for a in lu]
        else:
            bad = [[0 if h.has_edge(a, b) else 1 for b in lv] for a in lu]
        return np.array(bad, dtype=np.int64)

    nodes = make_nice(td)
    placed = _first_holders(nodes, inst.edges)
    tables = []
    argmins = {}
    for idx, nd in enumerate(nodes):
        if nd.kind == "leaf":
            table = np.zeros((), dtype=np.int64)
        elif nd.kind == "introduce":
            # one vertex at a time, in payload order; each applies the
            # edges whose later end in the payload it is
            table = tables[nd.children[0]]
            cur = set(nodes[nd.children[0]].bag)
            for x in nd.payload:
                cur.add(x)
                bag = sorted(cur)
                at = bag.index(x)
                table = np.repeat(np.expand_dims(table, at), len(choices[x]),
                                  axis=at)
                for u, w in placed.get(idx, ()):
                    if _later_end((u, w), nd.payload) != x:
                        continue
                    pen = penalty(choices[u], choices[w])
                    shape = [1] * len(bag)
                    shape[bag.index(u)], shape[bag.index(w)] = pen.shape
                    table += pen.reshape(shape)
                    np.minimum(table, INF, out=table)
        elif nd.kind == "forget":
            v = nd.payload
            child = tables[nd.children[0]].copy()
            at = sorted(nodes[nd.children[0]].bag).index(v)
            if mode == "vd":
                child[(slice(None),) * at + (-1,)] += 1
            argmins[idx] = child.argmin(axis=at)
            table = child.min(axis=at)
        else:
            c1, c2 = nd.children
            table = np.minimum(tables[c1] + tables[c2], INF)
        tables.append(table)
    root = len(nodes) - 1
    cost = int(tables[root][()])
    if cost >= INF:
        raise Infeasible("no feasible assignment")
    hom = {}
    chosen = {root: ()}
    for idx in range(root, -1, -1):
        nd = nodes[idx]
        st = chosen.pop(idx)
        if nd.kind == "forget":
            v = nd.payload
            at = sorted(nodes[nd.children[0]].bag).index(v)
            pick = int(argmins[idx][st])
            if choices[v][pick] != DELETED:
                hom[v] = choices[v][pick]
            chosen[nd.children[0]] = st[:at] + (pick,) + st[at:]
        elif nd.kind == "introduce":
            chosen[nd.children[0]] = tuple(
                x for v, x in zip(sorted(nd.bag), st) if v not in nd.payload)
        else:
            for c in nd.children:
                chosen[c] = st
    return cost, hom


def test_dense_dp_matches_dict_reference():
    rng = random.Random(66)
    targets = (families.irreflexive_kq(3), families.independent_reflexive(3),
               families.reflexive_cycle(5))
    graphs = [families.grid(3, 7), families.grid(4, 5),
              families.grid(3, 6, True), families.grid(4, 5, True),
              families.partial_ktree(rng, 14, 5, 0.7),
              families.partial_ktree(rng, 13, 6, 0.7)]
    widths = set()
    for n, edges in graphs:
        for h in targets:
            inst = Instance(n, edges, [
                frozenset(rng.sample(range(h.n), rng.choice((1, 2, 3, 3))))
                for _ in range(n)])
            red = reduce_lists(h, inst)
            td = build_td(red)
            widths.add(td.width)
            for mode in ("vd", "ed"):
                cost, hom = dpsolve._run_dp(h, red.lists, red.edges, td,
                                            mode)
                assert cost == _dict_dp(h, red, td, mode)
                assert (cost, hom) == \
                    _per_edge_dp(h, red, td, mode)  # witness ties too
                if mode == "vd":
                    deleted = [v for v in range(n) if v not in hom]
                else:
                    deleted = [(u, v) for u, v in edges
                               if not h.has_edge(hom[u], hom[v])]
                Solution(mode, cost, deleted, hom, "dp").check(h, red)
    assert widths == {3, 4, 5, 6}


def test_vd_clique_clips_each_edge_penalty():
    # K12 over three independent reflexive vertices, vertex v listed at
    # v mod 3: the first vertex forgotten from the one 12-vertex bag pays
    # 11 edges, up to 8 of them violated: one entry sums 8 infeasible
    # penalties, which must stay infeasible and in range (8 INF would
    # overflow int64)
    h = families.independent_reflexive(3)
    n = 12
    inst = Instance(n, list(combinations(range(n), 2)),
                    [frozenset({v % 3}) for v in range(n)])
    sol = dpsolve.solve_vd_dp(h, inst)
    assert sol.cost == oracle.oracle_vd(h, inst).cost == 8
    td = build_td(inst)
    for mode in ("vd", "ed"):
        assert dpsolve._run_dp(h, inst.lists, inst.edges, td, mode) == \
            _per_edge_dp(h, inst, td, mode)


def test_run_dp_names_the_least_edge_in_no_bag():
    # validate_td reports a missing edge first on every solve path, so
    # _run_dp's own check is reached only by a direct call; the bags
    # {0,1}-{1,2}-{2,3} miss (0, 2) and (1, 3), given in either order
    h = families.irreflexive_kq(3)
    td = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})),
        ((0, 1), (1, 2)))
    lists = [frozenset(range(3))] * 4
    edges = [(0, 1), (3, 1), (1, 2), (2, 0), (2, 3)]
    for mode in ("vd", "ed"):
        for given in (edges, edges[::-1]):
            with pytest.raises(ValueError,
                               match=r"^edge \(0, 2\) is in no bag$"):
                dpsolve._run_dp(h, lists, given, td, mode)
        # the held edges alone pass; an edge to a vertex in no bag fails
        assert dpsolve._run_dp(h, lists, [(0, 1), (2, 1), (3, 2)], td,
                               mode)[0] == 0
        with pytest.raises(ValueError, match=r"^edge \(3, 4\) is in no bag$"):
            dpsolve._run_dp(h, lists + lists[:1], [(4, 3)], td, mode)


def test_vd_penalties_cannot_overflow_int64():
    # the engine charges a violated VD edge big = n + 1, so no entry exceeds
    # big * |E| + n; at the instance cap that must still fit in an int64
    n = MAX_INSTANCE_VERTICES
    assert (n + 1) * (n * (n - 1) // 2) + n < 2 ** 63


def test_dense_dp_matches_per_edge_reference():
    # seeded random instances with lists of 1-3 vertices, on random,
    # grid and partial k-tree graphs, over random and named targets; each
    # runs over min-fill's tree as built and with its bag list reversed,
    # which roots make_nice at the other end, so that each edge's smaller
    # end is forgotten first on some and last on others (_run_dp charges
    # an edge where its first-forgotten end is, that end's axis last;
    # _per_edge_dp charges it where it is completed, and sorts every bag)
    rng = random.Random(68)
    orders = [0, 0]  # edges (u, w), u < w, with w forgotten first, u first
    named = (families.irreflexive_kq(3), families.independent_reflexive(3),
             families.reflexive_cycle(5), families.windowed_family(2))
    widths = set()
    for trial in range(80):
        h = (rng.choice(named) if trial % 2
             else families.random_target(rng, rng.randint(2, 6)))
        if trial % 3 == 0:
            g = families.random_instance(rng, h, rng.randint(1, 12),
                                         rng.choice((0.2, 0.5, 0.8)))
            n, edges = g.n, g.edges
        elif trial % 3 == 1:
            n, edges = families.grid(rng.randint(1, 4), rng.randint(1, 6),
                                     rng.random() < 0.5)
        else:
            n, edges = families.partial_ktree(rng, rng.randint(6, 14),
                                              rng.randint(2, 5))
        inst = Instance(n, edges, [
            frozenset(rng.sample(range(h.n), rng.randint(1, min(3, h.n))))
            for _ in range(n)])
        red = reduce_lists(h, inst)
        td = build_td(red)
        widths.add(td.width)
        nb = len(td.bags)
        flipped = TreeDecomposition(
            td.bags[::-1], tuple((nb - 1 - a, nb - 1 - b) for a, b in td.edges))
        for tree in (td, flipped):
            forgot = {nd.payload: i for i, nd in enumerate(make_nice(tree))
                      if nd.kind == "forget"}
            for u, w in red.edges:
                orders[forgot[u] < forgot[w]] += 1
            for mode in ("vd", "ed"):
                assert dpsolve._run_dp(h, red.lists, red.edges, tree,
                                       mode) == \
                    _per_edge_dp(h, red, tree, mode), (trial, mode)
    assert max(widths) >= 5
    assert min(orders) > 300, orders


def test_no_bucket_exceeds_the_largest_bag_table(monkeypatch):
    # each bucket the engine fills for _run_dp holds len(states[x]) entries
    # per entry of the argmin it records for x; none may hold more than
    # _check_table_sizes allows over the same bags, on seeded instances
    # over min-fill's decomposition, the same with its bag list reversed
    # (make_nice roots it at the other end) and a hub-core one
    eliminate = _kernels.eliminate
    sizes = []

    def spy(nb, states, edges, order, nportal, vd, charge=None):
        out, records = eliminate(nb, states, edges, order, nportal, vd,
                                 charge)
        sizes.extend(best.size * len(states[x])
                     for x, (_, best) in zip(order, records))
        return out, records

    monkeypatch.setattr(_kernels, "eliminate", spy)
    rng = random.Random(72)
    named = (families.irreflexive_kq(3), families.independent_reflexive(3),
             families.reflexive_cycle(5), families.windowed_family(2))
    tight = dict.fromkeys(("min-fill", "reversed", "hub-core"), 0)
    for trial in range(90):
        h = (rng.choice(named) if trial % 2
             else families.random_target(rng, rng.randint(2, 6)))
        if trial % 3 == 0:
            g = families.random_instance(rng, h, rng.randint(1, 9),
                                         rng.choice((0.2, 0.5, 0.8)))
            n, edges = g.n, g.edges
        elif trial % 3 == 1:
            n, edges = families.grid(rng.randint(1, 3), rng.randint(1, 3),
                                     rng.random() < 0.5)
        else:
            n, edges = families.partial_ktree(rng, rng.randint(6, 9),
                                              rng.randint(2, 5))
        red = reduce_lists(h, Instance(n, edges, [
            frozenset(rng.sample(range(h.n), rng.randint(1, min(3, h.n))))
            for _ in range(n)]))
        td = build_td(red)
        nb = len(td.bags)
        q = frozenset(rng.sample(range(n), rng.randint(0, n)))
        trees = {"min-fill": td,
                 "reversed": TreeDecomposition(
                     td.bags[::-1],
                     tuple((nb - 1 - a, nb - 1 - b) for a, b in td.edges)),
                 "hub-core": core_to_td(red, HubCore(q, n, n))}
        for kind, tree in trees.items():
            for mode in ("vd", "ed"):
                if mode == "ed" and not all(red.lists):
                    continue  # the ed DP needs a state per vertex
                sizes.clear()
                dpsolve._run_dp(h, red.lists, red.edges, tree, mode)
                cap = dpsolve._check_table_sizes(red, tree.bags,
                                                 mode == "vd")
                assert len(sizes) == n and max(sizes) <= cap, (trial, kind)
                tight[kind] += max(sizes) == cap
    assert min(tight.values()) > 20, tight


def test_engine_frees_each_bucket_once_it_is_summed(monkeypatch):
    # ED over K3 with full lists on a 9 x 40 grid: width 13, and the
    # largest bucket is a 3^14 int64 table (36.5 MiB).  Besides the uint8
    # records, the engine holds at its peak that bucket, its argmin, row
    # starts and minima (a third of it each), and the messages still
    # waiting for their bucket: within three largest buckets.  Keeping
    # every consumed bucket's messages until the engine returns held
    # about five.
    import tracemalloc

    eliminate = _kernels.eliminate
    seen = {}

    def spy(nb, states, edges, order, nportal, vd, charge=None):
        out, records = eliminate(nb, states, edges, order, nportal, vd,
                                 charge)
        seen["records"] = sum(best.nbytes for _, best in records)
        seen["bucket"] = 8 * max(best.size * len(states[x])
                                 for x, (_, best) in zip(order, records))
        return out, records

    monkeypatch.setattr(_kernels, "eliminate", spy)
    n, edges = families.grid(9, 40)
    inst = Instance(n, edges, [frozenset(range(3))] * n)
    tracemalloc.start()
    try:
        sol = dpsolve.solve_ed_dp(families.irreflexive_kq(3), inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.cost == 0 and sol.stats["width"] == 13
    assert seen["bucket"] == 8 * 3 ** 14
    assert peak <= seen["records"] + 3 * seen["bucket"], (peak, seen)


def test_dp_refuses_argmin_records_above_the_cap(monkeypatch):
    # ED over K3 with full lists on an 800-vertex 13-tree: each bag's
    # table has at most 3^14 entries, under MAX_TABLE_ENTRIES, but all
    # but the last 14 vertices are forgotten beside 13 others, so the
    # uint8 argmin records would take about 800 * 3^13 bytes, above
    # MAX_RECORD_BYTES.  The solve is refused before the engine runs.
    def no_engine(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(_kernels, "eliminate", no_engine)
    n, edges = families.partial_ktree(random.Random(13), 800, 13, 1.0)
    inst = Instance(n, edges, [frozenset(range(3))] * n)
    td = build_td(inst)
    size = sum(3 ** len(nd.bag) for nd in make_nice(td)
               if nd.kind == "forget")
    assert dpsolve._check_table_sizes(inst, td.bags, False) == 3 ** 14
    assert size > dpsolve.MAX_RECORD_BYTES
    with pytest.raises(dpsolve.TableTooLarge) as exc:
        dpsolve.solve_ed_dp(families.irreflexive_kq(3), inst, td)
    assert str(exc.value) == (
        f"the DP would keep {size} bytes of argmin records, above the cap "
        f"of {dpsolve.MAX_RECORD_BYTES}")


def test_long_grid_solves_without_recursion_error():
    # 3 x 400 grid (1200 vertices): the nice form is far deeper than the
    # interpreter's recursion limit
    n, edges = families.grid(3, 400)
    h = families.irreflexive_kq(3)
    sol = dpsolve.solve_vd_dp(h, Instance(n, edges, [frozenset(range(3))] * n))
    assert sol.cost == 0 and sol.stats["width"] == 3


# ---------------------------------------------------------------------------
# reference: _solve_dp with every vertex in the DP


def _reference_solve_dp(h, inst, td, mode):
    """_solve_dp as it was before one-state vertices were fixed: the DP
    runs on the whole reduced instance over td, after the table-size cap
    that _run_dp checked then.  The DP is _per_edge_dp, which keeps every
    vertex and clamps VD costs at INF; max_bag_states is the largest
    product of state counts over td's bags, 1 with none."""
    if mode == "ed" and any(not lst for lst in inst.lists):
        raise Infeasible("vertex with an empty list")
    red = reduce_lists(h, inst)
    if td is None:
        td = build_td(red)
    width = validate_td(red, td)
    max_states = 1
    for bag in td.bags:
        size = math.prod(len(red.lists[v]) + (mode == "vd") for v in bag)
        if size > dpsolve.MAX_TABLE_ENTRIES:
            raise dpsolve.TableTooLarge(
                f"a bag of {len(bag)} vertices needs a table of {size} "
                f"entries, above the cap of {dpsolve.MAX_TABLE_ENTRIES}")
        max_states = max(max_states, size)
    cost, hom = _per_edge_dp(h, red, td, mode)
    if mode == "vd":
        deleted = sorted(v for v in range(inst.n) if v not in hom)
    else:
        deleted = sorted((u, v) for u, v in inst.edges
                         if not h.has_edge(hom[u], hom[v]))
    sol = Solution(mode, cost, deleted, hom, "dp",
                   {"width": width, "max_bag_states": max_states})
    sol.check(h, inst)
    return sol


def _dp_outcome(solve, h, inst, td, mode):
    """(cost, hom, deleted, stats), or the exception's type and message."""
    try:
        sol = solve(h, inst, td, mode)
    except Exception as e:
        return type(e), str(e)
    return sol.cost, sol.hom, sol.deleted, sol.stats


def _kept_td(h, inst, mode):
    """(width, T+) of the decomposition the default path runs over,
    min-fill's on the instance induced by the vertices with more than one
    DP state, renumbered in ascending order: T+ is its tree, with its bags
    in the reduced instance's ids and every fixed vertex added to every
    bag, a decomposition of the whole reduced instance."""
    red = reduce_lists(h, inst)
    fixed = frozenset(v for v, lst in enumerate(red.lists)
                      if len(lst) + (mode == "vd") == 1)
    keep = [v for v in range(red.n) if v not in fixed]
    pos = {v: i for i, v in enumerate(keep)}
    sub = Instance(len(keep), [(pos[u], pos[v]) for u, v in red.edges
                               if u in pos and v in pos],
                   [red.lists[v] for v in keep])
    td = build_td(sub)
    return td.width, TreeDecomposition(
        tuple(frozenset(keep[i] for i in bag) | fixed for bag in td.bags),
        td.edges)


def test_fixing_one_state_vertices_matches_the_dp_over_every_vertex(
        monkeypatch):
    # seeded instances in both modes, many of whose vertices have one DP
    # state (ed lists that are or reduce to singletons, vd empty lists),
    # sometimes all of them; some come with a min-fill or hub-core
    # decomposition or an invalid one, some ed ones with an empty list.
    # A given decomposition gives exactly the reference's output over it.
    # Without one, the DP runs over min-fill's decomposition of the kept
    # vertices: cost, witness (ties too), deletions and max_bag_states
    # are the reference's over T+, and stats.width is the kept width
    rng = random.Random(71)
    named = (families.irreflexive_kq(3), families.independent_reflexive(3),
             families.reflexive_cycle(5), families.windowed_family(2))
    seen = dict.fromkeys(("singleton", "reduced", "empty", "all", "pair",
                          "td", "core", "error", "narrower"), 0)
    for trial in range(1100):
        h = (rng.choice(named) if trial % 3 == 0
             else families.random_target(rng, rng.randint(1, 6)))
        g = families.random_instance(rng, h, rng.randint(0, 10),
                                     rng.choice((0.2, 0.4, 0.7)))
        fix = rng.choice((0.0, 0.3, 0.6, 1.0))
        r = rng.random()
        q = frozenset(rng.sample(range(g.n), rng.randint(0, g.n)))
        td = (build_td(g) if r < 0.2 else
              core_to_td(g, HubCore(q, g.n, g.n)) if r < 0.35 else
              TreeDecomposition((frozenset(),), ()) if r < 0.4 else None)
        seen["td"] += r < 0.2
        seen["core"] += 0.2 <= r < 0.35
        for mode in ("vd", "ed"):
            lists = [(frozenset() if mode == "vd" else
                      frozenset(rng.sample(sorted(lst), 1)))
                     if rng.random() < fix else lst for lst in g.lists]
            if mode == "ed" and g.n and rng.random() < 0.03:
                lists[rng.randrange(g.n)] = frozenset()
            inst = Instance(g.n, g.edges, lists)
            red = reduce_lists(h, inst).lists
            one = [len(lst) == (mode == "ed") for lst in red]
            seen["singleton"] += mode == "ed" and any(
                len(lst) == 1 for lst in lists)
            seen["reduced"] += mode == "ed" and any(
                len(a) > 1 and len(b) == 1 for a, b in zip(lists, red))
            seen["empty"] += mode == "vd" and not all(lists)
            seen["all"] += g.n > 0 and all(one)
            seen["pair"] += any(one[u] and one[v] for u, v in g.edges)
            got = _dp_outcome(dpsolve._solve_dp, h, inst, td, mode)
            if td is not None:
                want = _dp_outcome(_reference_solve_dp, h, inst, td, mode)
                assert got == want, (trial, mode, h, inst, td)
            else:
                width, plus = _kept_td(h, inst, mode)
                want = _dp_outcome(_reference_solve_dp, h, inst, plus, mode)
                if len(want) == 4:
                    want = want[:3] + ({"width": width, "max_bag_states":
                                        want[3]["max_bag_states"]},)
                    seen["narrower"] += width < build_td(
                        reduce_lists(h, inst)).width
                assert got == want, (trial, mode, h, inst)
            seen["error"] += len(want) == 2
    assert min(seen.values()) > 50, seen
    # a clique whose one bag needs more entries than the cap, three of its
    # vertices fixed: refused naming the kept bag, before the DP starts,
    # whether min-fill builds the bag or it is given
    h = families.irreflexive_kq(3)

    def no_dp(*args):
        raise AssertionError("the DP ran")

    for mode, free in (("ed", 16), ("vd", 13)):
        n = free + 3
        inst = Instance(n, list(combinations(range(n), 2)),
                        [frozenset(range(3))] * free
                        + [frozenset({0} if mode == "ed" else ())] * 3)
        size = (3 + (mode == "vd")) ** free
        one_bag = TreeDecomposition((frozenset(range(n)),), ())
        for td in (None, one_bag):
            with monkeypatch.context() as m:
                m.setattr(dpsolve, "_run_dp", no_dp)
                assert _dp_outcome(dpsolve._solve_dp, h, inst, td,
                                   mode) == (
                    dpsolve.TableTooLarge,
                    f"a bag of {free} vertices needs a table of {size} "
                    f"entries, above the cap of {dpsolve.MAX_TABLE_ENTRIES}")


def test_default_decomposition_sees_only_the_kept_vertices(monkeypatch,
                                                           tmp_path):
    # an ed solve of a 4 x 6 grid over K3 with k singleton lists, each a
    # colour of a proper colouring, builds min-fill on the n - k other
    # vertices, renumbered in ascending order, and the edges among them;
    # a given --td or --core builds none.  Either way the DP runs on the
    # kept vertices alone: their reduced lists in ascending vertex order,
    # the edges among them and bags in their ids
    h = families.irreflexive_kq(3)
    n, edges = families.grid(4, 6)
    seen, dps = [], []

    def spy(g):
        seen.append((g.n, sorted(g.edges)))
        return build_td(g)

    run_dp = dpsolve._run_dp

    def dp_spy(h, lists, edges, td, mode, charge=None):
        dps.append((list(lists), sorted(edges), td.bags))
        return run_dp(h, lists, edges, td, mode, charge)

    def kept_only(k, want):
        assert [d[:2] for d in dps] == [want]
        assert all(v in range(n - k) for bag in dps[0][2] for v in bag)

    monkeypatch.setattr(dpsolve, "build_td", spy)
    monkeypatch.setattr(dpsolve, "_run_dp", dp_spy)
    rng = random.Random(73)
    insts, kept = {}, {}
    for k in (0, 1, 5, 12, n):
        fixed = set(rng.sample(range(n), k))
        keep = [v for v in range(n) if v not in fixed]
        pos = {v: i for i, v in enumerate(keep)}
        inst = insts[k] = Instance(n, edges, [
            frozenset({sum(divmod(v, 6)) % 3}) if v in fixed
            else frozenset(range(3)) for v in range(n)])
        red = reduce_lists(h, inst)
        kept[k] = ([red.lists[v] for v in keep],
                   sorted((pos[u], pos[v]) for u, v in edges
                          if u in pos and v in pos))
        seen.clear()
        dps.clear()
        sol = dpsolve.solve_ed_dp(h, inst)
        assert sol.cost == 0
        assert seen == [(n - k, kept[k][1])]
        kept_only(k, kept[k])
    t = tmp_path / "k3.hg"
    t.write_text(format_target(h))
    i = tmp_path / "grid.lhi"
    i.write_text(format_instance(insts[5]))
    d = tmp_path / "grid.td"
    d.write_text(format_td(build_td(insts[5]), n))
    c = tmp_path / "grid.core"  # the black squares: G - Q has no edge
    c.write_text(format_core(HubCore(
        frozenset(v for v in range(n) if sum(divmod(v, 6)) % 2), 1, 4)))
    for given in (["--td", str(d)], ["--core", str(c)]):
        seen.clear()
        dps.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["solve", "ed", str(t), str(i), "--algo", "dp",
                             *given])
        assert code == cli.EXIT_OK and seen == [], given
        kept_only(5, kept[5])

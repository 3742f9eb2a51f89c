import random
from itertools import product

import numpy as np

from lhomdel import _kernels, dpsolve, oracle
from lhomdel.graphs import Instance

import families

INF = _kernels.INF


def _cases(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        h = families.random_target(rng, rng.randint(1, 4))
        inst = families.random_instance(rng, h, rng.randint(1, 6))
        out.append((h, inst))
    return out


# Reference scans: one assignment at a time in odometer order (rightmost
# digit fastest), the lexicographic order in which scan_best's depth-first
# search meets assignments.


def _scan_best_loop(radix, val, base, eu, ev, adj, ed_mode):
    nv = radix.shape[0]
    m = eu.shape[0]
    digits = np.zeros(nv, dtype=np.int64)
    best = INF
    best_digits = np.zeros(nv, dtype=np.int64)
    total = np.int64(1)
    for j in range(nv):
        total *= radix[j]
    count = np.int64(0)
    while count < total:
        cost = np.int64(0)
        ok = True
        for j in range(nv):
            cost += base[j, digits[j]]
        for e in range(m):
            x = val[eu[e], digits[eu[e]]]
            y = val[ev[e], digits[ev[e]]]
            if not adj[x, y]:
                if ed_mode:
                    cost += 1
                else:
                    ok = False
                    break
        if ok and cost < best:
            best = cost
            for j in range(nv):
                best_digits[j] = digits[j]
        # odometer, rightmost digit fastest (leftmost most significant)
        count += 1
        for j in range(nv - 1, -1, -1):
            digits[j] += 1
            if digits[j] < radix[j]:
                break
            digits[j] = 0
    return best, best_digits


def _scan_table_loop(nb, states, edges, nportal, vd):
    """Min cost per portal state tuple by brute force over
    product(*states), the cells in product order of the portals."""
    D = _kernels.DELETED
    out = {}
    for assign in product(*states):
        cost = sum(x == D for x in assign[nportal:])
        for u, v in edges:
            a, b = assign[u], assign[v]
            if not (a == D or b == D or nb[a] >> b & 1):
                cost += INF if vd else 1
        key = assign[:nportal]
        out[key] = min(out.get(key, INF), cost, INF)
    return np.array([out[key] for key in product(*states[:nportal])],
                    dtype=np.int64)


def test_scan_best_paths_agree():
    # random loop, edge and instance densities, edges stored either way,
    # one list in eight empty (in ed a zero radix, no assignment), and a
    # path of 3000 one-state variables that the search walks to its end
    rng = random.Random(11)
    cases = []
    for _ in range(300):
        h = families.random_target(rng, rng.randint(1, 4), rng.random(),
                                   rng.random())
        inst = families.random_instance(rng, h, rng.randint(1, 7),
                                        rng.random())
        inst.lists = [frozenset() if rng.random() < 1 / 8 else lst
                      for lst in inst.lists]
        inst.edges = [(v, u) if rng.random() < 0.5 else (u, v)
                      for u, v in inst.edges]
        cases += [(h, inst, "vd"), (h, inst, "ed")]
    h = families.random_target(rng, 3)
    cases.append((h, Instance(3000, [(v, v + 1) for v in range(2999)], [
        frozenset({rng.randrange(3)}) for _ in range(3000)]), "ed"))
    empty = 0
    for h, inst, mode in cases:
        lists = oracle._scan_arrays(h, inst, mode)
        cost_a, dig_a = _scan_best_loop(*map(np.asarray, lists), mode == "ed")
        cost_b, dig_b = _kernels.scan_best(*lists, mode == "ed")
        assert int(cost_a) == cost_b
        if cost_b < INF:
            assert list(dig_a) == dig_b
        empty += mode == "vd" and not all(inst.lists)
    assert empty > 50


def _table_states(rng, nv, vd):
    """A random 3-vertex target's neighbourhood masks (loops allowed) and
    a state tuple per variable: a sorted list of 1-3 target vertices, and
    DELETED last in vd mode."""
    nb = [0] * 3
    for x in range(3):
        for y in range(x, 3):
            if rng.random() < 0.5:
                nb[x] |= 1 << y
                nb[y] |= 1 << x
    states = [tuple(sorted(rng.sample(range(3), rng.randint(1, 3))))
              + ((_kernels.DELETED,) if vd else ()) for _ in range(nv)]
    return nb, states


def _shapes():
    """(nv, edges): cycles, a 5-clique with an isolated sixth variable, a
    path, edgeless instances and reversed edge ends."""
    yield 0, []
    yield 1, []
    yield 3, []
    for n in (3, 4, 5, 6):
        yield n, [(v, (v + 1) % n) for v in range(n)]
    yield 6, [(u, v) for u in range(5) for v in range(u + 1, 5)]
    yield 5, [(v + 1, v) for v in range(4)]
    yield 5, [(0, 4), (4, 2), (2, 1), (1, 3), (3, 0), (2, 0)]


def _states(inst, vd):
    return [tuple(sorted(lst)) + ((_kernels.DELETED,) if vd else ())
            for lst in inst.lists]


def test_scan_table_paths_agree():
    """Bucket elimination matches the brute force in any order of the
    non-portals."""
    rng = random.Random(12)
    for h, inst in _cases(12, 20):
        npr = min(2, inst.n)
        order = list(range(npr, inst.n))
        rng.shuffle(order)
        for vd in (True, False):
            if not vd and not all(inst.lists):
                continue  # ed instances need nonempty lists
            states = _states(inst, vd)
            a = _scan_table_loop(h.nbhd, states, inst.edges, npr, vd)
            b = _kernels.scan_table(h.nbhd, states, inst.edges, npr, vd,
                                    order)
            assert np.array_equal(a, b)
    rng = random.Random(15)
    seen = set()
    for nv, edges in _shapes():
        for npr in range(min(3, nv) + 1):
            for vd in (True, False):
                for _ in range(3):
                    nb, states = _table_states(rng, nv, vd)
                    order = list(range(npr, nv))
                    rng.shuffle(order)
                    a = _scan_table_loop(nb, states, edges, npr, vd)
                    b = _kernels.scan_table(nb, states, edges, npr, vd,
                                            order)
                    assert b.dtype == np.int64
                    assert np.array_equal(a, b), (nv, edges, npr, vd)
                    inf = bool((b == INF).any())
                    assert not (inf and not vd)
                    seen.add((npr == nv, vd, inf))
    # every kind of case above really occurs: portals only, infeasible vd
    # entries (exactly INF) and all-feasible tables
    assert {(True, True, True), (False, True, True), (False, True, False),
            (False, False, False), (True, False, False)} <= seen


# ---------------------------------------------------------------------------
# reference: the engine that zero-filled each bucket, added every factor
# reshaped to the bucket's scope, then x's vd deletion and charge[x]


def _reference_edge_penalty(nb, lu, lv, bad):
    return np.array([0 if a == _kernels.DELETED or b == _kernels.DELETED
                     or nb[a] >> b & 1 else bad for a in lu for b in lv],
                    dtype=np.int64).reshape(len(lu), len(lv))


def _reference_eliminate(nb, states, edges, order, nportal, vd, charge=None):
    big = len(states) + 1
    size = [len(st) for st in states]
    rank = [-1] * len(states)
    for i, x in enumerate(order):
        rank[x] = i
    for p in range(nportal):
        rank[p] = len(order) + nportal - 1 - p
    buckets = [[] for _ in order]
    rest = []  # factors over portals only

    def place(scope, t):
        r = rank[scope[-1]] if scope else len(order)
        (buckets[r] if r < len(order) else rest).append((scope, t))

    penalties = {}
    for u, w in edges:
        if rank[u] < rank[w]:
            u, w = w, u
        key = states[u], states[w]
        if key not in penalties:
            penalties[key] = _reference_edge_penalty(nb, *key,
                                                     big if vd else 1)
        place((u, w), penalties[key])
    pick_type = np.min_scalar_type(max(size, default=1) - 1)
    records = []
    rows = {}
    charge = charge or {}
    for i, x in enumerate(order):
        hit, buckets[i] = buckets[i], None
        scope = sorted({v for s, _ in hit for v in s} | {x},
                       key=rank.__getitem__, reverse=True)
        acc = np.zeros([size[v] for v in scope], dtype=np.int64)
        for s, t in hit:
            acc += t.reshape([size[v] if v in s else 1 for v in scope])
        if vd:
            acc[..., -1] += 1
        if x in charge:
            acc += charge[x]
        best = acc.argmin(-1)
        starts = rows.get(acc.shape)
        if starts is None:
            starts = rows[acc.shape] = np.arange(
                0, acc.size, size[x]).reshape(acc.shape[:-1])
        scope = tuple(scope[:-1])
        records.append((scope, best.astype(pick_type)))
        place(scope, acc.take(starts + best))
    out = np.zeros(size[:nportal], dtype=np.int64)
    for s, t in rest:
        out += t.reshape([size[v] if v in s else 1 for v in range(nportal)])
    if vd:
        out[out >= big] = INF
    return out, records


def _bucket_kinds(edges, order, nportal, records):
    """{(edges in x's bucket, messages in it)} over the call's buckets,
    each count capped at 2."""
    rank = {x: i for i, x in enumerate(order)}
    rank.update((p, len(order) + nportal - 1 - p) for p in range(nportal))
    ends = [0] * len(order)
    for u, w in edges:
        if min(rank[u], rank[w]) < len(order):
            ends[min(rank[u], rank[w])] += 1
    msgs = [0] * len(order)
    for scope, _ in records:
        if scope and rank[scope[-1]] < len(order):
            msgs[rank[scope[-1]]] += 1
    return {(min(e, 2), min(m, 2)) for e, m in zip(ends, msgs)}


def _same_elimination(args, kinds):
    """The engine's (out, records) equal the reference's exactly, and the
    charge vectors it was given, which callers share, are unchanged."""
    nb, states, edges, order, nportal, vd, charge = args
    shared = {x: t.copy() for x, t in (charge or {}).items()}
    out, records = _kernels.eliminate(*args)
    for x, t in shared.items():
        assert np.array_equal(charge[x], t) and charge[x].dtype == t.dtype
    ref_out, ref_records = _reference_eliminate(*args)
    assert out.dtype == ref_out.dtype and out.shape == ref_out.shape
    assert np.array_equal(out, ref_out)
    assert len(records) == len(ref_records)
    for (scope, best), (ref_scope, ref_best) in zip(records, ref_records):
        assert scope == ref_scope
        assert best.dtype == ref_best.dtype and best.shape == ref_best.shape
        assert np.array_equal(best, ref_best)
    kinds |= _bucket_kinds(edges, order, nportal, records)
    return out, records


def _dp_cases(rng):
    """(target, instance, mode): the dp_wide pool's graph shapes over its
    three targets, 3 x n ladders over K3 with full lists, and partial
    3- and 4-trees over the windowed and crossing targets; lists of 1-3
    vertices, so that ED fixes singleton vertices and charges their
    neighbours."""
    named = {"k3": families.irreflexive_kq(3),
             "indep3": families.independent_reflexive(3),
             "refl-c5": families.reflexive_cycle(5)}
    shapes = (("vd", "grid", 5, 10), ("vd", "trigrid", 5, 9),
              ("vd", "ktree", 5, 50), ("vd", "grid", 6, 8),
              ("ed", "grid", 6, 18), ("ed", "trigrid", 5, 20),
              ("ed", "ktree", 6, 100), ("ed", "ktree", 7, 90))
    for mode, kind, a, b in shapes:
        for h in named.values():
            if kind == "ktree":
                n, edges = families.partial_ktree(rng, b, a, 0.7)
            else:
                n, edges = families.grid(a, b, kind == "trigrid")
            yield h, Instance(n, edges, [
                frozenset(rng.sample(range(h.n), rng.choice((1, 2, 2, 3))))
                for _ in range(n)]), mode
    k3 = named["k3"]
    for mode, cols in (("vd", 140), ("ed", 100), ("vd", 70)):
        n, edges = families.grid(3, cols)
        yield k3, Instance(n, edges, [frozenset(range(3))] * n), mode
    for h in (families.windowed_family(2), families.crossing_family(2)):
        for mode in ("vd", "ed"):
            for _ in range(3):
                n, edges = families.partial_ktree(
                    rng, rng.randint(20, 60), rng.choice((3, 4)), 0.6)
                yield h, Instance(n, edges, [
                    frozenset(rng.sample(range(h.n), rng.randint(1, 3)))
                    for _ in range(n)]), mode


def test_engine_matches_the_reference_on_dp_calls(monkeypatch):
    eliminate = _kernels.eliminate
    calls = []
    kinds = set()

    def spy(nb, states, edges, order, nportal, vd, charge=None):
        monkeypatch.setattr(_kernels, "eliminate", eliminate)
        try:
            args = nb, states, edges, order, nportal, vd, charge
            calls.append((vd, bool(charge)))
            return _same_elimination(args, kinds)
        finally:
            monkeypatch.setattr(_kernels, "eliminate", spy)

    monkeypatch.setattr(_kernels, "eliminate", spy)
    for h, inst, mode in _dp_cases(random.Random(48)):
        solve = dpsolve.solve_vd_dp if mode == "vd" else dpsolve.solve_ed_dp
        solve(h, inst)
    assert len(calls) == 39
    assert {(True, False), (False, False), (False, True)} <= set(calls)
    # buckets with edges, with edges and messages, and with messages only
    assert {(1, 0), (2, 0), (1, 1), (2, 2), (0, 1), (0, 2)} <= kinds


def test_engine_matches_the_reference_on_portal_and_edge_cases():
    # portals (scan_table's calls), charges shared between variables, a
    # star whose centre's bucket holds only messages, and variables on no
    # edge whose buckets hold nothing at all
    rng = random.Random(49)
    kinds = set()
    shapes = list(_shapes()) + [
        (6, [(0, v) for v in range(1, 6)]),   # a star, centre 0
        (5, [(1, 2)]),                        # 0, 3 and 4 on no edge
    ]
    for nv, edges in shapes:
        for npr in range(min(3, nv) + 1):
            for vd in (True, False):
                for _ in range(3):
                    nb, states = _table_states(rng, nv, vd)
                    order = list(range(npr, nv))
                    rng.shuffle(order)
                    charge = None
                    if not vd and rng.random() < 0.5:
                        vecs = {}  # one vector per state tuple, shared
                        charge = {x: vecs.setdefault(states[x], np.array(
                            [rng.randint(0, 2) for _ in states[x]],
                            dtype=np.int64)) for x in order
                            if rng.random() < 0.7}
                    out, _ = _same_elimination(
                        (nb, states, edges, order, npr, vd, charge), kinds)
                    if npr and charge is None:
                        assert np.array_equal(
                            out.ravel(), _kernels.scan_table(
                                nb, states, edges, npr, vd, order))
        # the centre last: every leaf's message goes to its bucket
        nb, states = _table_states(rng, 6, True)
        _same_elimination((nb, states, [(0, v) for v in range(1, 6)],
                           [1, 2, 3, 4, 5, 0], 0, True, None), kinds)
    assert {(0, 0), (0, 1), (0, 2)} <= kinds


def test_subset_scan_matches_python():
    """Kernel subset scan agrees with a direct python re-computation."""
    from lhomdel import analysis
    from lhomdel.graphs import bits, max_incomparable
    rng = random.Random(14)
    done = 0
    while done < 10:
        h = families.random_target(rng, rng.randint(3, 6))
        if analysis.find_obstruction(h) is None:
            continue
        best, mask = _kernels.subset_scan(h.nbhd, h.reflexive_mask())
        want = 0
        for s in range(1, 1 << h.n):
            sub = families.induced(h, sorted(bits(s)))
            if analysis.find_obstruction(sub) is None:
                continue
            if oracle.oracle_decomposition(sub) is not None:
                continue
            want = max(want, max_incomparable(sub)[0])
        assert int(best) == want
        sub = families.induced(h, sorted(bits(int(mask))))
        assert analysis.find_obstruction(sub) is not None
        assert oracle.oracle_decomposition(sub) is None
        assert max_incomparable(sub)[0] == want
        done += 1

import random

import numpy as np

from lhomdel import _kernels, oracle

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
# digit fastest), the order in which the numpy scans index assignments.


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


def _scan_table_loop(radix, val, base, eu, ev, adj, ed_mode, nportal):
    nv = radix.shape[0]
    m = eu.shape[0]
    tsize = np.int64(1)
    for j in range(nportal):
        tsize *= radix[j]
    out = np.full(tsize, INF, dtype=np.int64)
    digits = np.zeros(nv, dtype=np.int64)
    total = np.int64(1)
    for j in range(nv):
        total *= radix[j]
    count = np.int64(0)
    cell_stride = total // tsize if tsize > 0 else np.int64(1)
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
        if ok:
            cell = count // cell_stride
            if cost < out[cell]:
                out[cell] = cost
        count += 1
        for j in range(nv - 1, -1, -1):
            digits[j] += 1
            if digits[j] < radix[j]:
                break
            digits[j] = 0
    return out


def test_scan_best_paths_agree():
    for h, inst in _cases(11, 30):
        for mode, npr in (("vd", 0), ("ed", 0)):
            arrays = oracle._scan_arrays(h, inst, mode, npr)
            cost_a, dig_a = _scan_best_loop(*arrays, mode == "ed")
            cost_b, dig_b = _kernels.scan_best(*arrays, mode == "ed")
            assert int(cost_a) == int(cost_b)
            if int(cost_a) < int(INF):
                assert list(dig_a) == list(dig_b)


def _table_arrays(rng, nv, edges, ed_mode):
    """Scan arrays over nv variables and the given edges: radix 1..3,
    digits valued in a random 3-vertex target (or deleted, in vd mode),
    digit costs 0..2."""
    nh = 3
    size = nh if ed_mode else nh + 1
    adj = np.zeros((size, size), dtype=np.bool_)
    for x in range(size):
        for y in range(x, size):
            adj[x, y] = adj[y, x] = rng.random() < 0.5 or y == nh
    radix = np.array([rng.randint(1, 3) for _ in range(nv)], dtype=np.int64)
    val = np.array([[rng.randrange(size) for _ in range(3)]
                    for _ in range(nv)], dtype=np.int64)
    base = np.array([[rng.randint(0, 2) for _ in range(3)]
                     for _ in range(nv)], dtype=np.int64)
    eu = np.array([e[0] for e in edges], dtype=np.int64)
    ev = np.array([e[1] for e in edges], dtype=np.int64)
    return radix, val, base, eu, ev, adj


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


def test_scan_table_paths_agree():
    for h, inst in _cases(12, 20):
        npr = min(2, inst.n)
        for mode in ("vd", "ed"):
            arrays = oracle._scan_arrays(h, inst, mode, npr)
            a = _scan_table_loop(*arrays, mode == "ed", npr)
            b = _kernels.scan_table(*arrays, mode == "ed", npr)
            assert np.array_equal(np.asarray(a), np.asarray(b))
    rng = random.Random(15)
    seen = set()
    for nv, edges in _shapes():
        for npr in range(min(3, nv) + 1):
            for ed_mode in (False, True):
                for _ in range(3):
                    arrays = _table_arrays(rng, nv, edges, ed_mode)
                    a = _scan_table_loop(*arrays, ed_mode, npr)
                    b = _kernels.scan_table(*arrays, ed_mode, npr)
                    assert b.dtype == np.int64
                    assert np.array_equal(a, b), (nv, edges, npr, ed_mode)
                    inf = bool((b == INF).any())
                    assert not (ed_mode and inf)
                    seen.add((npr == nv, 1 in arrays[0], ed_mode, inf))
    # every kind of case above really occurs: portals only, radix 1,
    # infeasible vd entries (exactly INF) and all-feasible tables
    assert {(True, True, False, True), (False, True, False, True),
            (False, True, True, False), (False, False, False, False)} <= seen
    # an empty digit range leaves no feasible assignment at all
    radix, *rest = _table_arrays(rng, 4, [(0, 1), (1, 2)], True)
    radix[2] = 0
    for npr in (0, 2, 3):
        a = _scan_table_loop(radix, *rest, True, npr)
        b = _kernels.scan_table(radix, *rest, True, npr)
        assert np.array_equal(a, b)


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
            sub = h.induced(sorted(bits(s)))
            if analysis.find_obstruction(sub) is None:
                continue
            if oracle.oracle_decomposition(sub) is not None:
                continue
            want = max(want, max_incomparable(sub)[0])
        assert int(best) == want
        sub = h.induced(sorted(bits(int(mask))))
        assert analysis.find_obstruction(sub) is not None
        assert oracle.oracle_decomposition(sub) is None
        assert max_incomparable(sub)[0] == want
        done += 1

import random
from itertools import product

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
    for h, inst in _cases(11, 30):
        for mode in ("vd", "ed"):
            arrays = oracle._scan_arrays(h, inst, mode)
            cost_a, dig_a = _scan_best_loop(*arrays, mode == "ed")
            cost_b, dig_b = _kernels.scan_best(*arrays, mode == "ed")
            assert int(cost_a) == int(cost_b)
            if int(cost_a) < int(INF):
                assert list(dig_a) == list(dig_b)


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

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


def test_scan_table_paths_agree():
    for h, inst in _cases(12, 20):
        npr = min(2, inst.n)
        for mode in ("vd", "ed"):
            arrays = oracle._scan_arrays(h, inst, mode, npr)
            a = _scan_table_loop(*arrays, mode == "ed", npr)
            b = _kernels.scan_table(*arrays, mode == "ed", npr)
            assert np.array_equal(np.asarray(a), np.asarray(b))


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

import random
from itertools import combinations

import pytest

from lhomdel import _kernels, analysis, dpsolve, oracle
from lhomdel.graphs import bits, max_incomparable

import families


def test_corpus_verdicts():
    for name, h, vd, ed in families.DICHOTOMY_CORPUS:
        assert analysis.classify_vd(h)[0] == vd, name
        assert analysis.classify_ed(h)[0] == ed, name


def _check_obstruction(h, ob):
    vs = ob.vertices
    if ob.kind == "irreflexive_edge":
        u, v = vs
        assert h.has_edge(u, v) and not h.has_loop(u) and not h.has_loop(v)
    elif ob.kind == "private_triple":
        for i, v in enumerate(vs):
            w = ob.witnesses[i]
            others = [u for j, u in enumerate(vs) if j != i]
            assert h.has_edge(w, v)
            assert all(not h.has_edge(w, u) for u in others)
    else:
        assert ob.kind == "co_private_triple"
        for idx, (i, j) in enumerate(combinations(range(3), 2)):
            w = ob.witnesses[idx]
            k = 3 - i - j
            assert h.has_edge(w, vs[i]) and h.has_edge(w, vs[j])
            assert not h.has_edge(w, vs[k])


def _check_vd_witness(h, wit):
    vs = wit.vertices
    if wit.kind == "irreflexive_vertex":
        assert not h.has_loop(vs[0])
    elif wit.kind == "three_independent":
        assert all(not h.has_edge(u, v) for u, v in combinations(vs, 2))
    else:
        size = {"induced_c4": 4, "induced_c5": 5}[wit.kind]
        assert len(vs) == size
        for i, u in enumerate(vs):
            assert h.has_loop(u)
            for j in range(i + 1, size):
                want = j - i == 1 or (i, j) == (0, size - 1)
                assert h.has_edge(u, vs[j]) == want


def test_witnesses_are_valid():
    rng = random.Random(21)
    for _ in range(200):
        h = families.random_target(rng, rng.randint(1, 7))
        cls, ob = analysis.classify_ed(h)
        if cls == "np-hard":
            _check_obstruction(h, ob)
        cls, wit = analysis.classify_vd(h)
        if cls == "np-hard":
            _check_vd_witness(h, wit)


def test_decomposition_detectors_vs_oracle(monkeypatch):
    """Same 300 targets at the default limit, then at limit 0, which sends
    every target through the split detector."""
    for limit in (analysis.EXHAUSTIVE_DECOMP_LIMIT, 0):
        monkeypatch.setattr(analysis, "EXHAUSTIVE_DECOMP_LIMIT", limit)
        rng = random.Random(22)
        for _ in range(300):
            h = families.random_target(rng, rng.randint(1, 7))
            dec = analysis.find_decomposition(h)
            found = oracle.oracle_decomposition(h)
            assert (dec is None) == (found is None), limit
            if dec is not None:
                assert oracle.is_valid_decomposition(
                    h, list(dec.a), list(dec.b), list(dec.c)), limit
            assert analysis.is_decomposable(h) == (found is not None), limit


def test_find_decomposition_is_the_oracles():
    """The polynomial search returns exactly the brute force's first
    decomposition, which the recorded classify JSON depends on."""
    rng = random.Random(25)
    decomposable = 0
    for _ in range(500):
        h = families.random_target(rng, rng.randint(1, 10),
                                   loop_p=rng.random(), edge_p=rng.random())
        dec = analysis.find_decomposition(h)
        got = None if dec is None else (list(dec.a), list(dec.b), list(dec.c))
        assert got == oracle.oracle_decomposition(h), h.nbhd
        decomposable += dec is not None
    assert 100 < decomposable < 400


def test_decomposition_tree_json_unchanged_under_oracle(monkeypatch):
    rng = random.Random(26)
    targets = [families.windowed_family(k) for k in (1, 2, 3)]
    targets += [families.crossing_family(k) for k in (1, 2)]
    targets += [families.random_target(rng, rng.randint(1, 8),
                                       loop_p=rng.random(),
                                       edge_p=rng.random())
                for _ in range(100)]
    want = [analysis.decomposition_tree(h).to_json() for h in targets]

    def brute_force(h):
        found = oracle.oracle_decomposition(h)
        if found is None:
            return None
        return tuple(sum(1 << v for v in part) for part in found)

    monkeypatch.setattr(analysis, "_lex_first_split", brute_force)
    assert [analysis.decomposition_tree(h).to_json()
            for h in targets] == want


def test_no_runtime_path_runs_the_brute_force(monkeypatch):
    def refuse(h):
        raise AssertionError("3^n decomposition search called")

    monkeypatch.setattr(oracle, "oracle_decomposition", refuse)
    h = families.crossing_family(2)
    assert h.n == 12
    out = analysis.classification_json(h)
    assert out["decomposition_tree"]["decomposition"] is not None
    h = families.windowed_family(3)
    rng = random.Random(27)
    inst = families.random_instance(rng, h, 8)
    sol = dpsolve.solve_ed_auto(h, inst)
    assert sol.stats["parts"] == 2
    sol.check(h, inst)


def _tree_leaf_bound(h):
    """Max i over undecomposable-with-obstruction tree leaves (1 if none)."""
    r = 1
    for leaf in analysis.decomposition_tree(h).leaves():
        sub = h.induced(leaf.vertices)
        if analysis.find_obstruction(sub) is not None:
            r = max(r, max_incomparable(sub)[0])
    return r


def _check_i_bullet_witness(h, ib, wit):
    """The witness induces an undecomposable subgraph with an obstruction
    and with i equal to the value."""
    sub = h.induced(wit)
    assert analysis.find_obstruction(sub) is not None
    assert not analysis.is_decomposable(sub)
    assert max_incomparable(sub)[0] == ib


def test_i_bullet_bounds():
    rng = random.Random(23)
    for _ in range(60):
        h = families.random_target(rng, rng.randint(1, 10))
        ib, wit = analysis.i_bullet(h)
        i, _ = max_incomparable(h)
        if analysis.find_obstruction(h) is None:
            assert ib == 1 and wit is None
            continue
        assert 1 <= ib <= max(i, 1)
        _check_i_bullet_witness(h, ib, wit)
        assert _tree_leaf_bound(h) == ib


def _scan_reference(h):
    """i_bullet's answer by the scan over all 2^n vertex subsets."""
    if analysis.find_obstruction(h) is None:
        return 1, None
    best, mask = _kernels.subset_scan(h.nbhd, h.reflexive_mask())
    return best, list(bits(mask))


def test_i_bullet_matches_subset_scan():
    """Same value and same (least) witness mask as the reference scan."""
    rng = random.Random(28)
    targets = [families.random_target(rng, rng.randint(1, 12),
                                      loop_p=rng.random(),
                                      edge_p=rng.random())
               for _ in range(300)]
    targets += [families.windowed_family(k) for k in (2, 3, 4)]
    targets += [families.crossing_family(k) for k in (2, 3)]
    targets += [families.reflexive_cycle(q) for q in (6, 7, 8)]
    targets += [h for _, h, _, _ in families.DICHOTOMY_CORPUS]
    hard = 0
    for h in targets:
        got = analysis.i_bullet(h)
        assert got == _scan_reference(h), h.nbhd
        hard += got[1] is not None
    assert 100 < hard < len(targets)


@pytest.mark.parametrize("h, want", [(families.crossing_family(10), 2),
                                     (families.windowed_family(10), 3)],
                         ids=["crossing10", "windowed10"])
def test_i_bullet_on_targets_the_scan_cannot_finish(h, want):
    assert h.n >= 32
    ib, wit = analysis.i_bullet(h)
    assert ib == want
    _check_i_bullet_witness(h, ib, wit)


def test_i_bullet_rejects_a_witness_that_fails_its_check(monkeypatch):
    """Each leaf's i is computed once; a second answer for the same mask
    can only come from the final check of the witness, here a wrong one."""
    real = _kernels.max_incomparable_mask
    asked = set()

    def wrong_on_repeat(nb, S):
        size, mask = real(nb, S)
        if S in asked:
            return size + 1, mask
        asked.add(S)
        return size, mask

    monkeypatch.setattr(_kernels, "max_incomparable_mask", wrong_on_repeat)
    with pytest.raises(AssertionError, match="misses i"):
        analysis.i_bullet(families.reflexive_cycle(4))


def test_decomposition_tree_partitions():
    rng = random.Random(24)
    for _ in range(40):
        h = families.random_target(rng, rng.randint(1, 6))
        tree = analysis.decomposition_tree(h)
        assert sorted(tree.vertices) == list(range(h.n))
        leaves = list(tree.leaves())
        for leaf in leaves:
            assert not analysis.is_decomposable(h.induced(leaf.vertices))

        def walk(node):
            if node.decomposition is None:
                assert not node.children
                return
            d = node.decomposition
            assert sorted(d.a + d.b + d.c) == sorted(node.vertices)
            assert len(node.children) == 2
            for ch in node.children:
                walk(ch)

        walk(tree)


def test_classification_json_shape():
    h = families.reflexive_cycle(4)
    out = analysis.classification_json(h)
    assert out["vd"] == "np-hard" and out["ed"] == "np-hard"
    assert out["vd_witness"]["kind"] == "induced_c4"
    assert out["i"] == 4  # all four cycle neighborhoods are incomparable
    assert min(out["vd_witness"]["vertices"]) >= 1  # 1-indexed
    assert out["decomposition_tree"]["vertices"] == [1, 2, 3, 4]
    h = families.reflexive_clique(2)
    out = analysis.classification_json(h)
    assert out["vd"] == "poly" and out["vd_witness"] is None
    assert out["ed_obstruction"] is None and out["i_bullet"] == 1

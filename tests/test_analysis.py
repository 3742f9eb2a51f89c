import random
from itertools import combinations

from lhomdel import analysis, oracle
from lhomdel.graphs import max_incomparable

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


def _tree_leaf_bound(h):
    """Max i over undecomposable-with-obstruction tree leaves (1 if none)."""
    r = 1
    for leaf in analysis.decomposition_tree(h).leaves():
        sub = h.induced(leaf.vertices)
        if analysis.find_obstruction(sub) is not None:
            r = max(r, max_incomparable(sub)[0])
    return r


def test_i_bullet_bounds():
    rng = random.Random(23)
    for _ in range(60):
        h = families.random_target(rng, rng.randint(1, 6))
        ib, wit = analysis.i_bullet(h)
        i, _ = max_incomparable(h)
        if analysis.find_obstruction(h) is None:
            assert ib == 1 and wit is None
            continue
        assert 1 <= ib <= max(i, 1)
        sub = h.induced(wit)
        assert analysis.find_obstruction(sub) is not None
        assert not analysis.is_decomposable(sub)
        assert max_incomparable(sub)[0] == ib
        assert _tree_leaf_bound(h) <= ib


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

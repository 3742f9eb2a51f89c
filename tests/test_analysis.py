import random
import time
from itertools import combinations

import pytest

from lhomdel import _kernels, analysis, dpsolve, oracle, polysolve
from lhomdel.graphs import TargetGraph, bits, max_incomparable

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


def _obstruction_by_triple_loop(h):
    """Reference obstruction search: every vertex pair, then every triple
    in combinations order, private before co-private, each witness the
    lowest qualifying vertex."""
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if h.has_edge(u, v) and not h.has_loop(u) and not h.has_loop(v):
                return "irreflexive_edge", (u, v), ()
    for triple in combinations(range(h.n), 3):
        g = [h.nbhd[v] for v in triple]
        private = [g[i] & ~g[(i + 1) % 3] & ~g[(i + 2) % 3]
                   for i in range(3)]
        if all(private):
            return "private_triple", triple, tuple(
                next(bits(m)) for m in private)
        co = [g[i] & g[j] & ~g[3 - i - j]
              for i, j in combinations(range(3), 2)]
        if all(co):
            return "co_private_triple", triple, tuple(
                next(bits(m)) for m in co)
    return None


def test_obstruction_search_matches_the_triple_loop():
    """Same (kind, vertices, witnesses) as the reference loop, on whole
    targets and on induced subgraphs given as vertex masks."""
    rng = random.Random(29)
    targets = [families.random_target(rng, rng.randint(1, 16),
                                      loop_p=rng.choice((0.5, 0.8, 0.95,
                                                         rng.random())),
                                      edge_p=rng.random())
               for _ in range(3000)]
    targets += [families.windowed_family(k) for k in (2, 3, 4)]
    targets += [families.crossing_family(k) for k in (2, 3)]
    targets += [families.reflexive_cycle(q) for q in (6, 7, 8)]
    targets += [h for _, h, _, _ in families.DICHOTOMY_CORPUS]
    kinds = {None: 0, "irreflexive_edge": 0, "private_triple": 0,
             "co_private_triple": 0}
    for h in targets:
        want = _obstruction_by_triple_loop(h)
        ob = analysis.find_obstruction(h)
        got = None if ob is None else (ob.kind, ob.vertices, ob.witnesses)
        assert got == want, h.nbhd
        kinds[None if want is None else want[0]] += 1
        # an induced subgraph keeps its vertices' order, so its first
        # obstruction is the relabelled mask search's, each vertex and
        # witness given as a one-bit mask
        S = rng.getrandbits(h.n) | 1 << rng.randrange(h.n)
        verts = list(bits(S))
        want = _obstruction_by_triple_loop(families.induced(h, verts))
        got = _kernels.first_obstruction(h.nbhd, h.reflexive_mask(), S)
        if want is not None:
            kind, vs, ws = want
            want = (kind, tuple(1 << verts[v] for v in vs),
                    tuple(1 << verts[w] for w in ws))
        assert got == want, (h.nbhd, S)
    assert min(kinds.values()) > 100, kinds


def test_strong_split_test_matches_the_pairwise_definition():
    rng = random.Random(30)
    strong = 0
    for _ in range(600):
        h = families.random_target(rng, rng.randint(1, 7),
                                   loop_p=rng.random(),
                                   edge_p=rng.choice((0.1, 0.5, 0.9)))
        refl = [v for v in range(h.n) if h.has_loop(v)]
        irr = [v for v in range(h.n) if not h.has_loop(v)]
        want = (all(h.has_edge(u, v) for u, v in combinations(refl, 2))
                and not any(h.has_edge(u, v) for u, v in combinations(irr, 2)))
        assert analysis.is_strong_split(h) == want, h.nbhd
        strong += want
    assert 100 < strong < 500


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


def _vd_hard_by_search(h):
    """Whether H has an irreflexive vertex, three independent vertices or
    an induced C4 or C5, by plain search: on 3 vertices every degree 0,
    on 4 or 5 every degree 2 (the only 2-regular graphs there are C4 and
    C5)."""
    if any(not h.has_loop(v) for v in range(h.n)):
        return True
    for k, deg in ((3, 0), (4, 2), (5, 2)):
        for sub in combinations(range(h.n), k):
            if all(sum(h.has_edge(u, v) for u in sub if u != v) == deg
                   for v in sub):
                return True
    return False


def _co_chain_target(rng, n):
    """A reflexive target covered by two chain cliques: the two sides are
    cliques and the i-th left vertex sees the first t_i right ones, with t
    non-decreasing; 40% of them get one or two vertex pairs flipped."""
    vs = rng.sample(range(n), n)
    a = rng.randint(0, n)
    left, right = vs[:a], vs[a:]
    edges = {(v, v) for v in range(n)}
    for side in (left, right):
        edges |= {tuple(sorted(e)) for e in combinations(side, 2)}
    for u, t in zip(left, sorted(rng.randint(0, len(right)) for _ in left)):
        edges |= {tuple(sorted((u, w))) for w in right[:t]}
    if n >= 2 and rng.random() < 0.4:
        for _ in range(rng.randint(1, 2)):
            edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
    return TargetGraph.from_edges(n, sorted(edges))


def _vd_targets():
    rng = random.Random(26)
    for _ in range(400):
        yield families.random_target(rng, rng.randint(1, 9), loop_p=1.0,
                                     edge_p=rng.random())
    for _ in range(300):
        yield _co_chain_target(rng, rng.randint(1, 14))
    for _ in range(100):  # a co-chain target with one loop missing
        h = _co_chain_target(rng, rng.randint(1, 8))
        v = rng.randrange(h.n)
        yield TargetGraph(h.n, tuple(nb & ~(1 << u) if u == v else nb
                                     for u, nb in enumerate(h.nbhd)))


def test_vd_verdict_is_the_two_clique_cover():
    poly = 0
    for h in _vd_targets():
        hard = _vd_hard_by_search(h)
        cls, wit = analysis.classify_vd(h)
        assert cls == ("np-hard" if hard else "poly"), h.nbhd
        cover = analysis.two_clique_cover(h)
        if hard:
            _check_vd_witness(h, wit)
            assert cover is None, h.nbhd
            continue
        poly += 1
        assert cover.left | cover.right == set(range(h.n))
        assert not cover.left & cover.right
        for part in (cover.left, cover.right):
            for u, v in combinations(part, 2):
                assert h.has_edge(u, v)
                assert not (h.nbhd[u] & ~h.nbhd[v]
                            and h.nbhd[v] & ~h.nbhd[u]), h.nbhd
    assert 200 < poly < 600


def _late_c5(n):
    """n - 5 universal vertices, then a C5; all reflexive.  Its only VD
    witness is the C5 on the last five vertices."""
    edges = [(u, v) for u in range(n - 5) for v in range(u, n)]
    edges += [(v, v) for v in range(n - 5, n)]
    edges += [(n - 5 + i, n - 5 + (i + 1) % 5) for i in range(5)]
    return TargetGraph.from_edges(n, edges)


def test_vd_decisions_skip_the_witness_search(monkeypatch):
    calls = {"cycle": 0, "classify": 0}
    cycle, classify = analysis._induced_cycle, analysis.classify_vd

    def counted_cycle(*args):
        calls["cycle"] += 1
        return cycle(*args)

    def counted_classify(*args):
        calls["classify"] += 1
        return classify(*args)

    monkeypatch.setattr(analysis, "_induced_cycle", counted_cycle)
    poly = [families.reflexive_clique(5), families.reflexive_path(3),
            families.reflexive_cycle(3)]
    for h in poly:
        assert analysis.classify_vd(h)[0] == "poly"
    assert calls["cycle"] == 0
    assert analysis.classify_vd(_late_c5(8))[0] == "np-hard"
    assert calls["cycle"] == 2  # the C4 search, then the C5 search

    calls["cycle"] = 0
    monkeypatch.setattr(analysis, "classify_vd", counted_classify)
    rng = random.Random(27)
    hard = [_late_c5(8), families.reflexive_cycle(4),
            families.independent_reflexive(3), families.loopless_k1()]
    for h in poly + hard:
        inst = families.random_instance(rng, h, 4)
        dpsolve.solve_vd_auto(h, inst)
        if h in poly:
            polysolve.solve_vd_poly(h, inst)
        else:
            with pytest.raises(ValueError):
                polysolve.solve_vd_poly(h, inst)
    assert calls == {"cycle": 0, "classify": 0}


def test_vd_decisions_on_large_targets_are_fast():
    # loose bounds: the former triple, C4 and C5 searches took seconds here
    t0 = time.perf_counter()
    assert analysis.classify_vd(families.reflexive_clique(40))[0] == "poly"
    assert time.perf_counter() - t0 < 1
    h = _late_c5(40)
    inst = families.Instance(2, [(0, 1)], [frozenset(range(40))] * 2)
    t0 = time.perf_counter()
    assert dpsolve.solve_vd_auto(h, inst).cost == 0
    assert time.perf_counter() - t0 < 1


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
                assert analysis.is_valid_decomposition(
                    h, dec.a, dec.b, dec.c), limit
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
        got = None if dec is None else (dec.a, dec.b, dec.c)
        assert got == oracle.oracle_decomposition(h), h.nbhd
        decomposable += dec is not None
    assert 100 < decomposable < 400


def _tuple_is_valid_decomposition(h, a, b, c):
    """The decomposition check on vertex tuples, one has_edge test per
    pair: the reference for analysis.is_valid_decomposition's masks."""
    if not a or not (b or c):
        return False
    for u in b:
        for v in b:
            if not h.has_edge(u, v):  # u == v checks the loop
                return False
        for v in a:
            if not h.has_edge(u, v):
                return False
    for u in c:
        if h.has_loop(u):
            return False
        for v in c:
            if u != v and h.has_edge(u, v):
                return False
        for v in a:
            if h.has_edge(u, v):
                return False
    return True


def test_mask_decomposition_check_is_the_tuple_loops():
    """20000 seeded triples over random targets of 1-8 vertices, ten per
    target: half three independent random masks (so empty and overlapping
    parts), half a random partition of V(H), so valid triples occur too."""
    rng = random.Random(27)
    valid = 0
    for _ in range(2000):
        h = families.random_target(rng, rng.randint(1, 8),
                                   loop_p=rng.random(), edge_p=rng.random())
        for _ in range(10):
            if rng.random() < 0.5:
                masks = [rng.getrandbits(h.n) for _ in range(3)]
            else:
                masks = [0, 0, 0]
                for v in range(h.n):
                    masks[rng.randrange(3)] |= 1 << v
            want = _tuple_is_valid_decomposition(
                h, *(tuple(bits(m)) for m in masks))
            assert analysis.is_valid_decomposition(h, *masks) == want, (
                h.nbhd, masks)
            valid += want
    assert 300 < valid < 19000


def test_decomposition_tree_json_unchanged_under_oracle(monkeypatch):
    rng = random.Random(26)
    targets = [families.windowed_family(k) for k in (1, 2, 3)]
    targets += [families.crossing_family(k) for k in (1, 2)]
    targets += [families.random_target(rng, rng.randint(1, 8),
                                       loop_p=rng.random(),
                                       edge_p=rng.random())
                for _ in range(100)]
    want = [analysis.decomposition_tree(h) for h in targets]

    def brute_force(nb, refl, S):
        verts = list(bits(S))
        found = oracle.oracle_decomposition(
            families.induced(TargetGraph(len(nb), nb), verts))
        if found is None:
            return None
        return tuple(sum(1 << verts[i] for i in bits(part))
                     for part in found)

    monkeypatch.setattr(analysis, "_lex_first_split", brute_force)
    assert [analysis.decomposition_tree(h) for h in targets] == want


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


def test_split_trees_copy_no_target(monkeypatch):
    """Every split-tree node is a vertex mask of the parsed target: the
    classification builds no TargetGraph, and an ED auto solve builds at
    most one, h.restricted(S), per part it visits."""
    built = []
    init = TargetGraph.__init__

    def counted(self, n, nbhd):
        built.append(n)
        init(self, n, nbhd)

    targets = [families.windowed_family(k) for k in (2, 3)]
    targets += [families.crossing_family(2), families.reflexive_clique(30),
                TargetGraph(30, (0,) * 30)]
    monkeypatch.setattr(TargetGraph, "__init__", counted)
    for h in targets:
        out = analysis.classification_json(h)
        assert out["decomposition_tree"]["decomposition"] is not None
    assert built == []
    # a visited part is a poly leaf or asks for its decomposition
    parts = []
    find, poly = analysis.find_decomposition, polysolve.solve_ed_poly

    def counted_find(h, S=None, refl=None):
        parts.append(S)
        return find(h, S, refl)

    def counted_poly(h, inst, classified=False):
        parts.append(h)
        return poly(h, inst, classified)

    monkeypatch.setattr(analysis, "find_decomposition", counted_find)
    monkeypatch.setattr(polysolve, "solve_ed_poly", counted_poly)
    h = families.windowed_family(3)
    rng = random.Random(31)
    for _ in range(5):
        inst = families.random_instance(rng, h, 8)
        del built[:], parts[:]
        sol = dpsolve.solve_ed_auto(h, inst)
        assert sol.stats["parts"] == 2
        assert len(parts) > 2 and len(built) <= len(parts), (built, parts)


def test_decomposition_tree_computes_the_reflexive_mask_once(monkeypatch):
    # reflexive K_n splits down to its 2n - 1 singletons' tree nodes
    calls = []
    mask = TargetGraph.reflexive_mask

    def counted(self):
        calls.append(self.n)
        return mask(self)

    monkeypatch.setattr(TargetGraph, "reflexive_mask", counted)
    h = families.reflexive_clique(40)
    tree = analysis.decomposition_tree(h)
    assert sum(1 for _ in _tree_nodes(tree)) == 79
    assert calls == [40]


def test_ed_split_classifies_each_part_once(monkeypatch):
    # each part's mask is searched for an obstruction at most once, and an
    # obstruction-free part goes to the poly solver with its verdict
    searched, poly_parts = [], []
    first, poly = _kernels.first_obstruction, polysolve.solve_ed_poly

    def counted(nb, refl, S):
        searched.append(S)
        return first(nb, refl, S)

    def counted_poly(h, inst, classified=False):
        assert classified
        assert first(h.nbhd, h.reflexive_mask(), (1 << h.n) - 1) is None
        poly_parts.append(h)
        return poly(h, inst, classified)

    monkeypatch.setattr(_kernels, "first_obstruction", counted)
    monkeypatch.setattr(polysolve, "solve_ed_poly", counted_poly)
    h = families.windowed_family(3)
    rng = random.Random(32)
    for _ in range(5):
        del searched[:], poly_parts[:]
        inst = families.random_instance(rng, h, 8)
        assert dpsolve.solve_ed_auto(h, inst).stats["parts"] == 2
        assert len(searched) > 2 and len(set(searched)) == len(searched), \
            searched
        assert poly_parts
    with pytest.raises(ValueError):  # a direct call still checks
        poly(h, inst)


def _tree_nodes(tree):
    """Every node of a decomposition tree, each once."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack += node["children"]


def _leaf_targets(h):
    """H[L] for each leaf L of H's decomposition tree."""
    return [families.induced(h, [v - 1 for v in node["vertices"]])
            for node in _tree_nodes(analysis.decomposition_tree(h))
            if not node["children"]]


def _tree_leaf_bound(h):
    """Max i over undecomposable-with-obstruction tree leaves (1 if none)."""
    r = 1
    for sub in _leaf_targets(h):
        if analysis.find_obstruction(sub) is not None:
            r = max(r, max_incomparable(sub)[0])
    return r


def _check_i_bullet_witness(h, ib, wit):
    """The witness induces an undecomposable subgraph with an obstruction
    and with i equal to the value."""
    sub = families.induced(h, wit)
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


def _split_tree_leaves(h):
    """The vertex masks of the leaves of h's decomposition tree, after
    checking it: each internal node's (a, b, c) is a valid decomposition
    that partitions its vertices, with children A and B∪C, and each leaf
    is undecomposable."""
    tree = analysis.decomposition_tree(h)
    assert tree["vertices"] == list(range(1, h.n + 1))
    leaves = []
    for node in _tree_nodes(tree):
        d = node["decomposition"]
        if d is None:
            assert not node["children"]
            S = sum(1 << (v - 1) for v in node["vertices"])
            assert analysis.find_decomposition(h, S) is None
            leaves.append(S)
            continue
        assert analysis.is_valid_decomposition(
            h, *(sum(1 << (v - 1) for v in d[k]) for k in "abc"))
        assert sorted(d["a"] + d["b"] + d["c"]) == node["vertices"]
        assert [ch["vertices"] for ch in node["children"]] == [
            d["a"], sorted(d["b"] + d["c"])]
    return leaves


def test_decomposition_tree_partitions():
    # random targets of 1-6 vertices, and split-composed targets of 9-16
    # vertices, about a fifth of them above EXHAUSTIVE_DECOMP_LIMIT, where
    # _kernels.find_split finds the splits; each of the latter has two or
    # more leaves that hold an obstruction
    rng = random.Random(24)
    for _ in range(40):
        h = families.random_target(rng, rng.randint(1, 6))
        _split_tree_leaves(h)
        for sub in _leaf_targets(h):
            assert not analysis.is_decomposable(sub)
    rng = random.Random(81)
    large = 0
    for _ in range(200):
        h = None
        while h is None or not 9 <= h.n <= 16:
            h, _ = families.split_composed_target(rng, rng.choice((1, 1, 2)))
        large += h.n > analysis.EXHAUSTIVE_DECOMP_LIMIT
        refl = h.reflexive_mask()
        hard = [S for S in _split_tree_leaves(h)
                if _kernels.first_obstruction(h.nbhd, refl, S) is not None]
        assert len(hard) >= 2, h
    assert large >= 20, large


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

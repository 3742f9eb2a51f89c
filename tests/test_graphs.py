import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhomdel import graphs
from lhomdel.graphs import (Instance, ParseError, TargetGraph, dominates,
                            format_instance, format_target, incomparable,
                            is_incomparable_set, max_incomparable,
                            parse_instance, parse_target, reduce_list,
                            reduce_lists)

import families


def small_target(draw_n, seed):
    rng = random.Random(seed)
    return families.random_target(rng, draw_n)


targets = st.builds(small_target, st.integers(1, 6), st.integers(0, 10 ** 6))


def test_domination_basics():
    # 0 - 1 - 2 path, loop on 1: Gamma(0) = {1} is inside Gamma(2) = {1}
    h = TargetGraph.from_edges(3, [(0, 1), (1, 1), (1, 2)])
    assert dominates(h, 0, 2) and dominates(h, 2, 0)
    assert not incomparable(h, 0, 2)
    assert dominates(h, 0, 1) and not dominates(h, 1, 0)
    assert reduce_list(h, frozenset({0, 2})) == frozenset({0})
    assert reduce_list(h, frozenset({0, 1})) == frozenset({1})


@given(targets, st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_reduce_list_properties(h, seed):
    rng = random.Random(seed)
    lst = frozenset(rng.sample(range(h.n), rng.randint(1, h.n)))
    red = reduce_list(h, lst)
    assert red <= lst and red
    assert is_incomparable_set(h, red)
    assert reduce_list(h, red) == red  # idempotent
    # every dropped vertex is dominated by a kept one
    for u in lst - red:
        assert any(dominates(h, u, v) for v in red)


@given(targets)
@settings(max_examples=60, deadline=None)
def test_max_incomparable_vs_bruteforce(h):
    size, wit = max_incomparable(h)
    assert is_incomparable_set(h, wit) and len(wit) == size
    best = max(len(sub) for r in range(h.n + 1)
               for sub in combinations(range(h.n), r)
               if is_incomparable_set(h, sub))
    assert size == best


def test_max_incomparable_of_a_1000_vertex_target_returns():
    # every pair of this target is incomparable, so the branch and bound
    # extends one clique a member at a time, 1000 deep
    h = families.random_target(random.Random(1), 1000)
    size, wit = max_incomparable(h)
    assert size == 1000 and wit == list(range(1000))


def test_target_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        h = families.random_target(rng, rng.randint(1, 7))
        assert parse_target(format_target(h)).nbhd == h.nbhd


def test_dense_target_parses_into_masks():
    # reflexive K1000 as text: 500,501 lines, each setting two mask bits
    n = 1000
    edges = [(u, v) for u in range(n) for v in range(u, n)]
    h = parse_target(f"h {n}\n" + "".join(f"e {u + 1} {v + 1}\n"
                                          for u, v in edges))
    assert h == TargetGraph.from_edges(n, edges)
    assert parse_target("h 2\ne 2 2\ne 2 1\n").nbhd == (0b10, 0b11)
    # masks a caller gives are still checked
    with pytest.raises(ValueError, match="not symmetric"):
        TargetGraph(2, (0b10, 0))


def test_instance_roundtrip():
    rng = random.Random(8)
    for _ in range(25):
        h = families.random_target(rng, rng.randint(1, 5))
        inst = families.random_instance(rng, h, rng.randint(1, 7))
        inst.budget = rng.choice([None, rng.randint(0, 5)])
        back = parse_instance(format_instance(inst), h)
        assert (back.n, back.edges, back.lists, back.budget) == \
            (inst.n, sorted(inst.edges), inst.lists, inst.budget)


def test_reduce_lists_keeps_structure():
    h = families.reflexive_path(3)
    inst = Instance(2, [(0, 1)], [frozenset({0, 1, 2})] * 2)
    red = reduce_lists(h, inst)
    assert red.edges == inst.edges and red.n == inst.n
    assert all(is_incomparable_set(h, lst) for lst in red.lists)


@pytest.mark.parametrize("text", [
    "",                      # missing header
    "h 0",                   # bad count
    "e 1 2\nh 3",            # edge before header
    "h 2\ne 1 3",            # out of range
    "h 2\ne 1 2\ne 2 1",     # duplicate edge
    "h 2\ne 2 2\ne 2 2",     # duplicate loop
    "h 2\nx 1",              # unknown line
])
def test_target_parse_errors(text):
    with pytest.raises(ParseError):
        parse_target(text)


@pytest.mark.parametrize("text", [
    "",                          # missing header
    "p lhom 2 1",                # edge count mismatch
    "e 1 2\np lhom 2 1",         # edge before header
    "p lhom 2 1\ne 1 1",         # loop
    "p lhom 2 2\ne 1 2\ne 2 1",  # parallel edge
    "p lhom 1 0\nl 1 2 1",       # list length mismatch
    "p lhom 1 0\nl 1 1 9",       # list element out of range
    "p lhom 1 0\nk -1",          # negative budget
    "p lhom 2 1\ne 1 2 7",       # extra token on an edge
    "p lhom 1 0\nk 3 junk",      # extra token on the budget
    "p lhom 1 0\nl 1 1 1\nl 1 1 2",  # second list for a vertex
    "p lhom 1 0\nl 1 1 1\nl 1 1 1",  # second list, same tokens
    "p lhom 1 0\nk 1\nk 5",       # second budget
])
def test_instance_parse_errors(text):
    h = families.reflexive_clique(2)
    with pytest.raises(ParseError):
        parse_instance(text, h)


def test_repeated_list_tokens_share_one_set():
    h = families.reflexive_clique(2)
    inst = parse_instance("p lhom 3 0\nl 1 2 1 2\nl 2 1 2\nl 3 2 1 2\n", h)
    assert inst.lists == [frozenset({0, 1}), frozenset({1}),
                          frozenset({0, 1})]
    assert inst.lists[0] is inst.lists[2]
    # a list that fails its check is refused on its own line, also after
    # a valid list that shares its prefix
    text = "p lhom 3 0\nl 1 2 1 2\nl 2 2 1 3\nl 3 2 1 3\n"
    with pytest.raises(ParseError, match="^line 3: list element out of range"):
        parse_instance(text, h)


def test_reduce_lists_once_per_distinct_list(monkeypatch):
    h = families.reflexive_path(4)
    pool = [frozenset({0, 3}), frozenset({0, 1, 3}), frozenset({1, 2})]
    inst = Instance(30, [], [pool[v % 3] for v in range(30)])
    calls = []

    def counted(h, lst):
        calls.append(lst)
        return reduce_list(h, lst)

    monkeypatch.setattr(graphs, "reduce_list", counted)
    red = reduce_lists(h, inst)
    assert sorted(calls, key=sorted) == sorted(pool, key=sorted)
    assert red.lists == [reduce_list(h, lst) for lst in inst.lists]
    assert red.edges == inst.edges and red.edges is not inst.edges
    assert inst.lists == [pool[v % 3] for v in range(30)]


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(2, [(0, 0)], [frozenset({0})] * 2)
    with pytest.raises(ValueError):
        Instance(2, [(0, 1), (1, 0)], [frozenset({0})] * 2)
    with pytest.raises(ValueError):
        Instance(2, [], [frozenset({0})])
    with pytest.raises(ValueError):
        Instance(2, [(0, 2)], [frozenset({0})] * 2)


def test_parse_instance_checks_edges_once(monkeypatch):
    # parse_instance's own line-numbered checks replace __init__'s; a
    # direct Instance(...) is still checked
    calls = []
    init = Instance.__init__

    def counted(self, n, edges, lists, budget=None):
        calls.append(n)
        init(self, n, edges, lists, budget)

    monkeypatch.setattr(Instance, "__init__", counted)
    h = families.reflexive_clique(2)
    inst = parse_instance("p lhom 3 2\ne 1 2\ne 3 2\nl 1 1 2\nk 4\n", h)
    assert calls == []
    assert (inst.n, inst.edges, inst.lists, inst.budget) == (
        3, [(0, 1), (2, 1)], [frozenset({1}), frozenset({0, 1}),
                              frozenset({0, 1})], 4)
    Instance(1, [], [frozenset({0})])
    assert calls == [1]


def _writer_text(rng, h):
    """A random instance over h in the layout one of the writers uses:
    format_instance's, or the benchmark generator's (list elements in any
    order, `l v 0 ` with a trailing space); edges either way round, and
    the generator's `l` lines shuffled or left out."""
    n = rng.choice([0, 1, 2, 3, 5, 8, 12])
    inst = families.random_instance(rng, h, n, rng.random())
    inst.edges = [e[::-1] if rng.random() < 0.5 else e for e in inst.edges]
    inst.lists = [frozenset() if rng.random() < 0.1 else lst
                  for lst in inst.lists]
    if rng.random() < 0.5:
        return format_instance(inst)
    lines = [f"p lhom {n} {len(inst.edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in inst.edges]
    lists = [f"l {v + 1} {len(lst)} "
             + " ".join(str(x + 1) for x in rng.sample(sorted(lst), len(lst)))
             for v, lst in enumerate(inst.lists)]
    rng.shuffle(lists)
    return "\n".join(lines + lists[:rng.choice([0, n])]) + "\n"


def _mutated(rng, text):
    """text with one seeded fault or layout change."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tok = lines[i].split(" ")
    j = rng.randrange(1, len(tok)) if len(tok) > 1 else 0
    kind = rng.randrange(15)
    if kind == 0:
        lines[i] += " " + rng.choice(["1", "2", "x"])
    elif kind == 1:
        lines[i] = " ".join(tok[:-1])
    elif kind == 2:
        lines[i] = lines[i].replace(" ", "  ", 1)
    elif kind == 3:
        tok[j] = rng.choice(["0", "+", " ", "\t"]) + tok[j]
        lines[i] = " ".join(tok)
    elif kind == 4:
        tok[j] = rng.choice(["0", "-1", "9", "13", "x", ""])
        lines[i] = " ".join(tok)
    elif kind == 5 and tok[0] == "e":
        lines[i] = f"e {tok[1]} {tok[1]}"
    elif kind == 6 and tok[0] == "e":
        head = lines[0].split(" ")
        lines[0] = " ".join(head[:3] + [str(int(head[3]) + 1)])
        lines.insert(rng.randrange(1, len(lines) + 1),
                     rng.choice([lines[i], f"e {tok[2]} {tok[1]}"]))
    elif kind == 7 and tok[0] == "l":
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(
            [lines[i], f"l {tok[1]} 1 1", f"l {tok[1]} 0"]))
    elif kind == 8:
        k = rng.randrange(len(lines))
        lines[i], lines[k] = lines[k], lines[i]
    elif kind == 9:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == 10:
        del lines[i]
    elif kind == 11:
        lines.insert(rng.randrange(len(lines) + 1),
                     rng.choice(["k 3", "c note", "", "k x"]))
    elif kind == 13:
        tok[0] = rng.choice(["e", "l", "k", "c", "x"])
        lines[i] = " ".join(tok)
    elif kind == 14 and i + 1 < len(lines):  # move a line break
        tok = (lines[i] + " " + lines[i + 1]).split(" ")
        j = rng.randrange(1, len(tok))
        lines[i:i + 2] = [" ".join(tok[:j]), " ".join(tok[j:])]
    eol = "\r\n" if kind == 12 else "\n"
    return eol.join(lines) + eol + ("\n" if rng.random() < 0.1 else "")


def _outcome(parse, text, h):
    """(n, edges, lists, budget, sharing) of parse's Instance, sharing
    naming for each list the first vertex with the same list object; or
    the type and message of what it raised."""
    try:
        inst = parse(text, h)
    except (ParseError, graphs.TooManyVertices) as exc:
        return type(exc), str(exc)
    first = {}
    sharing = [first.setdefault(id(lst), v)
               for v, lst in enumerate(inst.lists)]
    return inst.n, inst.edges, inst.lists, inst.budget, sharing


def test_block_reader_matches_the_line_loop():
    """parse_instance returns the line loop's Instance, or raises its
    error, on writer-layout texts, each also with one fault or layout
    change; the block reader reads every unchanged one."""
    def loop(text, h):
        return graphs._parse_lines(text.splitlines(), h)

    rng = random.Random(53)
    read = 0  # mutated texts that the block reader reads
    for _ in range(2000):
        h = families.random_target(rng, rng.randint(1, 5))
        text = _writer_text(rng, h)
        mutated = _mutated(rng, text)
        assert graphs._read_blocks(text.splitlines(), h) is not None, text
        for t in (text, mutated):
            assert _outcome(parse_instance, t, h) == _outcome(loop, t, h), t
        read += graphs._read_blocks(mutated.splitlines(), h) is not None
    assert 200 < read < 1800, read
    # edges past the first chunk: a reversed parallel edge in a later
    # chunk, and a header above the cap
    h = families.reflexive_path(3)
    path = [f"e {v} {v + 1}" for v in range(1, 9001)]
    for extra in ([], ["e 2 1"], ["e 9001 9000"], ["e 5000 5000"]):
        text = "\n".join([f"p lhom 9001 {9000 + len(extra)}"] + path + extra
                         + ["l 7 2 1 3"])
        assert _outcome(parse_instance, text, h) == _outcome(loop, text, h)
    text = f"p lhom {graphs.MAX_INSTANCE_VERTICES + 1} 0\n"
    assert _outcome(parse_instance, text, h) == _outcome(loop, text, h)


def test_writer_layout_is_read_without_the_line_loop(monkeypatch):
    def refused(lines, h):
        raise AssertionError("read line by line")

    monkeypatch.setattr(graphs, "_parse_lines", refused)
    h = families.reflexive_clique(3)
    inst = Instance(4, [(0, 1), (3, 1), (2, 3)],
                    [frozenset({0, 2}), frozenset(), frozenset({0, 2}),
                     frozenset({1})])
    back = parse_instance(format_instance(inst), h)
    assert (back.n, back.edges, back.lists, back.budget) == \
        (4, inst.edges, inst.lists, None)
    assert back.lists[0] is back.lists[2]
    with pytest.raises(AssertionError, match="line by line"):
        parse_instance("c comment\n" + format_instance(inst), h)


def test_block_reader_peaks_no_higher_than_the_line_loop(tmp_path):
    # a reader that kept a split list per `l` line would peak far higher
    from test_ladder import _tree_instance
    h = families.reflexive_path(3)
    text = open(_tree_instance(tmp_path / "tree.lhi", 10 ** 5,
                               lambda v: f"l {v} 2 1 3\n")).read()
    peaks = []
    for parse in (parse_instance,
                  lambda text, h: graphs._parse_lines(text.splitlines(), h)):
        tracemalloc.start()
        try:
            inst = parse(text, h)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert inst.n == 10 ** 5 and len(inst.edges) == 10 ** 5 - 1
        del inst
    assert graphs._read_blocks(text.splitlines(), h) is not None
    assert peaks[0] <= peaks[1], peaks


def test_restricted_parts_are_induced_subgraphs(monkeypatch):
    # restricted() skips the constructor's symmetry check; each part is
    # still symmetric and is the target of H's edges inside the mask
    checks = []
    init = TargetGraph.__init__

    def counted(self, n, nbhd):
        checks.append(n)
        init(self, n, nbhd)

    monkeypatch.setattr(TargetGraph, "__init__", counted)
    rng = random.Random(77)
    for _ in range(200):
        h = families.random_target(rng, rng.randint(1, 9))
        S = rng.getrandbits(h.n)
        del checks[:]
        part = h.restricted(S)
        assert checks == []
        assert all(part.has_edge(u, v) == part.has_edge(v, u)
                   for u in range(h.n) for v in range(h.n))
        want = TargetGraph.from_edges(h.n, [
            (u, v) for u, v in h.edges() if S >> u & 1 and S >> v & 1])
        assert part == want


# Under python -O: two valid witnesses, then one corruption per check;
# then a decomposition split that the instance's lists straddle; then
# the DP over bags that miss an edge; last, the vd oracle given a scan
# that finds no feasible assignment.
_CHECK_UNDER_O = """\
import json
from lhomdel import _kernels, oracle
from lhomdel.analysis import Decomposition
from lhomdel.dpsolve import _run_dp, split_by_decomposition
from lhomdel.graphs import Instance, Solution, TargetGraph
from lhomdel.treewidth import TreeDecomposition
h = TargetGraph.from_edges(2, [(0, 0), (1, 1)])  # two loops, no edge
inst = Instance(2, [(0, 1)], [frozenset({0, 1}), frozenset({1})])
cases = [
    ("vd", 1, [1], {0: 0}),
    ("ed", 1, [(1, 0)], {0: 0, 1: 1}),
    ("vd", 0, [], {0: 0, 1: 1}),        # edge onto a non-edge
    ("ed", 0, [], {0: 0, 1: 1}),        # edge onto a non-edge
    ("vd", 2, [1], {0: 0}),             # cost != deletions
    ("ed", 1, [(0, 1)], {0: 0, 1: 0}),  # vertex outside its list
    ("vd", 1, [0], {}),                 # vertex left unmapped
]
raised = []
for mode, cost, deleted, hom in cases:
    try:
        Solution(mode, cost, deleted, hom, "test").check(h, inst)
        raised.append(False)
    except AssertionError:
        raised.append(True)
try:  # the list {0, 1} of vertex 0 straddles A = {0}, B = {1}
    split_by_decomposition(h, Decomposition(0b01, 0b10, 0), inst)
    raised.append(False)
except ValueError:
    raised.append(True)
try:  # the bags {0}, {1} hold no edge (0, 1)
    _run_dp(h, inst.lists, inst.edges, TreeDecomposition(
        (frozenset({0}), frozenset({1})), ((0, 1),)), "vd")
    raised.append(False)
except ValueError:
    raised.append(True)
_kernels.scan_best = lambda *args: (_kernels.INF, None)
try:
    oracle.oracle_vd(h, inst)
    raised.append(False)
except AssertionError:
    raised.append(True)
print(json.dumps({"debug": __debug__, "raised": raised}))
"""


def test_check_survives_optimize_flag():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", _CHECK_UNDER_O],
                         env=env, capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert got["debug"] is False
    assert got["raised"] == [False, False, True, True, True, True, True,
                             True, True, True]

"""The four workloads: seeded streams of CLI operations with their checks.

An op is one `lhomdel` command line.  Its check is either
("solve", target, instance, mode, optimum) -- the witness is verified
independently and the optimum compared -- or ("stdout", sha256), the
digest of the exact JSON the program printed at the recording commit.

Ops come in rounds of fixed make-up (one op per stratum) and a run
measures a fixed number of whole rounds, so runs with different seeds
differ in their instances but not in their mix or size.  dp_wide and
fixed_target draw each stratum's instance from a pool whose optima were
recorded once (see record.py); target_analysis runs its whole recorded corpus every round,
in seed order.  sparse_large generates every instance from the seed and
computes its reference independently (networkx cuts, a forest DP, or an
optimum known by construction).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import networkx as nx

import gen

HERE = Path(__file__).resolve().parent
RECORDED = HERE / "recorded"

# Rounds an untraced run of 20 seconds measures.  A run measures a fixed
# number of whole rounds, never "as many as fit": the count of failing
# ops, and so the rank of op_tail_s among the samples, must not depend
# on how fast the program is.  The counts make a run last about 20 s on
# a 2-core x86-64 VM with Python 3.11 at the commit that added them.
ROUNDS_PER_20S = {"dp_wide": 7, "sparse_large": 7, "fixed_target": 13,
                  "target_analysis": 1}


def round_count(workload: str, seconds: float, trace: bool) -> int:
    """Whole rounds of one run; a traced run times every op twice."""
    return max(1, round(ROUNDS_PER_20S[workload] * seconds / 20
                        / (2 if trace else 1)))


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


class Files:
    """Writes generated inputs under one work directory, once per key."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def put(self, name: str, text: str) -> str:
        path = self.root / name
        if not path.exists():
            path.write_text(text)
        return str(path)


# ---------------------------------------------------------------------------
# pools (answers recorded in recorded/<workload>.json)

DP_TARGETS = {"k3": gen.irreflexive_k3(),
              "indep3": gen.independent_reflexive(3),
              "refl-c5": gen.reflexive_cycle(5)}
DP_LISTS = (1, 2, 2, 3)
# (mode, graph kind, vertices): vd on 45-50 vertices, ed on 90-108, so
# that their op times overlap; each graph kind is paired with each target
DP_GRAPHS = (("vd", "grid", 5, 10), ("vd", "trigrid", 5, 9),
             ("vd", "ktree", 5, 50), ("vd", "grid", 6, 8),
             ("ed", "grid", 6, 18), ("ed", "trigrid", 5, 20),
             ("ed", "ktree", 6, 100), ("ed", "ktree", 7, 90))
DP_STRATA = tuple((g, t) for g in DP_GRAPHS for t in sorted(DP_TARGETS))


def dp_wide_item(stratum: int, i: int):
    (mode, kind, a, b), tname = DP_STRATA[stratum]
    rng = random.Random(f"dp_wide:{stratum}:{i}")
    h = DP_TARGETS[tname]
    if kind == "ktree":
        n, edges = gen.partial_ktree(rng, b, a, 0.7)
    else:
        n, edges = gen.grid(a, b, diagonals=kind == "trigrid")
    inst = (n, edges, gen.random_lists(rng, n, h[0], DP_LISTS))
    return f"dp-{mode}-{kind}{a}x{b}-{tname}-{i}", h, inst, mode


FT_TARGETS = {"windowed2": gen.windowed_family(2),
              "windowed3": gen.windowed_family(3),
              "crossing2": gen.crossing_family(2)}
FT_BLOCK = 4
POOL = {"dp_wide": 12, "fixed_target": 30}


def fixed_target_item(tname: str, i: int):
    h = FT_TARGETS[tname]
    rng = random.Random(f"fixed_target:{tname}:{i}")
    n = rng.randint(20, 60)
    _, edges = gen.partial_ktree(rng, n, rng.choice((3, 4)), 0.6)
    return f"ft-{tname}-{i}", h, (n, edges, gen.random_lists(rng, n, h[0], (1, 2, 3)))


NAMED_TARGETS = dict(
    [(f"windowed{k}", gen.windowed_family(k)) for k in (2, 3, 4)]
    + [(f"crossing{k}", gen.crossing_family(k)) for k in (2, 3)]
    + [(f"refl-cycle{q}", gen.reflexive_cycle(q)) for q in (6, 7, 8)]
    + list(gen.DICHOTOMY_CORPUS.items()))
# random targets per size: the 11-vertex ones (exhaustive decomposition
# search over 3^11 assignments) are the populous heavy class in which the
# tail percentile falls, so it is an order statistic of many ops
RANDOM_TARGETS = {size: 2 for size in range(6, 17)} | {11: 8, 12: 1}


def analysis_target(key: str):
    if key in NAMED_TARGETS:
        return NAMED_TARGETS[key]
    size, i = (int(x) for x in key.split("-")[1:])
    return gen.random_target(random.Random(f"target_analysis:{size}:{i}"), size)


def analysis_keys():
    return list(NAMED_TARGETS) + [f"random-{s}-{i}"
                                  for s, count in RANDOM_TARGETS.items()
                                  for i in range(count)]


def load_recorded(workload: str) -> dict:
    with open(RECORDED / f"{workload}.json", encoding="utf-8") as f:
        return json.load(f)


def _solve_op(files, key, h, inst, mode, opt, stratum):
    t = files.put(f"{key}.hg", gen.target_text(h))
    i = files.put(f"{key}.lhi", gen.instance_text(inst))
    return {"stratum": stratum, "key": key,
            "argv": ["solve", mode, t, i, "--algo", "auto"],
            "check": ("solve", h, inst, mode, opt)}


def _recorded_solve(files, rec, key, h, inst, mode, stratum):
    entry = rec[key]
    if entry["input"] != digest(gen.target_text(h), gen.instance_text(inst)):
        raise RuntimeError(f"{key}: generated input differs from the recording")
    return _solve_op(files, key, h, inst, mode, entry["opt"], stratum)


def analysis_ops(files, rec, key):
    """classify, then one recorded gadget per mode in which the target
    is NP-hard (an s-prohibitor for vd, a move for ed)."""
    h = analysis_target(key)
    text = gen.target_text(h)
    entry = rec[key]
    if entry["input"] != digest(text):
        raise RuntimeError(f"{key}: generated target differs from the recording")
    path = files.put(f"ta-{key}.hg", text)
    stratum = "named" if key in NAMED_TARGETS else f"random{h[0]}"
    ops = [{"stratum": f"classify-{stratum}", "key": key,
            "argv": ["classify", path], "check": ("stdout", entry["classify"])}]
    for g in entry["gadgets"]:
        ops.append({"stratum": f"{g['args'][0]}-{stratum}", "key": key,
                    "argv": ["gadget", g["args"][0], path] + g["args"][1:]
                    + ["--verify"],
                    "check": ("stdout", g["stdout"])})
    return ops


# ---------------------------------------------------------------------------
# op streams


def _perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def rounds(workload: str, seed: int, files: Files):
    """Endless seeded stream of rounds; every round has the same make-up
    (one op per stratum), so a run of whole rounds has a fixed mix."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sparse_large":
        yield from _sparse_rounds(rng, files)
        return
    rec = load_recorded(workload)
    pool = POOL.get(workload)
    r = 0
    if workload == "dp_wide":
        perms = [_perm(rng, pool) for _ in DP_STRATA]
        while True:
            ops = []
            for s in range(len(DP_STRATA)):
                key, h, inst, mode = dp_wide_item(s, perms[s][r % pool])
                ops.append(_recorded_solve(files, rec, key, h, inst, mode,
                                           key.rsplit("-", 1)[0]))
            rng.shuffle(ops)
            yield ops
            r += 1
    elif workload == "fixed_target":
        perms = {t: _perm(rng, pool) for t in FT_TARGETS}
        while True:
            ops = []
            for tname in FT_TARGETS:
                for j in range(FT_BLOCK):
                    i = perms[tname][(r * FT_BLOCK + j) % pool]
                    key, h, inst = fixed_target_item(tname, i)
                    for mode in ("ed", "vd"):
                        ops.append(_recorded_solve(files, rec, f"{key}-{mode}",
                                                   h, inst, mode,
                                                   f"{mode}-{tname}"))
            yield ops
            r += 1
    elif workload == "target_analysis":
        # the whole corpus every round; the seed sets the order
        keys = analysis_keys()
        while True:
            rng.shuffle(keys)
            yield [op for key in keys for op in analysis_ops(files, rec, key)]
    else:
        raise ValueError(f"unknown workload {workload!r}")


def warmup_op(workload: str, files: Files):
    """A fixed, seed-independent op run once before timing starts."""
    if workload == "sparse_large":
        h, inst, mode, opt = sparse_case("vd-multiway", 250,
                                         random.Random("warmup"))
        return _solve_op(files, "warmup", h, inst, mode, opt, "warmup")
    if workload == "target_analysis":
        return analysis_ops(files, load_recorded(workload), "reflexive-C5")[0]
    rec = load_recorded(workload)
    if workload == "dp_wide":
        key, h, inst, mode = dp_wide_item(0, 0)
    else:
        key, h, inst = fixed_target_item("windowed2", 0)
        mode = "ed"
        key = f"{key}-{mode}"
    return _recorded_solve(files, rec, key, h, inst, mode, "warmup")


# ---------------------------------------------------------------------------
# sparse_large: generated per seed, references computed here

TWO = gen.independent_reflexive(2)
P4 = gen.reflexive_path(4)
K3 = gen.irreflexive_k3()
SPARSE_SIZES = (250, 550, 900, 1400)
SPARSE_ROUND = tuple((kind, n) for kind in ("vd-multiway", "ed-stcut",
                                            "vd-p4tree", "ed-p4tree")
                     for n in SPARSE_SIZES) + (
    ("vd-ladder", 70), ("ed-ladder", 100), ("vd-ladder", 140))
TAILS = (("tail-vd-ladder-dp", 334), ("tail-vd-ladder-multiway", 500),
         ("tail-ed-ladder-cut", 1000))


def _terminals(rng, g):
    n, edges = g
    graph = nx.Graph(edges)
    graph.add_nodes_from(range(n))
    while True:
        s, t = rng.sample(range(n), 2)
        if not graph.has_edge(s, t) and nx.has_path(graph, s, t):
            return graph, s, t


def sparse_case(kind: str, n: int, rng):
    """(target, instance, mode, reference optimum) for one sparse op."""
    if kind == "vd-multiway":
        g = gen.sparse_graph(rng, n, n // 4)
        graph, s, t = _terminals(rng, g)
        return TWO, gen.vertex_multiway_instance(g, s, t), "vd", \
            nx.node_connectivity(graph, s, t)
    if kind == "ed-stcut":
        g = gen.sparse_graph(rng, n, n // 4)
        graph, s, t = _terminals(rng, g)
        return TWO, gen.st_cut_instance(g, s, t), "ed", \
            nx.edge_connectivity(graph, s, t)
    if kind in ("vd-p4tree", "ed-p4tree"):
        mode = kind[:2]
        _, edges = gen.random_tree(rng, n)
        inst = (n, edges, gen.random_lists(rng, n, 4, (1, 2, 3, 4)))
        return P4, inst, mode, gen.tree_optimum(P4, inst, mode)
    # ladders (3 x n grids) are bipartite, so full K3 lists cost nothing;
    # the cut ladders have one column of 3 row edges or vertices as optimum
    if kind in ("vd-ladder", "ed-ladder", "tail-vd-ladder-dp"):
        nv, edges = gen.grid(3, n)
        mode = "ed" if kind == "ed-ladder" else "vd"
        return K3, (nv, edges, gen.full_lists(nv, 3)), mode, 0
    if kind == "tail-vd-ladder-multiway":
        return TWO, gen.vertex_multiway_instance(*gen.ladder_with_terminals(n)), \
            "vd", 3
    if kind == "tail-ed-ladder-cut":
        return TWO, gen.st_cut_instance(*gen.ladder_with_terminals(n)), "ed", 3
    raise ValueError(kind)


def _sparse_rounds(rng, files):
    r = 0
    while True:
        cases = list(SPARSE_ROUND) + [TAILS[r % len(TAILS)]]
        rng.shuffle(cases)
        ops = []
        for j, (kind, n) in enumerate(cases):
            h, inst, mode, opt = sparse_case(kind, n, rng)
            ops.append(_solve_op(files, f"sl-{r}-{j}", h, inst, mode, opt,
                                 kind))
        yield ops
        r += 1

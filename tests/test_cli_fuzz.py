"""Seeded fuzz of every CLI command: small random inputs, some of them
mutated, must exit 0-3 with stdout laid out as
json.dumps(sort_keys=True, indent=2) lays it out."""

import json
import random
from collections import Counter

from lhomdel import cli, reductions
from lhomdel.graphs import format_instance, format_target
from lhomdel.treewidth import HubCore, build_td, format_core, format_td

import families


def _mutate(rng, text):
    """text with up to two edits, each inserting a line every reader
    skips (blank, whitespace only or a comment), dropping or repeating a
    line or setting one of its number tokens to 0, -1, a neighbour of its
    value, 7 or "x"."""
    lines = text.splitlines()
    for _ in range(rng.randint(0, 2)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        toks = lines[i].split()
        nums = [j for j, t in enumerate(toks) if t.lstrip("-").isdigit()]
        r = rng.random()
        if r < 0.15:
            lines.insert(i, rng.choice(["", " \t", "c", "c note", "cx 1 2"]))
        elif r < 0.35 or not nums:
            del lines[i]
        elif r < 0.5:
            lines.insert(i, lines[i])
        else:
            j = rng.choice(nums)
            toks[j] = rng.choice(["0", "-1", str(int(toks[j]) + 1),
                                  str(int(toks[j]) - 1), "7", "x"])
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def _classic(rng, kind):
    """A classic problem file of `kind` on 2-5 vertices: n, its lines and
    the indices of its id lines (source, sink, terminals, sides)."""
    n = rng.randint(2, 5)
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 0.4]
    lines = [f"p {kind} {n} {len(edges)}"]
    lines += [f"e {u} {v}" for u, v in edges]
    a, b = rng.sample(range(1, n + 1), 2)
    first = len(lines)
    lines += {"st-min-cut": [f"s {a}", f"t {b}"],
              "edge-multiway": [f"t {a}", f"t {b}"],
              "vertex-multiway": [f"t {a}", f"t {b}"],
              "max-cut": [f"l {a}", f"r {b}"],
              "oct": [f"l {a}", f"r {b}"]}.get(kind, [])
    id_lines = range(first, len(lines))
    if kind.startswith("coloring"):
        lines.append(f"q {rng.randint(1, 3)}")
    if rng.random() < 0.5:
        lines.append(f"k {rng.randint(0, 3)}")
    return n, lines, id_lines


def _ids(rng, n, count):
    """count vertex ids of a target on n vertices, one of them outside
    1..n now and then."""
    ids = [rng.randint(1, n) for _ in range(count)]
    if rng.random() < 0.2:
        ids[rng.randrange(count)] = rng.choice([0, n + 1])
    return ids


def test_cli_fuzz(tmp_path, capsys):
    rng = random.Random(28)
    seen = Counter()

    def put(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3), (argv, out)
        assert out == json.dumps(json.loads(out), sort_keys=True,
                                 indent=2) + "\n", argv
        seen[argv[0], code] += 1

    # random targets, and named ones on which more gadgets exist
    named = [families.independent_reflexive(3), families.reflexive_cycle(4),
             families.reflexive_path(4), families.irreflexive_kq(3)]
    for k in range(100):
        h = (rng.choice(named) if rng.random() < 0.3
             else families.random_target(rng, rng.randint(1, 4)))
        text = format_target(h)
        t = put("h.hg", _mutate(rng, text) if rng.random() < 0.2 else text)
        run(["classify", t])
        for _ in range(3):
            inst = families.random_instance(rng, h, rng.randint(0, 6))
            inst.budget = rng.choice([None, rng.randint(0, 4)])
            text = format_instance(inst)
            i = put("g.lhi", _mutate(rng, text) if rng.random() < 0.3
                    else text)
            argv = ["solve", rng.choice(["vd", "ed"]), t, i, "--algo",
                    rng.choice(["auto", "poly", "dp", "oracle"])]
            r = rng.random()
            if r < 0.25:
                td = format_td(build_td(inst), inst.n)
                argv += ["--td", put("g.td", _mutate(rng, td))]
            elif r < 0.5:
                q = frozenset(rng.sample(range(inst.n),
                                         rng.randint(0, inst.n)))
                core = format_core(HubCore(q, rng.randint(0, 4),
                                           rng.randint(0, 4)))
                argv += ["--core", put("g.core", _mutate(rng, core))]
            run(argv)
        kind = list(cli._GADGETS)[k % len(cli._GADGETS)]
        argv = ["gadget", kind, t, "--search-budget", "2"]
        for name in cli._GADGETS[kind][0]:
            count = {"set": rng.randint(1, 3), "vertex": 1}.get(name, 2)
            argv += [f"--{name}"] + [str(v) for v in _ids(rng, h.n, count)]
        run(argv + ["--verify"] * (rng.random() < 0.5))
    # every classic kind with each of its ids at 0 and at n + 1, then
    # randomly mutated files
    for kind in reductions.KINDS:
        for _ in range(4):
            n, lines, id_lines = _classic(rng, kind)
            for j in id_lines:
                for bad in (0, n + 1):
                    edited = lines[:j] + [f"{lines[j][0]} {bad}"] + \
                        lines[j + 1:]
                    run(["reduce", put("c.cls", "\n".join(edited) + "\n")])
            run(["reduce", put("c.cls", _mutate(rng, "\n".join(lines)))])
    # H_3, whose ED split tree is three levels deep: lists kept inside its
    # first six vertices leave every peeled part without an instance vertex
    h = families.peeled_family(3)
    t = put("h.hg", format_target(h))
    for _ in range(30):
        inst = families.random_instance(rng, h, rng.randint(0, 6))
        if rng.random() < 0.7:
            inst.lists = [lst & frozenset(range(6)) or frozenset({3})
                          for lst in inst.lists]
        text = format_instance(inst)
        i = put("g.lhi", _mutate(rng, text) if rng.random() < 0.2 else text)
        run(["solve", "ed", t, i, "--algo", rng.choice(["auto", "dp"])])
    assert sum(seen.values()) > 450
    # each command both succeeds and fails
    for command in ("classify", "solve", "gadget", "reduce"):
        assert {code for (c, code) in seen if c == command} > {0}, command

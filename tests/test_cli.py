import hashlib
import json
import os
import random
import subprocess
import sys

from lhomdel import analysis, cli, dpsolve, polysolve
from lhomdel.graphs import (Instance, format_instance, format_target,
                            parse_instance)

import families


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


TARGET_C5 = format_target(families.reflexive_cycle(5))
TARGET_RK2 = format_target(families.reflexive_clique(2))
INSTANCE = """p lhom 4 3
e 1 2
e 2 3
e 3 4
l 1 1 1
l 4 1 3
k 2
"""


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_classify(tmp_path, capsys):
    t = _write(tmp_path, "h.hg", TARGET_C5)
    code, out = _run(capsys, ["classify", t])
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["vd"] == "np-hard" and rep["ed"] == "np-hard"


def test_output_is_deterministic(tmp_path, capsys):
    t = _write(tmp_path, "h.hg", TARGET_C5)
    i = _write(tmp_path, "g.lhi", INSTANCE)
    outs = []
    for _ in range(2):
        code, out = _run(capsys, ["solve", "vd", t, i])
        assert code == cli.EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]


def test_solve_reports_decision(tmp_path, capsys):
    t = _write(tmp_path, "h.hg", TARGET_C5)
    i = _write(tmp_path, "g.lhi", INSTANCE)
    for mode in ("vd", "ed"):
        code, out = _run(capsys, ["solve", mode, t, i])
        assert code == cli.EXIT_OK
        rep = json.loads(out)
        assert rep["mode"] == mode and "decision" in rep
        assert rep["decision"] == (rep["opt"] <= 2)


def test_solve_algorithms_agree(tmp_path, capsys):
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 3 2\ne 1 2\ne 2 3\nl 1 1 1\n")
    opts = set()
    for algo in ("auto", "poly", "dp", "oracle"):
        code, out = _run(capsys, ["solve", "vd", t, i, "--algo", algo])
        assert code == cli.EXIT_OK
        opts.add(json.loads(out)["opt"])
    assert len(opts) == 1


def test_poly_precondition_exit_code(tmp_path, capsys):
    t = _write(tmp_path, "h.hg", TARGET_C5)  # np-hard target
    i = _write(tmp_path, "g.lhi", "p lhom 1 0\n")
    for mode in ("vd", "ed"):
        code, out = _run(capsys, ["solve", mode, t, i, "--algo", "poly"])
        assert code == cli.EXIT_PRECONDITION
        rep = json.loads(out)
        assert rep["error"] == "precondition"
        assert "requires a Poly-classified target" in rep["detail"]


def test_table_cap_exit_code(tmp_path, capsys):
    # K13 with full lists over the irreflexive triangle: min-fill's first
    # bag holds all 13 vertices, a vd table of 4^13 entries
    t = _write(tmp_path, "h.hg", format_target(families.irreflexive_kq(3)))
    edges = [f"e {u} {v}" for u in range(1, 14) for v in range(u + 1, 14)]
    i = _write(tmp_path, "g.lhi",
               "\n".join([f"p lhom 13 {len(edges)}"] + edges) + "\n")
    code, out = _run(capsys, ["solve", "vd", t, i, "--algo", "dp"])
    assert code == cli.EXIT_PRECONDITION
    assert json.loads(out)["error"] == "precondition"


def test_long_path_poly_solve(tmp_path, capsys):
    # two loops, no edge: a path from list {1} to list {2} loses one vertex;
    # the flow search walks all 3000 vertices in one augmenting path
    t = _write(tmp_path, "h.hg", "h 2\ne 1 1\ne 2 2\n")
    n = 3000
    lines = [f"p lhom {n} {n - 1}"] + [f"e {v} {v + 1}" for v in range(1, n)]
    lines += ["l 1 1 1", f"l {n} 1 2"]
    i = _write(tmp_path, "g.lhi", "\n".join(lines) + "\n")
    code, out = _run(capsys, ["solve", "vd", t, i, "--algo", "poly"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["opt"] == 1


def test_infeasible_exit_code(tmp_path, capsys):
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 1 0\nl 1 0\n")
    code, out = _run(capsys, ["solve", "ed", t, i])
    assert code == cli.EXIT_INFEASIBLE
    assert json.loads(out)["error"] == "infeasible"


def test_infeasible_exit_code_on_the_split_path(tmp_path, capsys,
                                                monkeypatch):
    # the windowed target is hard and decomposable, so auto splits it
    h = families.windowed_family(2)
    assert analysis.decomposition_tree(h).local_decomposition is not None

    def unreached(*args):
        raise AssertionError("the split path should refuse the instance")

    monkeypatch.setattr(dpsolve, "solve_ed_dp", unreached)
    monkeypatch.setattr(polysolve, "solve_ed_poly", unreached)
    t = _write(tmp_path, "h.hg", format_target(h))
    i = _write(tmp_path, "g.lhi", "p lhom 3 2\ne 1 2\ne 2 3\nl 2 0\n")
    code, out = _run(capsys, ["solve", "ed", t, i])
    assert code == cli.EXIT_INFEASIBLE
    assert json.loads(out)["error"] == "infeasible"


def test_empty_instance_has_width_zero(tmp_path, capsys):
    # one empty bag (built) and no bag at all (given) both have width 0
    t = _write(tmp_path, "h.hg", TARGET_C5)
    i = _write(tmp_path, "g.lhi", "p lhom 0 0\n")
    td = _write(tmp_path, "g.td", "s td 0 0 0\n")
    widths = []
    for extra in ([], ["--td", td]):
        code, out = _run(capsys, ["solve", "vd", t, i, "--algo", "dp"]
                         + extra)
        assert code == cli.EXIT_OK
        widths.append(json.loads(out)["stats"]["width"])
    assert widths == [0, 0]


def test_parse_error_exit_codes(tmp_path, capsys):
    code, out = _run(capsys, ["classify", str(tmp_path / "missing.hg")])
    assert code == cli.EXIT_PARSE
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 1 0\ne 1 1\n")
    code, out = _run(capsys, ["solve", "vd", t, i])
    assert code == cli.EXIT_PARSE
    # negative header counts are malformed input, not a failed precondition
    i = _write(tmp_path, "g.lhi", "p lhom -1 0\n")
    code, out = _run(capsys, ["solve", "vd", t, i])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["detail"] == "line 1: negative count"
    i = _write(tmp_path, "g.lhi", "p lhom 2 1\ne 1 2\n")
    td = _write(tmp_path, "g.td", "s td -1 2 2\n")
    code, out = _run(capsys, ["solve", "vd", t, i, "--td", td, "--algo",
                              "dp"])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["detail"] == "line 1: negative count"


def test_malformed_edge_lines_exit_code(tmp_path, capsys):
    # parse_instance is the only edge check of a parsed instance
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    for text, detail in (
            ("p lhom 2 1\ne 1 3\n", "line 2: edge out of range"),
            ("p lhom 2 1\ne 0 1\n", "line 2: edge out of range"),
            ("p lhom 2 1\ne 2 2\n", "line 2: loops not allowed"),
            ("p lhom 2 2\ne 1 2\nc x\ne 2 1\n", "line 4: parallel edge"),
            ("p lhom 2 1\ne 1 x\n", "line 2: malformed line"),
            ("p lhom 2 1\ne 1\n", "line 2: malformed edge"),
            ("e 1 2\np lhom 2 1\n", "line 1: edge before header")):
        i = _write(tmp_path, "g.lhi", text)
        for mode in ("vd", "ed"):
            code, out = _run(capsys, ["solve", mode, t, i])
            assert code == cli.EXIT_PARSE
            assert json.loads(out) == {"error": "parse", "detail": detail}


def test_unreadable_files_exit_codes(tmp_path, capsys):
    # an input that cannot be read or decoded is a parse error, like a
    # missing one; an output that cannot be written is a precondition
    t = _write(tmp_path, "h.hg",
               format_target(families.independent_reflexive(3)))
    missing = str(tmp_path / "missing.hg")
    code, out = _run(capsys, ["classify", missing])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["detail"] == \
        f"[Errno 2] No such file or directory: '{missing}'"
    code, out = _run(capsys, ["classify", str(tmp_path)])
    assert code == cli.EXIT_PARSE
    assert "Is a directory" in json.loads(out)["detail"]
    i = tmp_path / "g.lhi"
    i.write_bytes(b"p lhom 1 0\nc \xff\n")
    code, out = _run(capsys, ["solve", "vd", t, str(i)])
    assert code == cli.EXIT_PARSE
    assert "can't decode byte 0xff" in json.loads(out)["detail"]
    c = _write(tmp_path, "vc.cls", "p vertex-cover 2 1\ne 1 2\nk 1\n")
    for argv in (["gadget", "s-prohibitor", t, "--set", "1", "2",
                  "--out", str(tmp_path)],
                 ["reduce", c, "--target-out", str(tmp_path)],
                 ["reduce", c, "--instance-out", str(tmp_path)]):
        code, out = _run(capsys, argv)
        assert code == cli.EXIT_PRECONDITION, argv
        assert "Is a directory" in json.loads(out)["detail"]


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    # main() parses every call with one parser; nothing of a call's
    # options may reach the next
    t = _write(tmp_path, "h.hg",
               format_target(families.independent_reflexive(3)))
    code, out = _run(capsys, ["gadget", "splitter", t, "--set", "1", "2",
                              "--vertex", "1"])
    assert code == cli.EXIT_OK
    code, out = _run(capsys, ["gadget", "splitter", t, "--vertex", "1"])
    assert code == cli.EXIT_PRECONDITION
    assert json.loads(out)["detail"] == "gadget splitter needs --set"
    # one bag of all four path vertices has width 3; min-fill finds 1
    t = _write(tmp_path, "c5.hg", TARGET_C5)
    i = _write(tmp_path, "g.lhi", "p lhom 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    td = _write(tmp_path, "g.td", "s td 1 4 4\nb 1 1 2 3 4\n")
    widths = []
    for extra in (["--td", td], []):
        code, out = _run(capsys, ["solve", "vd", t, i, "--algo", "dp"]
                         + extra)
        assert code == cli.EXIT_OK
        widths.append(json.loads(out)["stats"]["width"])
    assert widths == [3, 1]


def _report_by_json_dumps(sol, budget):
    """The solve report as json.dumps(indent=2) writes the whole of it."""
    out = {"mode": sol.mode, "opt": sol.cost,
           "deleted": ([v + 1 for v in sol.deleted] if sol.mode == "vd"
                       else [[u + 1, v + 1] for u, v in sol.deleted]),
           "homomorphism": {str(v + 1): img + 1 for v, img in sol.hom.items()},
           "algorithm": sol.algorithm, "stats": sol.stats}
    if budget is not None:
        out["decision"] = sol.cost <= budget
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def test_solve_output_matches_json_dumps(tmp_path, capsys):
    # the reflexive K3 takes the poly path, the reflexive C5 the DP, and
    # windowed2 in ed the split; 10-16 vertices order "10" before "2"
    rng = random.Random(17)
    seen = set()
    for name, h in (("k3", families.reflexive_clique(3)),
                    ("c5", families.reflexive_cycle(5)),
                    ("w2", families.windowed_family(2))):
        t = _write(tmp_path, f"{name}.hg", format_target(h))
        insts = [families.random_instance(rng, h, rng.randint(10, 16))
                 for _ in range(4)]
        insts[0].lists = [frozenset(range(h.n))] * insts[0].n
        insts.append(parse_instance("p lhom 0 0\n", h))
        for k, inst in enumerate(insts):
            inst.budget = rng.choice([None, rng.randint(0, 6)])
            i = _write(tmp_path, f"{name}-{k}.lhi", format_instance(inst))
            for mode in ("vd", "ed"):
                code, out = _run(capsys, ["solve", mode, t, i])
                assert code == cli.EXIT_OK
                sol = cli._SOLVERS[(mode, "auto")](h, inst)
                assert out == _report_by_json_dumps(sol, inst.budget)
                seen.add((mode, tuple(sorted(sol.stats)), bool(sol.deleted),
                          len(sol.hom) >= 10, inst.budget is None))
    assert {s[1] for s in seen} == {("flow_value",), ("forced", "parts"),
                                    ("max_bag_states", "width")}
    for mode in ("vd", "ed"):
        for flag in (2, 3, 4):
            assert {s[flag] for s in seen if s[0] == mode} == {False, True}


# SHA-256 of `solve <mode> ... --algo dp` stdout on four fixed instances
# of width 4-6: any change to the optimum, to the witness chosen among
# tied optima or to stats.max_bag_states shows here
DP_OUTPUT_SHA256 = {
    ("k3-grid5x8", "vd"):
        "c13e2ed47462faa91efe31e1d6ff9cb6f35e566666b0357dd150fd8fbc89ec85",
    ("k3-grid5x8", "ed"):
        "db2e03e93797d49f07ed708df43c0401873b750c71a2dc90985908398be57ed3",
    ("indep3-ktree5", "vd"):
        "df33f739d542afbf41c4f69b76f37b109c8ac4e9865d810f926a47aaa93d15de",
    ("indep3-ktree5", "ed"):
        "661f1f9ac033454eb35dbb2b99c8332aa17008702a2014d6841b74d273a01f2c",
    ("c5-trigrid4x10", "vd"):
        "66fb202a91c9330dbcf7550532f031359591a4d808e655daf8fbfadde44af7c4",
    ("c5-trigrid4x10", "ed"):
        "8f1998c5836d4c83c7f20301f7de976b7bd2a459fc279c870e605d3e73bcdb69",
    ("k3-ktree6", "vd"):
        "04d7706cc15e3f3db50ba50eb0e243e8ea8c8ed3bfb0e133c678c0c54fb51bbd",
    ("k3-ktree6", "ed"):
        "51c133a3ecd78c30902bf796803f72984661afb740aae30978cd376959d26b4f",
}


def test_dp_solve_outputs_are_pinned(tmp_path, capsys):
    rng = random.Random(19)
    cases = {
        "k3-grid5x8": (families.irreflexive_kq(3), families.grid(5, 8)),
        "indep3-ktree5": (families.independent_reflexive(3),
                          families.partial_ktree(rng, 40, 5)),
        "c5-trigrid4x10": (families.reflexive_cycle(5),
                           families.grid(4, 10, True)),
        "k3-ktree6": (families.irreflexive_kq(3),
                      families.partial_ktree(rng, 36, 6)),
    }
    widths = set()
    for name, (h, (n, edges)) in cases.items():
        lists_rng = random.Random(name)
        inst = Instance(n, edges, [
            frozenset(lists_rng.sample(range(h.n),
                                       lists_rng.choice((1, 2, 2, 3))))
            for _ in range(n)])
        t = _write(tmp_path, f"{name}.hg", format_target(h))
        i = _write(tmp_path, f"{name}.lhi", format_instance(inst))
        for mode in ("vd", "ed"):
            code, out = _run(capsys, ["solve", mode, t, i, "--algo", "dp"])
            assert code == cli.EXIT_OK
            widths.add(json.loads(out)["stats"]["width"])
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == DP_OUTPUT_SHA256[name, mode], (name, mode)
    assert widths == {4, 5, 6}


# SHA-256 of `lhomdel classify` stdout; the random targets (13-16
# vertices) take their decomposition trees from the split detector
CLASSIFY_SHA256 = {
    "windowed2":
        "7b75d1efe1829b09334306ac62ed12aa497f6957e2178a4dbbe8aba795ff124f",
    "windowed3":
        "f9092204fb46833a6b61b651f5208cbe1f27663cbaa80b5379108fccc6232012",
    "windowed4":
        "bfd0742676c955e6f5d27884ae76de918aa1d691e1a51a7e13d07e3219576915",
    "crossing2":
        "7f04fba16b64d6db6d9531ee2344771214d9dd4fc3779289fada3803b0dabef7",
    "crossing3":
        "db4f3bb42d6519f670a0e04369cf912fdbf7b5318a83b2599c4dff87bb8b3081",
    "refl-cycle6":
        "2d50bd71da4bbf3bdbc15e2319138243d5be73325fad65b58c339994d2aeed90",
    "refl-cycle7":
        "e3d5b7a44003e431aba500574dced3995d8f29acbf5d165d0dccce79e755d597",
    "refl-cycle8":
        "453cf6e32ff57772afb8cf1b2d72fd8a4d4664973047c096f9008e81d6b6cc30",
    "random13":
        "987c66ec419fa540fd679e9799ed8c6d8e696005402e34b5933dcf9d5b36eccf",
    "random14":
        "b1314065ac445524fe0a23737a4a61f674c129ce98a6000095c0a7815f5bc6cf",
    "random15":
        "fe0e3c66ed8eadf27c0082b27a6dee8984f93e74a2b8d1ca17cd52ced1e13dbd",
    "random16":
        "b543445e0e3fdb5ac9597359166a5d6a9bcb564b07b221bde1cc626504c3bb7b",
}


def test_classify_outputs_are_pinned(tmp_path, capsys):
    """Any change to an obstruction, its witnesses, i*, its witness or a
    decomposition tree shows here."""
    targets = {f"windowed{k}": families.windowed_family(k) for k in (2, 3, 4)}
    targets |= {f"crossing{k}": families.crossing_family(k) for k in (2, 3)}
    targets |= {f"refl-cycle{q}": families.reflexive_cycle(q)
                for q in (6, 7, 8)}
    # an irreflexive edge, a private and two co-private obstructions;
    # trees two or three levels deep
    for n, loop_p, edge_p, s in ((13, 0.8, 0.8, 2), (14, 0.5, 0.2, 0),
                                 (15, 0.8, 0.8, 0), (16, 0.5, 0.2, 1)):
        targets[f"random{n}"] = families.random_target(
            random.Random(f"classify:{n}:{s}"), n, loop_p, edge_p)
    for name, h in targets.items():
        t = _write(tmp_path, f"{name}.hg", format_target(h))
        code, out = _run(capsys, ["classify", t])
        assert code == cli.EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == CLASSIFY_SHA256[name], name


# SHA-256 of `lhomdel gadget <kind> ... --verify` stdout on four corpus
# targets: each s-prohibitor's table is too large to verify, each move's
# is recomputed by elimination (the random target's has 17 vertices and
# 7.9e6 assignments)
GADGET_VERIFY_SHA256 = {
    ("windowed2", "s-prohibitor --set 6 7 8"):
        "e7ee701a8d02dc4a287b5dd039e822fcbeff76806c2c23d9ff326d6d34f1eb94",
    ("windowed2", "move --pair 1 2 --dest 3 5"):
        "a4f804545c24af679c648e4506eae0691dd89bb021672ce34788456fefcfb92a",
    ("crossing2", "s-prohibitor --set 2 6"):
        "c7ffb4c4a5658a2c613caaa79df706ade94066f55c022206f1832e45aec889ef",
    ("crossing2", "move --pair 2 6 --dest 9 10"):
        "5a696db43db9ad021ffc5bd00c0a8244f51e6f1000defa32b4cce92d94e204c5",
    ("refl-cycle6", "s-prohibitor --set 1 2 3"):
        "093974a2204968ac8cb6fddf4cbd1494a2d69844b8e0e38d82df91a63ef0f978",
    ("refl-cycle6", "move --pair 1 2 --dest 5 6"):
        "aa4204b53b365aee17ced50354eb3e1acd9547c9fb989ce630e0ea494ab3c73a",
    ("random-10-1", "s-prohibitor --set 1 2 3"):
        "3ae7fe401f120ff977c94b6af0c4ecf4dc7274c3fac673ddba417efddfc4054e",
    ("random-10-1", "move --pair 1 2 --dest 9 10"):
        "8e41bc3fb8bedccc72fa1ab7cd88c2d549321a52c49fab02cfab96ddd073be45",
}


def test_gadget_verify_outputs_are_pinned(tmp_path, capsys):
    """Any change to a gadget, its report or its verified table shows
    here."""
    targets = {"windowed2": families.windowed_family(2),
               "crossing2": families.crossing_family(2),
               "refl-cycle6": families.reflexive_cycle(6),
               "random-10-1": families.random_target(
                   random.Random("target_analysis:10:1"), 10)}
    for (name, args), want in GADGET_VERIFY_SHA256.items():
        t = _write(tmp_path, f"{name}.hg", format_target(targets[name]))
        kind, *rest = args.split()
        code, out = _run(capsys, ["gadget", kind, t] + rest + ["--verify"])
        assert code == cli.EXIT_OK
        if kind == "move":
            assert json.loads(out)["verified"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == want, (name, kind)


def test_repeated_record_exit_code(tmp_path, capsys):
    # a second `l` line for a vertex, or a second `k` line, is refused
    # with its line number instead of replacing the first
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    for text, detail in (
            ("p lhom 1 0\nl 1 1 1\nl 1 1 2\n", "line 3: duplicate list"),
            ("p lhom 1 0\nk 1\nk 5\n", "line 3: duplicate budget")):
        i = _write(tmp_path, "g.lhi", text)
        for mode in ("vd", "ed"):
            code, out = _run(capsys, ["solve", mode, t, i])
            assert code == cli.EXIT_PARSE
            assert json.loads(out)["detail"] == detail


def test_td_bag_vertex_above_range(tmp_path, capsys):
    # a PACE bag naming vertex 4 of a 2-vertex instance
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 2 1\ne 1 2\n")
    td = _write(tmp_path, "g.td", "s td 1 3 2\nb 1 1 2 4\n")
    code, out = _run(capsys, ["solve", "vd", t, i, "--td", td, "--algo",
                              "dp"])
    assert code == cli.EXIT_PRECONDITION
    assert json.loads(out)["error"] == "precondition"


def test_td_header_must_match_the_file(tmp_path, capsys):
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 2 1\ne 1 2\n")
    for text, detail in (
            # width+1 of 9 against a largest bag of 2
            ("s td 1 9 2\nb 1 1 2\n",
             "line 1: width+1 is 9, but the largest bag has 2 vertices"),
            ("s td 1 1 2\nb 1 1 2\n",
             "line 1: width+1 is 1, but the largest bag has 2 vertices"),
            # bag 2 is announced but never given
            ("s td 2 2 2\nb 1 1 2\n", "line 1: bag 2 has no b line")):
        td = _write(tmp_path, "g.td", text)
        for algo in ("dp", "auto"):
            code, out = _run(capsys, ["solve", "vd", t, i, "--td", td,
                                      "--algo", algo])
            assert code == cli.EXIT_PARSE
            assert json.loads(out) == {"error": "parse", "detail": detail}


def test_td_header_vertex_count_must_match_the_instance(tmp_path, capsys):
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 2 1\ne 1 2\n")
    for n in (1, 3, 99):
        td = _write(tmp_path, "g.td", f"s td 1 2 {n}\nb 1 1 2\n")
        for mode in ("vd", "ed"):
            code, out = _run(capsys, ["solve", mode, t, i, "--td", td,
                                      "--algo", "dp"])
            assert code == cli.EXIT_PRECONDITION
            assert json.loads(out) == {
                "error": "precondition",
                "detail": f"the decomposition is for {n} vertices, the "
                          f"instance has 2"}
    td = _write(tmp_path, "g.td", "s td 1 2 2\nb 1 1 2\n")
    code, out = _run(capsys, ["solve", "vd", t, i, "--td", td, "--algo",
                              "dp"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["stats"]["width"] == 1


def test_td_bag_vertex_zero(tmp_path, capsys):
    # PACE vertex ids start at 1, so a bag naming vertex 0 is malformed
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 2 1\ne 1 2\n")
    td = _write(tmp_path, "g.td", "s td 1 3 2\nb 1 0 1 2\n")
    code, out = _run(capsys, ["solve", "vd", t, i, "--td", td, "--algo",
                              "dp"])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"] == "parse"


def test_td_errors_name_file_ids(tmp_path, capsys):
    # the path 1-2-3; every detail names bags, vertices and edges as the
    # decomposition file does, from 1
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 3 2\ne 1 2\ne 2 3\n")
    for text, detail in (
            ("s td 2 2 3\nb 1 1 2\nb 2 2 9\n1 2\n",
             "bag 2 names vertex 9, outside the graph's 3 vertices"),
            ("s td 1 2 3\nb 1 1 2\n", "vertex 3 is in no bag"),
            ("s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n",
             "edge (2, 3) is in no bag"),
            ("s td 3 2 3\nb 1 1 2\nb 2 2 3\nb 3 1\n1 2\n2 3\n",
             "bags containing vertex 1 are disconnected")):
        td = _write(tmp_path, "g.td", text)
        for algo in ("auto", "dp"):
            code, out = _run(capsys, ["solve", "vd", t, i, "--td", td,
                                      "--algo", algo])
            assert code == cli.EXIT_PRECONDITION, (text, algo)
            assert json.loads(out) == {"error": "precondition",
                                       "detail": detail}
    # a tree-edge endpoint below 1 is malformed, as a bag vertex below 1 is
    for line in ("0 1", "1 0", "-1 2"):
        td = _write(tmp_path, "g.td",
                    f"s td 2 2 3\nb 1 1 2\nb 2 2 3\n{line}\n")
        code, out = _run(capsys, ["solve", "vd", t, i, "--td", td])
        assert code == cli.EXIT_PARSE
        assert json.loads(out) == {"error": "parse",
                                   "detail": "line 4: bag ids start at 1"}


def test_td_tree_edge_above_bag_count(tmp_path, capsys):
    # a tree edge naming bag 3 of 2 is malformed, as a b line for bag 3 is;
    # the detail names the line, wherever the edge stands in the file
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 3 2\ne 1 2\ne 2 3\n")
    above = "tree edge names bag 3, but there are 2 bags"
    for text, detail in (
            ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 3\n", f"line 4: {above}"),
            ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n3 2\n", f"line 4: {above}"),
            ("1 3\ns td 2 2 3\nb 1 1 2\nb 2 2 3\n", f"line 1: {above}"),
            ("s td 2 2 3\nb 1 1 2\nb 3 2 3\n", "line 3: bad bag index 3")):
        td = _write(tmp_path, "g.td", text)
        for algo in ("auto", "dp"):
            code, out = _run(capsys, ["solve", "vd", t, i, "--td", td,
                                      "--algo", algo])
            assert code == cli.EXIT_PARSE, (text, algo)
            assert json.loads(out) == {"error": "parse", "detail": detail}


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def crash(h, inst):
        raise RuntimeError("solver bug")

    monkeypatch.setitem(cli._SOLVERS, ("vd", "oracle"), crash)
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 1 0\n")
    code = cli.main(["solve", "vd", t, i, "--algo", "oracle"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert json.loads(out) == {"error": "internal",
                               "detail": "RuntimeError: solver bug"}
    assert "Traceback" in err and "RuntimeError: solver bug" in err


def test_cli_import_does_not_load_networkx():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, lhomdel.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


_NUMPY_PATHS = """
import contextlib, io, sys
from lhomdel import cli
t, i = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["classify", t]),
             cli.main(["solve", "vd", t, i, "--algo", "auto"]),
             cli.main(["solve", "ed", t, i, "--algo", "auto"])]
    before = "numpy" in sys.modules
    codes.append(cli.main(["solve", "vd", t, i, "--algo", "dp"]))
print(codes, before, "numpy" in sys.modules)
"""


def test_classify_and_poly_solves_do_not_load_numpy(tmp_path):
    # a reflexive clique is polynomial in both modes, so classify and both
    # auto solves run on plain ints; only the DP needs numpy
    t = _write(tmp_path, "h.hg", format_target(families.reflexive_clique(3)))
    i = _write(tmp_path, "g.lhi", INSTANCE)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", _NUMPY_PATHS, t, i],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0] False True"


def test_gadget_command(tmp_path, capsys):
    t = _write(tmp_path, "h.hg",
               format_target(families.independent_reflexive(3)))
    code, out = _run(capsys, ["gadget", "splitter", t, "--set", "1", "2",
                              "3", "--vertex", "1", "--verify"])
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["base_cost"] == 1 and rep["verified"] is True
    code, out = _run(capsys, ["gadget", "neq", t, "--pair", "1", "2"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["base_cost"] == 3
    code, out = _run(capsys, ["gadget", "move", t, "--pair", "1", "2",
                              "--dest", "2", "3"])
    assert code == cli.EXIT_OK
    forced = json.loads(out)["forced"]
    assert sorted(forced) == ["1", "2"]
    assert set(forced.values()) <= {2, 3}


def test_gadget_roundtrip_file(tmp_path, capsys):
    t = _write(tmp_path, "h.hg",
               format_target(families.independent_reflexive(3)))
    out_path = str(tmp_path / "g.gad")
    code, out = _run(capsys, ["gadget", "s-prohibitor", t, "--set", "1",
                              "2", "3", "--out", out_path])
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    with open(out_path) as f:
        assert f.read() == rep["gadget"]


def test_gadget_verify_keeps_the_enumeration_bound(tmp_path, capsys):
    # the s-prohibitor on three independent reflexive vertices has more
    # than 10^7 assignments; recorded outputs hold this answer
    t = _write(tmp_path, "h.hg",
               format_target(families.independent_reflexive(3)))
    code, out = _run(capsys, ["gadget", "s-prohibitor", t, "--set", "1",
                              "2", "3", "--verify"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["verified"] == "table too large to enumerate"


def test_reduce_command(tmp_path, capsys):
    c = _write(tmp_path, "vc.cls", "p vertex-cover 3 2\ne 1 2\ne 2 3\nk 1\n")
    tgt = str(tmp_path / "h.hg")
    ins = str(tmp_path / "g.lhi")
    code, out = _run(capsys, ["reduce", c, "--target-out", tgt,
                              "--instance-out", ins])
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["kind"] == "vertex-cover"
    code, out = _run(capsys, ["solve", "vd", tgt, ins])
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["opt"] == 1 and rep["decision"] is True


def test_reduce_edge_errors_name_the_file_line(tmp_path, capsys):
    for text, detail in (
            ("p vertex-cover 3 2\ne 1 2\ne 1 4\n", "line 3: bad edge (1,4)"),
            ("p vertex-cover 3 2\ne 1 2\nc x\ne 2 1\n",
             "line 4: parallel edge (2,1)"),
            ("p vertex-cover 3 2\ne 1 2\ne 3 3\n", "line 3: bad edge (3,3)")):
        c = _write(tmp_path, "g.cls", text)
        code, out = _run(capsys, ["reduce", c])
        assert code == cli.EXIT_PARSE
        assert json.loads(out) == {"error": "parse", "detail": detail}


def test_failed_reduce_leaves_no_output_file(tmp_path, capsys):
    # the target file is written first; when the instance file then cannot
    # be written, the target file goes too
    c = _write(tmp_path, "vc.cls", "p vertex-cover 2 1\ne 1 2\nk 1\n")
    tgt = tmp_path / "h.hg"
    code, out = _run(capsys, ["reduce", c, "--target-out", str(tgt),
                              "--instance-out", str(tmp_path)])
    assert code == cli.EXIT_PRECONDITION
    assert "Is a directory" in json.loads(out)["detail"]
    assert not tgt.exists()
    # a target file that was there before is not removed
    tgt.write_text("old")
    code, out = _run(capsys, ["reduce", c, "--target-out", str(tgt),
                              "--instance-out", str(tmp_path)])
    assert code == cli.EXIT_PRECONDITION
    assert tgt.exists()


def test_selftest_command(capsys):
    code, out = _run(capsys, ["selftest", "--seed", "3", "--count", "10"])
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["ok"] is True and rep["checks"]["vd"] == 10


def test_td_malformed_line_exit_code(tmp_path, capsys):
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 2 1\ne 1 2\n")
    for text in ("s td 1 2 2\nb 1 1 x\n", "s td 1 2 2\nb\n", "s\n"):
        td = _write(tmp_path, "g.td", text)
        code, out = _run(capsys, ["solve", "vd", t, i, "--td", td, "--algo",
                                  "dp"])
        assert code == cli.EXIT_PARSE
        assert json.loads(out)["error"] == "parse"


def test_td_validated_on_poly_path(tmp_path, capsys):
    # the reflexive K2 takes the poly path, which does not use the
    # decomposition; a bag naming vertex 5 of 2 is still refused
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 2 1\ne 1 2\n")
    td = _write(tmp_path, "g.td", "s td 1 3 2\nb 1 1 2 5\n")
    for mode in ("vd", "ed"):
        code, out = _run(capsys, ["solve", mode, t, i, "--td", td])
        assert code == cli.EXIT_PRECONDITION
        assert json.loads(out)["error"] == "precondition"


def test_gadget_argument_errors(tmp_path, capsys):
    t = _write(tmp_path, "h.hg",
               format_target(families.independent_reflexive(3)))
    for argv in (["splitter", t, "--vertex", "1"],  # no --set
                 ["matcher", t],  # no --pair
                 ["move", t, "--pair", "1", "3"],  # no --dest
                 ["splitter", t, "--set", "1", "9", "--vertex", "1"],
                 ["move", t, "--pair", "0", "1", "--dest", "2", "3"]):
        code, out = _run(capsys, ["gadget"] + argv)
        assert code == cli.EXIT_PRECONDITION, argv
        assert json.loads(out)["error"] == "precondition"


def test_long_ladder_dp_solve(tmp_path, capsys):
    # a 2 x 5000 ladder (10^4 vertices, width 2) is bipartite, so full
    # lists over the irreflexive triangle cost nothing in either mode
    t = _write(tmp_path, "h.hg", format_target(families.irreflexive_kq(3)))
    k = 5000
    edges = [(c, c + k) for c in range(1, k + 1)]
    edges += [(r + c, r + c + 1) for r in (0, k) for c in range(1, k)]
    lines = [f"p lhom {2 * k} {len(edges)}"]
    lines += [f"e {u} {v}" for u, v in edges]
    i = _write(tmp_path, "g.lhi", "\n".join(lines) + "\n")
    for mode in ("vd", "ed"):
        code, out = _run(capsys, ["solve", mode, t, i])
        assert code == cli.EXIT_OK
        rep = json.loads(out)
        assert rep["opt"] == 0 and rep["stats"]["width"] == 2

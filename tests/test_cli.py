import hashlib
import json
import os
import random
import subprocess
import sys
import time
import types

import pytest

from lhomdel import _kernels, analysis, cli, dpsolve, gadgets, polysolve
from lhomdel.graphs import (MAX_INSTANCE_VERTICES, MAX_TARGET_VERTICES,
                            Instance, TargetGraph, format_instance,
                            format_target, parse_instance, parse_target)
from lhomdel.reductions import parse_classic

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
    # two looped vertices, no edge; each optimum is unique, so every
    # algorithm prints one deletion set, ascending, each edge [lower,
    # higher]: an empty-list vertex and a separator vertex in vd, edges
    # written higher end first in ed
    t = _write(tmp_path, "two.hg", "h 2\ne 1 1\ne 2 2\n")
    cases = {"vd": ("p lhom 4 2\ne 1 2\ne 2 3\nl 1 1 1\nl 2 1 2\n"
                    "l 3 1 1\nl 4 0\n", [2, 4]),
             "ed": ("p lhom 3 2\ne 3 1\ne 2 1\nl 1 1 1\nl 3 1 2\n"
                    "l 2 1 2\n", [[1, 2], [1, 3]])}
    for mode, (text, deleted) in cases.items():
        i = _write(tmp_path, f"{mode}.lhi", text)
        for algo in ("auto", "poly", "dp", "oracle"):
            code, out = _run(capsys, ["solve", mode, t, i, "--algo", algo])
            assert code == cli.EXIT_OK
            assert json.loads(out)["deleted"] == deleted, (mode, algo)


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
    assert analysis.find_decomposition(h) is not None

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
    c = _write(tmp_path, "g.cls", "p vertex-cover -1 0\n")
    code, out = _run(capsys, ["reduce", c])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["detail"] == "line 1: negative count"
    for text, detail in (("q 1 -2 -5\n1\n", "line 1: negative count"),
                         ("q 2 3 1\nc x\n1 1\n",
                          "line 3: core vertex 1 repeated")):
        core = _write(tmp_path, "g.core", text)
        code, out = _run(capsys, ["solve", "vd", t, i, "--core", core])
        assert code == cli.EXIT_PARSE
        assert json.loads(out)["detail"] == detail


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


# one malformed .lhi file per parse_instance message, with the exit code and
# detail of `solve` on it, as recorded before the parse loop was reordered
LHI_ERRORS = (
    ("p lhom 2 0\np lhom 2 0\n", 2, "line 2: duplicate header"),
    ("p lhom 2\n", 2, "line 1: malformed header"),
    ("p lhm 2 0\n", 2, "line 1: malformed header"),
    ("p lhom 2 -1\n", 2, "line 1: negative count"),
    ("p lhom 2000000 0\n", 3, "line 1: the header announces 2000000 "
                              "vertices, above the cap of 1000000"),
    ("e 1 2\np lhom 2 1\n", 2, "line 1: edge before header"),
    ("p lhom 2 1\ne 1\n", 2, "line 2: malformed edge"),
    ("p lhom 2 1\ne 1 3\n", 2, "line 2: edge out of range"),
    ("p lhom 2 1\ne 2 2\n", 2, "line 2: loops not allowed"),
    ("p lhom 3 2\ne 1 2\ne 2 1\n", 2, "line 3: parallel edge"),
    ("l 1 1 1\np lhom 2 0\n", 2, "line 1: list before header"),
    ("p lhom 2 0\nl 3 1 1\n", 2, "line 2: vertex out of range"),
    ("p lhom 2 0\nl 1 2 1\n", 2, "line 2: list length mismatch"),
    ("p lhom 2 0\nl 1 1 3\n", 2, "line 2: list element out of range"),
    ("p lhom 2 0\nl 1 1 1\nl 1 1 2\n", 2, "line 3: duplicate list"),
    ("p lhom 2 0\nk\n", 2, "line 2: malformed budget"),
    ("p lhom 2 0\nk -1\n", 2, "line 2: negative budget"),
    ("p lhom 2 0\nk 1\nk 1\n", 2, "line 3: duplicate budget"),
    ("k 3\np lhom 1 0\n", 2, "line 1: budget before header"),
    ("p lhom 2 0\nx 1\n", 2, "line 2: unknown line 'x'"),
    ("p lhom 2 1\ne 1 x\n", 2, "line 2: malformed line"),
    ("p lhom 2 0\nl 1\n", 2, "line 2: malformed line"),
    ("c a comment only\n", 2, "missing `p lhom` header"),
    ("p lhom 2 2\ne 1 2\n", 2, "header announces 2 edges, found 1"),
    ("  c indented\n\t\ncx 1\n  p lhom 2 0 \n \tE 1 2\n", 2,
     "line 5: unknown line 'E'"),
)


def test_instance_parse_errors_are_pinned(tmp_path, capsys):
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    for text, code, detail in LHI_ERRORS:
        i = _write(tmp_path, "g.lhi", text)
        got, out = _run(capsys, ["solve", "vd", t, i])
        assert (got, json.loads(out)["detail"]) == (code, detail), text


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
# of width 3-6: any change to the optimum, to the witness chosen among
# tied optima or to stats.max_bag_states shows here
DP_OUTPUT_SHA256 = {
    ("k3-grid5x8", "vd"):
        "c13e2ed47462faa91efe31e1d6ff9cb6f35e566666b0357dd150fd8fbc89ec85",
    ("k3-grid5x8", "ed"):
        "1c0fefd3e96d330ffc0522600c9746ce51b9a36bd291916915506534e1795022",
    ("indep3-ktree5", "vd"):
        "df33f739d542afbf41c4f69b76f37b109c8ac4e9865d810f926a47aaa93d15de",
    ("indep3-ktree5", "ed"):
        "661f1f9ac033454eb35dbb2b99c8332aa17008702a2014d6841b74d273a01f2c",
    ("c5-trigrid4x10", "vd"):
        "6083e7f0f9a5498e8abdc6ac905606f357fa899a5c20b9afd6e0186a97fe777f",
    ("c5-trigrid4x10", "ed"):
        "37b06f0543d32a01b8329f9bb8c4597e9d85d1ea55e83e0d2854df116166c4eb",
    ("k3-ktree6", "vd"):
        "cfbb8f19db7e2d71599bae077b05cc456059164b12d9c888eec44ceeb01e29a7",
    ("k3-ktree6", "ed"):
        "23eb806c7f2f8de853acf812ee83769b3473b916fff46616813fb2d5ff8cac6c",
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
    got = {}
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
            got[name, mode] = hashlib.sha256(out.encode()).hexdigest()
    assert widths == {3, 4, 5, 6}
    assert got == DP_OUTPUT_SHA256  # names every changed pin at once


# SHA-256 of `lhomdel solve <mode> --algo poly` stdout on
# families.poly_cut_cases(400): any change to a flow network that moves a
# minimum cut, its least source side or a witness shows here
POLY_OUTPUT_SHA256 = {
    ("stcut", "ed"):
        "798cfbddbf1bb879e574fe2b13a4ab4da6790ddc7eb252aaf8f7443315a365de",
    ("multiway", "vd"):
        "45252486d5010728e9d884b3de82f8c6ac49792a5d57915ac36d2eaa7e40eb9f",
    ("p4tree", "vd"):
        "d8178cb85cccc1f50be45369060cc0f44756dc9786d7e6a90f53f821c4c97e84",
    ("p4tree", "ed"):
        "a5a5bf2f2c1220dbb83b4dc2175a68fad7c14ad1c7e172c0960b6c8f36eadfff",
    ("ladder", "ed"):
        "9c4c20b6fd548a722d5d5998edfadebfd4df59d8735078139a6c4e84b0e82b65",
    ("ladder", "vd"):
        "4516eb83cfe211b1f3343f2d5c6cc224d61be8ae5ed3183facd15690832b77f7",
}


def test_poly_solve_outputs_are_pinned(tmp_path, capsys):
    cases = families.poly_cut_cases(400)
    assert set(cases) == set(POLY_OUTPUT_SHA256)
    got = {}
    for (name, mode), (h, inst) in cases.items():
        t = _write(tmp_path, f"{name}-{mode}.hg", format_target(h))
        i = _write(tmp_path, f"{name}-{mode}.lhi", format_instance(inst))
        code, out = _run(capsys, ["solve", mode, t, i, "--algo", "poly"])
        assert code == cli.EXIT_OK
        got[name, mode] = hashlib.sha256(out.encode()).hexdigest()
    assert got == POLY_OUTPUT_SHA256  # names every changed pin at once


# SHA-256 of `lhomdel solve ed --algo auto` stdout on seeded partial 3-
# and 4-trees (20-60 vertices, lists of size 1-3) over three decomposable
# targets: the split leaves DP parts of at most 12 vertices, so any change
# to their decompositions that moves a witness shows here
SPLIT_OUTPUT_SHA256 = {
    ("windowed2", 0):
        "5f41c717ffcba776252059503c26d9004f4c872fa4e6533adae9818c5c00e277",
    ("windowed2", 1):
        "73036ed24fd51353664bf8f3401aaf2a50354209220575d841dbaf5bd6613f31",
    ("windowed2", 2):
        "389c6fe98b2fd76b905eb7da5e08235d77a2c1e20a87be4894777db1a989b4b8",
    ("windowed2", 3):
        "f003869bcfcb783bbd116877184511870ef9a6b03d9f712aceaccd832d30fc74",
    ("windowed3", 0):
        "542e02d8e82e7954b7cf71fddae7261d23180885705f1458ce4633669fd19ba3",
    ("windowed3", 1):
        "a5b98cbd98af56839cee69ec1599da82d76877ca7f1a547565f64acdea0c5300",
    ("windowed3", 4):
        "12b2664cb49684423f41e15d8e3662d32ebb0e3c93914cc9a4edc674891132ad",
    ("windowed3", 5):
        "0f6446f15f80f54d7c13c301fe5e354e3d8c431009f31e401c28828d9c94db3b",
    ("crossing2", 0):
        "ef18b5540b6eb701f20eff19154cf05718a2fb734b0c03d635a9b811b20b7c21",
    ("crossing2", 1):
        "2e9db38fb5e19da6271a2a452b39c9a777d8aaa586f6a03db7739a3067d9abaf",
    ("crossing2", 2):
        "512d6f0004d295c4a51eaabe3190b874d904eae158aa437b1138cd991e233cd6",
    ("crossing2", 3):
        "e4c35ffa355ef676d33363765bbc7e1f1c05cdfd3d71ca90c41a10e04b38ec43",
}


def test_ed_split_solve_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    parts = []  # vertex count of each DP part the split reaches
    dp = dpsolve.solve_ed_dp

    def recorded(h, inst, td=None):
        parts.append(inst.n)
        return dp(h, inst, td)

    monkeypatch.setattr(dpsolve, "solve_ed_dp", recorded)
    targets = {"windowed2": families.windowed_family(2),
               "windowed3": families.windowed_family(3),
               "crossing2": families.crossing_family(2)}
    got = {}
    for name, i in SPLIT_OUTPUT_SHA256:
        h = targets[name]
        rng = random.Random(f"split-pin:{name}:{i}")
        n, edges = families.partial_ktree(rng, rng.randint(20, 60),
                                          rng.choice((3, 4)), 0.6)
        inst = Instance(n, edges, [
            frozenset(rng.sample(range(h.n), rng.randint(1, 3)))
            for _ in range(n)])
        t = _write(tmp_path, f"{name}.hg", format_target(h))
        g = _write(tmp_path, f"{name}-{i}.lhi", format_instance(inst))
        parts.clear()
        code, out = _run(capsys, ["solve", "ed", t, g, "--algo", "auto"])
        assert code == cli.EXIT_OK
        assert parts and max(parts) <= 12, (name, i, parts)
        assert json.loads(out)["stats"]["parts"] == 2
        got[name, i] = hashlib.sha256(out.encode()).hexdigest()
    assert got == SPLIT_OUTPUT_SHA256  # names every changed pin at once


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
    got = {}
    for name, h in targets.items():
        t = _write(tmp_path, f"{name}.hg", format_target(h))
        code, out = _run(capsys, ["classify", t])
        assert code == cli.EXIT_OK
        got[name] = hashlib.sha256(out.encode()).hexdigest()
    assert got == CLASSIFY_SHA256  # names every changed pin at once


def test_classify_writer_is_json_dumps(tmp_path, capsys):
    """cmd_classify writes the tree itself; its stdout is json.dumps's on
    the families corpus and on random targets."""
    rng = random.Random(30)
    targets = [h for _, h, _, _ in families.DICHOTOMY_CORPUS]
    targets += [families.windowed_family(k) for k in (1, 2, 3)]
    targets += [families.crossing_family(k) for k in (1, 2)]
    targets += [families.random_target(rng, rng.randint(1, 16),
                                       loop_p=rng.random(),
                                       edge_p=rng.random())
                for _ in range(200)]
    for h in targets:
        t = _write(tmp_path, "h.hg", format_target(h))
        code, out = _run(capsys, ["classify", t])
        assert code == cli.EXIT_OK
        assert out == json.dumps(analysis.classification_json(h),
                                 sort_keys=True, indent=2) + "\n", h.nbhd


def test_tree_writer_has_no_depth_limit(monkeypatch):
    """A tree 600 levels deep, beyond json.dumps's recursion, written as
    json.dumps would write it."""
    tree = node = {}
    for d in range(1, 601):
        leaf = {"vertices": [d], "decomposition": None, "children": []}
        node.update(vertices=[d, d + 1],
                    decomposition={"a": [d + 1], "b": [], "c": [d]},
                    children=[{}, leaf])
        node = node["children"][0]
    node.update(vertices=[601], decomposition=None, children=[])
    with pytest.raises(RecursionError):
        json.dumps(tree, sort_keys=True, indent=2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10000)
    try:
        want = json.dumps(tree, sort_keys=True, indent=2)
    finally:
        sys.setrecursionlimit(limit)
    chunks = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(
        write=chunks.append))
    cli._emit(tree)
    assert "".join(chunks) == want + "\n"
    assert len(chunks) > 2 * 600  # written node by node


# what the writer must escape or order as json.dumps does: quotes,
# backslashes, control characters, non-ASCII and astral text, and digit
# keys, which sort as strings ("10" before "2")
WRITER_KEYS = ["", "a", "b c", 'say "x"', "back\\slash", "tab\tnew\nline",
               "\x00\x1f\x7f", "é", "日本", "\U0001d11e", "10", "2", "-1"]
WRITER_SCALARS = [None, True, False, 0, 1, -1, 7, 2 ** 63, 2 ** 64,
                  2 ** 64 + 1, -(2 ** 70), 10 ** 40] + WRITER_KEYS


def _random_value(rng, depth):
    """A random report value: dicts, lists (empty ones too) and scalars,
    the containers at most four deep; some containers hold ints only."""
    r = rng.random()
    if depth == 4 or r < 0.35:
        return rng.choice(WRITER_SCALARS)
    size = rng.choice([0, 1, 2, 3, 5, 12])
    if r < 0.45:
        return [rng.randint(-9, 2 ** 65) for _ in range(size)]
    if r < 0.55:
        return {str(rng.randint(0, 30)): rng.randint(-9, 9)
                for _ in range(size)}
    if r < 0.8:
        return [_random_value(rng, depth + 1) for _ in range(size)]
    return {rng.choice(WRITER_KEYS): _random_value(rng, depth + 1)
            for _ in range(size)}


def test_writer_is_json_dumps_on_random_values(capsys):
    rng = random.Random(28)
    for _ in range(3000):
        value = _random_value(rng, 0)
        cli._emit(value)
        assert capsys.readouterr().out == json.dumps(
            value, sort_keys=True, indent=2) + "\n", value


# SHA-256 of `lhomdel gadget <kind> ... --verify` stdout on five targets:
# each s-prohibitor's table is too large to verify, each move's is
# recomputed by elimination (the random-10-1 one has 17 vertices and
# 7.9e6 assignments).  The other kinds take each builder's routes: the
# reflexive matcher (translator, (a,b)-matcher, reversed translator), the
# irreflexive one, NEQ's path search, and an indicator of 49 vertices
# whose submoves compose chains of moves
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
    ("refl-cycle6", "splitter --set 1 3 5 --vertex 1"):
        "b1504b1d50fecf1f85e836166b0c0632ee5b0ee792299b50db702ebec8bbb2a3",
    ("refl-cycle6", "matcher --pair 1 3"):
        "e7b439442edc6ef654dd45fc9cf3dac2e6e5b621898c9da8009f404d823df75b",
    ("refl-cycle6", "translator --pair 1 3 --dest 2 5"):
        "20e21c5abf2bdd9664e7949203674a64373a95319370cf01d9f259e572e40652",
    ("refl-cycle6", "neq --pair 1 3"):
        "55d81805d65fb81147ae40d412e13a1285cb9737df173a479fe3621affd8aac3",
    ("windowed2", "matcher --pair 6 7"):
        "9693306aa7a617008ce4cb4016529530c592629c0cdf9cecffab3f47ebd311d5",
    ("windowed2", "prohibitor --set 6 7 8 --vertex 7"):
        "5ba8079bca4bea89353ac950c74b13280b3ce5ee4b73ef5d4ae9fbfbcf3e7410",
    ("random-7-0", "indicator --set 1 2 3 --dest 6 7"):
        "9d4a1ce99c16b75cadc57fe119307b967d83d9310ab925e85c1e94d5510495b7",
    ("random-16-0", "move --pair 1 2 --dest 3 4"):
        "37ceaa89252511374b78113f613d89feae89da4b6379fc8d4b7bbea6ce418fa8",
    # each of the two submoves is a chain of four forcing moves
    ("windowed3", "indicator --set 1 2 --dest 2 3"):
        "3fa111eb526e90c6d829ce95d977d4a6a5e9cc30a266919a2ef79f09cd57eb5a",
}


def test_gadget_verify_outputs_are_pinned(tmp_path, capsys):
    """Any change to a gadget, its report or its verified table shows
    here."""
    targets = {"windowed2": families.windowed_family(2),
               "crossing2": families.crossing_family(2),
               "refl-cycle6": families.reflexive_cycle(6),
               "random-10-1": families.random_target(
                   random.Random("target_analysis:10:1"), 10),
               "random-7-0": families.random_target(random.Random(0), 7),
               "random-16-0": families.random_target(
                   random.Random("target_analysis:16:0"), 16),
               "windowed3": families.windowed_family(3)}
    got = {}
    for name, args in GADGET_VERIFY_SHA256:
        t = _write(tmp_path, f"{name}.hg", format_target(targets[name]))
        kind, *rest = args.split()
        code, out = _run(capsys, ["gadget", kind, t] + rest + ["--verify"])
        assert code == cli.EXIT_OK
        if kind in ("move", "prohibitor"):
            assert json.loads(out)["verified"] is True
        got[name, args] = hashlib.sha256(out.encode()).hexdigest()
    assert got == GADGET_VERIFY_SHA256  # names every changed pin at once


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
    # the detail names the line, wherever the edge stands after the
    # solution line (before it, the edge itself is the error)
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 3 2\ne 1 2\ne 2 3\n")
    above = "tree edge names bag 3, but there are 2 bags"
    for text, detail in (
            ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 3\n", f"line 4: {above}"),
            ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n3 2\n", f"line 4: {above}"),
            ("s td 2 2 3\n1 3\nb 1 1 2\nb 2 2 3\n", f"line 2: {above}"),
            ("1 3\ns td 2 2 3\nb 1 1 2\nb 2 2 3\n",
             "line 1: tree edge before solution line"),
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


_UNDER_MEMORY_LIMIT = """
import resource, sys
from lhomdel import cli
# the address space the interpreter holds now, plus argv[1] MiB
pages = int(open("/proc/self/statm").read().split()[0])
limit = pages * resource.getpagesize() + (int(sys.argv[1]) << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(cli.main(sys.argv[2:]))
"""


def _python(*args, **kw):
    """(completed process, wall seconds) of a child `python <args>` that
    imports lhomdel from this checkout; stdout and stderr are captured
    as text unless kw redirects them."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    kw = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE} | kw
    start = time.perf_counter()
    out = subprocess.run([sys.executable, *args], env=env, text=True, **kw)
    return out, time.perf_counter() - start


def _under_memory_limit(*argv, mib=64, **kw):
    """_python running `lhomdel <argv>` under the address-space limit:
    mib MiB above what the interpreter holds once it has imported the
    cli."""
    return _python("-c", _UNDER_MEMORY_LIMIT, str(mib), *argv, **kw)


_HEAVY_IMPORTS = """
import sys
from lhomdel import cli
print(sorted({"dataclasses", "inspect", "traceback"} & set(sys.modules)))
"""


def test_cli_imports_no_dataclasses_inspect_or_traceback(monkeypatch):
    # dataclasses (which loads inspect) and traceback cost start-up time
    # in every CLI process, with or without a bytecode cache; traceback
    # is imported by the internal-error handler alone, which
    # test_internal_error_exit_code runs
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    out, _ = _python("-c", _HEAVY_IMPORTS)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_cli_import_does_not_load_reductions(monkeypatch):
    # only reduce and selftest import the reductions module, so no other
    # command compiles it
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    out, _ = _python("-c", "import sys, lhomdel.cli; "
                     "print('lhomdel.reductions' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_memory_error_exit_code(tmp_path):
    # a one-line instance at the vertex cap passes the header check, and
    # its DP solve over a one-vertex target needs far more than 64 MiB;
    # under an address-space limit set in the child only, the MemoryError
    # exits 3, not 4
    t = _write(tmp_path, "h.hg", "h 1\n")
    i = _write(tmp_path, "g.lhi", f"p lhom {MAX_INSTANCE_VERTICES} 0\n")
    out, _ = _under_memory_limit("solve", "vd", t, i)
    assert out.returncode == cli.EXIT_PRECONDITION == 3, out.stderr
    assert json.loads(out.stdout) == {"error": "precondition",
                                      "detail": "out of memory"}


# a solver that fills a local list in a loop until memory runs out; the
# report notes on stderr if that list is still alive when it is written
_HOG = """
import sys, weakref
from lhomdel import cli

class Held(list):  # a list a weak reference can watch
    pass

held = None

def hog(h, inst):
    global held
    fill = Held()
    held = weakref.ref(fill)
    for i in range(1 << 62):
        fill.append(i)

def emit(obj, write=cli._emit):
    if held is not None and held() is not None:
        sys.stderr.write("the failed call's list is alive\\n")
    write(obj)

cli._SOLVERS["vd", "oracle"] = hog
cli._emit = emit
"""


def test_memory_error_report_frees_the_failed_call(tmp_path):
    # the out-of-memory report is written after the handler has dropped
    # the traceback, so the memory the failed call's frames held is free
    # again, however the call built its containers
    t = _write(tmp_path, "h.hg", "h 1\n")
    i = _write(tmp_path, "g.lhi", "p lhom 1 0\n")
    out, elapsed = _python("-c", _HOG + _UNDER_MEMORY_LIMIT, "64", "solve",
                           "vd", t, i, "--algo", "oracle", timeout=60)
    assert out.returncode == cli.EXIT_PRECONDITION, out.stderr
    assert json.loads(out.stdout) == {"error": "precondition",
                                      "detail": "out of memory"}
    assert out.stderr == "" and elapsed < 30, (out.stderr, elapsed)


# size-ladder rungs: `classify` in a child process under the address-space
# limit above, stdout to /dev/null, with a wall-time bound
CLASSIFY_RUNGS = {
    "reflexive-K400": (families.reflexive_clique(400), 5.0),
    "edgeless-600": (TargetGraph(600, (0,) * 600), 10.0),
}


@pytest.mark.parametrize("name", list(CLASSIFY_RUNGS))
def test_classify_size_ladder(tmp_path, name):
    # each tree is one level per vertex, and its JSON grows as the cube of
    # the target (307 MB for the edgeless 600), so the tree must be built
    # without copies or recursion and written as it goes
    h, seconds = CLASSIFY_RUNGS[name]
    t = _write(tmp_path, "h.hg", format_target(h))
    out, elapsed = _under_memory_limit("classify", t,
                                       stdout=subprocess.DEVNULL)
    assert out.returncode == cli.EXIT_OK, out.stderr
    assert elapsed < seconds, elapsed


# size-ladder rungs for the Aux search: a gadget over random_target(
# Random(0), n) in a child process with a wall-time bound; the gadget
# tables import numpy on first use, and its OpenBLAS cannot start within
# 64 MiB, so these children get 256 MiB above the interpreter
GADGET_RUNGS = {
    "move-1000": (1000, "move --pair 1 2 --dest 999 1000", 10.0),
    "indicator-200": (200, "indicator --set 1 2 3 --dest 199 200", 5.0),
}


@pytest.mark.parametrize("name", list(GADGET_RUNGS))
def test_gadget_size_ladder(tmp_path, name):
    # Aux has about n^2 / 2 pairs, each meeting about 2n others, so its
    # adjacency is never built: a search scans each vertex's pairs once
    n, args, seconds = GADGET_RUNGS[name]
    t = _write(tmp_path, "h.hg", format_target(
        families.random_target(random.Random(0), n)))
    kind, *rest = args.split()
    out, elapsed = _under_memory_limit("gadget", kind, t, *rest, mib=256)
    assert out.returncode == cli.EXIT_OK, out.stderr
    assert json.loads(out.stdout)["kind"] == kind
    assert elapsed < seconds, elapsed


def test_poly_solve_of_1000_singleton_lists(tmp_path):
    # 1000 distinct lists over the edgeless h 1000: the staircase-order
    # search goes one list deeper per level, so it must not recurse, and
    # one-vertex orders need no pair test, so it must not take k^2 of them
    n = 1000
    t = _write(tmp_path, "h.hg", f"h {n}\n")
    i = _write(tmp_path, "g.lhi", f"p lhom {n} 0\n" + "".join(
        f"l {v} 1 {v}\n" for v in range(1, n + 1)))
    out, elapsed = _under_memory_limit("solve", "ed", t, i)
    assert out.returncode == cli.EXIT_OK, out.stderr
    assert elapsed < 2.0, elapsed
    rep = json.loads(out.stdout)
    assert rep["opt"] == 0 and rep["stats"] == {"flow_value": 0}  # poly
    assert rep["homomorphism"] == {str(v): v for v in range(1, n + 1)}


def test_ed_split_of_a_1000_vertex_target(tmp_path):
    # H_994's split tree peels one universal vertex per level, about 1000
    # levels deep, and every peeled part holds no instance vertex: the
    # walk must not recurse, and must not search each part over all of H.
    # The DP leaf imports numpy, whose OpenBLAS cannot start within 64 MiB
    t = _write(tmp_path, "h.hg", format_target(families.peeled_family(994)))
    i = _write(tmp_path, "g.lhi",
               "p lhom 2 1\ne 1 2\nl 1 3 4 5 6\nl 2 3 4 5 6\n")
    out, elapsed = _under_memory_limit("solve", "ed", t, i, mib=256)
    assert out.returncode == cli.EXIT_OK, out.stderr
    assert elapsed < 5.0, elapsed
    rep = json.loads(out.stdout)
    assert rep["opt"] == 1 and rep["stats"] == {"forced": 0, "parts": 2}


def test_header_counts_above_the_caps_exit_3(tmp_path, capsys):
    # each parser checks its header's count before it allocates anything
    # per vertex, so these one-line files are refused at once, with no
    # memory limit; a count at each cap still parses
    big = 10 ** 9
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 1 0\n")
    huge_t = _write(tmp_path, "huge.hg", f"h {big}\n")
    huge_i = _write(tmp_path, "huge.lhi", f"p lhom {big} 0\n")
    huge_c = _write(tmp_path, "huge.cls", f"p vertex-cover {big} 0\n")
    for argv, cap in ((["solve", "vd", t, huge_i], MAX_INSTANCE_VERTICES),
                      (["classify", huge_t], MAX_TARGET_VERTICES),
                      (["solve", "ed", huge_t, i], MAX_TARGET_VERTICES),
                      (["reduce", huge_c], MAX_INSTANCE_VERTICES)):
        start = time.perf_counter()
        code, out = _run(capsys, argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == cli.EXIT_PRECONDITION, argv
        assert json.loads(out) == {
            "error": "precondition",
            "detail": f"line 1: the header announces {big} vertices, above "
                      f"the cap of {cap}"}
    h = parse_target(f"h {MAX_TARGET_VERTICES}\n")
    assert h.n == MAX_TARGET_VERTICES
    assert parse_instance(f"p lhom {MAX_INSTANCE_VERTICES} 0\n", h).n \
        == MAX_INSTANCE_VERTICES
    assert parse_classic(f"p vertex-cover {MAX_INSTANCE_VERTICES} 0\n").n \
        == MAX_INSTANCE_VERTICES


def test_td_and_core_together_are_refused(tmp_path, capsys):
    # both name the decomposition, so neither is dropped: the pair exits 3
    # before either file is read, even where each alone would pass
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 2 1\ne 1 2\n")
    td = _write(tmp_path, "g.td", "s td 1 2 2\nb 1 1 2\n")
    for core_text in ("q 1 1 1\n1\n", "q 1 1 1\n9\n"):
        core = _write(tmp_path, "g.core", core_text)
        for algo in ("auto", "dp"):
            code, out = _run(capsys, ["solve", "vd", t, i, "--td", td,
                                      "--core", core, "--algo", algo])
            assert code == cli.EXIT_PRECONDITION
            assert json.loads(out) == {
                "error": "precondition",
                "detail": "--td and --core both give a tree decomposition; "
                          "pass one"}
    # the core naming vertex 9 of 2 is refused when given alone
    code, out = _run(capsys, ["solve", "vd", t, i, "--core", core])
    assert code == cli.EXIT_PRECONDITION


def test_cli_import_does_not_load_networkx():
    out, _ = _python("-c", "import sys, lhomdel.cli; "
                     "print('networkx' in sys.modules)", check=True)
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
    out, _ = _python("-c", _NUMPY_PATHS, t, i, check=True)
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


_S_PROHIBITOR = """
import contextlib, io, sys
from lhomdel import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["gadget", "s-prohibitor", sys.argv[1], "--set", "1",
                     "2", "3", "--verify"])
print(code, "table too large" in out.getvalue(), "numpy" in sys.modules)
"""


def test_s_prohibitor_process_does_not_load_numpy(tmp_path):
    # every table of an s-prohibitor is a path's, composed from its edges,
    # or a glue of such tables, and --verify refuses it before eliminating
    t = _write(tmp_path, "h.hg",
               format_target(families.independent_reflexive(3)))
    out, _ = _python("-c", _S_PROHIBITOR, t, check=True)
    assert out.stdout.strip() == "0 True False"


def test_gadget_verify_cross_checks_a_composed_path_table(
        tmp_path, capsys, monkeypatch):
    # a splitter is a path gadget, so its table is composed and the one
    # elimination --verify runs checks it; a wrong composed table fails
    t = _write(tmp_path, "h.hg", format_target(families.reflexive_cycle(6)))
    argv = ["gadget", "splitter", t, "--set", "1", "3", "5", "--vertex", "1",
            "--verify"]
    calls, eliminate = [], _kernels.eliminate

    def counted(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(_kernels, "eliminate", counted)
    code, out = _run(capsys, argv)
    assert code == cli.EXIT_OK and json.loads(out)["verified"] is True
    assert len(calls) == 1
    path_table = gadgets._path_table

    def corrupted(h, g, mode):
        t = path_table(h, g, mode)
        t[_kernels.DELETED, _kernels.DELETED] += 1  # the splitter checks pass
        return t

    monkeypatch.setattr(gadgets, "_path_table", corrupted)
    code, out = _run(capsys, argv)
    assert code == cli.EXIT_OK and json.loads(out)["verified"] is False


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


def test_reduce_record_errors_keep_their_detail(tmp_path, capsys):
    # parse_classic's own messages are not turned into "malformed line"
    for text, detail in (
            ("p vertex-cover 2 1\np vertex-cover 2 1\n",
             "line 2: duplicate header"),
            ("e 1 2\np vertex-cover 2 1\n", "line 1: data before header"),
            ("p vertex-cover 2 1\nx 1\n", "line 2: unknown line 'x'")):
        c = _write(tmp_path, "g.cls", text)
        code, out = _run(capsys, ["reduce", c])
        assert code == cli.EXIT_PARSE
        assert json.loads(out) == {"error": "parse", "detail": detail}


def test_reduce_ids_out_of_range_are_parse_errors(tmp_path, capsys):
    # a source, sink, terminal or annotated vertex outside 1..n: id 0
    # would index the last vertex's list, and n + 1 past the end
    for text, detail in (
            ("p st-min-cut 3 1\ne 1 2\ns 5\nt 1\n", "source out of range"),
            ("p st-min-cut 3 1\ne 1 2\ns 0\nt 1\n", "source out of range"),
            ("p st-min-cut 3 1\ne 1 2\ns 1\nt 4\n", "sink out of range"),
            ("p edge-multiway 3 1\ne 1 2\nt 1\nt 0\n",
             "terminal out of range"),
            ("p max-cut 3 1\ne 1 2\nl 7\n", "annotated vertex out of range"),
            ("p oct 3 1\ne 1 2\nr 0\n", "annotated vertex out of range")):
        c = _write(tmp_path, "g.cls", text)
        code, out = _run(capsys, ["reduce", c])
        assert code == cli.EXIT_PARSE, text
        assert json.loads(out) == {"error": "parse", "detail": detail}


def test_reduce_unread_and_repeated_lines_are_parse_errors(tmp_path,
                                                          capsys):
    # these used to encode with exit 0: the second `t` replaced the sink,
    # and the unread lines were dropped
    for text, detail in (
            ("p st-min-cut 3 1\ne 1 2\ns 1\nt 2\nt 3\n",
             "line 5: repeated 't' line"),
            ("p vertex-cover 3 1\ne 1 2\nk 1\nt 2\n",
             "line 4: a vertex-cover file has no 't' lines"),
            ("p max-cut 3 1\ne 1 2\nl 1\nq 4\n",
             "line 4: a max-cut file has no 'q' lines"),
            ("p nope 3 1\ne 1 2\n", "line 1: unknown problem kind 'nope'")):
        c = _write(tmp_path, "g.cls", text)
        code, out = _run(capsys, ["reduce", c])
        assert code == cli.EXIT_PARSE, text
        assert json.loads(out) == {"error": "parse", "detail": detail}


def test_reduce_refuses_an_encoding_above_the_cap(tmp_path):
    # a star on vertices 1..20000 and the isolated vertex 20001, the centre
    # and 20001 the terminals: the encoding has 19999 + 20001 * 19999
    # vertices, counted and refused before any is built
    n = 20001
    c = _write(tmp_path, "star.cls", f"p vertex-multiway {n} {n - 2}\n"
               + "".join(f"e 1 {v}\n" for v in range(2, n))
               + f"t 1\nt {n}\n")
    out, elapsed = _under_memory_limit("reduce", c)
    assert out.returncode == cli.EXIT_PRECONDITION, out.stderr
    assert json.loads(out.stdout) == {
        "error": "precondition",
        "detail": f"the vertex-multiway encoding has {19999 + n * 19999} "
                  f"vertices, above the cap of {MAX_INSTANCE_VERTICES}"}
    assert elapsed < 2.0, elapsed


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


def test_negative_counts_are_usage_errors(tmp_path, capsys):
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    for argv in (["selftest", "--count", "-3"],
                 ["gadget", "neq", t, "--pair", "1", "2",
                  "--search-budget", "-1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "must be >= 0" in captured.err, argv


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


def test_gadget_pair_of_one_repeated_vertex(tmp_path, capsys):
    # a pair that names one vertex twice is refused by name, whichever
    # pair of the move it is; the detail names vertices 1-based, as the
    # command line does
    t = _write(tmp_path, "h.hg", "h 4\ne 1 1\ne 2 2\ne 1 3\ne 2 4\ne 3 4\n")
    for argv, pair in ((["move", "--pair", "1", "1", "--dest", "1", "2"], 1),
                       (["move", "--pair", "1", "2", "--dest", "3", "3"], 3),
                       (["indicator", "--set", "1", "2", "--dest", "1", "1"],
                        1)):
        code, out = _run(capsys, ["gadget", argv[0], t] + argv[1:])
        assert code == cli.EXIT_PRECONDITION, argv
        assert json.loads(out) == {
            "error": "precondition",
            "detail": f"pair [{pair}] is not two distinct vertices"}, argv
    t = _write(tmp_path, "h3.hg", "h 3\ne 1 2\ne 2 2\n")
    code, out = _run(capsys, ["gadget", "move", t, "--pair", "1", "3",
                              "--dest", "1", "2"])
    assert code == cli.EXIT_PRECONDITION
    assert json.loads(out) == {"error": "precondition",
                               "detail": "[1, 3] is not an incomparable set"}


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

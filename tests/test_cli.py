import json
import os
import subprocess
import sys

from lhomdel import cli
from lhomdel.graphs import format_target

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
    code, out = _run(capsys, ["solve", "vd", t, i, "--algo", "poly"])
    assert code == cli.EXIT_PRECONDITION
    assert json.loads(out)["error"] == "precondition"


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


def test_parse_error_exit_codes(tmp_path, capsys):
    code, out = _run(capsys, ["classify", str(tmp_path / "missing.hg")])
    assert code == cli.EXIT_PARSE
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 1 0\ne 1 1\n")
    code, out = _run(capsys, ["solve", "vd", t, i])
    assert code == cli.EXIT_PARSE


def test_td_bag_vertex_above_range(tmp_path, capsys):
    # a PACE bag naming vertex 4 of a 2-vertex instance
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 2 1\ne 1 2\n")
    td = _write(tmp_path, "g.td", "s td 1 3 2\nb 1 1 2 4\n")
    code, out = _run(capsys, ["solve", "vd", t, i, "--td", td, "--algo",
                              "dp"])
    assert code == cli.EXIT_PRECONDITION
    assert json.loads(out)["error"] == "precondition"


def test_td_bag_vertex_zero(tmp_path, capsys):
    # PACE vertex ids start at 1, so a bag naming vertex 0 is malformed
    t = _write(tmp_path, "h.hg", TARGET_RK2)
    i = _write(tmp_path, "g.lhi", "p lhom 2 1\ne 1 2\n")
    td = _write(tmp_path, "g.td", "s td 1 3 2\nb 1 0 1 2\n")
    code, out = _run(capsys, ["solve", "vd", t, i, "--td", td, "--algo",
                              "dp"])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"] == "parse"


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

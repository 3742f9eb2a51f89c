"""The size ladder: commands at the sizes their caps admit.

Each rung runs the CLI in a child process under its own address-space
limit (`RLIMIT_AS`), reads the child's peak RSS from `os.wait4`, and
asserts its exit code, its peak RSS within 1.5x and its wall time within
3x of the figures measured when the rung was added (2-core x86-64 VM,
Python 3.11.7).  Time drifts on a shared host far more than memory does,
so the RSS bound is the tight one.  The rungs are marked slow; run them
with `pytest -m slow tests/test_ladder.py`.  The determinism rung at the
end is not: it runs in tier-1.
"""

import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from lhomdel import cli
from lhomdel.graphs import Instance, format_instance, format_target

import families

_CLI = "import sys; from lhomdel import cli; sys.exit(cli.main(sys.argv[1:]))"


def run_cli(argv, limit_mib, stdout):
    """(exit code, peak RSS in MB, wall seconds) of `lhomdel <argv>` in a
    child process whose address space is capped at limit_mib MiB; its
    stdout goes to the open file stdout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    limit = limit_mib << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", _CLI, *argv], env=env,
                             stdout=stdout, preexec_fn=cap)
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - start
    child.returncode = code = os.waitstatus_to_exitcode(status)
    return code, usage.ru_maxrss / 1024, elapsed  # ru_maxrss is in KiB


def _tree_instance(path, n, list_line):
    """A random recursive tree on n vertices as an instance file, each
    vertex's `l` line list_line(v) (1-based), or none for full lists."""
    rng = random.Random(0)
    with open(path, "w") as f:
        f.write(f"p lhom {n} {n - 1}\n")
        f.writelines(f"e {rng.randrange(v) + 1} {v + 1}\n"
                     for v in range(1, n))
        if list_line is not None:
            f.writelines(list_line(v) for v in range(1, n + 1))
    return str(path)


# (mode, list_line, limit MiB, peak RSS MB, wall s) for `solve <mode>
# --algo poly` of the 10^6-vertex tree over the reflexive P3, with full
# lists or the lists {1, 3}; measured on 21 October 2026, once the
# writers' layout was read by blocks (2.8 and 3.8 s before, measured alongside)
POLY_RUNGS = {
    "ed-full": ("ed", None, 3072, 463, 2.7),
    "vd-ends": ("vd", lambda v: f"l {v} 2 1 3\n", 4096, 565, 3.2),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", list(POLY_RUNGS))
def test_poly_solve_of_a_million_vertex_tree(tmp_path, name):
    mode, list_line, limit, rss, seconds = POLY_RUNGS[name]
    h = tmp_path / "p3.hg"
    h.write_text(format_target(families.reflexive_path(3)))
    g = _tree_instance(tmp_path / "tree.lhi", 10 ** 6, list_line)
    with open(tmp_path / "out.json", "w") as out:
        code, peak, elapsed = run_cli(
            ["solve", mode, str(h), g, "--algo", "poly"], limit, out)
    assert code == cli.EXIT_OK
    assert peak < 1.5 * rss, peak
    assert elapsed < 3 * seconds, elapsed


# (limit MiB, peak RSS MB, wall s) for `solve <mode> --algo dp` of the
# 10^6-vertex tree over K3 with full lists; measured on 20 October 2026
DP_RUNGS = {"vd": (6144, 2308, 81.0), "ed": (6144, 2308, 89.2)}


@pytest.mark.slow
@pytest.mark.parametrize("mode", list(DP_RUNGS))
def test_dp_solve_of_a_million_vertex_tree(tmp_path, mode):
    limit, rss, seconds = DP_RUNGS[mode]
    h = tmp_path / "k3.hg"
    h.write_text(format_target(families.irreflexive_kq(3)))
    g = _tree_instance(tmp_path / "tree.lhi", 10 ** 6, None)
    with open(tmp_path / "out.json", "w") as out:
        code, peak, elapsed = run_cli(
            ["solve", mode, str(h), g, "--algo", "dp"], limit, out)
    assert code == cli.EXIT_OK
    assert peak < 1.5 * rss, peak
    assert elapsed < 3 * seconds, elapsed


# (rows, cols, exit code, limit MiB, peak RSS MB, wall s) for `solve ed
# --algo dp` of the rows x cols grid over K3 with full lists: the 9 x 1000
# grid is solved, and the 10 x 3000 grid is refused before its tables
# because its argmin records would pass dpsolve.MAX_RECORD_BYTES;
# measured on 22 October 2026
GRID_RUNGS = {"9x1000": (9, 1000, cli.EXIT_OK, 2048, 634, 9.7),
              "10x3000": (10, 3000, cli.EXIT_PRECONDITION, 2048, 142, 2.2)}


@pytest.mark.slow
@pytest.mark.parametrize("name", list(GRID_RUNGS))
def test_dp_solve_of_a_grid(tmp_path, name):
    rows, cols, exit_code, limit, rss, seconds = GRID_RUNGS[name]
    h = tmp_path / "k3.hg"
    h.write_text(format_target(families.irreflexive_kq(3)))
    n, edges = families.grid(rows, cols)
    g = tmp_path / "grid.lhi"  # no `l` lines: full lists
    g.write_text(f"p lhom {n} {len(edges)}\n"
                 + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges))
    with open(tmp_path / "out.json", "w") as out:
        code, peak, elapsed = run_cli(
            ["solve", "ed", str(h), str(g), "--algo", "dp"], limit, out)
    assert code == exit_code
    if code == cli.EXIT_PRECONDITION:
        detail = json.loads((tmp_path / "out.json").read_text())["detail"]
        assert "bytes of argmin records, above the cap" in detail, detail
    assert peak < 1.5 * rss, peak
    assert elapsed < 3 * seconds, elapsed


# runs each command line of the JSON list argv[1] in turn, and prints
# each exit code to stderr
_CLI_LINES = ("import json, sys; from lhomdel import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    print(cli.main(argv), file=sys.stderr)")


def test_stdout_does_not_depend_on_the_hash_seed(tmp_path):
    """selftest and four pool-shaped solves (VD DP, ED DP, poly, ED split)
    print the same bytes under PYTHONHASHSEED 0 and 1."""
    rng = random.Random(25)

    def instance(name, h, n, edges, sizes):
        hp, gp = tmp_path / f"{name}.hg", tmp_path / f"{name}.lhi"
        hp.write_text(format_target(h))
        gp.write_text(format_instance(Instance(n, edges, [
            frozenset(rng.sample(range(h.n), rng.choice(sizes)))
            for _ in range(n)])))
        return str(hp), str(gp)

    vd_dp = instance("vd-dp", families.irreflexive_kq(3),
                     *families.partial_ktree(rng, 50, 5, 0.7), (1, 2, 2, 3))
    ed_dp = instance("ed-dp", families.reflexive_cycle(5),
                     *families.grid(5, 20, True), (1, 2, 2, 3))
    split = instance("split", families.windowed_family(2),
                     *families.partial_ktree(rng, 50, 3, 0.6), (1, 2, 3))
    h, poly = families.poly_cut_cases(400)["multiway", "vd"]
    (tmp_path / "poly.hg").write_text(format_target(h))
    (tmp_path / "poly.lhi").write_text(format_instance(poly))
    argvs = [["selftest", "--seed", "0", "--count", "50"],
             ["solve", "vd", *vd_dp, "--algo", "dp"],
             ["solve", "ed", *ed_dp, "--algo", "dp"],
             ["solve", "vd", str(tmp_path / "poly.hg"),
              str(tmp_path / "poly.lhi"), "--algo", "poly"],
             ["solve", "ed", *split]]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", _CLI_LINES,
                               json.dumps(argvs)], env=env,
                              capture_output=True, check=True)
        assert done.stderr == b"0\n" * len(argvs), done.stderr[-400:]
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert b'"parts": 2' in outs[0]  # the last solve split its target

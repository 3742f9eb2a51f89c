"""The size ladder: commands at the sizes their caps admit.

Each rung runs the CLI in a child process under its own address-space
limit (`RLIMIT_AS`), reads the child's peak RSS from `os.wait4`, and
asserts its exit code, its peak RSS within 1.5x and its wall time within
3x of the figures measured when the rung was added (2-core x86-64 VM,
Python 3.11.7).  Time drifts on a shared host far more than memory does,
so the RSS bound is the tight one.  The rungs are marked slow; run them
with `pytest -m slow tests/test_ladder.py`.
"""

import os
import random
import resource
import subprocess
import sys
import time

import pytest

from lhomdel import cli
from lhomdel.graphs import format_target

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
# lists or the lists {1, 3}; measured on 20 October 2026
POLY_RUNGS = {
    "ed-full": ("ed", None, 3072, 463, 4.8),
    "vd-ends": ("vd", lambda v: f"l {v} 2 1 3\n", 4096, 1301, 16.4),
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

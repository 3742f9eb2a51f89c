#!/usr/bin/env python3
"""Solve/classify benchmark for lhomdel.

Run from the repository root:

    python3 solvebench/run.py --workload dp_wide --seed 1 --seconds 20 --trace 0
    python3 solvebench/run.py --all --seed 1          # every workload, both runs
    python3 solvebench/compare.py PARENT_DIR CHANGE_DIR

Each run is one process driving the in-process CLI entry point
`lhomdel.cli.main([...])` in a closed loop (one client, the next op starts
when the previous one returns) over a fixed number of whole rounds of ops,
sized to last about --seconds (workloads.ROUNDS_PER_20S).  Every answer is
checked; a failed op (exception, unexpected exit code, invalid witness,
wrong answer) ranks as +inf in the latency percentiles.  A percentile that
falls on a failure is reported as the run's total op time, which is finite
and ranks above every op, and is flagged in the summary and result file.

Times are reported at a reference machine speed.  A fixed calibration
kernel that does not touch lhomdel runs right before and right after every
op; each op's wall time is scaled by CAL_REF_S over the mean of its two
calibrations, and each set-up probe's likewise.  On a shared host the
speed at which Python code runs drifts by tens of percent within a
minute; the scaling takes that drift out, while a change to the program
moves only the op times.  The unscaled figures are kept in the result
file.

With --trace 1 every op runs twice, untraced and traced, and the
per-layer metrics come from the traced spans.  The last stdout line is
the JSON result; the same object, with the raw samples, goes to
.solvebench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from check import Wrong, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".solvebench"
SETUP_PROBES = 7
TAIL_BEYOND = 10
CAL_ITER = 8000
# Seconds calibrate() reads at the reference speed: its median on a 2-core
# x86-64 VM with Python 3.11 when the timing scale was fixed.
CAL_REF_S = 0.0015


def _cal_kernel() -> int:
    # integer arithmetic, then allocating, hashing and sorting small
    # objects: the kinds of interpreter work lhomdel's own code does
    acc = 0
    for i in range(CAL_ITER):
        acc += i * i % 7
    d = {}
    for i in range(CAL_ITER // 4):
        d[(i * 7919) % 5003] = (i, str(i))
    return acc + len(sorted(d.items(), key=lambda kv: kv[1][1]))


def calibrate() -> float:
    """Seconds of a fixed calibration kernel, best of two.

    The kernel does not touch lhomdel, so a change to the program cannot
    move it; what moves it is how fast this machine runs Python code at
    the moment, which on a shared host drifts by tens of percent within a
    minute.
    """
    best = math.inf
    # no collection inside: its cost would grow with the program's heap
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            _cal_kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def use_checkout_source():
    """Import lhomdel from this checkout's src/, never from elsewhere."""
    if not (ROOT / "src" / "lhomdel" / "cli.py").is_file():
        sys.exit(f"solvebench: no lhomdel sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


def run_op(main, argv):
    """(seconds, exit code or exception type name, stdout) of one op."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a measured failure, not ours
        return time.perf_counter() - t0, type(exc).__name__, buf.getvalue()
    return time.perf_counter() - t0, code, buf.getvalue()


def outcome(op, code, stdout):
    """None if the op succeeded with a right answer, else the cause."""
    if isinstance(code, str):
        return f"exception_{code}"
    try:
        check(op, code, stdout)
    except Wrong as exc:
        return exc.cause
    except (KeyError, TypeError, ValueError) as exc:
        return f"invalid_witness_{type(exc).__name__}"
    return None


def setup_probe(spec_path: str) -> None:
    """Fresh-process set-up: import lhomdel.cli plus one warm-up op."""
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    cal0 = calibrate()
    t0 = time.perf_counter()
    from lhomdel import cli
    _, code, stdout = run_op(cli.main, spec["argv"])
    elapsed = time.perf_counter() - t0
    cal1 = calibrate()
    same = code == 0 and hashlib.sha256(stdout.encode()).hexdigest() == spec["sha"]
    print(json.dumps({"setup_s": elapsed, "cal_s": (cal0 + cal1) / 2,
                      "ok": same}))


def measure_setup(work: Path, warm: dict, stdout: str) -> list:
    spec = work / "warmup.json"
    spec.write_text(json.dumps({
        "argv": warm["argv"],
        "sha": hashlib.sha256(stdout.encode()).hexdigest()}))
    samples = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--setup-probe", str(spec)],
                             capture_output=True, text=True, timeout=170,
                             cwd=ROOT, check=False)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        probe = json.loads(res.stdout.strip().splitlines()[-1])
        if not probe["ok"]:
            raise RuntimeError("set-up probe warm-up output differs")
        samples.append((probe["setup_s"], probe["cal_s"]))
    return samples


def tail_stat(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def environment():
    import numpy
    from lhomdel import _kernels
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(p.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "numba": _kernels.using_numba(),
            "commit": commit, "src_sha256": src.hexdigest()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads  # imports networkx, so set-up probes never load it
    work = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        return _run(workloads, workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workloads, workload, seed, seconds, trace, work):
    files = workloads.Files(work)
    rounds = workloads.rounds(workload, seed, files)
    warm = workloads.warmup_op(workload, files)
    from lhomdel import cli
    _, code, stdout = run_op(cli.main, warm["argv"])
    if outcome(warm, code, stdout) is not None:
        raise RuntimeError(f"warm-up op failed: {outcome(warm, code, stdout)}")
    setup = [] if trace else measure_setup(work, warm, stdout)

    rec = tracer.Recorder(tracer.lhomdel_modules()) if trace else None
    paired = [0.0, 0.0]  # untraced, traced seconds of ops that passed both

    def measure(op, index):
        """(seconds, code, stdout, calibration seconds or None) of one op."""
        # each op starts with no garbage left by the one before, as in a
        # fresh CLI process
        if rec is None:
            gc.collect()
            before = calibrate()
            dt, code, stdout = run_op(cli.main, op["argv"])
            return dt, code, stdout, (before + calibrate()) / 2
        # untraced and traced run of the same op, alternating which is first
        runs = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            gc.collect()
            if not traced:
                runs[traced] = run_op(cli.main, op["argv"])
                continue
            rec.install()
            try:
                with rec.root(index):
                    runs[traced] = run_op(cli.main, op["argv"])
            finally:
                rec.remove()
        if runs[False][1] == 0 and runs[True][1] == 0:
            paired[0] += runs[False][0]
            paired[1] += runs[True][0]
        return runs[True] + (None,)

    samples, causes = [], {}
    for _ in range(workloads.round_count(workload, seconds, trace)):
        ops = next(rounds)
        # keep the benchmark's own heap (inputs, samples, spans) out of the
        # collector's work during ops
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        for op in ops:
            dt, code, stdout, cal = measure(op, len(samples))
            cause = outcome(op, code, stdout)
            if cause is not None:
                causes[cause] = causes.get(cause, 0) + 1
            ref = dt if cal is None else dt * CAL_REF_S / cal
            samples.append({"stratum": op["stratum"], "key": op["key"],
                            "s": dt, "cal": cal, "ref_s": ref,
                            "ok": cause is None,
                            **({} if cause is None else {"cause": cause})})

    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    wrong = sum(n for c, n in causes.items() if not c.startswith(("exception_",
                                                                    "exit_code_")))
    times = [s["ref_s"] if s["ok"] else math.inf for s in samples]
    tail, pct, beyond = tail_stat(times)
    p50 = statistics.median(times)
    total = sum(s["ref_s"] for s in samples)
    capped = [k for k, v in (("op_p50_s", p50), ("op_tail_s", tail))
              if math.isinf(v)]
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    extra = {"workload": workload, "seed": seed, "seconds": seconds,
             "trace": int(trace), "env": environment(),
             "fail_frac": failed / attempted, "fail_causes": causes,
             "tail_percentile": pct, "tail_beyond": beyond,
             "capped_at_total_op_s": capped}
    if rec is None:
        metrics = {
            "op_p50_s": (min(p50, total), "s"),
            "op_tail_s": (min(tail, total), "s"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (statistics.median(x * CAL_REF_S / c
                                          for x, c in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        raw = [s["s"] if s["ok"] else math.inf for s in samples]
        raw_total = sum(s["s"] for s in samples)
        extra["unscaled_s"] = {"op_p50_s": min(statistics.median(raw), raw_total),
                               "op_tail_s": min(tail_stat(raw)[0], raw_total),
                               "setup_s": statistics.median(x for x, _ in setup),
                               "median_cal_s": statistics.median(
                                   s["cal"] for s in samples)}
        extra["setup_probes_s_cal_s"] = setup  # [wall s, calibration s] pairs
    else:
        from lhomdel.graphs import max_incomparable
        overhead = paired[1] / paired[0] - 1.0 if paired[0] > 0 else 0.0
        values = rec.metrics(attempted, overhead, max_incomparable)
        metrics = {k: (v, tracer.LAYER_METRICS[k][0]) for k, v in values.items()}
        extra["layer_self_s_per_op"] = rec.layer_self(attempted)
        extra["layer_metrics"] = {k: {"unit": u, "what": w, "moves": m}
                                  for k, (u, w, m) in tracer.LAYER_METRICS.items()}
        OUT.mkdir(exist_ok=True)
        rec.dump(OUT / f"spans-{workload}-seed{seed}.jsonl.gz", max_incomparable)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = dict(result, **extra, samples=samples)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def summary(record) -> str:
    lines = [f"== {record['workload']} seed={record['seed']} "
             f"trace={record['trace']} attempted={record['attempted']} "
             f"failed={record['failed']} answers "
             f"{'correct' if record['correct'] else 'WRONG'}"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  fail_frac {record['fail_frac']:.4f} "
                 f"causes {record['fail_causes'] or '{}'}")
    if not record["trace"]:
        lines.append(f"  op_tail_s is p{record['tail_percentile']:.1f} with "
                     f"{record['tail_beyond']} of {record['attempted']} "
                     "samples beyond it (failures rank as +inf)")
        u = record["unscaled_s"]
        lines.append(f"  unscaled: op_p50_s {u['op_p50_s']:.6g} s, op_tail_s "
                     f"{u['op_tail_s']:.6g} s, setup_s {u['setup_s']:.6g} s; "
                     f"calibration {u['median_cal_s']:.6g} s against "
                     f"{CAL_REF_S} s")
        if record["capped_at_total_op_s"]:
            lines.append(f"  {', '.join(record['capped_at_total_op_s'])} fell "
                         "on a failure: reported as the total op time")
    else:
        top = list(record["layer_self_s_per_op"].items())[:4]
        lines.append("  self time per op by layer: "
                     + ", ".join(f"{k} {v:.4g}s" for k, v in top))
    return "\n".join(lines)


def workload_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload untraced and traced")
    p.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    use_checkout_source()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.all:
        # one fresh process per run, so that set-up and peak RSS are its own
        for name in workload_names():
            for trace in ("0", "1"):
                res = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", trace],
                    capture_output=True, text=True, cwd=ROOT, check=False)
                print("\n".join(res.stdout.splitlines()[:-1]) or res.stderr,
                      flush=True)
        return 0
    if args.workload not in workload_names():
        p.error(f"--workload must be one of {', '.join(workload_names())} "
                "(or use --all)")
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(summary(record), flush=True)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed",
                                              "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record the reference answers of the pooled workloads.

    python3 solvebench/record.py

Runs every pool item of dp_wide, fixed_target and target_analysis through
the CLI once and writes solvebench/recorded/<workload>.json: the optimum
of each solve op (its witness checked from outside) and the SHA-256 of the
exact JSON of each classify and gadget op.  Run it only when the program's
answers are meant to change; the benchmark compares against these files.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run
import workloads as W
from check import check_solve


def _solve(main, h, inst, mode, algo="auto"):
    work = run.OUT / "record"
    work.mkdir(parents=True, exist_ok=True)
    (work / "r.hg").write_text(W.gen.target_text(h))
    (work / "r.lhi").write_text(W.gen.instance_text(inst))
    _, code, out = run.run_op(main, ["solve", mode, str(work / "r.hg"),
                                     str(work / "r.lhi"), "--algo", algo])
    if code != 0:
        raise RuntimeError(f"solve exited {code}")
    res = json.loads(out)
    check_solve(res, h, inst, mode, res["opt"])
    return res["opt"]


def record_dp_wide(main):
    rec = {}
    for s in range(len(W.DP_STRATA)):
        for i in range(W.POOL["dp_wide"]):
            key, h, inst, mode = W.dp_wide_item(s, i)
            rec[key] = {"input": W.digest(W.gen.target_text(h),
                                          W.gen.instance_text(inst)),
                        "opt": _solve(main, h, inst, mode)}
    return rec


def record_fixed_target(main):
    rec = {}
    for tname in W.FT_TARGETS:
        for i in range(W.POOL["fixed_target"]):
            key, h, inst = W.fixed_target_item(tname, i)
            for mode in ("ed", "vd"):
                opt = _solve(main, h, inst, mode)
                if mode == "ed" and opt != _solve(main, h, inst, mode, "dp"):
                    raise RuntimeError(f"{key}: split and direct DP disagree")
                rec[f"{key}-{mode}"] = {
                    "input": W.digest(W.gen.target_text(h),
                                      W.gen.instance_text(inst)),
                    "opt": opt}
    return rec


def _gadget_candidates(h):
    """Deterministic gadget arguments per hard mode: s-prohibitors on part
    of a maximum incomparable set (vd) and moves between two incomparable
    pairs (ed), in order of preference."""
    from lhomdel import analysis, gadgets
    from lhomdel.graphs import TargetGraph, max_incomparable
    t = TargetGraph.from_edges(*h)
    out = {}
    if analysis.classify_vd(t)[0] == "np-hard":
        i, wit = max_incomparable(t)
        out["vd"] = [["s-prohibitor", "--set"] + [str(v + 1) for v in wit[:size]]
                     for size in (3, 2) if i >= size]
    if analysis.classify_ed(t)[0] == "np-hard":
        pairs = [sorted(p) for p in gadgets.incomparable_pairs(t)]
        out["ed"] = [["move", "--pair"] + [str(v + 1) for v in pairs[a]]
                     + ["--dest"] + [str(v + 1) for v in pairs[b]]
                     for a, b in ((0, -1), (0, 1), (-1, 0), (1, 2))
                     if len(pairs) > max(a, b, -a - 1, -b - 1)
                     and pairs[a] != pairs[b]]
    return out


def record_target_analysis(main):
    files = W.Files(run.OUT / "record")
    rec = {}
    for key in W.analysis_keys():
        h = W.analysis_target(key)
        text = W.gen.target_text(h)
        path = files.put(f"ta-{key}.hg", text)
        _, code, out = run.run_op(main, ["classify", path])
        if code != 0:
            raise RuntimeError(f"{key}: classify exited {code}")
        entry = {"input": W.digest(text),
                 "classify": hashlib.sha256(out.encode()).hexdigest(),
                 "gadgets": []}
        # the first candidate per hard mode that the CLI accepts, whatever
        # it answers and however long it takes (check.py rejects an
        # answer with "verified": false); candidates it refuses are listed
        for candidates in _gadget_candidates(h).values():
            for args in candidates:
                _, code, out = run.run_op(
                    main, ["gadget", args[0], path] + args[1:] + ["--verify"])
                if code == 0:
                    entry["gadgets"].append(
                        {"args": args,
                         "stdout": hashlib.sha256(out.encode()).hexdigest()})
                    break
                print(f"{key}: skipped {' '.join(args)} (exit {code})",
                      flush=True)
        rec[key] = entry
    return rec


def main() -> int:
    run.use_checkout_source()
    from lhomdel import cli
    W.RECORDED.mkdir(exist_ok=True)
    for name, fn in (("dp_wide", record_dp_wide),
                     ("fixed_target", record_fixed_target),
                     ("target_analysis", record_target_analysis)):
        if len(sys.argv) > 1 and name not in sys.argv[1:]:
            continue
        t0 = time.perf_counter()
        rec = fn(cli.main)
        (W.RECORDED / f"{name}.json").write_text(
            json.dumps(rec, indent=0, sort_keys=True) + "\n")
        print(f"{name}: {len(rec)} entries in {time.perf_counter() - t0:.1f}s",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

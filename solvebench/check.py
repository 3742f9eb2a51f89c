"""Answer checks made from outside the program.

A solve answer is checked against the generated target and instance, not
against anything lhomdel parsed: the surviving vertices (vd) or edges (ed)
must map into their lists and onto edges of H, `opt` must equal the number
deleted, and `opt` must equal the reference optimum.  A classify or
gadget answer must be byte-equal to the recorded one, and a gadget whose
--verify reports `"verified": false` is wrong whatever was recorded.
"""

from __future__ import annotations

import hashlib
import json


class Wrong(Exception):
    """The op finished but its answer is not right; the message says why."""

    def __init__(self, cause: str, detail: str):
        super().__init__(f"{cause}: {detail}")
        self.cause = cause


def check_solve(out: dict, h, inst, mode: str, opt: int) -> None:
    hn, hedges = h
    n, edges, lists = inst
    adj = {(u, v) for u, v in hedges} | {(v, u) for u, v in hedges}
    if out.get("mode") != mode:
        raise Wrong("invalid_witness", f"mode {out.get('mode')!r}")
    hom = {int(v) - 1: img - 1 for v, img in out["homomorphism"].items()}
    if mode == "vd":
        gone = {v - 1 for v in out["deleted"]}
        if len(gone) != len(out["deleted"]) or out["opt"] != len(gone):
            raise Wrong("invalid_witness", "opt differs from |deleted|")
        if set(hom) != set(range(n)) - gone:
            raise Wrong("invalid_witness", "homomorphism domain is not V - D")
        kept = [(u, v) for u, v in edges if u not in gone and v not in gone]
    else:
        gone = {tuple(sorted((u - 1, v - 1))) for u, v in out["deleted"]}
        if len(gone) != len(out["deleted"]) or out["opt"] != len(gone):
            raise Wrong("invalid_witness", "opt differs from |deleted|")
        if not gone <= {tuple(sorted(e)) for e in edges}:
            raise Wrong("invalid_witness", "deleted a non-edge")
        if set(hom) != set(range(n)):
            raise Wrong("invalid_witness", "homomorphism domain is not V")
        kept = [e for e in edges if tuple(sorted(e)) not in gone]
    for v, img in hom.items():
        if img not in lists[v]:
            raise Wrong("invalid_witness", f"vertex {v + 1} leaves its list")
    for u, v in kept:
        if (hom[u], hom[v]) not in adj:
            raise Wrong("invalid_witness", f"edge ({u + 1},{v + 1}) unmapped")
    if out["opt"] != opt:
        raise Wrong("wrong_answer", f"opt {out['opt']} != reference {opt}")


def check(op: dict, code: int, stdout: str) -> None:
    """Raise Wrong if the op's exit code or output is not the expected one."""
    if code != 0:
        raise Wrong(f"exit_code_{code}", stdout.strip()[:200])
    kind = op["check"][0]
    if kind == "stdout":
        if json.loads(stdout).get("verified") is False:
            raise Wrong("wrong_answer", "gadget cost table differs from "
                        "full enumeration")
        if hashlib.sha256(stdout.encode()).hexdigest() != op["check"][1]:
            raise Wrong("output_mismatch", "JSON differs from the recording")
    else:
        _, h, inst, mode, opt = op["check"]
        check_solve(json.loads(stdout), h, inst, mode, opt)

"""Command-line interface: classify targets, solve instances, emit verified
gadgets, run problem reductions, and self-test against the oracles.

All commands print deterministic JSON to stdout.  Exit codes: 0 success,
1 infeasible (edge deletion with an empty list), 2 parse error,
3 precondition violation, 4 internal error (a bug: any other exception,
reported as {"error": "internal", "detail": "<Type>: <message>"}, with the
traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback

from . import analysis, dpsolve, gadgets, oracle, polysolve, reductions
from .graphs import (Infeasible, ParseError, format_instance, format_target,
                     parse_instance, parse_target, random_instance,
                     random_target)
from .treewidth import core_to_td, parse_core, parse_td

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class PreconditionError(Exception):
    pass


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def cmd_classify(args) -> int:
    h = parse_target(_read(args.target))
    _emit(analysis.classification_json(h))
    return EXIT_OK


_SOLVERS = {
    ("vd", "auto"): dpsolve.solve_vd_auto,
    ("vd", "dp"): dpsolve.solve_vd_dp,
    ("vd", "poly"): polysolve.solve_vd_poly,
    ("vd", "oracle"): oracle.oracle_vd,
    ("ed", "auto"): dpsolve.solve_ed_auto,
    ("ed", "dp"): dpsolve.solve_ed_dp,
    ("ed", "poly"): polysolve.solve_ed_poly,
    ("ed", "oracle"): oracle.oracle_ed,
}


def cmd_solve(args) -> int:
    h = parse_target(_read(args.target))
    inst = parse_instance(_read(args.instance), h)
    if args.algo == "poly":
        ok = (analysis.classify_vd(h)[0] == "poly" if args.mode == "vd"
              else analysis.classify_ed(h)[0] == "poly")
        if not ok:
            raise PreconditionError(
                "polynomial solver requires a polynomial-case target")
    td = None
    if args.td is not None:
        td = parse_td(_read(args.td))
    elif args.core is not None:
        core = parse_core(_read(args.core))
        td = core_to_td(inst, core)
    solver = _SOLVERS[(args.mode, args.algo)]
    if args.algo in ("dp", "auto") and td is not None:
        sol = solver(h, inst, td)
    else:
        if td is not None:
            raise PreconditionError(
                "tree decompositions only apply to the dp/auto algorithms")
        sol = solver(h, inst)
    out = {
        "mode": sol.mode,
        "opt": sol.cost,
        "deleted": ([v + 1 for v in sol.deleted] if sol.mode == "vd"
                    else [[u + 1, v + 1] for u, v in sol.deleted]),
        "homomorphism": {str(v + 1): img + 1
                         for v, img in sorted(sol.hom.items())},
        "algorithm": sol.algorithm,
        "stats": sol.stats,
    }
    if inst.budget is not None:
        out["decision"] = sol.cost <= inst.budget
    _emit(out)
    return EXIT_OK


# the arguments each gadget kind's builder takes
_GADGET_ARGS = {"splitter": ("set", "vertex"), "matcher": ("pair",),
                "translator": ("pair", "dest"),
                "prohibitor": ("set", "vertex"), "s-prohibitor": ("set",),
                "neq": ("pair",), "move": ("pair", "dest"),
                "indicator": ("set", "dest")}


def cmd_gadget(args) -> int:
    h = parse_target(_read(args.target))
    for name in _GADGET_ARGS.get(args.kind, ()):
        if getattr(args, name) is None:
            raise PreconditionError(f"gadget {args.kind} needs --{name}")
    ids = ((args.set or []) + (args.pair or []) + (args.dest or [])
           + ([] if args.vertex is None else [args.vertex]))
    for v in ids:
        if not 1 <= v <= h.n:
            raise PreconditionError(
                f"vertex id {v} is outside 1..{h.n} of the target")
    s = frozenset(v - 1 for v in args.set) if args.set else None
    pair = tuple(v - 1 for v in args.pair) if args.pair else None
    dest = tuple(v - 1 for v in args.dest) if args.dest else None
    vertex = args.vertex - 1 if args.vertex is not None else None
    kind = args.kind
    report = {"kind": kind}
    if kind == "splitter":
        g = gadgets.build_splitter(h, s, vertex)
        report["base_cost"] = g.meta["alpha"]
    elif kind == "matcher":
        g = gadgets.build_matcher(h, pair[0], pair[1])
        report["base_cost"] = g.meta["alpha"]
    elif kind == "translator":
        g, orient = gadgets.build_translator(h, pair[0], pair[1],
                                             dest[0], dest[1])
        report["base_cost"] = g.meta["alpha"]
        report["orientation"] = [orient[0] + 1, orient[1] + 1]
    elif kind == "prohibitor":
        g = gadgets.build_prohibitor(h, s, vertex)
        report["base_cost"] = g.meta["alpha"]
    elif kind == "s-prohibitor":
        g = gadgets.build_s_prohibitor(h, s)
        report["base_cost"] = g.meta["alpha"]
    elif kind == "neq":
        g = gadgets.synthesize_neq(h, pair[0], pair[1],
                                   budget=args.search_budget)
        if g is None:
            raise PreconditionError(
                "no inequality realizer found within the search budget")
        report["base_cost"] = gadgets.base_cost(gadgets.cost_table(h, g, "ed"))
    elif kind == "move":
        g = gadgets.move_between_pairs(h, frozenset(pair), frozenset(dest))
        rep = gadgets.move_report(h, g)
        report["forced"] = {str(u + 1): v + 1
                            for u, v in sorted(rep.forced.items())}
    elif kind == "indicator":
        g, relation = gadgets.build_indicator(h, s, dest[0], dest[1])
        report["relation_size"] = len(relation)
    else:
        raise PreconditionError(f"unknown gadget kind {kind!r}")
    text = gadgets.format_gadget(g)
    report["gadget"] = text
    report["vertices"] = g.n
    if args.verify:
        mode = "vd" if kind in ("splitter", "matcher", "translator",
                                "prohibitor", "s-prohibitor") else "ed"
        try:
            table = gadgets.enumerate_cost_table(h, gadgets.Gadget(
                g.n, g.edges, g.lists, g.portals), mode)
            cached = g.tables.get(mode)
            report["verified"] = cached is None or cached == table
        except gadgets.GadgetError:
            report["verified"] = "table too large to enumerate"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    _emit(report)
    return EXIT_OK


def cmd_reduce(args) -> int:
    classic = reductions.parse_classic(_read(args.input))
    h, inst = reductions.encode_classic(classic)
    target_text = format_target(h)
    instance_text = format_instance(inst)
    if args.target_out:
        with open(args.target_out, "w", encoding="utf-8") as f:
            f.write(target_text)
    if args.instance_out:
        with open(args.instance_out, "w", encoding="utf-8") as f:
            f.write(instance_text)
    _emit({"kind": classic.kind, "target": target_text,
           "instance": instance_text})
    return EXIT_OK


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    counts = {"vd": 0, "ed": 0, "ed_infeasible": 0, "roundtrip": 0}
    for _ in range(args.count):
        h = random_target(rng, rng.randint(1, 4))
        inst = random_instance(rng, h, rng.randint(1, 6))
        want = oracle.oracle_vd(h, inst)
        for solver in (dpsolve.solve_vd_dp, dpsolve.solve_vd_auto):
            got = solver(h, inst)
            if got.cost != want.cost:
                raise AssertionError(
                    f"{solver.__name__} cost {got.cost} but the vd "
                    f"oracle gives {want.cost}")
        counts["vd"] += 1
        try:
            want = oracle.oracle_ed(h, inst)
        except Infeasible:
            counts["ed_infeasible"] += 1
            continue
        for solver in (dpsolve.solve_ed_dp, dpsolve.solve_ed_auto):
            got = solver(h, inst)
            if got.cost != want.cost:
                raise AssertionError(
                    f"{solver.__name__} cost {got.cost} but the ed "
                    f"oracle gives {want.cost}")
        counts["ed"] += 1
    for _ in range(max(1, args.count // 4)):
        n = rng.randint(2, 4)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        c = reductions.ClassicInstance("vertex-cover", n, edges)
        h, inst = reductions.encode_classic(c)
        want, got = oracle.oracle_vd(h, inst), dpsolve.solve_vd_dp(h, inst)
        if got.cost != want.cost:
            raise AssertionError(
                f"vertex cover: vd DP cost {got.cost} but the oracle gives "
                f"{want.cost}")
        counts["roundtrip"] += 1
    _emit({"seed": args.seed, "count": args.count, "checks": counts,
           "ok": True})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lhomdel",
        description="List-homomorphism deletion: classification, exact "
                    "solving, gadget construction, and reductions.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a target graph")
    c.add_argument("target")
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("solve", help="solve a deletion instance")
    s.add_argument("mode", choices=("vd", "ed"))
    s.add_argument("target")
    s.add_argument("instance")
    s.add_argument("--td", help="tree decomposition file (PACE format)")
    s.add_argument("--core", help="hub core file")
    s.add_argument("--algo", default="auto",
                   choices=("auto", "poly", "dp", "oracle"))
    s.set_defaults(func=cmd_solve)

    g = sub.add_parser("gadget", help="construct and verify a gadget")
    g.add_argument("kind", choices=("splitter", "matcher", "translator",
                                    "prohibitor", "s-prohibitor", "neq",
                                    "move", "indicator"))
    g.add_argument("target")
    g.add_argument("--set", type=int, nargs="+",
                   help="vertex set S (1-indexed)")
    g.add_argument("--vertex", type=int, help="distinguished vertex of S")
    g.add_argument("--pair", type=int, nargs=2, help="source pair")
    g.add_argument("--dest", type=int, nargs=2, help="destination pair")
    g.add_argument("--search-budget", type=int, default=6)
    g.add_argument("--verify", action="store_true",
                   help="recompute the cost table from the gadget graph "
                        "and compare")
    g.add_argument("--out", help="also write the gadget file here")
    g.set_defaults(func=cmd_gadget)

    r = sub.add_parser("reduce", help="encode a classic problem instance")
    r.add_argument("input", help="classic problem file")
    r.add_argument("--target-out")
    r.add_argument("--instance-out")
    r.set_defaults(func=cmd_reduce)

    t = sub.add_parser("selftest", help="random solver-vs-oracle checks")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--count", type=int, default=50)
    t.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        _emit({"error": "infeasible", "detail": str(exc)})
        return EXIT_INFEASIBLE
    except (ParseError, FileNotFoundError) as exc:
        _emit({"error": "parse", "detail": str(exc)})
        return EXIT_PARSE
    except (PreconditionError, gadgets.GadgetError, ValueError) as exc:
        _emit({"error": "precondition", "detail": str(exc)})
        return EXIT_PRECONDITION
    except Exception as exc:
        traceback.print_exc()
        _emit({"error": "internal",
               "detail": f"{type(exc).__name__}: {exc}"})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: classify targets, solve instances, emit verified
gadgets, run problem reductions, and self-test against the oracles.

All commands print deterministic JSON to stdout through one writer,
_emit, laid out as json.dumps(sort_keys=True, indent=2) lays it out; no
report has a depth limit, and none is held whole as text.  Exit codes:
0 success, 1 infeasible (edge deletion with an empty list), 2 parse error
(also an input file that cannot be read or decoded), 3 precondition
violation (also an output file that cannot be written, and a MemoryError,
reported with the detail "out of memory"), 4 internal error (a bug: any
other exception, reported as {"error": "internal", "detail": "<Type>:
<message>"}, with the traceback on stderr).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from json.encoder import encode_basestring_ascii as _json_str

from . import analysis, dpsolve, gadgets, oracle, polysolve
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


_NESTED = frozenset((dict, list))
_INT = frozenset((int,))


def _emit(obj) -> None:
    """Write a report, built from dicts with str keys, lists, str, int, bool
    and None, to stdout as json.dumps(obj, sort_keys=True, indent=2) + "\\n"
    lays it out.  A stack replaces json.dumps's recursion, which fails at
    about 500 levels, and the text is written one list or dict element at
    a time, a list or dict holding neither in one write: a classify tree's
    text grows as the cube of the target and is never held whole."""
    write = sys.stdout.write
    stack = ["\n", (obj, 0, "")]  # (value, nesting, text before it) or text
    while stack:
        top = stack.pop()
        if type(top) is str:
            write(top)
            continue
        value, lv, before = top
        if type(value) is list:
            keys, vals, open_, close = None, value, "[", "]"
        elif type(value) is dict:
            keys = sorted(value)
            vals = [*map(value.__getitem__, keys)]
            open_, close = "{", "}"
        else:
            write(before + _scalar(value))
            continue
        if not vals:
            write(before + open_ + close)
            continue
        nl = "\n" + "  " * (lv + 1)
        close = "\n" + "  " * lv + close
        kinds = set(map(type, vals))
        if kinds.isdisjoint(_NESTED):
            write(before + open_ + nl + _flat(keys, vals, kinds, "," + nl)
                  + close)
            continue
        write(before + open_)
        stack.append(close)
        for i in range(len(vals) - 1, -1, -1):
            key = "" if keys is None else _json_str(keys[i]) + ": "
            stack.append((vals[i], lv + 1, ("," if i else "") + nl + key))


def _scalar(v) -> str:
    """A str, int, bool or None as json.dumps writes it."""
    if type(v) is str:
        return _json_str(v)
    if type(v) is int:
        return int.__repr__(v)
    if v is None:
        return "null"
    if type(v) is bool:
        return "true" if v else "false"
    raise TypeError(f"{type(v).__name__} is not a report value")


def _flat(keys, vals, kinds, sep) -> str:
    """The elements of a list (keys None) or of a dict (its sorted keys)
    holding no list or dict, joined by sep.  All-int values skip the
    per-value call: %d and int.__repr__ write an int as json.dumps does."""
    if keys is None:
        return sep.join(map(int.__repr__ if kinds == _INT else _scalar,
                            vals))
    # one %-format writes a dict's items, keys and values interleaved
    fmt, texts = (("%s: %d", vals) if kinds == _INT
                  else ("%s: %s", [*map(_scalar, vals)]))
    args = [None] * (2 * len(vals))
    args[::2], args[1::2] = map(_json_str, keys), texts
    return ((fmt + sep) * len(vals))[:-len(sep)] % tuple(args)


def _read(path: str) -> str:
    """An input file's text.  A file that cannot be opened, read or decoded
    as UTF-8 is a parse error (exit 2) whose detail names the path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise ParseError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _write(path: str, text: str) -> None:
    """Write an output file; one that cannot be written is a precondition
    violation (exit 3)."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise PreconditionError(str(exc)) from None


def cmd_classify(args) -> int:
    _emit(analysis.classification_json(parse_target(_read(args.target))))
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
    if args.td is not None and args.core is not None:
        raise PreconditionError(
            "--td and --core both give a tree decomposition; pass one")
    h = parse_target(_read(args.target))
    inst = parse_instance(_read(args.instance), h)
    td = None
    if args.td is not None:
        td = parse_td(_read(args.td), inst.n)
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
    out = {"mode": sol.mode, "opt": sol.cost,
           "deleted": ([v + 1 for v in sol.deleted] if sol.mode == "vd"
                       else [[u + 1, v + 1] for u, v in sol.deleted]),
           # JSON keys are strings, and sort as strings: "10" before "2"
           "homomorphism": {str(v + 1): img + 1
                            for v, img in sol.hom.items()},
           "algorithm": sol.algorithm, "stats": sol.stats}
    if inst.budget is not None:
        out["decision"] = sol.cost <= inst.budget
    _emit(out)
    return EXIT_OK


def _alpha(g):
    return g, {"base_cost": g.meta["alpha"]}


def _translator(h, a):
    g, orient = gadgets.build_translator(h, *a.pair, *a.dest)
    return g, {"base_cost": g.meta["alpha"],
               "orientation": [orient[0] + 1, orient[1] + 1]}


def _neq(h, a):
    g = gadgets.synthesize_neq(h, *a.pair, budget=a.search_budget)
    if g is None:
        raise PreconditionError(
            "no inequality realizer found within the search budget")
    return g, {"base_cost": gadgets.base_cost(gadgets.cost_table(h, g, "ed"))}


def _move(h, a):
    g = gadgets.move_between_pairs(h, frozenset(a.pair), frozenset(a.dest))
    rep = gadgets.move_report(h, g)
    return g, {"forced": {str(u + 1): v + 1
                          for u, v in sorted(rep.forced.items())}}


def _indicator(h, a):
    g, relation = gadgets.build_indicator(h, a.set, *a.dest)
    return g, {"relation_size": len(relation)}


# gadget kind -> (the arguments its builder needs, the mode --verify
# checks, the builder: (target, 0-based arguments) -> (gadget, report))
_GADGETS = {
    "splitter": (("set", "vertex"), "vd", lambda h, a: _alpha(
        gadgets.build_splitter(h, a.set, a.vertex))),
    "matcher": (("pair",), "vd", lambda h, a: _alpha(
        gadgets.build_matcher(h, *a.pair))),
    "translator": (("pair", "dest"), "vd", _translator),
    "prohibitor": (("set", "vertex"), "vd", lambda h, a: _alpha(
        gadgets.build_prohibitor(h, a.set, a.vertex))),
    "s-prohibitor": (("set",), "vd", lambda h, a: _alpha(
        gadgets.build_s_prohibitor(h, a.set))),
    "neq": (("pair",), "ed", _neq),
    "move": (("pair", "dest"), "ed", _move),
    "indicator": (("set", "dest"), "ed", _indicator),
}


def cmd_gadget(args) -> int:
    h = parse_target(_read(args.target))
    need, mode, build = _GADGETS[args.kind]
    for name in need:
        if getattr(args, name) is None:
            raise PreconditionError(f"gadget {args.kind} needs --{name}")
    ids = ((args.set or []) + (args.pair or []) + (args.dest or [])
           + ([] if args.vertex is None else [args.vertex]))
    for v in ids:
        if not 1 <= v <= h.n:
            raise PreconditionError(
                f"vertex id {v} is outside 1..{h.n} of the target")
    a = argparse.Namespace(
        set=frozenset(v - 1 for v in args.set) if args.set else None,
        pair=tuple(v - 1 for v in args.pair) if args.pair else None,
        dest=tuple(v - 1 for v in args.dest) if args.dest else None,
        vertex=args.vertex - 1 if args.vertex is not None else None,
        search_budget=args.search_budget)
    g, report = build(h, a)
    report["kind"] = args.kind
    text = gadgets.format_gadget(g)
    report["gadget"] = text
    report["vertices"] = g.n
    if args.verify:
        cached = g.tables[mode]  # every builder leaves its mode's table
        try:
            report["verified"] = cached == gadgets.enumerate_cost_table(
                h, g, mode)
        except gadgets.GadgetError:
            report["verified"] = "table too large to enumerate"
    if args.out:
        _write(args.out, text)
    _emit(report)
    return EXIT_OK


def cmd_reduce(args) -> int:
    from . import reductions  # only reduce and selftest load it

    classic = reductions.parse_classic(_read(args.input))
    h, inst = reductions.encode_classic(classic)
    target_text = format_target(h)
    instance_text = format_instance(inst)
    created = False  # a target file that this call made
    if args.target_out:
        created = not os.path.exists(args.target_out)
        _write(args.target_out, target_text)
    if args.instance_out:
        try:
            _write(args.instance_out, instance_text)
        except PreconditionError:  # a failed reduce leaves no new file
            if created:
                os.remove(args.target_out)
            raise
    _emit({"kind": classic.kind, "target": target_text,
           "instance": instance_text})
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import reductions

    rng = random.Random(args.seed)
    counts = {"vd": 0, "ed": 0, "ed_infeasible": 0, "roundtrip": 0}
    for _ in range(args.count):
        h = random_target(rng, rng.randint(1, 4))
        inst = random_instance(rng, h, rng.randint(1, 6))
        for mode in ("vd", "ed"):
            try:  # only ed is infeasible: vd can delete every vertex
                want = _SOLVERS[mode, "oracle"](h, inst)
            except Infeasible:
                counts["ed_infeasible"] += 1
                break
            for solver in (_SOLVERS[mode, "dp"], _SOLVERS[mode, "auto"]):
                got = solver(h, inst)
                if got.cost != want.cost:
                    raise AssertionError(
                        f"{solver.__name__} cost {got.cost} but the {mode} "
                        f"oracle gives {want.cost}")
            counts[mode] += 1
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


def non_negative_int(text: str) -> int:
    """argparse type of a count option."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


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
    g.add_argument("kind", choices=tuple(_GADGETS))
    g.add_argument("target")
    g.add_argument("--set", type=int, nargs="+",
                   help="vertex set S (1-indexed)")
    g.add_argument("--vertex", type=int, help="distinguished vertex of S")
    g.add_argument("--pair", type=int, nargs=2, help="source pair")
    g.add_argument("--dest", type=int, nargs=2, help="destination pair")
    g.add_argument("--search-budget", type=non_negative_int, default=6)
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
    t.add_argument("--count", type=non_negative_int, default=50)
    t.set_defaults(func=cmd_selftest)
    return p


# built once per process: parse_args keeps no state in the parser, and
# building it costs far more than a parse
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        _emit({"error": "infeasible", "detail": str(exc)})
        return EXIT_INFEASIBLE
    except ParseError as exc:
        _emit({"error": "parse", "detail": str(exc)})
        return EXIT_PARSE
    except (PreconditionError, gadgets.GadgetError, ValueError) as exc:
        _emit({"error": "precondition", "detail": str(exc)})
        return EXIT_PRECONDITION
    except MemoryError:  # an input too large for this process's memory
        pass
    except Exception as exc:
        import traceback  # only a bug pays for this import
        traceback.print_exc()
        _emit({"error": "internal",
               "detail": f"{type(exc).__name__}: {exc}"})
        return EXIT_INTERNAL
    # only a MemoryError gets here; it is reported once its handler has
    # ended, which drops the traceback and with it the failed call's
    # frames and whatever they held
    _emit({"error": "precondition", "detail": "out of memory"})
    return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())

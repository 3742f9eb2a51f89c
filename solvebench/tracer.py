"""Span recorder for the traced run.

Wraps lhomdel's public functions at every import site (the modules bind
most of them by `from ... import`, and the CLI keeps the solvers in a
dict), records one span per call -- name, start, end, parent, op id -- in
memory, and derives the per-layer metrics after the run.  Nothing under
src/ changes.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute, extractor of counts from (args, result))
WRAPPED = (
    ("graphs.parse_target", "graphs", "parse_target", None),
    ("graphs.parse_instance", "graphs", "parse_instance", None),
    ("graphs.reduce_lists", "graphs", "reduce_lists", None),
    ("graphs.max_incomparable", "graphs", "max_incomparable", None),
    ("graphs.check", "graphs", "Solution.check", None),
    ("treewidth.build_td", "treewidth", "build_td", None),
    ("treewidth.validate_td", "treewidth", "validate_td", None),
    ("treewidth.make_nice", "treewidth", "make_nice",
     lambda a, r: {"nodes": len(r)}),
    ("dpsolve.solve_vd_dp", "dpsolve", "solve_vd_dp",
     lambda a, r: {"h": a[0], "mode": "vd", **r.stats}),
    ("dpsolve.solve_ed_dp", "dpsolve", "solve_ed_dp",
     lambda a, r: {"h": a[0], "mode": "ed", **r.stats}),
    ("dpsolve.solve_vd_auto", "dpsolve", "solve_vd_auto", None),
    ("dpsolve.solve_ed_auto", "dpsolve", "solve_ed_auto", None),
    ("dpsolve.split_by_decomposition", "dpsolve", "split_by_decomposition",
     None),
    ("polysolve.solve_vd_poly", "polysolve", "solve_vd_poly", None),
    ("polysolve.solve_ed_poly", "polysolve", "solve_ed_poly", None),
    ("polysolve.staircase_orders", "polysolve", "staircase_orders", None),
    ("polysolve.rectangle_cover", "polysolve", "rectangle_cover", None),
    ("mincut.min_cut", "mincut", "min_cut", lambda a, r: {"flow": r[0]}),
    ("mincut.min_vertex_separator", "mincut", "min_vertex_separator", None),
    ("analysis.classify_vd", "analysis", "classify_vd", None),
    ("analysis.classify_ed", "analysis", "classify_ed", None),
    ("analysis.find_obstruction", "analysis", "find_obstruction", None),
    ("analysis.find_decomposition", "analysis", "find_decomposition",
     lambda a, r: {"target": list(a[0].nbhd)}),
    ("analysis.is_decomposable", "analysis", "is_decomposable", None),
    ("analysis.i_bullet", "analysis", "i_bullet", None),
    ("analysis.decomposition_tree", "analysis", "decomposition_tree", None),
    ("analysis.classification_json", "analysis", "classification_json", None),
    ("oracle.oracle_decomposition", "oracle", "oracle_decomposition", None),
    ("kernels.subset_scan", "_kernels", "subset_scan", None),
    ("kernels.scan_table", "_kernels", "scan_table", None),
    ("kernels.scan_best", "_kernels", "scan_best", None),
    ("gadgets.build_s_prohibitor", "gadgets", "build_s_prohibitor", None),
    ("gadgets.build_prohibitor", "gadgets", "build_prohibitor", None),
    ("gadgets.move_between_pairs", "gadgets", "move_between_pairs", None),
    ("gadgets.move_report", "gadgets", "move_report", None),
    ("gadgets.enumerate_cost_table", "gadgets", "enumerate_cost_table", None),
    ("gadgets.format_gadget", "gadgets", "format_gadget", None),
)
ROOT = "cli.main"

# Per-layer metrics: name -> (unit, how it is derived, end-to-end metric
# and workload it should move).  "self" is a span's duration minus its
# children's; "/op" divides a run total by the traced op count.
LAYER_METRICS = {
    "cli.self_s": ("s/op", "self time of the cli.main op span (argument "
                   "parsing, file reads, JSON emission)",
                   "op_p50_s on sparse_large"),
    "graphs.parse_s": ("s/op", "self time of parse_target + parse_instance",
                       "op_p50_s on sparse_large"),
    "graphs.reduce_lists_s": ("s/op", "self time of reduce_lists",
                              "op_p50_s on sparse_large"),
    "graphs.check_s": ("s/op", "self time of Solution.check",
                       "op_p50_s on sparse_large"),
    "graphs.max_incomparable_s": ("s/op", "self time of max_incomparable",
                                  "op_p50_s on sparse_large and "
                                  "target_analysis"),
    "treewidth.build_td_s": ("s/op", "self time of build_td",
                             "op_tail_s on sparse_large; op_p50_s on dp_wide, "
                             "where it is about 30% of op time"),
    "treewidth.validate_td_s": ("s/op", "self time of validate_td",
                                "op_tail_s on sparse_large"),
    "treewidth.make_nice_s": ("s/op", "self time of make_nice",
                              "op_tail_s on sparse_large"),
    "treewidth.nice_nodes": ("count/op", "nice nodes returned by make_nice",
                             "op_tail_s on sparse_large"),
    "dpsolve.self_s": ("s/op", "self time of solve_vd_dp/solve_ed_dp: the "
                       "DP pass plus traceback",
                       "op_p50_s, op_tail_s, peak_rss_mb on dp_wide"),
    "dpsolve.calls": ("count/op", "solve_*_dp calls", "op_p50_s on dp_wide"),
    "dpsolve.width_max": ("count", "largest decomposition width (stats)",
                          "op_tail_s on dp_wide"),
    "dpsolve.max_bag_states": ("count", "largest DP table (stats)",
                               "peak_rss_mb on dp_wide"),
    "dpsolve.state_bound_frac": ("ratio", "max over DP calls of table size "
                                 "over (i(H)+1)^(w+1) (vd) or i(H)^(w+1) (ed)",
                                 "peak_rss_mb on dp_wide"),
    "dpsolve.split_s": ("s/op", "self time of split_by_decomposition",
                        "op_p50_s on fixed_target"),
    "dpsolve.split_calls": ("count/op", "split_by_decomposition calls",
                            "op_p50_s on fixed_target"),
    "polysolve.self_s": ("s/op", "self time of solve_vd_poly/solve_ed_poly",
                         "op_p50_s on sparse_large"),
    "polysolve.staircase_orders_s": ("s/op", "self time of staircase_orders",
                                     "op_p50_s on sparse_large"),
    "polysolve.rectangle_cover_s": ("s/op", "self time of rectangle_cover",
                                    "op_p50_s on sparse_large"),
    "polysolve.rectangle_cover_calls": ("count/op", "rectangle_cover calls",
                                        "op_p50_s on sparse_large"),
    "mincut.min_cut_s": ("s/op", "self time of min_cut",
                         "op_p50_s on sparse_large"),
    "mincut.min_vertex_separator_s": ("s/op", "self time of "
                                      "min_vertex_separator",
                                      "op_p50_s on sparse_large"),
    "mincut.calls": ("count/op", "min_cut calls", "op_p50_s on sparse_large"),
    "mincut.flow_total": ("count/op", "sum of min_cut flow values",
                          "op_p50_s on sparse_large"),
    "analysis.self_s": ("s/op", "self time of every analysis span",
                        "op_p50_s on fixed_target and target_analysis"),
    "analysis.find_decomposition_s": ("s/op", "duration of find_decomposition "
                                      "spans, children included",
                                      "op_p50_s on fixed_target"),
    "analysis.find_decomposition_calls": ("count/op", "find_decomposition "
                                          "calls", "op_p50_s on fixed_target"),
    "analysis.target_repeat_frac": ("ratio", "share of find_decomposition "
                                    "calls on a target already seen in the run",
                                    "op_p50_s on fixed_target"),
    "oracle.oracle_decomposition_s": ("s/op", "self time of "
                                      "oracle_decomposition",
                                      "op_p50_s on fixed_target and "
                                      "target_analysis"),
    "oracle.oracle_decomposition_calls": ("count/op", "oracle_decomposition "
                                          "calls", "op_p50_s on fixed_target"),
    "kernels.subset_scan_s": ("s/op", "self time of _kernels.subset_scan",
                              "op_tail_s on target_analysis"),
    "kernels.scan_table_s": ("s/op", "self time of _kernels.scan_table",
                             "op_tail_s on target_analysis"),
    "kernels.scan_best_s": ("s/op", "self time of _kernels.scan_best",
                            "op_tail_s on target_analysis"),
    "gadgets.self_s": ("s/op", "self time of the gadget spans",
                       "op_tail_s on target_analysis"),
    "trace.overhead_frac": ("ratio", "traced op time over untraced op time "
                            "of the same ops, minus 1", "none: a check"),
}


class Recorder:
    """Holds the spans of one run; install()/remove() toggle the wrappers."""

    def __init__(self, lhomdel_modules: dict):
        self.spans = []      # [name, start, end, parent, op, attrs]
        self.stack = []
        self.op = -1
        self.sites = []      # (holder, key, original, wrapper, is_dict)
        by_id = {}
        for name, mod, attr, extract in WRAPPED:
            holder = lhomdel_modules[mod]
            if "." in attr:
                cls, meth = attr.split(".")
                orig = getattr(getattr(holder, cls), meth)
                self.sites.append((getattr(holder, cls), meth, orig,
                                   self._wrap(name, orig, extract), False))
                continue
            orig = getattr(holder, attr)
            by_id[id(orig)] = (orig, self._wrap(name, orig, extract))
        for m in lhomdel_modules.values():
            for key, val in list(vars(m).items()):
                if id(val) in by_id and by_id[id(val)][0] is val:
                    self.sites.append((m, key, val, by_id[id(val)][1], False))
        solvers = lhomdel_modules["cli"]._SOLVERS
        for key, val in solvers.items():
            if id(val) in by_id:
                self.sites.append((solvers, key, val, by_id[id(val)][1], True))

    def _wrap(self, name, fn, extract):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[5] = extract(args, result)
            return result
        return wrapper

    def install(self):
        for holder, key, _, wrapper, is_dict in self.sites:
            if is_dict:
                holder[key] = wrapper
            else:
                setattr(holder, key, wrapper)

    def remove(self):
        for holder, key, orig, _, is_dict in self.sites:
            if is_dict:
                holder[key] = orig
            else:
                setattr(holder, key, orig)

    def root(self, op: int):
        """Context for one traced op: the cli.main span."""
        return _Root(self, op)

    def dump(self, path, max_incomparable) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for name, start, end, parent, op, attrs in self.spans:
                if attrs and "h" in attrs:
                    attrs = dict(attrs, h=max_incomparable(attrs["h"])[0])
                f.write(json.dumps([name, start, end, parent, op, attrs]) + "\n")

    def _durations(self):
        """(duration, self time) per span: self excludes direct children."""
        dur = [s[2] - s[1] for s in self.spans]
        self_t = list(dur)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                self_t[s[3]] -= dur[i]
        return dur, self_t

    def metrics(self, ops: int, overhead: float, max_incomparable) -> dict:
        dur, self_t = self._durations()
        tot = defaultdict(float)
        calls = defaultdict(int)
        for s, t in zip(self.spans, self_t):
            tot[s[0]] += t
            calls[s[0]] += 1

        def per_op(*names):
            return sum(tot[n] for n in names) / ops

        def count(*names):
            return sum(calls[n] for n in names) / ops

        dp = [s[5] for s in self.spans
              if s[0] in ("dpsolve.solve_vd_dp", "dpsolve.solve_ed_dp")
              and s[5] is not None]
        frac = 0.0
        for a in dp:
            i = max_incomparable(a["h"])[0] + (1 if a["mode"] == "vd" else 0)
            frac = max(frac, a["max_bag_states"] / i ** (a["width"] + 1))
        seen, repeats, decomp_s = set(), 0, 0.0
        for s, d in zip(self.spans, dur):
            if s[0] == "analysis.find_decomposition":
                decomp_s += d
                key = tuple(s[5]["target"]) if s[5] else None
                repeats += key in seen
                seen.add(key)
        ndec = calls["analysis.find_decomposition"]
        attrs = [s[5] for s in self.spans if s[5]]
        out = {
            "cli.self_s": per_op(ROOT),
            "graphs.parse_s": per_op("graphs.parse_target",
                                     "graphs.parse_instance"),
            "graphs.reduce_lists_s": per_op("graphs.reduce_lists"),
            "graphs.check_s": per_op("graphs.check"),
            "graphs.max_incomparable_s": per_op("graphs.max_incomparable"),
            "treewidth.build_td_s": per_op("treewidth.build_td"),
            "treewidth.validate_td_s": per_op("treewidth.validate_td"),
            "treewidth.make_nice_s": per_op("treewidth.make_nice"),
            "treewidth.nice_nodes": sum(a.get("nodes", 0) for a in attrs) / ops,
            "dpsolve.self_s": per_op("dpsolve.solve_vd_dp",
                                     "dpsolve.solve_ed_dp"),
            "dpsolve.calls": count("dpsolve.solve_vd_dp", "dpsolve.solve_ed_dp"),
            "dpsolve.width_max": max((a["width"] for a in dp), default=0),
            "dpsolve.max_bag_states": max((a["max_bag_states"] for a in dp),
                                          default=0),
            "dpsolve.state_bound_frac": frac,
            "dpsolve.split_s": per_op("dpsolve.split_by_decomposition"),
            "dpsolve.split_calls": count("dpsolve.split_by_decomposition"),
            "polysolve.self_s": per_op("polysolve.solve_vd_poly",
                                       "polysolve.solve_ed_poly"),
            "polysolve.staircase_orders_s": per_op("polysolve.staircase_orders"),
            "polysolve.rectangle_cover_s": per_op("polysolve.rectangle_cover"),
            "polysolve.rectangle_cover_calls": count("polysolve.rectangle_cover"),
            "mincut.min_cut_s": per_op("mincut.min_cut"),
            "mincut.min_vertex_separator_s": per_op("mincut.min_vertex_separator"),
            "mincut.calls": count("mincut.min_cut"),
            "mincut.flow_total": sum(a.get("flow", 0) for a in attrs) / ops,
            "analysis.self_s": per_op(*[n for n in tot
                                        if n.startswith("analysis.")]),
            "analysis.find_decomposition_s": decomp_s / ops,
            "analysis.find_decomposition_calls": ndec / ops,
            "analysis.target_repeat_frac": repeats / ndec if ndec else 0.0,
            "oracle.oracle_decomposition_s": per_op("oracle.oracle_decomposition"),
            "oracle.oracle_decomposition_calls": count(
                "oracle.oracle_decomposition"),
            "kernels.subset_scan_s": per_op("kernels.subset_scan"),
            "kernels.scan_table_s": per_op("kernels.scan_table"),
            "kernels.scan_best_s": per_op("kernels.scan_best"),
            "gadgets.self_s": per_op(*[n for n in tot
                                       if n.startswith("gadgets.")]),
            "trace.overhead_frac": overhead,
        }
        assert list(out) == list(LAYER_METRICS)
        return out

    def layer_self(self, ops: int) -> dict:
        """Self time per op summed by module, for the dominance report."""
        _, self_t = self._durations()
        out = defaultdict(float)
        for s, t in zip(self.spans, self_t):
            out[s[0].split(".")[0]] += t / ops
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))


class _Root:
    def __init__(self, rec, op):
        self.rec, self.op = rec, op

    def __enter__(self):
        rec = self.rec
        rec.op = self.op
        self.span = [ROOT, 0.0, 0.0, -1, self.op, None]
        rec.stack.append(len(rec.spans))
        rec.spans.append(self.span)
        self.span[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.span[2] = time.perf_counter()
        self.rec.stack.clear()
        return False


def lhomdel_modules() -> dict:
    return {name.split(".")[1]: mod for name, mod in sys.modules.items()
            if name.startswith("lhomdel.") and mod is not None}

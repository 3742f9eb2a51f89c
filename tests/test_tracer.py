import os

import lhomdel.cli  # loads every module the tracer wraps
from lhomdel.graphs import format_target, max_incomparable

import families

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "solvebench")


def test_tracer_finds_every_wrapped_function(monkeypatch):
    # a rename under src/ would otherwise surface only in a traced
    # benchmark run; building the recorder installs nothing
    monkeypatch.syspath_prepend(BENCH)
    import tracer

    mods = tracer.lhomdel_modules()
    rec = tracer.Recorder(mods)
    originals = {id(orig) for _, _, orig, _, _ in rec.sites}
    for name, mod, attr, _ in tracer.WRAPPED:
        holder = mods[mod]
        for part in attr.split("."):
            holder = getattr(holder, part)
        assert id(holder) in originals, name


def test_traced_ops_yield_metrics(monkeypatch, tmp_path):
    # every extractor reads the return value of the function it wraps, so
    # a changed return shape (min_cut's flow value is r[0]) would break
    # only traced benchmark runs unless one runs here
    monkeypatch.syspath_prepend(BENCH)
    import tracer

    t = tmp_path / "h.hg"
    t.write_text(format_target(families.reflexive_path(3)))
    i = tmp_path / "g.lhi"
    # a path of four pinned pairwise to the ends of the target: its middle
    # edge joins non-adjacent images, so each poly solve cuts a positive flow
    i.write_text("p lhom 4 3\ne 1 2\ne 2 3\ne 3 4\n"
                 "l 1 1 1\nl 2 1 1\nl 3 1 3\nl 4 1 3\n")
    ops = [["solve", "vd", str(t), str(i)],
           ["solve", "ed", str(t), str(i)],
           ["solve", "ed", str(t), str(i), "--algo", "dp"],
           ["classify", str(t)]]
    rec = tracer.Recorder(tracer.lhomdel_modules())
    rec.install()
    try:
        for index, argv in enumerate(ops):
            with rec.root(index):
                assert lhomdel.cli.main(argv) == lhomdel.cli.EXIT_OK
    finally:
        rec.remove()
    m = rec.metrics(len(ops), 0.0, max_incomparable)
    assert list(m) == list(tracer.LAYER_METRICS)
    assert m["mincut.calls"] > 0 and m["mincut.flow_total"] > 0
    assert m["dpsolve.calls"] > 0 and m["dpsolve.max_bag_states"] > 0
    assert m["treewidth.nice_nodes"] > 0
    assert m["analysis.find_decomposition_calls"] > 0

import os

import lhomdel.cli  # noqa: F401  (loads every module the tracer wraps)

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

"""The span tracer: missing targets are reported, not read as free layers.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import sys

import pytest

import layers
import tracer
from workloads import Cycle


def test_a_missing_target_is_listed_and_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", [("causaltext.metrics", "shd"),
                                            ("causaltext.metrics", "no_such_function"),
                                            ("causaltext.gateway", "NoSuchClass.method")])
    t = tracer.Tracer()
    t.install()
    try:
        assert t.skipped == ["metrics.no_such_function", "gateway.NoSuchClass.method"]
        path = tmp_path / "trace-evaluate.json"
        t.dump(str(path), {"command_s": 1.0})
        assert json.loads(path.read_text())["meta"]["skipped"] == t.skipped
        cyc = Cycle(traces=[str(path)], facts={"samples": 1})
        with pytest.raises(RuntimeError, match="no_such_function"):
            layers.per_layer(cyc, Cycle())
    finally:  # undo the wrapping in every module that holds a reference
        import causaltext.metrics as metrics

        wrapped = metrics.shd
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("causaltext"):
                for key, val in list(vars(mod).items()):
                    if val is wrapped:
                        setattr(mod, key, wrapped.__wrapped__)

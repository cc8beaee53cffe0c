"""In-process span tracing of causaltext's public functions, without editing them.

``Tracer.install`` replaces each target function or method with a wrapper
that records a span (name, start, end, parent span, sample id, tag).  Spans
stay in memory and ``Tracer.dump`` writes them out once, at exit.  A target
that a later version of the package no longer has is skipped and listed in
``Tracer.skipped``; layers.py refuses a trace with skipped targets, since
their metrics would read 0 as if the layer cost nothing.

``clirun.py --trace`` installs it before running CLI commands.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (module, attribute path); the layer of a span is its module's last component
TARGETS = [
    ("causaltext.graphs", "sample_spec_space"),
    ("causaltext.graphs", "sample_dag"),
    ("causaltext.graphs", "is_acyclic"),
    ("causaltext.gateway", "Gateway.complete"),
    ("causaltext.gateway", "Gateway.complete_json"),
    ("causaltext.gateway", "Gateway.cached"),
    ("causaltext.gateway", "UsageLedger.record"),
    ("causaltext.gateway", "UsageLedger.per_sample"),
    ("causaltext.gateway", "UsageLedger.totals"),
    ("causaltext.gateway", "ResponseCache.__init__"),
    ("causaltext.gateway", "ResponseCache.put"),
    ("causaltext.gateway", "OracleMockBackend.complete"),
    ("causaltext.gateway", "HttpBackend.complete"),
    ("causaltext.assignment", "run_loop"),
    ("causaltext.assignment", "initial_assignment"),
    ("causaltext.assignment", "counterfactual_verification"),
    ("causaltext.assignment", "refine_assignment"),
    ("causaltext.textgen", "generate_text"),
    ("causaltext.textgen", "missing_concepts"),
    ("causaltext.store", "SampleStore.__init__"),
    ("causaltext.store", "SampleStore.append"),
    ("causaltext.store", "SampleStore.__iter__"),
    ("causaltext.store", "RunManifest.from_store"),
    ("causaltext.store", "RunManifest.save"),
    ("causaltext.metrics", "edge_prf"),
    ("causaltext.metrics", "shd"),
    ("causaltext.metrics", "sid"),
    ("causaltext.metrics", "project_dag"),
    ("causaltext.consensus", "RatingMatrix.from_rows"),
    ("causaltext.consensus", "majority_consensus"),
    ("causaltext.consensus", "krippendorff_alpha"),
    ("causaltext.consensus", "flag_low_agreement"),
    ("causaltext.transfer", "ScoreTable.from_csv"),
    ("causaltext.transfer", "agreement"),
    ("causaltext.transfer", "leave_one_out"),
    ("causaltext.transfer", "_stratified_permutation_p"),
    ("causaltext.transfer", "_stratified_bootstrap"),
    ("causaltext.transfer", "permutation_anova_report"),
    ("causaltext.transfer", "permutation_anova"),
    ("causaltext.transfer", "stability_curve"),
]
CLI_COMMANDS = ("graphgen", "generate", "evaluate", "consensus", "transfer")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [parent, name, start, end, sample_id, tag]
        self._stack: list = []
        self._sample = None
        self.skipped: list = []  # targets the package does not have

    def _open(self, name: str, sample_id, tag) -> int:
        if sample_id is not None:
            self._sample = sample_id  # sticky: later bookkeeping belongs to this sample
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([parent, name, time.perf_counter(), None, self._sample, tag])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            # time each step of the iteration, not the consumer's loop body
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name, None, None)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, kwargs.get("sample_id"), kwargs.get("template"))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; the others go to ``self.skipped``."""
        import importlib

        for modname, path in TARGETS:
            name = f"{modname.rsplit('.', 1)[-1]}.{path}"
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.skipped.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.skipped.append(name)
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(raw.__func__, name)))
                elif isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(self.wrap(raw.__func__, name)))
                else:
                    setattr(owner, attr, self.wrap(raw, name))
            else:
                orig = getattr(mod, attr, None)
                if orig is None:
                    self.skipped.append(name)
                    continue
                wrapped = self.wrap(orig, name)
                # rebind every module-level reference, e.g. names imported with `from .x import f`
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("causaltext"):
                        for key, val in list(vars(other).items()):
                            if val is orig:
                                setattr(other, key, wrapped)

    def install_cli(self, cli_module) -> None:
        for cmd in CLI_COMMANDS:
            command = getattr(cli_module, cmd, None)
            if command is not None and getattr(command, "callback", None) is not None:
                command.callback = self.wrap(command.callback, f"cli.{cmd}")

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": {**meta, "skipped": self.skipped}, "spans": self.spans}, fh)

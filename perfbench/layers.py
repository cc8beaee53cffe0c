"""Per-layer metrics from the spans of one traced cycle.

Layers are the package's modules; a span's layer is the first component of
its name (``gateway.Gateway.complete`` belongs to ``gateway``, the command
callbacks ``cli.generate`` etc. to ``cli``).  A span's self time is its
duration minus the durations of its direct children.  Every metric is
reported on every workload; a layer the workload does not reach reads 0.
A trace whose tracer skipped a target (one the package no longer has) is
refused, so that a missing function never reads as a free layer.
Span times are raw (not scaled to the reference machine) and include the
calibration pauses of calib.py, about 5 % of a command's time.
"""

from __future__ import annotations

import json
import os
import statistics

LAYERS = ("cli", "graphs", "gateway", "assignment", "textgen", "store", "metrics", "consensus", "transfer")
BACKENDS = ("gateway.OracleMockBackend.complete", "gateway.HttpBackend.complete")
LEDGER = ("gateway.UsageLedger.record", "gateway.UsageLedger.per_sample", "gateway.UsageLedger.totals")
TEMPLATES = ("phase2", "verify", "refine", "phase3")

# name -> (unit, better); the order is the order of the printed report
PER_LAYER = {
    "graphs.sample_us": ("us", "lower"),
    "graphs.is_acyclic_us": ("us", "lower"),
    "gateway.self_us_per_call": ("us", "lower"),
    "gateway.ledger_ms_per_sample_first10pct": ("ms", "lower"),
    "gateway.ledger_ms_per_sample_last10pct": ("ms", "lower"),
    "gateway.cache_put_ms": ("ms", "lower"),
    "gateway.cache_bytes": ("bytes", "lower"),
    "gateway.cache_load_ms": ("ms", "lower"),
    "gateway.backend_ms_per_call": ("ms", "lower"),
    "gateway.transport_ms_per_call": ("ms", "lower"),
    "gateway.backend_share_of_wall": ("share", "higher"),
    "gateway.latency_share_of_wall": ("share", "higher"),
    "gateway.calls_per_sample": ("count", "lower"),
    "gateway.tokens_per_sample": ("count", "lower"),
    **{f"gateway.calls.{t}": ("count", "lower") for t in TEMPLATES},
    "gateway.reask_share": ("share", "lower"),
    "gateway.cache_hit_share": ("share", "higher"),
    "assignment.sample_ms_p50": ("ms", "lower"),
    "assignment.sample_ms_p90": ("ms", "lower"),
    "assignment.iterations_mean": ("count", "lower"),
    "assignment.loop_success_share": ("share", "higher"),
    "textgen.generate_text_ms": ("ms", "lower"),
    "textgen.coverage_reasks": ("count", "lower"),
    "store.append_us": ("us", "lower"),
    "store.bytes_per_sample": ("bytes", "lower"),
    "store.reopen_ms": ("ms", "lower"),
    "store.manifest_ms": ("ms", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.scipy_loaded": ("count", "lower"),
    "cli.self_us_per_item": ("us", "lower"),
    "metrics.edge_prf_us": ("us", "lower"),
    "metrics.shd_us": ("us", "lower"),
    "metrics.sid_us": ("us", "lower"),
    "metrics.project_dag_us": ("us", "lower"),
    "metrics.projected_share": ("share", "lower"),
    "consensus.majority_ms_per_text": ("ms", "lower"),
    "consensus.alpha_ms": ("ms", "lower"),
    "consensus.flags_ms": ("ms", "lower"),
    "transfer.permutation_s": ("s", "lower"),
    "transfer.bootstrap_s": ("s", "lower"),
    "transfer.loo_s": ("s", "lower"),
    "transfer.anova_ms_per_param": ("ms", "lower"),
    "transfer.stability_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_share": ("share", "lower"),
    "trace.spans": ("count", "lower"),
}


class Trace:
    """The spans of one traced process, with per-span self time."""

    def __init__(self, path: str):
        with open(path) as fh:
            data = json.load(fh)
        self.label = os.path.basename(path)[len("trace-"):-len(".json")]
        self.meta = data["meta"]
        self.spans = data["spans"]
        for s in self.spans:
            if s[3] is None:  # left open by a process that died inside the call
                s[3] = s[2]
        child = [0.0] * len(self.spans)
        for parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_s = [s[3] - s[2] - child[i] for i, s in enumerate(self.spans)]

    def durations(self, *names) -> list:
        return [s[3] - s[2] for s in self.spans if s[1] in names]


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _pct(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _gateway(t: Trace, facts: dict, out: dict) -> None:
    samples = facts["samples"] or 1
    calls = [i for i, s in enumerate(t.spans) if s[1] == "gateway.Gateway.complete"]
    n_calls = len(calls) or 1
    out["gateway.calls_per_sample"] = len(calls) / samples
    for tpl in TEMPLATES:
        out[f"gateway.calls.{tpl}"] = sum(1 for i in calls if t.spans[i][5] == tpl) / samples
    records = [r for r in facts["records"] if r["error"] is None]
    out["gateway.tokens_per_sample"] = sum(r["tokens"]["total"] for r in records) / samples
    kids: dict = {}
    for s in t.spans:
        kids.setdefault(s[0], []).append(s)
    complete_json = [i for i, s in enumerate(t.spans) if s[1] == "gateway.Gateway.complete_json"]
    reasks = sum(max(0, len(kids.get(i, [])) - 1) for i in complete_json)
    out["gateway.reask_share"] = reasks / n_calls
    cached = [i for i, s in enumerate(t.spans) if s[1] == "gateway.Gateway.cached"]
    hits = sum(1 for i in cached if not any(k[1] == "gateway.ResponseCache.put" for k in kids.get(i, [])))
    out["gateway.cache_hit_share"] = hits / len(cached) if cached else 0.0
    out["gateway.self_us_per_call"] = 1e6 * _mean([t.self_s[i] for i in calls])
    backend = t.durations(*BACKENDS)
    out["gateway.backend_ms_per_call"] = 1e3 * _mean(backend)
    out["gateway.backend_share_of_wall"] = sum(backend) / sum(t.durations("cli.generate"))
    server = facts.get("server")
    if server and server["requests"]:
        http = t.durations("gateway.HttpBackend.complete")
        out["gateway.transport_ms_per_call"] = 1e3 * (sum(http) - server["handling_s"]) / server["requests"]
    out["gateway.cache_put_ms"] = 1e3 * _mean(t.durations("gateway.ResponseCache.put"))
    out["gateway.cache_bytes"] = facts.get("cache_bytes", 0)
    per_sample: dict = {}
    for s in t.spans:
        if s[1] in LEDGER:
            per_sample[s[4]] = per_sample.get(s[4], 0.0) + s[3] - s[2]
    ledger = [v for k, v in per_sample.items() if k is not None]  # insertion order is run order
    tenth = max(1, len(ledger) // 10)
    out["gateway.ledger_ms_per_sample_first10pct"] = 1e3 * _mean(ledger[:tenth])
    out["gateway.ledger_ms_per_sample_last10pct"] = 1e3 * _mean(ledger[-tenth:])

    loops = t.durations("assignment.run_loop")
    out["assignment.sample_ms_p50"] = 1e3 * _pct(loops, 0.5)
    out["assignment.sample_ms_p90"] = 1e3 * _pct(loops, 0.9)
    out["assignment.iterations_mean"] = _mean([r["loop_iterations"] for r in records])
    out["assignment.loop_success_share"] = sum(r["loop_status"] == "Success" for r in records) / samples
    gen_text = [i for i, s in enumerate(t.spans) if s[1] == "textgen.generate_text"]
    out["textgen.generate_text_ms"] = 1e3 * _mean([t.spans[i][3] - t.spans[i][2] for i in gen_text])
    out["textgen.coverage_reasks"] = sum(
        max(0, sum(1 for k in kids.get(i, []) if k[1] == "gateway.Gateway.complete_json") - 1) for i in gen_text
    )
    out["store.append_us"] = 1e6 * _mean(t.durations("store.SampleStore.append"))
    out["store.bytes_per_sample"] = facts["store_bytes"] / samples
    out["store.manifest_ms"] = 1e3 * sum(t.durations("store.RunManifest.from_store", "store.RunManifest.save"))


def per_layer(traced, base) -> dict:
    """All per-layer metrics of one traced cycle; ``base`` is the same cycle untraced."""
    out = {name: 0.0 for name in PER_LAYER}
    traces = [Trace(p) for p in traced.traces]
    skipped = sorted({name for t in traces for name in t.meta.get("skipped", [])})
    if skipped:
        raise RuntimeError(f"trace targets missing from the package: {', '.join(skipped)}; "
                           "update TARGETS in perfbench/tracer.py and the metrics built on them")
    by_label = {t.label: t for t in traces}
    main = [t for t in traces if not t.label.startswith("extra-")]
    facts = traced.facts

    def durations(name):
        return [d for t in main for d in t.durations(name)]

    def mean_us(name):
        return 1e6 * _mean(durations(name))

    out["graphs.sample_us"] = mean_us("graphs.sample_dag")
    out["graphs.is_acyclic_us"] = mean_us("graphs.is_acyclic")
    for short in ("edge_prf", "shd", "sid", "project_dag"):
        out[f"metrics.{short}_us"] = mean_us(f"metrics.{short}")
    if "generate_trace" in facts:
        _gateway(by_label[facts["generate_trace"]], facts, out)
    if "warm" in by_label:  # warm passes load the cache the cold pass wrote
        out["gateway.cache_load_ms"] = 1e3 * _mean(by_label["warm"].durations("gateway.ResponseCache.__init__"))
    if "extra-resume" in by_label:
        out["store.reopen_ms"] = 1e3 * sum(by_label["extra-resume"].durations("store.SampleStore.__init__"))
    if "texts" in facts:
        out["consensus.majority_ms_per_text"] = 1e3 * _mean(durations("consensus.majority_consensus")) / facts["texts"]
        out["consensus.alpha_ms"] = 1e3 * _mean(durations("consensus.krippendorff_alpha"))
        out["consensus.flags_ms"] = 1e3 * _mean(durations("consensus.flag_low_agreement"))
        out["metrics.projected_share"] = facts["projected"] / facts["samples"]
    if "tables" in facts:
        tables = facts["tables"]
        out["transfer.permutation_s"] = sum(durations("transfer._stratified_permutation_p")) / tables
        out["transfer.loo_s"] = sum(durations("transfer.leave_one_out")) / tables
        out["transfer.bootstrap_s"] = _mean(facts["bootstrap_s"])
        out["transfer.anova_ms_per_param"] = 1e3 * _mean(durations("transfer.permutation_anova"))
        out["transfer.stability_s"] = sum(durations("transfer.stability_curve"))
    # self time of the stage-1 command callbacks, per stage-1 item
    stage1 = by_label.get(facts.get("stage1_trace"))
    if stage1 is not None:
        cli_self = sum(stage1.self_s[i] for i, s in enumerate(stage1.spans) if s[1] in facts["stage1_cli"])
        out["cli.self_us_per_item"] = 1e6 * cli_self / max(1, traced.items)
    imports = [t.meta["import_s"] for t in main if "import_s" in t.meta]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    out["cli.scipy_loaded"] = float(bool(main and main[0].meta.get("scipy_loaded")))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t.self_s[i] for t in main for i, s in enumerate(t.spans) if s[1].split(".", 1)[0] == layer
        )
    # the mock's fixed latency against the untraced generate wall time (generate-http only)
    out["gateway.latency_share_of_wall"] = base.facts.get("latency_share", 0.0)
    out["trace.overhead_share"] = traced.wall_s / base.wall_s - 1.0
    out["trace.spans"] = sum(len(t.spans) for t in traces)
    return out

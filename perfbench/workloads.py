"""The four workloads.  Each is a closed loop with one client: a cycle runs the
workload's CLI commands one after another on inputs made from the cycle seed,
checks their outputs, and reports stage timings.

Commands run through clirun.py in fresh interpreters and are timed
in-process, so interpreter start-up and the package import (``setup_s``) do
not blur the stage timings.  Every time is scaled to a reference machine
speed measured around the command (calib.py).  A cycle yields one or more
timed samples per stage; the run reports medians over all samples of all its
cycles.

=================  ==========================================  ===================================
workload           stage 1 (``items_per_s``)                   stage 2 (``stage2_items_per_s``)
=================  ==========================================  ===================================
generate-oracle    graphgen + cold ``generate`` (samples)      warm ``generate`` reruns (samples)
generate-http      graphgen + ``generate --config`` (samples)  the same ``generate`` (LLM calls)
evaluate           ``evaluate --reference`` (samples)          ``consensus`` (texts)
transfer           ``transfer --loo`` per table (tables)       ``permutation_anova_report`` (params)
=================  ==========================================  ===================================
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import calib
import checks
import inputs
from mockserver import MockChatServer

ROOT_DATA = os.path.join("tests", "data")
SCORE_TABLES = ("scores_gpt5.csv", "scores_deepseek.csv", "scores_qwen.csv")
ORACLE = '{"mode": "oracle"}'
CREDENTIAL_ENV = "CAUSALTEXT_BENCH_KEY"


def scaled(runs) -> tuple:
    """Summed wall and CPU seconds of ``runs``, scaled to the reference machine (calib.py).

    Only the CPU part of the wall time is scaled; time spent waiting, such as
    on the mock server's fixed latency, is kept as measured.  A run on several
    threads cannot be scaled this way and raises RuntimeError.
    """
    for r in runs:
        calib.check_single_threaded(r)
    return (sum(r["wall_s"] + r["cpu_s"] * (r["speed"] - 1) for r in runs),
            sum(r["cpu_s"] * r["cpu_speed"] for r in runs))


def pooled(runs) -> list:
    """``runs`` with one pair of speed factors, measured from all their calibration samples.

    A short command gets two or three calibration samples, too few for a
    steady factor.  The machine's speed drifts over tens of seconds, so a few
    repeats of one short command, run back to back, can share one factor.
    """
    n = sum(r["samples"] for r in runs)
    factors = {k: n / sum(r["samples"] / r[k] for r in runs) for k in ("speed", "cpu_speed")}
    return [{**r, **factors} for r in runs]


@dataclass
class Cycle:
    stage1: list = field(default_factory=list)  # (items, wall_s, cpu_s) per timed sample
    stage2: list = field(default_factory=list)  # (items, wall_s) per timed sample
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    digest: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    @property
    def items(self) -> int:
        return sum(s[0] for s in self.stage1)

    @property
    def wall_s(self) -> float:
        """In-process time of every timed command of the cycle."""
        return sum(s[1] for s in self.stage1) + sum(s[1] for s in self.stage2)

    def process(self, res, trace) -> None:
        self.rss_mb = max(self.rss_mb, res.rss_mb)
        if trace:
            self.traces.append(trace)


class Workload:
    name = ""
    setup_command = ""
    setup_import = ""

    def __init__(self, runner, work: str, seed: int):
        self.runner = runner
        self.work = work
        self.seed = seed

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def dir(self, index: int, traced: bool) -> str:
        path = os.path.join(self.work, f"c{index}{'t' if traced else ''}")
        os.makedirs(path, exist_ok=True)
        return path

    def run(self, cyc: Cycle, d: str, label: str, commands, traced: bool) -> list:
        res, runs, trace = self.runner.cli(commands, d, label, traced)
        cyc.process(res, trace)
        return runs


class GenerateOracle(Workload):
    name = "generate-oracle"
    setup_command = "graphgen"
    PER_N = 25
    WARM_REPEATS = 5  # the warm pass is short, so its median is taken over five runs

    def cycle(self, index: int, cseed: int, traced: bool) -> Cycle:
        d = self.dir(index, traced)
        graphs, cold, warm, cache = (os.path.join(d, x) for x in ("graphs", "cold.jsonl", "warm", "cache.json"))
        gen = ["generate", "--graphs", graphs, "--mock-script", ORACLE, "--cache", cache, "--seed", str(cseed)]
        cyc = Cycle()
        runs = self.run(cyc, d, "cold", [
            ["graphgen", "--out", graphs, "--per-n", str(self.PER_N), "--seed", str(cseed)],
            [*gen, "--out", cold],
        ], traced)
        cache_bytes = os.path.getsize(cache)
        warm_stores = [f"{warm}{k}.jsonl" for k in range(self.WARM_REPEATS)]
        warm_runs = self.run(cyc, d, "warm", [[*gen, "--out", w] for w in warm_stores], traced)
        if traced:  # the --resume open of a finished store
            self.run(cyc, d, "extra-resume", [[*gen, "--out", cold, "--resume"]], True)
        res = checks.check_generate_store(cold, cold + ".manifest.json", graphs, oracle=True)
        for w in warm_stores:
            checks.check_generate_store(w, w + ".manifest.json", graphs, oracle=True)
            checks.check_rerun_matches(res["records"], w)
        n = len(res["records"])
        cyc.stage1.append((n, *scaled(runs)))
        cyc.stage2.extend((n, scaled([r])[0]) for r in pooled(warm_runs))
        cyc.attempted, cyc.failed = (1 + self.WARM_REPEATS) * n, res["failed"]
        cyc.digest = {"graphs": checks.digest_dir(graphs),
                      "store": checks.digest_files([cold], drop_keys=("created_at",))}
        cyc.facts = {"samples": n, "records": res["records"], "cache_bytes": cache_bytes,
                     "store_bytes": os.path.getsize(cold), "generate_trace": "cold",
                     "stage1_trace": "cold", "stage1_cli": ("cli.graphgen", "cli.generate")}
        return cyc


class GenerateHttp(Workload):
    name = "generate-http"
    setup_command = "generate"
    # Not measured on any live backend (none is reachable offline); chosen so
    # that the fixed latency is most of the generate wall time (the
    # ``latency_share`` each cycle reports) within the run's time budget.
    PER_N = 1
    LATENCY_S = 0.015
    MALFORMED_RATE = 0.05

    def __enter__(self):
        self.server = MockChatServer(self.seed, self.LATENCY_S, self.MALFORMED_RATE).__enter__()
        self.config = os.path.join(self.work, "http.ini")
        inputs.write_http_config(self.config, self.server.endpoint, CREDENTIAL_ENV)
        return self

    def __exit__(self, *exc):
        self.server.__exit__(*exc)
        return False

    def cycle(self, index: int, cseed: int, traced: bool) -> Cycle:
        d = self.dir(index, traced)
        graphs, store = os.path.join(d, "graphs"), os.path.join(d, "store.jsonl")
        gen = ["generate", "--config", self.config, "--graphs", graphs, "--out", store, "--seed", str(cseed)]
        cyc = Cycle()
        before = self.server.counters()
        runs = self.run(cyc, d, "generate", [
            ["graphgen", "--config", self.config, "--out", graphs, "--per-n", str(self.PER_N), "--seed", str(cseed)],
            gen,
        ], traced)
        after = self.server.counters()
        server = {k: after[k] - before[k] for k in after}
        if traced:
            self.run(cyc, d, "extra-resume", [[*gen, "--resume"]], True)
        res = checks.check_generate_store(store, store + ".manifest.json", graphs, oracle=False)
        checks.expect(server["bad_requests"] == 0, "the mock server rejected a request")
        checks.check_http_billing(server["billed_tokens"], res["manifest_tokens"], res["failed"])
        n = len(res["records"])
        # the server's CPU time drifts with the machine too; only its fixed latency is not scaled
        server_extra = server["cpu_s"] * (runs[1]["speed"] - 1)
        wall, cpu = scaled(runs)
        cyc.stage1.append((n, wall + server_extra, cpu))
        cyc.stage2.append((server["requests"], scaled(runs[1:])[0] + server_extra))
        cyc.attempted, cyc.failed = n, res["failed"]
        cyc.digest = {"graphs": checks.digest_dir(graphs),
                      "store": checks.digest_files([store], drop_keys=("created_at",))}
        cyc.facts = {"samples": n, "records": res["records"], "server": server,
                     "latency_share": server["requests"] * self.LATENCY_S / runs[1]["wall_s"],
                     "store_bytes": os.path.getsize(store), "generate_trace": "generate",
                     "stage1_trace": "generate", "stage1_cli": ("cli.graphgen", "cli.generate")}
        return cyc


class Evaluate(Workload):
    name = "evaluate"
    setup_command = "consensus"
    EVAL_PER_N = 150
    TEXTS_PER_N = 30
    REPEATS = 4  # short commands: the median is taken over four runs on one input

    def cycle(self, index: int, cseed: int, traced: bool) -> Cycle:
        d = self.dir(index, traced)
        ratings, cons, evald = (os.path.join(d, x) for x in ("ratings.csv", "consensus", "eval"))
        texts = inputs.write_ratings(ratings, cseed, self.TEXTS_PER_N)
        ev = inputs.write_eval_inputs(d, cseed, self.EVAL_PER_N)
        cyc = Cycle()
        runs = self.run(cyc, d, "evaluate", [
            cmd
            for k in range(self.REPEATS)
            for cmd in (["consensus", "--ratings", ratings, "--out", f"{cons}{k}"],
                        ["evaluate", "--store", ev["store"], "--reference", ev["refs"], "--out", f"{evald}{k}"])
        ], traced)
        texts_out = checks.check_consensus(ratings, f"{cons}0")
        samples = checks.check_evaluation(f"{evald}0", ev["store"], ev["refs"], ev["subset"])
        checks.expect(texts_out == texts, "consensus text count differs from the panel")
        for k in range(1, self.REPEATS):
            checks.expect(checks.same_bytes(f"{cons}{k}", f"{cons}0") and checks.same_bytes(f"{evald}{k}", f"{evald}0"),
                          "repeated commands on one input disagree")
        for k in range(self.REPEATS):
            cyc.stage2.append((texts, scaled([runs[2 * k]])[0]))
            cyc.stage1.append((samples, *scaled([runs[2 * k + 1]])))
        cyc.attempted = self.REPEATS * (samples + texts)
        with open(f"{evald}0") as fh:
            rows = json.load(fh)["samples"]
        cyc.digest = {"consensus": checks.digest_files([f"{cons}0"]), "eval": checks.digest_files([f"{evald}0"])}
        cyc.facts = {"samples": samples, "texts": texts,
                     "projected": sum(1 for r in rows if r["projection_removed"]),
                     "stage1_trace": "evaluate", "stage1_cli": ("cli.evaluate",)}
        return cyc


class Transfer(Workload):
    name = "transfer"
    setup_command = "transfer"
    setup_import = "; import causaltext.transfer"
    B_BOOT = 400
    B_PERMS = 2000
    B_ANOVA = 1000
    ANOVA_REPEATS = 3
    PER_CELL = 4

    def cycle(self, index: int, cseed: int, traced: bool) -> Cycle:
        d = self.dir(index, traced)
        cyc = Cycle()
        scores = [os.path.join(ROOT_DATA, t) for t in SCORE_TABLES]
        outs = [os.path.join(d, t.replace(".csv", ".json")) for t in SCORE_TABLES]
        common = ["--loo", "--b-perms", str(self.B_PERMS), "--seed", str(cseed)]
        runs = self.run(cyc, d, "transfer", [
            ["transfer", "--scores", s, "--b-boot", str(self.B_BOOT), *common, "--out", o]
            for s, o in zip(scores, outs)
        ], traced)
        cyc.stage1.extend((1, *scaled([r])) for r in runs)
        if traced:  # bootstrap cost is the difference to a run without it
            plain = self.run(cyc, d, "extra-nobootstrap", [
                ["transfer", "--scores", s, "--no-bootstrap", *common, "--out", o + ".nb"]
                for s, o in zip(scores, outs)
            ], True)
            cyc.facts["bootstrap_s"] = [scaled([a])[0] - scaled([b])[0] for a, b in zip(runs, plain)]
        for s, o in zip(scores, outs):
            checks.check_transfer(o, s)
        job, result = os.path.join(d, "anova-in.json"), os.path.join(d, "anova-out.json")
        params = inputs.write_anova_job(job, cseed, self.B_ANOVA, self.PER_CELL, self.ANOVA_REPEATS)
        trace = os.path.join(d, "trace-anova.json") if traced else None
        cyc.process(self.runner.script("anova_job.py", [job, result, *([trace] if trace else [])]), trace)
        n_params = checks.check_anova(result, params)
        with open(result) as fh:
            stats = json.load(fh)
        cyc.stage2.extend((n_params, scaled([r])[0]) for r in pooled(stats["anova_runs"]))
        cyc.attempted = len(SCORE_TABLES) + self.ANOVA_REPEATS * n_params
        cyc.digest = {"transfer": checks.digest_files(outs),
                      "anova": checks.digest_files([result], drop_keys=("anova_runs", "stability_s"))}
        cyc.facts.update(tables=len(SCORE_TABLES), stage1_trace="transfer", stage1_cli=("cli.transfer",))
        return cyc


WORKLOADS = {w.name: w for w in (GenerateOracle, GenerateHttp, Evaluate, Transfer)}

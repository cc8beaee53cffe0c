"""Batch command-line interface: generation, evaluation, and statistics."""

from __future__ import annotations

import configparser
import json
import os

import click
import numpy as np

from . import consensus as consensus_mod
from . import transfer as transfer_mod
from .assignment import LoopConfig, run_loop
from .errors import CausaltextError, InvalidConfig, MissingReference
from .gateway import (
    BackendProfile,
    Gateway,
    HttpBackend,
    ResponseCache,
    UsageLedger,
    choose_verifier,
    make_mock_backend,
)
from .graphs import Dag, GraphSpec, is_acyclic, sample_dag, sample_spec_space
from .metrics import SupportGraph, edge_prf, project_dag, shd, sid
from .store import RunManifest, SampleRecord, SampleStore
from .textgen import generate_text, missing_concepts

DEFAULT_POOL = [
    "claude-opus-4-1-20250805-thinking",
    "gpt-5-pro-2025-10-06",
    "DeepSeek-R1",
    "Qwen3-235B-A22B-Thinking-2507",
]


def load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    # defaults mirror the reference generation settings
    cfg.read_dict(
        {
            "phase1": {"per_n": "500", "n_min": "3", "n_max": "10"},
            "phase2": {"m": "5", "tau": "0.6", "alpha": "1.0", "k_max": "10"},
            "backends": {
                "primary": DEFAULT_POOL[0],
                "pool": ",".join(DEFAULT_POOL),
                "endpoint": "",
                "credential_env": "CAUSALTEXT_API_KEY",
            },
            "phase3": {"domain": "business"},
        }
    )
    if path:
        if not os.path.exists(path):
            raise InvalidConfig(f"config file not found: {path}")
        cfg.read(path)
    return cfg


def loop_config_from(cfg: configparser.ConfigParser) -> LoopConfig:
    try:
        lc = LoopConfig(
            m=cfg.getint("phase2", "m"),
            tau=cfg.getfloat("phase2", "tau"),
            alpha=cfg.getfloat("phase2", "alpha"),
            k_max=cfg.getint("phase2", "k_max"),
        )
    except ValueError as exc:
        raise InvalidConfig(str(exc))
    if lc.m < 1 or not 0 < lc.tau <= 1 or lc.alpha < 0 or lc.k_max < 1:
        raise InvalidConfig(f"phase2 values out of range: {lc}")
    return lc


def sample_seed(master: int, *path) -> int:
    """Deterministically split one master seed per sample."""
    return int(np.random.SeedSequence([master, *path]).generate_state(1)[0])


@click.group()
def main():
    """Generate causally annotated text corpora and evaluate them."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--per-n", type=int, default=None, help="graphs per variable count")
def graphgen(config_path, seed, out, per_n):
    """Sample DAGs over the tested parameter space and write them as JSON."""
    cfg = load_config(config_path)
    per_n = per_n if per_n is not None else cfg.getint("phase1", "per_n")
    n_min, n_max = cfg.getint("phase1", "n_min"), cfg.getint("phase1", "n_max")
    try:
        os.makedirs(out, exist_ok=True)
        count = 0
        for n in range(n_min, n_max + 1):
            for k in range(per_n):
                spec = sample_spec_space(n, seed=sample_seed(seed, n, k))
                dag, motifs = sample_dag(spec)
                payload = {
                    "id": f"n{n}_{k:05d}",
                    "spec": spec.to_json(),
                    "dag": dag.to_json(),
                    "motifs": motifs.to_json(),
                }
                with open(os.path.join(out, f"n{n}_{k:05d}.json"), "w") as fh:
                    json.dump(payload, fh, sort_keys=True)
                count += 1
        click.echo(f"wrote {count} graphs to {out}")
    except CausaltextError as exc:
        raise click.ClickException(str(exc))


def _build_gateway(cfg, backend_name, mock_script, cache_path):
    cache = ResponseCache(cache_path)
    if mock_script is not None:
        if os.path.exists(mock_script):
            with open(mock_script) as fh:
                script = json.load(fh)
        else:
            script = json.loads(mock_script)
        backend = make_mock_backend(script)
        primary = backend_name or "mock"
        verifier_model = "mock-verifier"
    else:
        endpoint = cfg.get("backends", "endpoint")
        cred = cfg.get("backends", "credential_env")
        backend = HttpBackend(endpoint, cred)
        primary = backend_name or cfg.get("backends", "primary")
        pool = [m.strip() for m in cfg.get("backends", "pool").split(",") if m.strip()]
        verifier_model = choose_verifier(primary, pool)
    gw = Gateway(backend, UsageLedger(), cache=cache)
    profiles = {
        "proposer": BackendProfile.for_role(primary, "proposer"),
        "verifier": BackendProfile.for_role(verifier_model, "verifier"),
        "phase3": BackendProfile.for_role(primary, "phase3"),
        "discovery": BackendProfile.for_role(primary, "discovery"),
    }
    return gw, profiles


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--graphs", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--backend", default=None, help="primary model id")
@click.option("--mock-script", default=None, help="mock script JSON (inline or file path)")
@click.option("--resume", is_flag=True, help="skip ids already in the store")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cache", "cache_path", type=click.Path(), default=None)
@click.option("--domain", default=None)
def generate(config_path, graphs, out, backend, mock_script, resume, seed, cache_path, domain):
    """Run the full annotation pipeline over a directory of graph files."""
    cfg = load_config(config_path)
    loop_cfg = loop_config_from(cfg)
    domain = domain or cfg.get("phase3", "domain")
    gw, profiles = _build_gateway(cfg, backend, mock_script, cache_path)
    store = SampleStore(out)
    files = sorted(f for f in os.listdir(graphs) if f.endswith(".json"))
    done = failed = skipped = 0
    for fname in files:
        with open(os.path.join(graphs, fname)) as fh:
            payload = json.load(fh)
        sid_ = payload.get("id", os.path.splitext(fname)[0])
        if sid_ in store:
            if resume:
                skipped += 1
                continue
            raise click.ClickException(f"id {sid_!r} already in store (use --resume)")
        spec = GraphSpec.from_json(payload["spec"])
        dag = Dag.from_json(payload["dag"])
        rec = SampleRecord(
            id=sid_, spec=spec, dag=dag,
            backends={k: p.model_id for k, p in profiles.items()},
        )
        try:
            result = run_loop(
                dag, domain, gw, profiles["proposer"], profiles["verifier"],
                config=loop_cfg, sample_id=sid_,
            )
            paragraph = generate_text(dag, result.assignment, gw, profiles["phase3"], sample_id=sid_)
            rec.assignment = result.assignment
            rec.paragraph = paragraph
            rec.loop_status = result.status
            rec.loop_iterations = result.iterations
            rec.best_l_b = result.best_l_b if result.best_l_b != float("inf") else None
            rec.tokens = {"total": gw.ledger.sample(sid_)["total"]}
            done += 1
        except CausaltextError as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
            failed += 1
        store.append(rec)
    manifest = RunManifest.from_store(
        store,
        config={
            "phase2": dict(cfg["phase2"]),
            "domain": domain,
            "backends": {k: p.model_id for k, p in profiles.items()},
        },
        seed=seed,
    )
    manifest.save(out + ".manifest.json")
    click.echo(f"generated {done}, failed {failed}, skipped {skipped}; manifest at {out}.manifest.json")
    if failed:
        raise click.ClickException(f"{failed} samples failed (recorded in store)")


@main.command()
@click.option("--store", "store_path", type=click.Path(exists=True), required=True)
@click.option("--reference", type=click.Path(exists=True), default=None,
              help="directory of {id}.json predicted/consensus graphs; default scores the generation-time graphs against themselves")
@click.option("--out", type=click.Path(), default=None)
def evaluate(store_path, reference, out):
    """Score reference graphs against each sample's generation-time DAG."""
    store = SampleStore(store_path)
    rows = []
    try:
        for rec in store:
            if rec.error is not None:
                continue
            if reference is not None:
                ref_path = os.path.join(reference, f"{rec.id}.json")
                if not os.path.exists(ref_path):
                    raise MissingReference(f"no reference graph for id {rec.id!r}")
                with open(ref_path) as fh:
                    ref = np.asarray(json.load(fh)["edges"], dtype=np.int8)
            else:
                ref = rec.dag.edges
            removed = []
            if not is_acyclic(ref):
                projected, removed = project_dag(SupportGraph(n=ref.shape[0], support=ref.astype(float)), threshold=0.5)
                ref = projected.edges
            report = edge_prf(rec.dag, ref)
            report.shd = shd(rec.dag, ref)
            report.sid = sid(rec.dag, ref)
            coverage_ok = (
                rec.paragraph is not None
                and not missing_concepts(rec.paragraph.source_concepts.concepts, rec.paragraph.text)
            )
            rows.append(
                {
                    "id": rec.id, "n": rec.spec.n, "coverage_ok": coverage_ok,
                    "projection_removed": [list(e) for e in removed],
                    **report.to_json(),
                }
            )
    except CausaltextError as exc:
        raise click.ClickException(str(exc))
    buckets: dict = {}
    for row in rows:
        buckets.setdefault(row["n"], []).append(row)
    aggregates = {}
    for n, rs in sorted(buckets.items()):
        aggregates[str(n)] = {
            metric: {
                "mean": float(np.mean([r[metric] for r in rs])),
                "median": float(np.median([r[metric] for r in rs])),
                "p95": float(np.percentile([r[metric] for r in rs], 95)),
            }
            for metric in ("f1", "shd", "sid")
        }
    result = {"samples": rows, "per_n": aggregates}
    if out:
        with open(out, "w") as fh:
            json.dump(result, fh, indent=2)
    click.echo(json.dumps(aggregates, indent=2))


@main.command()
@click.option("--scores", type=click.Path(exists=True), required=True)
@click.option("--b-perms", type=int, default=10000, show_default=True)
@click.option("--b-boot", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--exhaustive/--sampled", "exhaustive", default=None,
              help="force the permutation mode (default: auto)")
@click.option("--loo", is_flag=True, help="also report leave-one-algorithm-out tables")
@click.option("--bootstrap/--no-bootstrap", default=True, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def transfer(scores, b_perms, b_boot, seed, exhaustive, loo, bootstrap, out):
    """Within-n centered agreement statistics for a score table CSV."""
    try:
        table = transfer_mod.ScoreTable.from_csv(scores)
        stats = transfer_mod.agreement(
            table,
            b_permutations=b_perms,
            b_bootstrap=b_boot,
            seed=seed,
            exhaustive="auto" if exhaustive is None else exhaustive,
            with_bootstrap=bootstrap,
        )
        result = {"agreement": stats.to_json()}
        click.echo(stats.format_table())
        if loo:
            result["leave_one_out"] = {}
            for alg in table.algorithms:
                loo_stats = transfer_mod.leave_one_out(
                    table, alg, b_permutations=b_perms, b_bootstrap=b_boot,
                    seed=seed, with_bootstrap=False,
                )
                result["leave_one_out"][alg] = loo_stats.to_json()
                click.echo(f"\nwithout {alg}:")
                click.echo(loo_stats.format_table())
    except CausaltextError as exc:
        raise click.ClickException(str(exc))
    if out:
        with open(out, "w") as fh:
            json.dump(result, fh, indent=2)


@main.command()
@click.option("--ratings", type=click.Path(exists=True), required=True,
              help="CSV with columns text_id,i,j,rater_id,label")
@click.option("--raters", type=int, default=consensus_mod.DEFAULT_RATERS, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def consensus(ratings, raters, out):
    """Majority-vote consensus graphs, inter-rater alpha, and agreement flags."""
    import csv

    rows = []
    with open(ratings, newline="") as fh:
        reader = csv.DictReader(fh)
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append(
                    (row["text_id"], int(row["i"]), int(row["j"]), int(row["rater_id"]), int(row["label"]))
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise click.ClickException(f"{ratings}:{lineno}: malformed row ({exc})")
    try:
        rm = consensus_mod.RatingMatrix.from_rows(rows, raters=raters)
        per_text = consensus_mod.majority_consensus(rm, raters=raters)
        alpha = consensus_mod.krippendorff_alpha(rm)
        flags = consensus_mod.flag_low_agreement(
            {t: v["support"] for t, v in per_text.items()}, raters=raters
        )
    except CausaltextError as exc:
        raise click.ClickException(str(exc))
    result = {
        "alpha": alpha,
        "texts": {
            t: {
                "consensus": v["consensus"].to_json(),
                "support": v["support"].support.tolist(),
                "removed": [list(e) for e in v["removed"]],
            }
            for t, v in per_text.items()
        },
        "flags": flags.to_json(),
    }
    if out:
        with open(out, "w") as fh:
            json.dump(result, fh, indent=2)
    click.echo(f"alpha={alpha:.4f}, texts={len(per_text)}, borderline_edges={len(flags.borderline_edges)}")


@main.command()
@click.option("--cache", "cache_path", type=click.Path(), required=True)
@click.option("--clear", is_flag=True)
def cache(cache_path, clear):
    """Inspect or clear an on-disk response cache."""
    try:
        store = ResponseCache(cache_path)
        if clear:
            store.clear()
            click.echo("cache cleared")
        else:
            click.echo(f"{len(store)} cached entries")
    except CausaltextError as exc:
        raise click.ClickException(str(exc))


if __name__ == "__main__":
    main()

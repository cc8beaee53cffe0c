"""Batch command-line interface: generation, evaluation, and statistics."""

from __future__ import annotations

import configparser
import errno
import json
import operator
import os

import click
import numpy as np

from . import consensus as consensus_mod
from . import transfer as transfer_mod
from .assignment import LoopConfig, run_loop_steps
from .errors import (
    CacheIoError,
    CausaltextError,
    InvalidConfig,
    InvalidSpec,
    MissingReference,
    TooFewAlgorithms,
    open_utf8,
)
from .gateway import (
    ROLE_DEFAULTS,
    BackendProfile,
    Gateway,
    HttpBackend,
    ResponseCache,
    choose_verifier,
    make_mock_backend,
)
from .graphs import Dag, GraphSpec, as_adjacency, sample_dag, sample_spec_space
from .metrics import edge_prf, project_dag, shd, sid
from .store import RunManifest, SampleRecord, SampleStore
from .textgen import generate_text_steps, missing_concepts

DEFAULT_POOL = [
    "claude-opus-4-1-20250805-thinking",
    "gpt-5-pro-2025-10-06",
    "DeepSeek-R1",
    "Qwen3-235B-A22B-Thinking-2507",
]


def load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(interpolation=None)  # a value is read as written, % included
    # defaults mirror the reference generation settings
    cfg.read_dict(
        {
            "phase1": {"per_n": "500", "n_min": "3", "n_max": "10"},
            "phase2": {k: str(v) for k, v in vars(LoopConfig()).items()},
            "backends": {
                "primary": DEFAULT_POOL[0],
                "pool": ",".join(DEFAULT_POOL),
                "endpoint": "",
                "credential_env": "CAUSALTEXT_API_KEY",
                "max_in_flight": "8",
            },
            "phase3": {"domain": "business"},
        }
    )
    if path:
        try:
            with open_utf8(path, newline=None) as fh:  # not cfg.read, which skips a file it cannot open
                cfg.read_file(fh)
        except OSError as exc:
            raise InvalidConfig(f"config file not found: {path}" if exc.errno == errno.ENOENT
                                else f"cannot read config file {path}: {exc.strerror}")
        except configparser.Error as exc:
            raise InvalidConfig(f"cannot parse config file {path}: {exc}")
    return cfg


def config_value(cfg: configparser.ConfigParser, section: str, key: str, kind=str):
    """``[section] key`` converted with ``kind``; a value it rejects is an InvalidConfig naming the key."""
    try:
        return kind(cfg.get(section, key))
    except ValueError as exc:
        raise InvalidConfig(f"{section}.{key}: {exc}")


def loop_config_from(cfg: configparser.ConfigParser) -> LoopConfig:
    # each [phase2] key is read with the type of its LoopConfig default
    values = {key: config_value(cfg, "phase2", key, type(v)) for key, v in vars(LoopConfig()).items()}
    try:
        return LoopConfig(**values)
    except ValueError as exc:
        raise InvalidConfig(f"phase2: {exc}")


def sample_seed(master: int, *path) -> int:
    """Deterministically split one master seed per sample."""
    return int(np.random.SeedSequence([master, *path]).generate_state(1)[0])


def _write_json(path: str, obj, **dump_args) -> None:
    """``json.dumps(obj, **dump_args)`` into ``path``, in one write; an ``OSError`` ends the command as an ``--out`` error.

    ``dumps`` gives the same text as ``json.dump`` would.  Only a compact dump, as of the graph files,
    goes through the C encoder.  With ``indent`` set, as for ``evaluate``, ``consensus`` and
    ``transfer``, CPython 3.10-3.12 encode in pure Python either way.
    """
    text = json.dumps(obj, **dump_args)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.ClickException(f"--out: cannot write {path}: {exc.strerror or exc}")


def _checked_out(ctx, param, path):
    """Refuse an output file the command could not write, before its work starts; the file is not created."""
    if path is None:
        return None
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        err = errno.EISDIR
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        err = errno.EACCES
    else:
        return path
    raise click.ClickException(f"{param.opts[0]}: cannot write {path}: {os.strerror(err)}")


class _Main(click.Group):
    """The command group: a CausaltextError from any command ends it as a one-line error, exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CausaltextError as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Main)
def main():
    """Generate causally annotated text corpora and evaluate them."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--per-n", type=int, default=None, help="graphs per variable count")
def graphgen(config_path, seed, out, per_n):
    """Sample DAGs over the tested parameter space and write them as JSON."""
    cfg = load_config(config_path)
    where = "--per-n" if per_n is not None else "phase1.per_n"
    per_n = per_n if per_n is not None else config_value(cfg, "phase1", "per_n", int)
    n_min, n_max = (config_value(cfg, "phase1", key, int) for key in ("n_min", "n_max"))
    if per_n < 1:
        raise InvalidConfig(f"{where}: need at least 1 graph per n, got {per_n}")
    if n_min > n_max:
        raise InvalidConfig(f"phase1.n_min: {n_min} is above phase1.n_max ({n_max})")
    for key, n in (("n_min", n_min), ("n_max", n_max)):
        try:
            sample_spec_space(n, seed)  # the owner of the n range refuses one outside it, before any file
        except InvalidSpec as exc:
            raise InvalidConfig(f"phase1.{key}: {exc}")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise click.ClickException(f"--out: cannot write {out}: {exc.strerror}")
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
            _write_json(os.path.join(out, f"n{n}_{k:05d}.json"), payload, sort_keys=True)
            count += 1
    click.echo(f"wrote {count} graphs to {out}")


def _build_gateway(cfg, mock_script, cache_path):
    cache = ResponseCache(cache_path)
    if mock_script is not None:
        try:
            if os.path.exists(mock_script):
                with open(mock_script) as fh:
                    script = json.load(fh)
            else:
                script = json.loads(mock_script)
            backend = make_mock_backend(script)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise InvalidConfig(f"--mock-script: {exc!r}")
        primary, verifier_model = "mock", "mock-verifier"
    else:
        primary = cfg.get("backends", "primary")
        pool = [m.strip() for m in cfg.get("backends", "pool").split(",") if m.strip()]
        try:
            verifier_model = choose_verifier(primary, pool)
        except ValueError as exc:
            raise InvalidConfig(f"backends.pool: {exc}")
        # a missing credential or a bad endpoint stops the run here, before the first sample
        backend = HttpBackend(cfg.get("backends", "endpoint"), cfg.get("backends", "credential_env"))
    # requests kept in flight at once, shared by the open samples; 1 runs one request at a time
    try:
        gw = Gateway(backend, cache=cache, max_in_flight=config_value(cfg, "backends", "max_in_flight", int))
    except ValueError as exc:  # Gateway's own check of the window
        raise InvalidConfig(f"backends.{exc}")
    profiles = {role: BackendProfile.for_role(verifier_model if role == "verifier" else primary, role)
                for role in ROLE_DEFAULTS}
    return gw, profiles


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--graphs", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--out", type=click.Path(), required=True, callback=_checked_out)
@click.option("--mock-script", default=None, help="mock script JSON (inline or file path)")
@click.option("--resume", is_flag=True, help="skip ids already finished in the store; run failed ones again")
@click.option("--seed", type=int, default=0, show_default=True, help="recorded in the manifest; nothing else reads it")
@click.option("--cache", "cache_path", type=click.Path(), default=None, callback=_checked_out)
def generate(config_path, graphs, out, mock_script, resume, seed, cache_path):
    """Run the full annotation pipeline over a directory of graph files.

    Samples run side by side through the gateway's request window; their
    records are appended in graph-file order as they finish.  An interrupted
    run (Ctrl-C) still writes the manifest of the records stored so far.
    """
    cfg = load_config(config_path)
    loop_cfg = loop_config_from(cfg)
    domain = cfg.get("phase3", "domain")
    gw, profiles = _build_gateway(cfg, mock_script, cache_path)
    files = sorted(f for f in os.listdir(graphs) if f.endswith(".json"))
    if not files:
        raise click.ClickException(f"--graphs: no graph files (*.json) in {graphs}")
    store = SampleStore(out)
    backends = {k: p.model_id for k, p in profiles.items()}
    done = failed = skipped = 0
    records: dict = {}  # id -> record of each sample handed to the gateway and not yet stored

    def samples():
        nonlocal failed, skipped
        for fname in files:
            try:
                with open(os.path.join(graphs, fname)) as fh:
                    payload = json.load(fh)
                rec = SampleRecord(id=payload.get("id", os.path.splitext(fname)[0]), backends=backends,
                                   spec=GraphSpec.from_json(payload["spec"]), dag=Dag.from_json(payload["dag"]))
            except (OSError, ValueError, KeyError, TypeError, AttributeError, CausaltextError) as exc:
                # nothing is stored for the file, so --resume retries it
                click.echo(f"cannot read graph file {fname}: {type(exc).__name__}: {exc}", err=True)
                failed += 1
                continue
            if rec.id in records or rec.id in store:
                if not resume:
                    raise click.ClickException(f"id {rec.id!r} already in store (use --resume)")
                if rec.id in records or store.finished(rec.id):
                    skipped += 1
                    continue  # a sample whose last record failed runs again
            records[rec.id] = rec
            yield rec.id, _sample_steps(rec.dag, domain, profiles, loop_cfg)

    def save_manifest():
        manifest = RunManifest.from_store(
            store,
            config={"phase2": dict(cfg["phase2"]), "domain": domain, "backends": backends},
            seed=seed,
        )
        try:
            manifest.save(out + ".manifest.json")
        except OSError as exc:
            raise click.ClickException(f"--out: cannot write {out}.manifest.json: {exc.strerror or exc}")

    runs = gw.run_samples(samples())
    try:
        for sid_, outcome, error in runs:
            rec = records.pop(sid_)
            if error is None:
                result, rec.paragraph = outcome
                rec.assignment = result.assignment
                rec.loop_status = result.status
                rec.loop_iterations = result.iterations
                rec.best_l_b = result.best_l_b if result.best_l_b != float("inf") else None
                rec.tokens = {"total": gw.ledger.sample(sid_)["total"]}
                done += 1
            else:
                rec.error = f"{type(error).__name__}: {error}"
                failed += 1
            try:
                store.append(rec)
            except OSError as exc:
                raise click.ClickException(f"--out: cannot write {out}: {exc.strerror or exc}")
    except KeyboardInterrupt:
        save_manifest()  # an interrupted run's manifest counts what its store holds so far
        raise
    finally:
        runs.close()  # cancels every request still pending
        if isinstance(gw.backend, HttpBackend):
            gw.backend.close()
    save_manifest()
    click.echo(f"generated {done}, failed {failed}, skipped {skipped}; manifest at {out}.manifest.json")
    if failed:
        raise click.ClickException(f"{failed} samples failed (recorded in the store, or named above if unreadable)")


def _sample_steps(dag, domain, profiles, loop_cfg):
    """One graph's pipeline: the assignment loop, then the paragraph."""
    result = yield from run_loop_steps(dag, domain, profiles["proposer"], profiles["verifier"], config=loop_cfg)
    paragraph = yield from generate_text_steps(dag, result.assignment, profiles["phase3"])
    return result, paragraph


@main.command()
@click.option("--store", "store_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--reference", type=click.Path(exists=True, file_okay=False), default=None,
              help="directory of {id}.json predicted/consensus graphs; default scores the generation-time graphs against themselves")
@click.option("--out", type=click.Path(), default=None, callback=_checked_out)
def evaluate(store_path, reference, out):
    """Score reference graphs against each sample's generation-time DAG."""
    store = SampleStore(store_path)
    rows = []
    for rec in store:
        if rec.error is not None:
            continue
        if reference is None:
            ref, removed = rec.dag, []
        else:
            try:
                with open(os.path.join(reference, f"{rec.id}.json")) as fh:
                    ref_rows = as_adjacency(json.load(fh)["edges"], f"reference graph for id {rec.id!r}")
            except FileNotFoundError:
                raise MissingReference(f"no reference graph for id {rec.id!r}") from None
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise click.ClickException(f"cannot read reference graph for id {rec.id!r}: {exc!r}")
            if len(ref_rows) != rec.dag.n:
                raise click.ClickException(
                    f"reference graph for id {rec.id!r} has {len(ref_rows)} nodes, the stored graph {rec.dag.n}")
            # projection leaves an acyclic reference as it is
            ref, removed = project_dag(ref_rows)
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
        _write_json(out, result, indent=2)
    click.echo(json.dumps(aggregates, indent=2))


@main.command()
@click.option("--scores", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--b-perms", type=click.IntRange(min=1), default=10000, show_default=True)
@click.option("--b-boot", type=click.IntRange(min=1), default=10000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--exhaustive/--sampled", "exhaustive", default=None,
              help="force the permutation mode (default: auto)")
@click.option("--loo", is_flag=True, help="also report leave-one-algorithm-out tables")
@click.option("--bootstrap/--no-bootstrap", default=True, show_default=True)
@click.option("--out", type=click.Path(), default=None, callback=_checked_out)
def transfer(scores, b_perms, b_boot, seed, exhaustive, loo, bootstrap, out):
    """Within-n centered agreement statistics for a score table CSV."""
    table = transfer_mod.ScoreTable.from_csv(scores)
    if loo and len(table.algorithms) < 3:
        raise TooFewAlgorithms(f"--loo needs at least three algorithms, {scores} has {len(table.algorithms)}")
    mode = "auto" if exhaustive is None else exhaustive
    stats = transfer_mod.agreement(
        table,
        b_permutations=b_perms,
        b_bootstrap=b_boot,
        seed=seed,
        exhaustive=mode,
        with_bootstrap=bootstrap,
    )
    result = {"agreement": stats.to_json()}
    click.echo(stats.format_table())
    if loo:
        result["leave_one_out"] = {}
        for alg in table.algorithms:
            loo_stats = transfer_mod.leave_one_out(
                table, alg, b_permutations=b_perms, b_bootstrap=b_boot,
                seed=seed, exhaustive=mode, with_bootstrap=False,
            )
            result["leave_one_out"][alg] = loo_stats.to_json()
            click.echo(f"\nwithout {alg}:")
            click.echo(loo_stats.format_table())
    if out:
        _write_json(out, result, indent=2)


@main.command()
@click.option("--ratings", type=click.Path(exists=True, dir_okay=False), required=True,
              help="CSV with columns text_id,i,j,rater_id,label")
@click.option("--raters", type=click.IntRange(min=1), default=consensus_mod.DEFAULT_RATERS, show_default=True)
@click.option("--out", type=click.Path(), default=None, callback=_checked_out)
def consensus(ratings, raters, out):
    """Majority-vote consensus graphs, inter-rater alpha, and agreement flags."""
    import csv

    with open_utf8(ratings) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise click.ClickException(f"{ratings}:1: empty file, no header row")
            cols = [header.index(name) for name in ("text_id", "i", "j", "rater_id", "label")]
            # rows are read as from_rows asks for them, so line_num is the failing row's physical line
            rows = map(operator.itemgetter(*cols), filter(None, reader))
            rm = consensus_mod.RatingMatrix.from_rows(rows, raters=raters)
        except UnicodeDecodeError:
            raise  # open_utf8 names the line
        except (csv.Error, IndexError, ValueError) as exc:
            raise click.ClickException(f"{ratings}:{reader.line_num}: malformed row ({exc})")
    per_text = consensus_mod.majority_consensus(rm)
    alpha = consensus_mod.krippendorff_alpha(rm)
    flags = consensus_mod.flag_low_agreement(
        {t: v["support"] for t, v in per_text.items()}, raters=raters
    )
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
        _write_json(out, result, indent=2)
    click.echo(f"alpha={alpha:.4f}, texts={len(per_text)}, borderline_edges={len(flags.borderline_edges)}")


@main.command()
@click.option("--cache", "cache_path", type=click.Path(), required=True)
@click.option("--clear", is_flag=True)
def cache(cache_path, clear):
    """Inspect or clear an on-disk response cache."""
    if clear:
        # the file is removed unread, so a damaged cache can be cleared too
        try:
            if os.path.exists(cache_path):
                os.remove(cache_path)
        except OSError as exc:
            raise CacheIoError(f"cannot clear cache at {cache_path}: {exc}")
        click.echo("cache cleared")
    else:
        click.echo(f"{len(ResponseCache(cache_path))} cached entries")


if __name__ == "__main__":
    main()

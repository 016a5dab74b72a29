"""Command-line interface.

Subcommands: train, eval, synth, gradcheck, report.
Exit status 0 on success, 1 on a validation problem (bad flags, missing or
malformed files, inconsistent configuration, sizes too large to allocate),
2 on a numeric failure, 141 (128 + SIGPIPE, as a shell reports a writer
stopped by SIGPIPE) when standard output was closed by its reader, such as
mmssl train ... | head -1; whatever the command wrote to disk stays.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import model as mdl
from .autodiff import NumericError
from .config import ConfigError, apply_env, load_config, resolve_settings
from .data import (
    DataFormatError,
    SyntheticSpec,
    build_norm_adjacency,
    generate_synthetic,
    load_interactions,
    load_modality_features,
    split_edges,
    write_interactions,
    write_modality_features,
)
from .evaluation import RankingReport
from .evaluation import evaluate_scores  # noqa: F401  (perfbench's wrapper test binds it here)
from .gradcheck import run_loss_checks, run_primitive_checks
from .trainer import Trainer, check_inputs, evaluate_model, load_checkpoint, load_model

__all__ = ["CliError", "main"]


class CliError(Exception):
    """Validation failure: wrong usage or unusable inputs."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage errors to 1
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mmssl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a data directory")
    p_train.add_argument("--data", required=True, help="directory with interactions.txt and *.mmf")
    p_train.add_argument("--out", required=True, help="output directory for checkpoints and logs")
    p_train.add_argument("--config", default=None, help="JSON config of dotted keys")
    p_train.add_argument("--resume", default=None, help="checkpoint to continue from")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", choices=("val", "test"), default="test")
    p_eval.add_argument("--k", type=int, default=None, help="override eval.k")
    p_eval.add_argument("--format", choices=("json", "text"), default="text")

    p_synth = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--spec", default=None, help="JSON synthetic spec (defaults otherwise)")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument(
        "--module",
        choices=("losses", "substrate", "all"),
        default="all",
    )
    p_grad.add_argument("--tolerance", type=float, default=1e-4)

    p_report = sub.add_parser("report", help="pretty-print a metrics log or eval report")
    p_report.add_argument("--log", required=True)
    p_report.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _load_data_dir(data_dir: str):
    root = Path(data_dir)
    inter = root / "interactions.txt"
    if not inter.is_file():
        raise CliError(f"no interactions.txt under {root}")
    graph = load_interactions(inter)
    feature_paths = sorted(root.glob("*.mmf"))
    if not feature_paths:
        raise CliError(f"no modality feature files (*.mmf) under {root}")
    return graph, [load_modality_features(p) for p in feature_paths]


def _load_split(settings, data_dir: str):
    graph, features = _load_data_dir(data_dir)
    return graph, features, split_edges(graph, settings.train.split, seed=settings.train.seed)


def _build_trainer(settings, data_dir: str) -> Trainer:
    return Trainer(
        settings.train,
        settings.enc,
        settings.adv,
        settings.objective,
        settings.eval,
        *_load_split(settings, data_dir),
        config_flat=settings.flat,
    )


def _cmd_train(args) -> int:
    settings = resolve_settings(apply_env(load_config(args.config)))
    trainer = _build_trainer(settings, args.data)
    if args.resume:  # before config.json: a refused resume leaves the run's files alone
        trainer.restore(args.resume)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(settings.flat, sort_keys=True, indent=2))
    trainer.run(checkpoint_path=out / "final.ckpt", log_path=out / "metrics.ndjson")
    if trainer.best_epoch >= 0:
        trainer.save_best(out / "best.ckpt")
    if trainer.aborted:  # main prints it and exits 2
        raise trainer.aborted
    best = (
        f"best recall@{settings.eval.k} {trainer.best_recall:.5f} at epoch {trainer.best_epoch}"
        if trainer.best_epoch >= 0
        else "no validation ran, so no best epoch"
    )
    print(f"trained {len(trainer.log)} epochs; {best}")
    if trainer.log:
        print(json.dumps(trainer.log[-1], sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    if args.k is not None and args.k < 1:
        raise CliError(f"--k must be at least 1, got {args.k}")
    arrays, meta = load_checkpoint(args.checkpoint)
    flat = meta.get("config", {})
    if not isinstance(flat, dict):
        raise CliError(f"{Path(args.checkpoint).name}: checkpoint config is not a JSON object")
    if not flat:  # a Trainer built without config_flat records none
        raise CliError(f"{Path(args.checkpoint).name}: checkpoint records no config to rebuild its model under")
    # older checkpoints store these retired keys; neither ever changed a
    # result, so dropping them is safe
    for key in ("eval.threads", "adv.block_rows"):
        flat.pop(key, None)
    settings = resolve_settings(flat)
    graph, features, split = _load_split(settings, args.data)
    check_inputs(graph, features, split)
    state, stored = load_model(arrays, settings.train, settings.enc, graph, features)
    del arrays  # nothing below reads the optimizer moments or the best snapshot
    adj = build_norm_adjacency(split.train)
    # stored ids are a bound only; best.ckpt has none
    neighborhoods = mdl.refresh_neighborhoods(state, adj, features, settings.enc.top_k, stored)
    report = evaluate_model(
        state, adj, features, neighborhoods, settings.enc, settings.objective.omega, split.train,
        split.test if args.split == "test" else split.val,
        settings.eval.k if args.k is None else args.k,
        settings.eval.buckets,
    )
    print(report.to_json() if args.format == "json" else report.to_text())
    return 0


def _cmd_synth(args) -> int:
    spec = SyntheticSpec.load(args.spec) if args.spec else SyntheticSpec()
    out = Path(args.out)
    graph, features, _ = generate_synthetic(spec, planted_path=out / "planted.dat")
    write_interactions(graph, out / "interactions.txt")
    for table in features:
        write_modality_features(out / f"{table.name}.mmf", table.values)
    (out / "spec.json").write_text(json.dumps(spec.to_json(), sort_keys=True, indent=2))
    print(
        f"wrote {graph.num_users} users, {graph.num_items} items, "
        f"{graph.num_edges} interactions, {len(features)} modalities to {out}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    # 0 asks for exact gradients; NaN would fail every check, inf pass any finite error
    if not 0.0 <= args.tolerance < float("inf"):
        raise CliError(f"--tolerance must be a finite number of at least 0, got {args.tolerance}")
    failures = 0
    sections = []
    if args.module in ("losses", "all"):
        sections.append(("losses", run_loss_checks()))
    if args.module in ("substrate", "all"):
        sections.append(("substrate", run_primitive_checks()))
    for section, results in sections:
        for name, err in results.items():
            ok = err <= args.tolerance
            failures += 0 if ok else 1
            print(f"{section}/{name}: max_rel_err={err:.3e} {'ok' if ok else 'FAIL'}")
    if failures:
        print(f"{failures} gradient check(s) above tolerance {args.tolerance}", file=sys.stderr)
        return 2
    return 0


_LOG_COLUMNS = ("epoch", "l_bpr", "l_cl", "l_g", "l_d", "recall", "ndcg", "precision")


def _cmd_report(args) -> int:
    path = Path(args.log)
    if not path.is_file():
        raise CliError(f"no such log file: {path}")
    text = path.read_text(encoding="utf-8").strip()
    if not text:
        raise CliError(f"log file {path} is empty")
    # `mmssl eval --format json` writes one report over many lines; anything
    # else is a metrics log of one JSON record per line
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "overall" in doc:
        try:
            report = RankingReport.from_json(doc)
        except ValueError as e:
            raise CliError(f"{path.name}: not an eval report: {e}") from None
        print(report.to_json() if args.format == "json" else report.to_text())
        return 0
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise CliError(f"{path.name} line {lineno}: not valid JSON: {e}") from e
        if not isinstance(rec, dict):
            raise CliError(f"{path.name} line {lineno}: not a JSON object: {line}")
        for c in _LOG_COLUMNS:
            if c in rec and (isinstance(rec[c], bool) or not isinstance(rec[c], (int, float))):
                raise CliError(f"{path.name} line {lineno}: {c} is not a number: {rec[c]!r}")
        records.append(rec)
    if args.format == "json":
        print(json.dumps(records, sort_keys=True, indent=2))
        return 0
    print(" ".join(f"{c:>10}" for c in _LOG_COLUMNS))
    for rec in records:
        cells = []
        for c in _LOG_COLUMNS:
            v = rec.get(c)
            cells.append(" " * 10 if v is None else f"{v:>10}" if isinstance(v, int) else f"{v:>10.5f}")
        print(" ".join(cells))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "gradcheck": _cmd_gradcheck,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit flush
        return code
    except BrokenPipeError:
        # point stdout at the null device, so the exit flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ConfigError, DataFormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # numpy's message names the size and shape it asked for
        print(f"error: out of memory: {e or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""One run of one benchmark workload, in a process of its own.

``run.py`` starts this file with the BLAS thread count pinned in the
environment; it writes its result as JSON to ``--result``.

A run has four phases:

1. warm-up, untimed: one cycle of the workload on a copy of its spec at a
   tenth of the users and items.  That pays the process's one-off costs
   (lazy imports, BLAS thread start, first use of each code path), which
   made the first critic step about eight times slower than the median
   on a 2-core VM.
   After it, every timed call counts in every statistic;
2. set-up, repeated ``SETUP_REPEATS`` times: synthetic data, split, and
   ``Trainer`` construction (plus writing the data directory for eval-M);
   ``setup_s`` is the median;
3. for eval-M only, preparation: one short training epoch that writes the
   checkpoint the eval passes read (timed, reported as ``prepare_s``);
4. the timed loop: whole cycles (one training epoch through
   ``Trainer.run``, or one in-process ``mmssl eval`` pass), as many as
   fit ``--seconds`` at a nominal ``CYCLE_S`` each.  The count
   depends on ``--seconds`` only, never on how fast this machine is, so
   every run of a workload does the same work and its loss trajectory
   has the same length.  Each cycle is a closed loop with one caller.

Correctness checks run between top-level calls and outside every timing:
finite losses, neighbour ids of sampled rows against an independent
top-k of recomputed relation rows, and every ``evaluate_scores`` report
against a brute-force numpy computation.

With ``--trace 1`` the timed loop runs twice from identical trainers:
first untraced, then with spans around every layer call.  The two loss
trajectories must be bitwise equal and the per-layer metrics come from
the traced pass.  The untraced loop then runs once more, and the tracing
overhead is the traced wall time minus that repeat's: the first loop in a
process also pays for growing the heap, which made the traced loop read
faster than the untraced one before it.  One more cycle with ``tracemalloc`` on gives the peak allocation of each
top-level step; it runs apart from the spans because tracking every
Python allocation slowed the Python-heavy layers (file parsing, the
per-user ranking loop) by a third and would have inflated their self
times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from spans import TOP_LEVEL, Instrumentation, SpanRecorder, self_times  # noqa: E402

SETUP_REPEATS = 5
CYCLE_S = 10.0  # nominal length of one cycle on every workload; sets the cycle count
CHECK_ROWS = 16  # sampled user rows and item rows per modality per refresh
METRIC_TOL = 1e-9

BASE_SPEC = {"modality_dims": (128, 64), "latent_dim": 16, "interactions_per_user": 8}
BASE_CONFIG = {"train.batch_size": 256}


@dataclass
class Workload:
    kind: str  # "train" or "eval"
    users: int
    items: int
    config: dict = field(default_factory=dict)


# Why each workload exists, and which layers it stresses:
# train-cl-S  full model (contrastive + adversarial + Gumbel); the
#             full-population InfoNCE forward and the tape backward dominate,
#             so autodiff and objectives changes show here.
# train-adv-M contrastive term off, so InfoNCE changes must read "no change";
#             time goes to the dense U x I refresh with two full argsorts, the
#             critic and Gumbel proxy on 4000-wide rows, and the dense
#             train matrix built in set-up.  Every epoch refreshes.
# eval-M      the read path: file loading, Trainer construction, checkpoint
#             load, refresh, eval-mode forward and full-catalog ranking; no
#             tape backward, optimizer or InfoNCE.
# Epochs have a fixed step count, not the ~50 steps of a real epoch at S, so
# that two whole epochs, each with its refresh and validation pass, fit a
# run of about 20 s.  eval-M's two steps only make the checkpoint.
WORKLOADS = {
    "train-cl-S": Workload("train", 2000, 1500, {"train.steps_per_epoch": 12}),
    "train-adv-M": Workload("train", 6000, 4000, {"train.disable_cl": True, "train.steps_per_epoch": 6}),
    "eval-M": Workload("eval", 6000, 4000, {"train.disable_cl": True, "train.steps_per_epoch": 2}),
}

def import_package():
    """Import ``mmssl`` from the checkout's own ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "mmssl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'mmssl'}")
    sys.path.insert(0, str(src))
    import mmssl
    import mmssl.cli

    if Path(mmssl.__file__).resolve().parent != (src / "mmssl").resolve():
        raise SystemExit(f"perfbench: imported mmssl from {mmssl.__file__}, not from {src}")
    return mmssl


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------


def build(pkg, wl: Workload, seed: int, work: Path | None, scale: int = 1):
    """Data, split and trainer for one workload; for eval, also the data directory."""
    spec = pkg.data.SyntheticSpec(
        num_users=wl.users // scale, num_items=wl.items // scale, seed=seed, **BASE_SPEC
    )
    graph, features, _ = pkg.data.generate_synthetic(spec)
    settings = pkg.config.resolve_settings({**BASE_CONFIG, **wl.config, "train.seed": seed})
    split = pkg.data.split_edges(graph, settings.train.split, seed=settings.train.seed)
    if work is not None:
        work.mkdir(parents=True, exist_ok=True)
        pkg.data.write_interactions(graph, work / "interactions.txt")
        for table in features:
            pkg.data.write_modality_features(work / f"{table.name}.mmf", table.values)
    return pkg.trainer.Trainer(
        settings.train, settings.enc, settings.adv, settings.objective, settings.eval,
        graph, features, split, config_flat=settings.flat,
    )


def run_epoch(trainer, checkpoint: Path):
    trainer.cfg.epochs = trainer.epoch + 1
    return trainer.run(checkpoint_path=checkpoint)


def eval_pass(pkg, checkpoint: Path, data: Path, split: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(
            ["eval", "--checkpoint", str(checkpoint), "--data", str(data), "--split", split, "--format", "json"]
        )
    return code, out.getvalue()


# --------------------------------------------------------------------------
# Correctness checks
# --------------------------------------------------------------------------


def stable_top_k(scores: np.ndarray, k: int) -> list[int]:
    """Largest k entries, ties to the lower id, by a heap rather than a sort."""
    return heapq.nsmallest(k, range(len(scores)), key=lambda j: (-scores[j], j))


def unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)


def top_k_agrees(got, scores: np.ndarray, k: int) -> bool:
    """``got`` is the stable top-k of ``scores``, up to swaps of entries whose
    recomputed scores differ only by rounding.  Exactly equal scores (rows
    of an item nobody interacted with are all zero) must keep id order."""
    want = stable_top_k(scores, k)
    got = [int(j) for j in got]
    if got == want:
        return True
    return len(set(got)) == len(got) == len(want) and all(
        g == w or 0.0 < abs(scores[g] - scores[w]) <= 1e-12 for g, w in zip(got, want)
    )


def brute_force_metrics(scores, train_items, relevant, k: int) -> dict:
    """Recall, precision and NDCG@k averaged over users with held-out items,
    by block-wise argpartition instead of a per-user full ranking."""
    num_users, num_items = scores.shape
    ids = np.arange(num_items)
    sums = np.zeros(3)
    count = 0
    for start in range(0, num_users, 512):
        users = [u for u in range(start, min(start + 512, num_users)) if len(relevant[u])]
        if not users:
            continue
        block = np.array(scores[users], dtype=np.float64)
        for row, u in enumerate(users):
            block[row, train_items[u]] = -np.inf
        part = np.argpartition(-block, k - 1, axis=1)[:, :k]
        vals = np.take_along_axis(block, part, axis=1)
        kth = vals.min(axis=1)
        for row, u in enumerate(users):
            if (block[row] >= kth[row]).sum() > k:  # a tie crosses the cut
                top = np.lexsort((ids, -block[row]))[:k]
            else:
                order = np.lexsort((part[row], -vals[row]))
                top = part[row][order]
            rel = set(int(i) for i in relevant[u])
            hits = np.array([int(i) in rel for i in top], dtype=np.float64)
            ideal = sum(1.0 / math.log2(r + 2) for r in range(min(len(rel), k)))
            sums += (hits.sum() / len(rel), hits.sum() / k, (hits / np.log2(np.arange(k) + 2)).sum() / ideal)
            count += 1
    means = sums / max(count, 1)
    return {"num_users": count, "recall": means[0], "precision": means[1], "ndcg": means[2]}


class Checks:
    """Correctness gate fed by observers on the package's top-level calls."""

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.losses: list[list] = []
        self.refreshes = 0
        self.reports: list[dict] = []

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def attach(self, rec: SpanRecorder) -> None:
        pkg = self.pkg
        refresh_sig = inspect.signature(pkg.model.refresh_neighborhoods)
        eval_sig = inspect.signature(pkg.evaluation.evaluate_scores)

        def on_d_step(args, kwargs, loss):
            self.losses.append(["d", loss])
            self.outcome(math.isfinite(loss), f"non-finite critic loss {loss}")

        def on_g_step(args, kwargs, losses):
            self.losses.append(["g"] + [losses[key] for key in sorted(losses)])
            self.outcome(all(math.isfinite(v) for v in losses.values()), f"non-finite loss {losses}")

        def on_refresh(args, kwargs, neighborhoods):
            bound = refresh_sig.bind(*args, **kwargs).arguments
            index = self.refreshes
            self.refreshes += 1
            rec.pending.append(lambda: self.check_neighbors(bound, neighborhoods, index))

        def on_evaluate(args, kwargs, report):
            bound = eval_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            rec.pending.append(lambda: self.check_report(bound.arguments, report))

        rec.observe("trainer.Trainer.d_step", on_d_step)
        rec.observe("trainer.Trainer.g_step", on_g_step)
        rec.observe("model.refresh_neighborhoods", on_refresh)
        rec.observe("evaluation.evaluate_scores", on_evaluate)

    def check_neighbors(self, arguments: dict, neighborhoods, index: int) -> None:
        rng = np.random.default_rng([self.seed, index])
        state, adj, top_k = arguments["state"], arguments["adj"], arguments["top_k"]
        for m, (table, neigh) in enumerate(zip(arguments["features"], neighborhoods)):
            f_u, f_i = self.pkg.adversarial.modality_collab_embeddings(
                adj, table.as_float64(), state.gen, m, train=False
            )
            qu, qi = unit_rows(f_u.data), unit_rows(f_i.data)
            for u in rng.choice(qu.shape[0], size=min(CHECK_ROWS, qu.shape[0]), replace=False):
                self.outcome(
                    top_k_agrees(neigh.user_neighbors[u], qi @ qu[u], top_k),
                    f"refresh {index} modality {m}: user {u} neighbours differ",
                )
            for i in rng.choice(qi.shape[0], size=min(CHECK_ROWS, qi.shape[0]), replace=False):
                self.outcome(
                    top_k_agrees(neigh.item_neighbors[i], qu @ qi[i], top_k),
                    f"refresh {index} modality {m}: item {i} neighbours differ",
                )

    def check_report(self, arguments: dict, report) -> None:
        want = brute_force_metrics(
            arguments["scores"], arguments["train_items"], arguments["relevant"], arguments["k"]
        )
        ok = report.num_users == want["num_users"] and all(
            abs(report.overall[key] - want[key]) <= METRIC_TOL for key in ("recall", "precision", "ndcg")
        )
        self.reports.append(dict(report.overall, num_users=report.num_users))
        self.outcome(ok, f"evaluate_scores {report.overall} != brute force {want}")


# --------------------------------------------------------------------------
# Timed loops
# --------------------------------------------------------------------------


@dataclass
class LoopResult:
    cycles: int
    wall: float  # timed-loop wall time minus the time spent in checks
    work: int  # BPR triplets (train) or users ranked (eval)
    val_recall: float
    recorder: SpanRecorder
    checks: Checks
    eval_texts: list[str]
    counters: object  # per-layer counts of the traced pass, or None


def timed_loop(pkg, wl, trainer, ctx: dict, cycles: int, seed: int, layers: bool,
               track_alloc: bool = False) -> LoopResult:
    """Run ``cycles`` whole cycles, timing every top-level call."""
    rec = SpanRecorder(layers=layers, track_alloc=track_alloc)
    checks = Checks(pkg, seed)
    checks.attach(rec)
    counters = layer_counters(rec) if layers else None
    inst = Instrumentation(pkg, rec)
    inst.install()
    if track_alloc:
        tracemalloc.start()
    texts: list[str] = []
    done = work = 0
    val_recall = math.nan
    start = time.perf_counter()
    try:
        while done < cycles:
            if wl.kind == "train":
                result = run_epoch(trainer, ctx["checkpoint"])
                checks.outcome(not result.aborted, f"training aborted in epoch {trainer.epoch}")
                if result.aborted:
                    break
                if done == 0:
                    val_recall = trainer.log[0]["recall"]
            else:
                split = ("val", "test")[done % 2]
                code, text = eval_pass(pkg, ctx["checkpoint"], ctx["data"], split)
                checks.outcome(code == 0, f"eval pass on {split} exited {code}")
                if code != 0:
                    break
                texts.append(text)
                report = json.loads(text)
                work += report["num_users"]
                if split == "val" and math.isnan(val_recall):
                    val_recall = report["overall"]["recall"]
            done += 1
    finally:
        wall = time.perf_counter() - start - rec.check_s
        if track_alloc:
            tracemalloc.stop()
        inst.uninstall()
    if wl.kind == "train":
        g_steps = sum(1 for c in rec.top_calls if c["kind"] == "g_step" and c["ok"])
        work = trainer.cfg.batch_size * g_steps
    for call in rec.top_calls:
        checks.outcome(call["ok"], f"{call['kind']} raised")
    return LoopResult(done, wall, work, val_recall, rec, checks, texts, counters)


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def durations(rec: SpanRecorder, kind: str) -> list[float]:
    return [c["s"] for c in rec.top_calls if c["kind"] == kind and c["ok"]]


def nested_durations(rec: SpanRecorder, name: str) -> list[float]:
    return [span[2] - span[1] for span in rec.spans if span[0] == name]


def end_to_end(wl: Workload, loop: LoopResult, setup: list[float]) -> tuple[dict, dict]:
    """The contract metrics (same names on every workload) and the named
    per-workload details printed beside them."""
    rec = loop.recorder
    main_kind = "g_step" if wl.kind == "train" else "eval_pass"
    main = durations(rec, main_kind)
    tail = stats.tail(main)
    rate = loop.work / loop.wall
    usage = resource.getrusage(resource.RUSAGE_SELF)
    metrics = {
        "setup_s": (stats.median(setup), "s"),
        "throughput_per_s": (rate, "1/s"),
        "op_p50_s": (stats.median(main), "s"),
        "op_tail_s": (tail["value"], "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        "val_recall_at_20": (loop.val_recall, "ratio"),
    }
    details = {
        "cycles": loop.cycles, "timed_wall_s": loop.wall, "check_s": rec.check_s, "op_tail": tail,
        "process_user_s": usage.ru_utime, "process_sys_s": usage.ru_stime, "minor_faults": usage.ru_minflt,
    }
    if wl.kind == "train":
        details.update(
            train_samples_per_s=rate,
            g_step_p50_s=stats.median(main),
            g_step_tail_s=tail["value"],
            d_step_p50_s=stats.median(durations(rec, "d_step")),
            refresh_s=stats.median(durations(rec, "refresh")),
            validate_s=stats.median(durations(rec, "validate")),
            save_s=stats.median(durations(rec, "save")),
        )
    else:
        details.update(
            eval_pass_s=stats.median(main),
            eval_users_per_s=rate,
            refresh_s=stats.median(nested_durations(rec, "model.refresh_neighborhoods")),
        )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def per_layer_units() -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def per_layer(loop: LoopResult, plain: LoopResult, memory: LoopResult, setup_rec: SpanRecorder) -> dict:
    """Per-layer metrics of the traced pass, per cycle (one epoch or one eval
    pass); ``setup.*`` names come from one traced set-up and the peak
    allocations from the memory cycle instead."""
    rec = loop.recorder
    cycles = loop.cycles
    totals: dict[str, list[float]] = {}
    for span, own in zip(rec.spans, self_times(rec.spans)):
        entry = totals.setdefault(span[0], [0.0, 0])
        entry[0] += own
        entry[1] += 1
    g_wall = sum(durations(rec, "g_step"))
    g_own = totals.get("trainer.Trainer.g_step", (0.0, 0))[0]
    setup_totals: dict[str, float] = {}
    for span, own in zip(setup_rec.spans, self_times(setup_rec.spans)):
        setup_totals[span[0]] = setup_totals.get(span[0], 0.0) + own
    values = {
        "trace.overhead_s": (loop.wall - plain.wall) / cycles,
        "trace.overhead_share": (loop.wall - plain.wall) / plain.wall,
        "trace.cycles": float(cycles),
        "trainer.Trainer.g_step.attributed_share": 1.0 - g_own / g_wall if g_wall else 0.0,
    }
    for kind in TOP_LEVEL.values():
        peaks = [c["peak_alloc_b"] for c in memory.recorder.top_calls if c["kind"] == kind]
        values[f"{kind}.peak_alloc_mb"] = max(peaks) / 2**20 if peaks else 0.0
    values.update(loop.counters(cycles))
    out = {}
    for name, unit in per_layer_units().items():
        if name in values:
            value = values[name]
        elif name.startswith("setup."):
            value = setup_totals.get(name[len("setup."):-len(".s")], 0.0)
        elif name.endswith(".s"):
            value = totals.get(name[: -len(".s")], (0.0, 0))[0] / cycles
        elif name.endswith(".calls"):
            value = totals.get(name[: -len(".calls")], (0.0, 0))[1] / cycles
        else:
            raise KeyError(f"per-layer metric {name} has no source")
        out[name] = {"value": float(value), "unit": unit}
    return out


def layer_counters(rec: SpanRecorder):
    """Observers for the per-layer counts that spans alone do not give;
    returns a function of the cycle count that reads them out."""
    tape_records: dict[str, list[int]] = {"g_step": [], "d_step": []}
    churn: list[float] = []
    previous: list = []
    users_ranked: list[int] = []
    saved: list[int] = []

    def on_backward(args, kwargs, grads):
        if rec.last_top in tape_records:
            tape_records[rec.last_top].append(len(args[0]))

    def on_refresh(args, kwargs, neighborhoods):
        if previous:
            changed = total = 0
            for old, new in zip(previous[-1], neighborhoods):
                for a, b in ((old.user_neighbors, new.user_neighbors), (old.item_neighbors, new.item_neighbors)):
                    changed += int((a != b).any(axis=1).sum())
                    total += a.shape[0]
            churn.append(changed / total)
        previous[:] = [neighborhoods]

    def on_evaluate(args, kwargs, report):
        users_ranked.append(report.num_users)

    def on_save(args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        saved.append(os.path.getsize(path))

    rec.observe("autodiff.Tape.backward", on_backward)
    rec.observe("model.refresh_neighborhoods", on_refresh)
    rec.observe("evaluation.evaluate_scores", on_evaluate)
    rec.observe("trainer.save_checkpoint", on_save)

    def values(cycles: int) -> dict:
        return {
            "autodiff.tape_records.g_step": float(np.mean(tape_records["g_step"])) if tape_records["g_step"] else 0.0,
            "autodiff.tape_records.d_step": float(np.mean(tape_records["d_step"])) if tape_records["d_step"] else 0.0,
            "encoder.neighbor_churn": float(np.mean(churn)) if churn else 0.0,
            "evaluation.users_ranked": sum(users_ranked) / cycles,
            "trainer.save_checkpoint.bytes": float(np.mean(saved)) if saved else 0.0,
        }

    return values


# --------------------------------------------------------------------------
# Provenance and the run itself
# --------------------------------------------------------------------------


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def provenance(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pinned_env": {k: os.environ.get(k) for k in (
            "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "NUMPY_MADVISE_HUGEPAGE")},
        "git_commit": git_commit(),
        "seed": seed,
    }


def digest(losses: list) -> str:
    return hashlib.sha256(json.dumps(losses).encode()).hexdigest()


def run(args) -> dict:
    pkg = import_package()
    wl = WORKLOADS[args.workload]
    work_root = Path(args.work)
    shutil.rmtree(work_root, ignore_errors=True)
    work_root.mkdir(parents=True)
    ctx = {"checkpoint": work_root / "model.ckpt", "data": work_root / "data"}

    # 1. warm-up on a tenth of the spec, untimed
    tiny = build(pkg, wl, args.seed, work_root / "warm" if wl.kind == "eval" else None, scale=10)
    run_epoch(tiny, work_root / "warm.ckpt")
    if wl.kind == "eval":
        eval_pass(pkg, work_root / "warm.ckpt", work_root / "warm", "val")
    del tiny

    # 2. set-up, repeated; a traced training run keeps two identical trainers
    setup_times: list[float] = []
    trainers: list = []
    keep = 2 if args.trace and wl.kind == "train" else 1
    for _ in range(SETUP_REPEATS):
        trainers = trainers[-(keep - 1):] if keep > 1 else []
        t0 = time.perf_counter()
        trainers.append(build(pkg, wl, args.seed, ctx["data"] if wl.kind == "eval" else None))
        setup_times.append(time.perf_counter() - t0)
    setup_rec = SpanRecorder(layers=True)
    if args.trace:
        inst = Instrumentation(pkg, setup_rec)
        inst.install()
        try:
            build(pkg, wl, args.seed, ctx["data"] if wl.kind == "eval" else None)
        finally:
            inst.uninstall()

    # 3. eval only: a short training epoch writes the checkpoint
    prepare_s = 0.0
    if wl.kind == "eval":
        t0 = time.perf_counter()
        run_epoch(trainers[-1], ctx["checkpoint"])
        prepare_s = time.perf_counter() - t0

    # 4. the timed loop
    cycles = max(1, round(args.seconds / CYCLE_S))
    plain = timed_loop(pkg, wl, trainers[-1], ctx, cycles, args.seed, layers=False)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "provenance": provenance(args.seed), "setup_s_samples": setup_times, "prepare_s": prepare_s,
    }
    checks = [plain.checks]
    if args.trace:
        plain_ckpt = ctx["checkpoint"]
        if wl.kind == "train":
            ctx = dict(ctx, checkpoint=work_root / "traced.ckpt")
        loop = timed_loop(pkg, wl, trainers[0], ctx, plain.cycles, args.seed, layers=True)
        same = (plain.checks.losses == loop.checks.losses) and (plain.eval_texts == loop.eval_texts)
        loop.checks.outcome(same, "traced run diverged from the untraced run")
        again = timed_loop(pkg, wl, trainers[-1], dict(ctx, checkpoint=plain_ckpt), plain.cycles, args.seed,
                           layers=False)
        memory = timed_loop(pkg, wl, trainers[0], ctx, 1, args.seed, layers=False, track_alloc=True)
        checks += [loop.checks, again.checks, memory.checks]
        metrics = per_layer(loop, again, memory, setup_rec)
        spans_path = work_root.parent / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"names": ["name", "start", "end", "parent", "request"],
                                          "spans": loop.recorder.spans}))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["trajectories_equal"] = same
    else:
        metrics, details = end_to_end(wl, plain, setup_times)
        result["details"] = details
    attempted = sum(c.attempted for c in checks)
    failures = [f for c in checks for f in c.failures]
    result.update(
        correct=not failures, attempted=attempted, failed=len(failures), failures=failures[:20],
        failed_share=len(failures) / attempted, metrics=metrics,
        losses=plain.checks.losses, loss_digest=digest(plain.checks.losses),
        top_calls={kind: durations(plain.recorder, kind) for kind in TOP_LEVEL.values()},
        eval_reports=plain.checks.reports,
    )
    shutil.rmtree(work_root, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark run of one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

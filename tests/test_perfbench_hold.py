"""The benchmark's hold on the package.

``perfbench/bench.py`` builds trainers, runs epochs and ``mmssl eval``
passes, and binds ``refresh_neighborhoods``' and ``evaluate_scores``'
arguments by name.  These tests drive one tiny workload of each kind
through the same calls, so a change that breaks a name the benchmark
binds fails here, not only when the benchmark runs.
"""

import importlib
import inspect
import math
import pkgutil
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402

TINY = {
    # like train-cl-S (the full model) and eval-M (InfoNCE off), at 200 x 150
    "train": bench.Workload("train", 200, 150, {"train.steps_per_epoch": 2}),
    "eval": bench.Workload("eval", 200, 150, {"train.disable_cl": True, "train.steps_per_epoch": 2}),
}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_a_tiny_workload_passes_every_check_with_finite_metrics(tmp_path, kind):
    pkg = bench.import_package()
    wl = TINY[kind]
    ctx = {"checkpoint": tmp_path / "model.ckpt", "data": tmp_path / "data"}
    start = time.perf_counter()
    trainer = bench.build(pkg, wl, 1, ctx["data"] if kind == "eval" else None)
    setup = [time.perf_counter() - start]
    if kind == "eval":  # the checkpoint the eval passes read
        assert not bench.run_epoch(trainer, ctx["checkpoint"]).aborted
    loop = bench.timed_loop(pkg, wl, trainer, ctx, 2, 1, layers=False)
    assert loop.cycles == 2 and loop.checks.attempted > 0
    assert loop.checks.failures == []
    metrics, _ = bench.end_to_end(wl, loop, setup)
    assert metrics.keys() >= {"setup_s", "throughput_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "val_recall_at_20"}
    assert all(math.isfinite(m["value"]) for m in metrics.values()), metrics
    if kind == "train":  # with every layer wrapped, the same losses
        traced = bench.timed_loop(pkg, wl, bench.build(pkg, wl, 1, None), ctx, 2, 1, layers=True)
        assert traced.checks.failures == [] and traced.checks.losses == loop.checks.losses


def test_all_lists_every_public_function_and_class_of_its_module():
    # traced benchmark runs time only the functions a module's __all__ names
    pkg = bench.import_package()
    unlisted = []
    for info in pkgutil.iter_modules(pkg.__path__):
        mod = importlib.import_module(f"{pkg.__name__}.{info.name}")
        unlisted += [
            f"{info.name}.{name}"
            for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
            and name not in mod.__all__
        ]
    assert unlisted == []

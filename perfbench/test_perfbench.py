"""Unit tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import compare  # noqa: E402
import stats  # noqa: E402
from spans import Instrumentation, SpanRecorder, self_times  # noqa: E402


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(30, 66, 10), (22, 54, 10), (100, 90, 10), (1000, 99, 10), (20, 50, 10), (15, 50, 7), (10, 50, 5), (1, 50, 0)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    values = list(np.random.default_rng(n).permutation(n) + 1.0)
    got = stats.tail(values)
    assert (got["percentile"], got["beyond"], got["samples"]) == (pct, beyond, n)
    assert sum(v > got["value"] for v in values) == got["beyond"]
    assert got["value"] >= stats.median(values)
    if pct > 50:  # one percentile higher leaves fewer than ten beyond
        rank = -(-(pct + 1) * n // 100)
        assert n - rank < 10


def test_self_time_subtracts_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps a: the union 1..6 is covered once
        ("c", 2.0, 3.0, 1, 0),
        ("d", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_self_times_sum_to_root_duration_for_nested_spans():
    spans = [("r", 0.0, 8.0, -1, 0), ("x", 1.0, 3.0, 0, 0), ("y", 3.5, 7.0, 0, 0), ("z", 4.0, 5.0, 2, 0)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def _bindings(pkg) -> dict:
    from spans import BINDING_MODULES

    out = {}
    for short in BINDING_MODULES:
        mod = getattr(pkg, short)
        out.update({(short, k): v for k, v in vars(mod).items()})
    for cls in (pkg.trainer.Trainer, pkg.trainer.AdamOptimizer, pkg.autodiff.Tape):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_wrappers_cover_from_imports_and_are_removed():
    pkg = bench.import_package()
    before = _bindings(pkg)
    inst = Instrumentation(pkg, SpanRecorder(layers=True))
    inst.install()
    try:
        for mod, name in [
            (pkg.trainer, "sample_bpr_triplets"),
            (pkg.trainer, "build_norm_adjacency"),
            (pkg.trainer, "evaluate_scores"),
            (pkg.cli, "evaluate_scores"),
            (pkg.cli, "load_checkpoint"),
            (pkg.autodiff, "matmul"),
        ]:
            assert hasattr(getattr(mod, name), "__wrapped_span__"), f"{mod.__name__}.{name} not wrapped"
        assert hasattr(pkg.autodiff.Tape.backward, "__wrapped_span__")
    finally:
        inst.uninstall()
    after = _bindings(pkg)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_recorder_wraps_only_top_level_and_observed_calls():
    pkg = bench.import_package()
    rec = SpanRecorder(layers=False)
    rec.observe("evaluation.evaluate_scores", lambda *a: None)
    inst = Instrumentation(pkg, rec)
    inst.install()
    try:
        assert not hasattr(pkg.autodiff.matmul, "__wrapped_span__")
        assert hasattr(pkg.trainer.Trainer.g_step, "__wrapped_span__")
        assert hasattr(pkg.trainer.evaluate_scores, "__wrapped_span__")
    finally:
        inst.uninstall()


def test_spans_record_parent_and_request():
    pkg = bench.import_package()
    ad = pkg.autodiff
    rec = SpanRecorder(layers=True)
    inst = Instrumentation(pkg, rec)
    inst.install()
    try:
        with ad.Tape():
            ad.mean(ad.constant(np.ones((3, 2))))
    finally:
        inst.uninstall()
    names = [s[0] for s in rec.spans]
    assert names[0] == "autodiff.constant" and rec.spans[0][3] == -1
    mean = names.index("autodiff.op.mean")
    assert rec.spans[mean][3] == -1
    inner = [s for s in rec.spans[mean + 1:]]
    assert inner and all(s[3] == mean for s in inner)
    assert "autodiff.op.reduce_sum" in names
    assert all(s[1] <= s[2] for s in rec.spans)
    assert len({s[4] for s in rec.spans}) == 1  # no top-level call opened a request


def test_brute_force_metrics_match_evaluate_scores_with_ties():
    pkg = bench.import_package()
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 4, size=(40, 30)).astype(float)  # many ties
    train = [np.sort(rng.choice(30, size=3, replace=False)) for _ in range(40)]
    relevant = [np.setdiff1d(rng.choice(30, size=rng.integers(0, 4), replace=False), t) for t in train]
    report = pkg.evaluation.evaluate_scores(scores, train, relevant, k=5)
    want = bench.brute_force_metrics(scores, train, relevant, 5)
    assert want["num_users"] == report.num_users
    for key in ("recall", "precision", "ndcg"):
        assert want[key] == pytest.approx(report.overall[key], abs=1e-12)


def test_top_k_check_accepts_rounding_swaps_only():
    scores = np.array([0.5, 0.9, 0.9 + 1e-15, 0.1, 0.7])
    assert bench.top_k_agrees([2, 1, 4], scores, 3)
    assert bench.top_k_agrees([1, 2, 4], scores, 3)  # swap within rounding
    assert not bench.top_k_agrees([2, 1, 0], scores, 3)
    assert not bench.top_k_agrees([1, 2], np.zeros(4), 2)  # exact ties keep id order


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(base, [1.05, 1.04, 1.06, 1.05, 1.05], 0.1, "lower")[0] == "ok"
    assert compare.verdict(base, [1.2, 1.21, 1.19, 1.2, 1.2], 0.1, "lower")[0] == "WORSE"
    assert compare.verdict(base, [0.5, 2.0, 1.0, 0.6, 1.9], 0.1, "lower")[0] == "unresolved"
    assert compare.verdict(base, [0.8, 0.81, 0.79, 0.8, 0.8], 0.1, "higher")[0] == "WORSE"

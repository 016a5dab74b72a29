"""Benchmark entry point: one workload (or all of them) in fresh processes.

    python3 perfbench/run.py --workload train-cl-S --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a child process of its own (``bench.py``) whose
environment pins what would otherwise vary from process to process:

* the BLAS thread count, to at most the number of usable cores and at
  most two;
* glibc's allocator thresholds, at the values its adaptive heuristic
  reaches once large arrays have been freed (32 MiB mmap threshold) and
  with heap trimming off.  Left adaptive, the thresholds depend on the
  order of the first frees, and between seeds the page-fault count of a
  run varied from 1.4 to 2.4 million and the step time by a quarter (on a
  2-core VM with numpy 2.4 and OpenBLAS 0.3.31);
* numpy's transparent-huge-page advice, off: whether the kernel can grant
  huge pages depends on how fragmented memory is at that moment, and it
  changed one run's page-fault count fourfold.

The child writes its full result, with provenance, the per-step loss
trajectory and the checks that failed, to ``.perfbench-out/runs/``; this
process prints every metric by name with its unit and, as the last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones.

Exit status is 0 when every child finished and reported finite metrics
(``correct`` says whether every check passed), 1 otherwise; nothing is
printed as a result then.  ``compare.py`` reports on two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("train-cl-S", "train-adv-M", "eval-M")
CHILD_TIMEOUT_S = 170
MAX_BLAS_THREADS = 2
PINNED_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def blas_threads() -> int:
    return max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """Run one workload in a fresh process; None when it failed."""
    tag = f"{workload}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    result = OUT / "runs" / f"{tag}.json"
    result.parent.mkdir(parents=True, exist_ok=True)
    threads = str(blas_threads())
    env = dict(os.environ, **PINNED_ENV, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    cmd = [
        sys.executable, str(HERE / "bench.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--result", str(result), "--work", str(OUT / f"work-{tag}"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if code != 0 or not result.is_file():
        print(f"perfbench: {workload} exited with status {code}", file=sys.stderr)
        return None
    doc = json.loads(result.read_text(encoding="utf-8"))
    bad = [name for name, m in doc["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        print(f"perfbench: {workload} reported non-finite metrics {bad}", file=sys.stderr)
        return None
    doc["result_file"] = str(result.relative_to(ROOT))
    return doc


def describe(doc: dict) -> list[str]:
    lines = [
        f"== {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}: "
        f"{'correct' if doc['correct'] else 'INCORRECT'}, {doc['attempted']} attempted, "
        f"{doc['failed']} failed (failed_share {doc['failed_share']:.4g})"
    ]
    lines += [f"   ! {f}" for f in doc["failures"]]
    for name, m in doc["metrics"].items():
        lines.append(f"   {name:<44} {m['value']:>14.6g} {m['unit']}")
    details = doc.get("details", {})
    for name, value in details.items():
        if isinstance(value, dict):
            value = f"{value['value']:.6g} s (p{value['percentile']}, {value['samples']} samples, {value['beyond']} beyond)"
        elif isinstance(value, float):
            value = f"{value:.6g}" + (" 1/s" if name.endswith("_per_s") else " s" if name.endswith("_s") else "")
        lines.append(f"   {name:<44} {value}")
    if doc["trace"]:
        lines.append(f"   loss trajectories traced/untraced bitwise equal: {doc['trajectories_equal']}")
        lines.append(f"   spans: {doc['spans_file']}")
    lines.append(f"   loss trajectory sha256 {doc['loss_digest'][:16]}  ({len(doc['losses'])} steps)")
    lines.append(f"   provenance {json.dumps(doc['provenance'], sort_keys=True)}")
    lines.append(f"   result file {doc['result_file']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mmssl").is_dir():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = []
    for name in names:
        doc = run_child(name, args.seed, args.seconds, args.trace)
        if doc is None:
            return 1
        print("\n".join(describe(doc)), flush=True)
        docs.append(doc)
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}.{k}": v for d in docs for k, v in d["metrics"].items()}
    line = {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each argument is a directory of result files written by ``run.py`` (its
``.perfbench-out/runs``, copied aside) or a single result file.  For every
workload and metric the median and quartiles of each set are printed,
with the spread (quartile distance over the median).  With two sets, each
metric that has a bound in ``BENCHMARK.json`` gets a verdict:

* ``ok``: the change's median is no worse than the base's by more than the bound;
* ``WORSE``: it is worse by more than the bound;
* ``unresolved``: either set spreads wider than the bound, and not every
  run of the change beats every run of the base.

The named per-workload figures that are not contract metrics
(``g_step_p50_s``, ``refresh_s``, ...) are listed without a verdict.
Exit status is 1 when any verdict is ``WORSE``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def load_runs(arg: str) -> dict[tuple[str, int], list[dict]]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups: dict[tuple[str, int], list[dict]] = {}
    for f in files:
        doc = json.loads(f.read_text(encoding="utf-8"))
        groups.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    return groups


def series(runs: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for doc in runs:
        for name, m in doc["metrics"].items():
            out.setdefault(name, []).append(m["value"])
        for name, value in doc.get("details", {}).items():
            if isinstance(value, (int, float)) and name not in doc["metrics"]:
                out.setdefault(f"({name})", []).append(float(value))
    return out


def verdict(base: list[float], change: list[float], bound: float, better: str) -> tuple[str, float]:
    """Verdict and the signed relative change of the medians (positive = worse)."""
    b, c = stats.median(base), stats.median(change)
    worse = (c - b) / abs(b) if better == "lower" else (b - c) / abs(b)
    if max(stats.spread(base), stats.spread(change)) > bound:
        beats = max(change) < min(base) if better == "lower" else min(change) > max(base)
        return ("ok (every run better)" if beats else "unresolved"), worse
    return ("ok" if worse <= bound else "WORSE"), worse


def describe(values: list[float]) -> str:
    q1, q2, q3 = stats.quartiles(values)
    return f"{q2:>11.5g} [{q1:.5g}, {q3:.5g}] spread {stats.spread(values):6.1%} n={len(values)}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    sets = [load_runs(a) for a in argv]
    worse_any = False
    for key in sorted(set().union(*sets)):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        per_set = [series(s.get(key, [])) for s in sets]
        for name in sorted(set().union(*per_set)):
            cells = [describe(p[name]) if p.get(name) else "-" for p in per_set]
            line = f"   {name:<42} " + "  |  ".join(cells)
            if len(sets) == 2 and name in bounds and all(p.get(name) for p in per_set):
                bound, better = bounds[name]
                word, change = verdict(per_set[0][name], per_set[1][name], bound, better)
                worse_any |= word == "WORSE"
                line += f"  ->  {word} ({change:+.1%} worse, bound {bound:.0%})"
            print(line)
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())

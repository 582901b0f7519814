"""Compare two result sets of the benchmark, workload by workload.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds run records as ``perfbench/run.py`` appends them to
``perfbench/out/runs.jsonl``. For every workload and metric it prints the
median and quartiles of each side. An end-to-end metric is marked
``worse`` when the after median is worse than the before median by more
than the metric's bound in ``BENCHMARK.json``, ``unresolved`` when the
run-to-run spread (interquartile range over median) of either side
exceeds the bound, unless every after run beats every before run, and
``within`` otherwise. Per-layer metrics have no bound and get no mark.
Runs whose result was not correct are counted and left out.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> tuple[dict, int]:
    """{(workload, metric): [values]} over correct runs, and the count of incorrect ones."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    incorrect = 0
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if not rec["result"]["correct"]:
            incorrect += 1
            continue
        for name, m in rec["result"]["metrics"].items():
            values[(rec["workload"], name)].append(m["value"])
    return values, incorrect


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(before: list[float], after: list[float], bound: float, better: str) -> str:
    b1, bm, b3 = quartiles(before)
    a1, am, a3 = quartiles(after)
    lower = better == "lower"
    worse_by = (am - bm) / bm if lower else (bm - am) / bm
    spread = max((b3 - b1) / bm, (a3 - a1) / am)
    if spread > bound:
        all_better = max(after) < min(before) if lower else min(after) > max(before)
        return "within" if all_better else "unresolved"
    return "worse" if worse_by > bound else "within"


def compare(before_path, after_path, spec: dict) -> list[str]:
    before, bad_b = load(before_path)
    after, bad_a = load(after_path)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    lines = [f"incorrect runs left out: before {bad_b}, after {bad_a}"]
    header = f"{'workload':<14} {'metric':<36} {'before median [q1, q3]':>34} {'after median [q1, q3]':>34} {'change':>8}  mark"
    lines.append(header)
    for key in sorted(set(before) & set(after)):
        workload, name = key
        b, a = before[key], after[key]
        b1, bm, b3 = quartiles(b)
        a1, am, a3 = quartiles(a)
        change = (am - bm) / bm * 100 if bm else float("nan")
        mark = ""
        if name in e2e:
            mark = verdict(b, a, e2e[name]["bound"], e2e[name]["better"])
        lines.append(
            f"{workload:<14} {name:<36} {f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':>34} "
            f"{f'{am:.5g} [{a1:.5g}, {a3:.5g}]':>34} {change:7.2f}%  {mark}"
        )
    for key in sorted(set(before) ^ set(after)):
        lines.append(f"{key[0]:<14} {key[1]:<36} only in {'before' if key in before else 'after'}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    print("\n".join(compare(argv[0], argv[1], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

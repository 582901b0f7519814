#!/usr/bin/env python3
"""Record a before/after benchmark comparison as ``BENCH_<TAG>.json``.

    python3 scripts/bench_record.py TAG BEFORE.jsonl AFTER.jsonl

BEFORE and AFTER hold run records as ``perfbench/run.py`` appends them to
``perfbench/out/runs.jsonl``. For every workload and end-to-end metric of
``BENCHMARK.json`` the file at the repository root gets each side's median,
quartiles and count of correct runs, the relative change of the median, and
the mark that ``perfbench/compare.py`` gives it (``within``, ``worse`` or
``unresolved``). Runs whose result was not correct are counted and left out.

Runs of one workload and seed are paired in file order, one before run with
one after run. Each metric records its number of pairs and how many the
change won and lost (a tie counts for neither), and ``gain``: whether a gain
may be claimed, which needs at least ten pairs, wins in nine tenths of them,
and a median better by more than the before side's interquartile range.
Correct runs left without a partner are counted per workload under
``unpaired_runs``.

Traced runs (``--trace 1``) are kept apart from the pairing. When either
side has any, the document gains ``per_layer``: for every workload and
per-layer metric of ``BENCHMARK.json``, each side's median over its correct
traced runs and the relative change, which shows where a saving lands.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from compare import BENCHMARK, quartiles, verdict  # noqa: E402


def _stats(values: list[float]) -> dict | None:
    if not values:
        return None
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def _read_runs(path) -> tuple[dict[tuple[str, int], list[dict]], dict[str, list[dict]], int, dict | None]:
    """One pass over a runs file.

    Returns {(workload, seed): [metric values of each correct untraced run,
    in file order]}, {workload: [metric values of each correct traced run]},
    the count of incorrect runs, and the machine facts of the first record.
    """
    records = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    traced: dict[str, list[dict]] = defaultdict(list)
    for rec in records:
        if rec["result"]["correct"]:
            values = {name: m["value"] for name, m in rec["result"]["metrics"].items()}
            if rec.get("trace"):
                traced[rec["workload"]].append(values)
            else:
                runs[(rec["workload"], rec["seed"])].append(values)
    incorrect = sum(not rec["result"]["correct"] for rec in records)
    return runs, traced, incorrect, records[0].get("machine") if records else None


def _by_metric(runs: dict[tuple[str, int], list[dict]]) -> dict[tuple[str, str], list[float]]:
    """{(workload, metric): [values of every correct run]}; the order does not matter to the statistics."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for (workload, _), seed_runs in runs.items():
        for run in seed_runs:
            for name, value in run.items():
                values[(workload, name)].append(value)
    return values


def _pairs(before: dict, after: dict) -> tuple[dict, dict]:
    """{workload: [(before values, after values)]}, and {workload: correct runs left unpaired per side}."""
    pairs: dict[str, list] = defaultdict(list)
    unpaired: dict[str, dict] = defaultdict(lambda: {"before": 0, "after": 0})
    for key in sorted(before.keys() | after.keys()):
        b, a = before.get(key, []), after.get(key, [])
        pairs[key[0]].extend(zip(b, a))
        if len(b) != len(a):
            unpaired[key[0]]["before" if len(b) > len(a) else "after"] += abs(len(b) - len(a))
    return pairs, unpaired


def _pair_wins(pairs: list, name: str, better: str) -> dict:
    """How many pairs the after run of ``name`` won and lost; ties count for neither."""
    lower = better == "lower"
    values = [(b[name], a[name]) for b, a in pairs if name in b and name in a]
    won = sum(a < b if lower else a > b for b, a in values)
    lost = sum(a > b if lower else a < b for b, a in values)
    return {"pairs": len(values), "won": won, "lost": lost}


def _gain(entry: dict) -> bool:
    """Ten pairs or more, wins in nine tenths of them, and the median better by more than the before IQR."""
    n, won = entry["pairs"]["pairs"], entry["pairs"]["won"]
    before, after = entry["before"], entry["after"]
    improvement = after["median"] - before["median"]
    if entry["better"] == "lower":
        improvement = -improvement
    return n >= 10 and 10 * won >= 9 * n and improvement > before["q3"] - before["q1"]


def _per_layer(spec: dict, before: dict[str, list[dict]], after: dict[str, list[dict]]) -> dict:
    """{workload: {per-layer metric: each side's median over its traced runs, and the change}}."""
    doc = {}
    for w in spec["workloads"]:
        metrics = {}
        for m in spec["per_layer"]:
            b = [run[m["name"]] for run in before.get(w["name"], []) if m["name"] in run]
            a = [run[m["name"]] for run in after.get(w["name"], []) if m["name"] in run]
            if not b and not a:
                continue
            bm, am = (statistics.median(v) if v else None for v in (b, a))
            metrics[m["name"]] = {
                "unit": m["unit"],
                "before": bm,
                "after": am,
                "runs": {"before": len(b), "after": len(a)},
                "change_pct": (am - bm) / bm * 100 if bm and am is not None else None,
            }
        if metrics:
            doc[w["name"]] = metrics
    return doc


def record(tag: str, before_path, after_path) -> Path:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    before_runs, before_traced, bad_b, _ = _read_runs(before_path)
    after_runs, after_traced, bad_a, machine = _read_runs(after_path)
    before, after = _by_metric(before_runs), _by_metric(after_runs)
    pairs, unpaired = _pairs(before_runs, after_runs)
    workloads = {}
    for w in spec["workloads"]:
        metrics = {}
        for m in spec["end_to_end"]:
            b, a = before.get((w["name"], m["name"])), after.get((w["name"], m["name"]))
            if not b and not a:
                continue
            entry = {"unit": m["unit"], "better": m["better"], "before": _stats(b), "after": _stats(a)}
            if b and a:
                bm, am = entry["before"]["median"], entry["after"]["median"]
                entry["change_pct"] = (am - bm) / bm * 100 if bm else None
                entry["mark"] = verdict(b, a, m["bound"], m["better"])
                entry["pairs"] = _pair_wins(pairs[w["name"]], m["name"], m["better"])
                entry["gain"] = _gain(entry)
            metrics[m["name"]] = entry
        if metrics:
            workloads[w["name"]] = metrics
    doc = {
        "tag": tag,
        "machine": machine,
        "incorrect_runs": {"before": bad_b, "after": bad_a},
        "unpaired_runs": {w: unpaired[w] for w in workloads},
        "workloads": workloads,
    }
    if before_traced or after_traced:
        doc["per_layer"] = _per_layer(spec, before_traced, after_traced)
    out = BENCHMARK.parent / f"BENCH_{tag}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    print(f"wrote {record(*argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

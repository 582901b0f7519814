#!/usr/bin/env python3
"""Record a before/after benchmark comparison as ``BENCH_<TAG>.json``.

    python3 scripts/bench_record.py TAG BEFORE.jsonl AFTER.jsonl

BEFORE and AFTER hold run records as ``perfbench/run.py`` appends them to
``perfbench/out/runs.jsonl``. For every workload and end-to-end metric of
``BENCHMARK.json`` the file at the repository root gets each side's median,
quartiles and count of correct runs, the relative change of the median, and
the mark that ``perfbench/compare.py`` gives it (``within``, ``worse`` or
``unresolved``). Runs whose result was not correct are counted and left out.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from compare import BENCHMARK, load, quartiles, verdict  # noqa: E402


def _stats(values: list[float]) -> dict | None:
    if not values:
        return None
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def _machine(path) -> dict | None:
    """The machine facts of the first run record in ``path``."""
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            return json.loads(line).get("machine")
    return None


def record(tag: str, before_path, after_path) -> Path:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    before, bad_b = load(before_path)
    after, bad_a = load(after_path)
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
            metrics[m["name"]] = entry
        if metrics:
            workloads[w["name"]] = metrics
    doc = {
        "tag": tag,
        "machine": _machine(after_path),
        "incorrect_runs": {"before": bad_b, "after": bad_a},
        "workloads": workloads,
    }
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

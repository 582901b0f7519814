"""mailpp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` it is the per-layer result of a traced run.
Either way it is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A readable summary, the machine facts and
any failure go to standard error, and the whole record is appended to
``perfbench/out/runs.jsonl`` for ``perfbench/compare.py``. The traced run
also writes its spans to ``perfbench/out/spans-<workload>.jsonl.gz``.

The closed loop is one process and one caller, and BLAS runs on one
thread, so the run never uses more threads than the machine has cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import session as sess  # noqa: E402  (BLAS threads are fixed before numpy loads)
from spans import Tracer  # noqa: E402

import layers  # noqa: E402


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_untraced(session: sess.Session, seconds: float) -> tuple[dict, dict]:
    with Tracer(spans=False) as clock:
        session.tracer = clock
        samples = session.run_schedule(seconds, min_steps=sess.min_samples(sess.TAIL_PERCENTILE))
    return sess.end_to_end(session, samples)


def run_traced(session: sess.Session, seconds: float) -> tuple[dict, dict]:
    """Untraced training first, for the tracing overhead; then every operation traced."""
    with Tracer(spans=False) as clock:
        session.tracer = clock
        session.run_schedule(seconds * session.spec["share"]["train"] / 2, ops=("train",))
    untraced = list(session.call_step_ms)
    with Tracer(spans=True) as tracer:
        session.tracer = tracer
        samples = session.run_schedule(seconds / 2, ops=sess.OPS[:-1])
    tracer.write_spans(sess.OUT / f"spans-{session.workload}.jsonl.gz", f"{session.workload}/{session.seed}")
    traced = session.call_step_ms[len(untraced):]
    speed = sess.Speed(samples["calib"])
    metrics = layers.per_layer(session, tracer, untraced, traced, speed.scale())
    facts = {
        "spans": len(tracer.spans),
        "untraced_calls": len(untraced),
        "traced_calls": len(traced),
        "calibration_ms": speed.calibration_ms(),
        "reference_scale": speed.scale(),
    }
    return metrics, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(sess.SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        sess.import_mailpp()
    except (sess.SourceMissing, ImportError) as e:
        print(f"error: cannot import mailpp from this checkout: {e}", file=sys.stderr)
        return 2

    session = sess.Session(args.workload, args.seed)
    try:
        session.setup()
        if args.trace:
            metrics, facts = run_traced(session, args.seconds)
        else:
            metrics, facts = run_untraced(session, args.seconds)
    finally:
        session.close()

    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "facts": facts,
        "failures": session.failures,
        "result": result,
    }
    with open(sess.OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    raw = facts.get("raw", {})
    for name, (value, unit) in metrics.items():
        measured = f"  (measured {raw[name]:.6g})" if name in raw else ""
        print(f"{args.workload}  {name:<34} {value:14.6g} {unit}{measured}", file=sys.stderr)
    share = session.failed / session.attempted if session.attempted else 1.0
    print(f"failed_share {share:.4g} ({session.failed} of {session.attempted} operations)", file=sys.stderr)
    for line in session.failures:
        print(f"FAILED: {line}", file=sys.stderr)
    brief = {k: v for k, v in facts.items() if k not in ("samples_s", "call_step_ms", "call_mid", "raw")}
    print(f"facts {json.dumps(brief)}", file=sys.stderr)
    print(f"machine {json.dumps(record['machine'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the loss trajectory ends that the benchmark checks training against.

    python3 perfbench/record_reference.py [workload ...]

For every workload and every episode seed it trains once, as the
benchmark does, and stores the first and final total loss in
``perfbench/reference.json``. Run it only when the training objective is
meant to change; a change that only reorders arithmetic must still match
the recorded values within the benchmark's tolerance.
"""

from __future__ import annotations

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import session as sess  # noqa: E402


def record(workload: str) -> dict:
    from mailpp.training import train

    out = {}
    for episode in range(sess.SPEC["episodes"]):
        s = sess.Session(workload, episode)
        s.setup()
        state = train(s.model, s.fresh_sites(), s.run_cfg.training, s.episode, s.episode_seed)
        out[str(episode)] = {"first": state.metrics[0].l_total, "final": state.metrics[-1].l_total}
        print(workload, episode, out[str(episode)], file=sys.stderr)
    return out


def main(argv: list[str]) -> int:
    sess.import_mailpp()
    names = argv or sorted(sess.SPEC["workloads"])
    ref = dict(sess.REFERENCE)
    for name in names:
        ref[name] = record(name)
    path = sess.HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Tests of the benchmark itself: tracing, metric names, failure counting."""

from __future__ import annotations

import copy
import gc
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import calib  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import session as sess  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _short(workload: str, steps: int) -> dict:
    spec = copy.deepcopy(sess.SPEC["workloads"][workload])
    spec["config"]["training"]["steps"] = steps
    return spec


def _snapshot() -> dict:
    """Every attribute of every mailpp module, and the patched class attributes."""
    import mailpp.agents
    import mailpp.autodiff

    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "mailpp" or name.startswith("mailpp."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
    snap["Tensor.__init__"] = mailpp.autodiff.Tensor.__init__
    snap["Tape.backward"] = mailpp.autodiff.Tape.backward
    snap["set_param"] = mailpp.agents.CoupledAgentSite.set_param
    snap["gc.callbacks"] = list(gc.callbacks)
    return snap


def _losses(session) -> list[float]:
    from mailpp.training import train

    state = train(session.model, session.fresh_sites(), session.run_cfg.training, session.episode, session.episode_seed)
    return [row.l_total for row in state.metrics]


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert {"setup_s"} <= {m["name"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(sess.SPEC["workloads"])


def test_tracing_leaves_outputs_unchanged_and_restores_every_name():
    import mailpp.cli
    import mailpp.training

    s = sess.Session("oracle", 0, spec=_short("oracle", 3))
    s.setup()
    before = _snapshot()
    plain = _losses(s)
    with Tracer(spans=True) as tracer:
        assert mailpp.training.text_forward is not before[("mailpp.training", "text_forward")]
        assert mailpp.cli.check_fusion_equivalence is not before[("mailpp.cli", "check_fusion_equivalence")]
        tracer.expect_steps(3)
        traced = _losses(s)
    assert traced == plain  # bitwise: same floats in the same order
    assert tracer.spans
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value or (key == "gc.callbacks" and after[key] == value), key


def test_default_step_counts_and_per_layer_names():
    s = sess.Session("train-default", 0, spec=_short("train-default", 3))
    s.setup()
    with Tracer(spans=True) as tracer:
        s.tracer = tracer
        tracer.expect_steps(3)
        _losses(s)
    steps = tracer.unit_times("step")[0]
    assert len(steps) == 2
    totals = tracer.totals({"step"})
    assert totals["autodiff.backward"]["n"] == 2 * 1528
    assert totals["encoder.text_forward"]["calls"] == 2 * 8
    assert totals["encoder.image_forward"]["calls"] == 2 * 32
    metrics = layers.per_layer(s, tracer, [[1.0]], [[1.0]], 1.0)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(units[k] == unit for k, (_, unit) in metrics.items())
    assert metrics["autodiff.tape_records"][0] == 1528


@pytest.fixture
def trained_oracle():
    s = sess.Session("oracle", 0)
    s.setup()
    with Tracer(spans=False) as clock:
        s.tracer = clock
        assert s.attempt("train", s.train_once) is not None
        assert s.attempt("ckpt", s.ckpt_once) is not None
        yield s
    s.close()


def test_correct_outputs_count_no_failure(trained_oracle):
    s = trained_oracle
    for op in (s.fuse_once, s.eval_once, s.fused_eval_once):
        assert s.attempt("op", op) is not None
    assert s.failed == 0 and s.attempted == 5


def test_perturbed_fused_weight_counts_as_failure(trained_oracle, monkeypatch):
    import mailpp.agents
    from mailpp.state import pack_state, unpack_state

    s = trained_oracle
    real_fuse = mailpp.agents.fuse_model

    def corrupted_fuse(model, sites):
        fused = real_fuse(model, sites)
        tensors, doc = pack_state(fused, None, None, s.run_cfg, s.episode_seed, fused=True)
        name = [n for n in tensors if n.startswith("frozen/image")][-1]
        bad = tensors[name].copy()
        bad.reshape(-1)[0] += 0.25
        tensors[name] = bad
        return unpack_state(tensors, doc).model

    monkeypatch.setattr(mailpp.agents, "fuse_model", corrupted_fuse)
    assert s.attempt("fuse", s.fuse_once) is None
    assert s.failed == 1
    assert "fuse" in s.failures[0]


def test_corrupted_checkpoint_counts_as_failure(trained_oracle, monkeypatch):
    import mailpp.checkpoint

    s = trained_oracle
    real_load = mailpp.checkpoint.load_checkpoint

    def corrupted_load(path):
        tensors, doc = real_load(path)
        name = next(n for n in tensors if n.startswith("agent/"))
        bad = tensors[name].copy()
        bad.reshape(-1)[0] = np.nextafter(bad.reshape(-1)[0], np.inf)
        tensors[name] = bad
        return tensors, doc

    monkeypatch.setattr(mailpp.checkpoint, "load_checkpoint", corrupted_load)
    assert s.attempt("ckpt", s.ckpt_once) is None
    assert s.failed == 1


def test_failing_oracle_report_counts_as_failure(trained_oracle, monkeypatch):
    import mailpp.cli
    from mailpp.verify import CheckReport

    def failing_gradient_check(*args, **kwargs):
        return [
            CheckReport(name=f"grad_fd[{c}]", worst_error=1.0 if c == "a" else 0.0, tolerance=1e-4, trials=1, seed=0)
            for c in ("a", "b", "w_up", "w_down", "a_m")
        ]

    s = trained_oracle
    monkeypatch.setattr(mailpp.cli, "gradient_check", failing_gradient_check)
    assert s.attempt("check", s.check_once) is None
    assert "FAIL" in s.failures[0]


def test_changed_loss_counts_as_failure(trained_oracle):
    s = trained_oracle
    assert s.check_losses(list(s.trajectory)) is True
    shifted = list(s.trajectory)
    shifted[-1] *= 1 + 1e-6
    assert s.check_losses(shifted) is not True
    s.trajectory = None
    assert s.check_losses(shifted) is not True


def test_tail_rank_leaves_ten_samples_beyond():
    for p in (50, 75, 90, 95):
        n = sess.min_samples(p)
        values = list(range(n))
        assert sum(v > sess.nearest_rank(values, p) for v in values) >= 10
        assert sum(v > sess.nearest_rank(values[:-1], p) for v in values[:-1]) < 10


def test_reference_speed_follows_a_slow_spell_within_a_run():
    def run(slowdown):
        call_mid = [20.0, 70.0]
        session = SimpleNamespace(
            eval_images=100,
            ckpt_bytes=1,
            call_mid=call_mid,
            call_step_ms=[[slowdown(t) * ms for ms in (80.0, 90.0, 100.0) * 20] for t in call_mid],
        )
        plain = ((10.0, 0.5), (30.0, 0.6), (60.0, 0.7), (80.0, 0.6))
        samples = {op: [(t, slowdown(t) * s) for t, s in plain] for op in sess.OPS}
        samples["calib"] = [(i / 2, slowdown(i / 2) * calib.REFERENCE_MS * 1e-3) for i in range(200)]
        return sess.end_to_end(session, samples)

    steady, _ = run(lambda t: 1.0)
    assert steady["check_s"] == (pytest.approx(0.6), "s")
    assert steady["eval_images_per_s"] == (pytest.approx(100 / 0.6), "1/s")
    spell, facts = run(lambda t: 2.0 if 40 <= t < 90 else 1.0)
    assert facts["raw"]["check_s"] == pytest.approx(0.9)
    for name, (value, unit) in steady.items():
        assert spell[name] == (pytest.approx(value), unit), name


def test_compare_marks(tmp_path):
    def write(path, values):
        recs = [
            {"workload": "w", "result": {"correct": True, "metrics": {"check_s": {"value": v, "unit": "s"}}}}
            for v in values
        ]
        path.write_text("\n".join(json.dumps(r) for r in recs) + "\n")

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "check_s")
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    cases = {
        "within": [10.1, 10.0, 10.2, 10.1, 10.0],
        "worse": [v * (1 + 2 * bound) for v in base],
        "unresolved": [v * (1 + 4 * bound * (i % 2)) for i, v in enumerate(base)],
    }
    write(tmp_path / "a.jsonl", base)
    for mark, values in cases.items():
        write(tmp_path / "b.jsonl", values)
        lines = compare.compare(tmp_path / "a.jsonl", tmp_path / "b.jsonl", SPEC)
        assert lines[-1].endswith(mark), (mark, lines[-1])


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_oracle_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "17", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6, proc.stderr
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0

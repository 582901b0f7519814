"""Smoke runs of the scripts: a two-step experiment prints its whole table, the artifact digests, and the
benchmark record."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--steps", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _labels(lines: list[str]) -> list[str]:
    return [line.split()[0] for line in lines]


def test_lambda_sweep_prints_one_row_per_lambda():
    lines = _run("lambda_sweep.py")
    assert lines[0].split() == ["lambda", "train", "drift_img", "drift_txt", "L_ce", "final"]
    assert _labels(lines[1:]) == ["0.00", "1.00", "10.00"]


def test_flow_direction_ablation_prints_one_row_per_mode():
    lines = _run("flow_direction_ablation.py")
    assert lines[0].startswith("frozen model train accuracy:")
    # the secs column is wall time, so only its header is checked
    assert lines[1].split() == ["mode", "train", "base", "novel", "secs"]
    assert _labels(lines[2:6]) == ["ivlu", "text_to_image", "image_to_text", "bidirectional"]
    assert lines[6].split()[:2] == ["coupling", "norms:"]
    assert len(lines) == 7


def test_artifact_digests_prints_the_same_lines_in_any_directory(tmp_path, monkeypatch, capsys):
    # in process, with every config shrunk to the benchmark's check-config widths: at full width one run at
    # --steps 2 takes about 8 s
    spec = importlib.util.spec_from_file_location("artifact_digests", ROOT / "scripts" / "artifact_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    encoder = {"L": 1, "d_t": 4, "d_v": 4, "n_heads": 2, "N_t": 4, "N_v": 4}
    tiny = {"rank": 2, "d_m": 4, "classes": 4}
    configs = {}
    for name, doc in script.CONFIGS.items():
        configs[name] = {**doc, "encoder": encoder, "training": {**doc["training"], **tiny}}
    monkeypatch.setattr(script, "CONFIGS", configs)
    first, second = [], []
    for side, lines in (("a", first), ("b", second)):
        script.main([str(tmp_path / side), "--steps", "2"])
        lines += capsys.readouterr().out.splitlines()
    assert first == second
    rows = [line.split() for line in first]
    assert all(len(row) == 3 and len(row[2]) == 64 for row in rows)
    artifacts = {}
    for config, name, _ in rows:
        artifacts.setdefault(config, []).append(name)
    assert list(artifacts) == ["default", "shift-bidirectional", "shift-text_to_image"]
    common = ["check.csv", "check.stdout", "config.json", "dataset.bin"]
    common += [f"eval-{c}-{s}.stdout" for c in ("fused", "trained") for s in ("base", "novel")]
    common += ["fuse.stdout", "fused.ckpt", "gen-data.stdout", "train.stdout"]
    common += ["trained.ckpt", "trained.ckpt.metrics.csv"]
    norms = ["norms.csv", "report-norms.stdout"]  # bidirectional configs only
    assert artifacts["default"] == artifacts["shift-bidirectional"] == sorted(common + norms)
    assert artifacts["shift-text_to_image"] == sorted(common)



def _runs_file(path: Path, steps_ms: list[float], incorrect: int = 0, seeds: list[int] | None = None) -> Path:
    """Synthetic perfbench run records: one train-default run per step time, then the incorrect ones.

    Run i has seed ``seeds[i]``, or i when no seeds are given.
    """
    lines = []
    for i, ms in enumerate(steps_ms + [0.0] * incorrect):
        metrics = {"train_step_ms_p50": {"value": ms, "unit": "ms"}, "peak_rss_mb": {"value": 60.0, "unit": "MB"}}
        rec = {"workload": "train-default", "seed": i if seeds is None else seeds[i], "machine": {"nproc": 2}}
        rec["result"] = {"correct": i < len(steps_ms), "metrics": metrics}
        lines.append(json.dumps(rec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _bench_record(tmp_path: Path, before: Path, after: Path) -> dict:
    """Run bench_record.py on a copy of the layout it reads, so the record lands in tmp_path, not the checkout."""
    for rel in ("scripts/bench_record.py", "perfbench/compare.py", "BENCHMARK.json"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / rel, tmp_path / rel)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "bench_record.py"), "t1", str(before), str(after)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / "BENCH_t1.json").read_text(encoding="utf-8"))


def test_bench_record_writes_medians_quartiles_and_counts(tmp_path):
    before = _runs_file(tmp_path / "before.jsonl", [60.0, 62.0, 64.0, 66.0, 68.0])
    after = _runs_file(tmp_path / "after.jsonl", [50.0, 51.0, 52.0], incorrect=1)
    doc = _bench_record(tmp_path, before, after)
    assert doc["tag"] == "t1"
    assert doc["machine"] == {"nproc": 2}
    assert doc["incorrect_runs"] == {"before": 0, "after": 1}
    assert list(doc["workloads"]) == ["train-default"]
    step = doc["workloads"]["train-default"]["train_step_ms_p50"]
    assert step["before"] == {"median": 64.0, "q1": 61.0, "q3": 67.0, "runs": 5}
    assert step["after"] == {"median": 51.0, "q1": 50.0, "q3": 52.0, "runs": 3}
    assert step["change_pct"] == (51.0 - 64.0) / 64.0 * 100
    assert (step["unit"], step["better"], step["mark"]) == ("ms", "lower", "within")
    assert doc["workloads"]["train-default"]["peak_rss_mb"]["mark"] == "within"
    assert list(doc["workloads"]["train-default"]) == ["train_step_ms_p50", "peak_rss_mb"]


def test_bench_record_counts_pair_wins_and_the_gain_rule(tmp_path):
    before = _runs_file(tmp_path / "before.jsonl", [60.0 + i for i in range(10)])
    after = _runs_file(tmp_path / "after.jsonl", [50.0 + i for i in range(10)])
    metrics = _bench_record(tmp_path, before, after)["workloads"]["train-default"]
    step = metrics["train_step_ms_p50"]
    assert step["pairs"] == {"pairs": 10, "won": 10, "lost": 0}
    assert step["gain"] is True
    # equal values in every pair: ten ties, no gain
    rss = metrics["peak_rss_mb"]
    assert rss["pairs"] == {"pairs": 10, "won": 0, "lost": 0} and rss["gain"] is False


def test_bench_record_eight_wins_of_ten_is_no_gain(tmp_path):
    # the medians differ by far more than the before IQR; only the win count fails
    before = _runs_file(tmp_path / "before.jsonl", [60.0 + i for i in range(10)])
    after = _runs_file(tmp_path / "after.jsonl", [50.0 + i for i in range(8)] + [70.0, 71.0])
    step = _bench_record(tmp_path, before, after)["workloads"]["train-default"]["train_step_ms_p50"]
    assert step["pairs"] == {"pairs": 10, "won": 8, "lost": 2}
    assert step["after"]["median"] < step["before"]["q1"]
    assert step["gain"] is False


def test_bench_record_pairs_by_seed_and_counts_unpaired_runs(tmp_path):
    # seeds in another order on each side; seed 9 only before, seed 7's after run incorrect
    before = _runs_file(tmp_path / "before.jsonl", [60.0, 61.0, 62.0, 63.0], seeds=[5, 6, 7, 9])
    after = _runs_file(tmp_path / "after.jsonl", [62.5, 59.0], incorrect=1, seeds=[6, 5, 7])
    doc = _bench_record(tmp_path, before, after)
    step = doc["workloads"]["train-default"]["train_step_ms_p50"]
    # seed 5: 60 -> 59 won; seed 6: 61 -> 62.5 lost
    assert step["pairs"] == {"pairs": 2, "won": 1, "lost": 1}
    assert step["gain"] is False
    assert doc["unpaired_runs"] == {"train-default": {"before": 2, "after": 0}}
    assert doc["incorrect_runs"] == {"before": 0, "after": 1}


def test_bench_record_keeps_traced_runs_out_of_the_pairs_and_lists_their_layers(tmp_path):
    before = _runs_file(tmp_path / "before.jsonl", [60.0 + i for i in range(10)])
    after = _runs_file(tmp_path / "after.jsonl", [50.0 + i for i in range(10)])
    for path, ms in ((before, [20.0, 30.0, 40.0]), (after, [5.0])):
        with path.open("a", encoding="utf-8") as fh:
            for value in ms:  # traced runs of seed 0, which untraced runs also use
                rec = {"workload": "train-default", "seed": 0, "trace": 1, "machine": {"nproc": 2}}
                metrics = {"training.evaluate.ms": {"value": value, "unit": "ms"}}
                rec["result"] = {"correct": True, "metrics": metrics}
                fh.write(json.dumps(rec) + "\n")
    doc = _bench_record(tmp_path, before, after)
    step = doc["workloads"]["train-default"]["train_step_ms_p50"]
    assert step["pairs"] == {"pairs": 10, "won": 10, "lost": 0}
    assert doc["unpaired_runs"] == {"train-default": {"before": 0, "after": 0}}
    evaluate = doc["per_layer"]["train-default"]["training.evaluate.ms"]
    assert evaluate == {
        "unit": "ms",
        "before": 30.0,
        "after": 5.0,
        "runs": {"before": 3, "after": 1},
        "change_pct": (5.0 - 30.0) / 30.0 * 100,
    }
    assert list(doc["per_layer"]) == ["train-default"]
    untraced = _runs_file(tmp_path / "untraced.jsonl", [1.0])
    assert "per_layer" not in _bench_record(tmp_path, untraced, untraced)

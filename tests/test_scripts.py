"""Smoke runs of the experiment scripts: a two-step run prints its whole table."""

import os
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


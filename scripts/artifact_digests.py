#!/usr/bin/env python3
"""Print the sha256 of every artifact the ``mailpp`` CLI writes, on three configs.

    python3 scripts/artifact_digests.py OUT_DIR [--steps N]

For each config in ``CONFIGS`` the script runs, through ``mailpp.cli.run``
in one process: ``gen-data``, ``train``, ``fuse``, ``eval`` (base and
novel, on the trained and on the fused checkpoint), ``report-norms --out``
(bidirectional configs only: the command refuses other modes) and
``check --models 3 --fusion-trials 6 --csv``. Everything lands in
``OUT_DIR/<config>/``: the config file, the dataset, both checkpoints, the
metrics, norms and check CSVs, and each command's standard output as
``<command>.stdout``. Paths are relative to that directory, so the digests
do not depend on OUT_DIR.

It prints one ``config artifact sha256`` line per file. Run it on two
checkouts and compare the lines to see which artifacts a change moves.
``--steps N`` replaces every config's training steps. A command that
exits non-zero stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from mailpp import cli

# the default config; bridge_shift in bidirectional mode, in f64 with a cosine schedule; bridge_shift in
# text_to_image mode on three positions with minibatches
CONFIGS = {
    "default": {"seed": 0, "training": {"steps": 30}},
    "shift-bidirectional": {
        "seed": 3,
        "precision": "f64",
        "training": {"steps": 20, "bridge_shift": True, "cosine_lr": True},
    },
    "shift-text_to_image": {
        "seed": 1,
        "training": {
            "steps": 12,
            "batch_size": 10,
            "mode": "text_to_image",
            "positions": ["1a", "3", "5"],
            "bridge_shift": True,
        },
    },
}


def _config(doc: dict, steps: int | None) -> dict:
    return doc if steps is None else {**doc, "training": {**doc["training"], "steps": steps}}


def _commands(bidirectional: bool) -> list[tuple[str, list[str]]]:
    """(stdout name, argv) of every command, in order, with paths relative to the config's directory."""
    cmds = [
        ("gen-data", ["gen-data", "--config", "config.json", "--out", "dataset.bin"]),
        ("train", ["train", "--config", "config.json", "--data", "dataset.bin", "--out", "trained.ckpt"]),
        ("fuse", ["fuse", "--ckpt", "trained.ckpt", "--out", "fused.ckpt"]),
    ]
    for ckpt in ("trained", "fused"):
        for split in ("base", "novel"):
            argv = ["eval", "--ckpt", f"{ckpt}.ckpt", "--data", "dataset.bin", "--split", split]
            cmds.append((f"eval-{ckpt}-{split}", argv))
    if bidirectional:
        cmds.append(("report-norms", ["report-norms", "--ckpt", "trained.ckpt", "--out", "norms.csv"]))
    check = ["check", "--config", "config.json", "--models", "3", "--fusion-trials", "6", "--csv", "check.csv"]
    return cmds + [("check", check)]


def _run_config(name: str, doc: dict, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.json").write_text(json.dumps(doc, indent=2) + "\n")
    bidirectional = doc["training"].get("mode", "bidirectional") == "bidirectional"
    home = os.getcwd()
    os.chdir(directory)
    try:
        for label, argv in _commands(bidirectional):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
            Path(f"{label}.stdout").write_text(out.getvalue())
            if code != 0:
                sys.exit(f"{name}: mailpp {' '.join(argv)} exited {code}")
    finally:
        os.chdir(home)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--steps", type=int, help="training steps of every config (default: each config's own)")
    args = ap.parse_args(argv)
    for name, doc in CONFIGS.items():
        directory = args.out_dir / name
        _run_config(name, _config(doc, args.steps), directory)
        for path in sorted(directory.iterdir()):
            print(f"{name} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")


if __name__ == "__main__":
    main()

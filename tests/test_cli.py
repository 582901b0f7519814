import json
import re
from pathlib import Path

import numpy as np
import pytest

from mailpp.agents import CouplingMode
from mailpp.checkpoint import load_checkpoint, save_checkpoint
from mailpp.cli import run
from mailpp.config import parse_config_doc
from mailpp.encoder import ALL_POSITIONS

MICRO_CONFIG = {
    "seed": 0,
    "precision": "f32",
    "encoder": {"L": 1, "d_t": 8, "d_v": 12, "n_heads": 2, "N_t": 6, "N_v": 4, "mlp_ratio": 2, "vocab_size": 16},
    "training": {
        "classes": 6,
        "shots": 2,
        "batch_size": 6,
        "steps": 8,
        "mode": "bidirectional",
        "rank": 2,
        "d_m": 4,
    },
    "data": {"pool_per_class": 4, "noise": 0.1},
}


# the benchmark's check operation: its config and flags, and the report names
# and trial counts that `mailpp check` prints for them
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"
BENCH_CHECK_TRIALS = {
    "identity_at_init": 16,
    "fusion_equivalence[f64]": 4,
    "fusion_equivalence[f32]": 4,
    "grad_fd[a]": 48,
    "grad_fd[b]": 48,
    "grad_fd[w_up]": 96,
    "grad_fd[w_down]": 96,
    "grad_fd[a_m]": 24,
    "param_count_agreement[bidirectional]": 1,
}


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MICRO_CONFIG))
    return tmp_path, str(cfg)


def test_full_pipeline(workdir, capsys):
    tmp, cfg = workdir
    data = str(tmp / "data.bin")
    ckpt = str(tmp / "run.ckpt")
    fused = str(tmp / "fused.ckpt")

    assert run(["gen-data", "--config", cfg, "--out", data]) == 0
    assert run(["train", "--config", cfg, "--data", data, "--out", ckpt]) == 0
    assert run(["eval", "--ckpt", ckpt, "--data", data, "--split", "base"]) == 0
    assert run(["eval", "--ckpt", ckpt, "--data", data, "--split", "novel"]) == 0
    assert run(["fuse", "--ckpt", ckpt, "--out", fused]) == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out

    # fused checkpoint has no trainable tensors and still evaluates
    tensors, doc = load_checkpoint(fused)
    assert doc["fused"] is True
    assert not any(n.startswith(("agent/", "opt/")) for n in tensors)
    assert run(["eval", "--ckpt", fused, "--data", data, "--split", "base"]) == 0

    # metrics CSV exists with the documented header
    lines = (tmp / "run.ckpt.metrics.csv").read_text().splitlines()
    assert lines[0] == "step,L_ce,L_reg_v,L_reg_t,L,acc"
    assert len(lines) == 1 + MICRO_CONFIG["training"]["steps"]


def test_train_is_byte_deterministic(workdir):
    tmp, cfg = workdir
    data = str(tmp / "d.bin")
    assert run(["gen-data", "--config", cfg, "--out", data]) == 0
    assert run(["train", "--config", cfg, "--data", data, "--out", str(tmp / "a.ckpt")]) == 0
    assert run(["train", "--config", cfg, "--data", data, "--out", str(tmp / "b.ckpt")]) == 0
    assert (tmp / "a.ckpt").read_bytes() == (tmp / "b.ckpt").read_bytes()
    assert (tmp / "a.ckpt.metrics.csv").read_text() == (tmp / "b.ckpt.metrics.csv").read_text()


def test_count_params_prints_total_first(workdir, capsys):
    tmp, cfg = workdir
    assert run(["count-params", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    total = int(out[0])
    assert total > 0
    assert run(["count-params", "--config", cfg, "--breakdown"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == str(total)
    assert out[1].startswith("block0.1a,")


def test_gradcheck_command(workdir, capsys):
    tmp, cfg = workdir
    assert run(["gradcheck", "--config", cfg]) == 0
    out = capsys.readouterr().out
    for cls in ("a", "b", "w_up", "w_down", "a_m"):
        assert f"grad_fd[{cls}]" in out
    assert "FAIL" not in out


def test_check_command_passes_and_writes_csv(workdir, capsys):
    tmp, cfg = workdir
    csv_path = str(tmp / "checks.csv")
    assert run(["check", "--config", cfg, "--models", "3", "--fusion-trials", "5", "--csv", csv_path]) == 0
    out = capsys.readouterr().out
    assert "identity_at_init" in out and "FAIL" not in out
    header = (tmp / "checks.csv").read_text().splitlines()[0]
    assert header == "name,passed,worst_error,tolerance,trials,seed,detail"


def test_check_flags_zero_trials_and_rejects_negative_counts(workdir, capsys):
    tmp, cfg = workdir
    csv_path = tmp / "vacuous.csv"
    assert run(["check", "--config", cfg, "--models", "0", "--fusion-trials", "0", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    lines = {line.split(":")[0].removeprefix("PASS  "): line for line in out if line.startswith("PASS")}
    rows = {row.split(",")[0]: row for row in csv_path.read_text().splitlines()}
    for name in ("identity_at_init", "fusion_equivalence[f64]", "fusion_equivalence[f32]"):
        assert lines[name].endswith(", 0 trials, seed 0)  [no trials]"), lines[name]
        assert rows[name].endswith(",0,0,no trials"), rows[name]
    for flag in ("--models", "--fusion-trials"):
        argv = ["check", "--config", cfg, "--models", "1", "--fusion-trials", "1", flag, "-3"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be non-negative, got -3\n"
        assert captured.out == ""


def test_report_norms(workdir, capsys):
    tmp, cfg = workdir
    data = str(tmp / "d.bin")
    ckpt = str(tmp / "r.ckpt")
    run(["gen-data", "--config", cfg, "--out", data])
    run(["train", "--config", cfg, "--data", data, "--out", ckpt])
    norms_csv = str(tmp / "norms.csv")
    assert run(["report-norms", "--ckpt", ckpt, "--out", norms_csv]) == 0
    lines = (tmp / "norms.csv").read_text().splitlines()
    assert lines[0] == "block,position,side,norm"
    sites = 4 * MICRO_CONFIG["encoder"]["L"] + 2
    assert len(lines) == 1 + 2 * sites
    assert any(line.startswith("final,5,image,") for line in lines)


def test_report_norms_requires_bidirectional(workdir, capsys):
    tmp, cfg_path = workdir
    doc = dict(MICRO_CONFIG)
    doc["training"] = dict(MICRO_CONFIG["training"], mode="ivlu")
    alt = tmp / "ivlu.json"
    alt.write_text(json.dumps(doc))
    data = str(tmp / "d.bin")
    ckpt = str(tmp / "i.ckpt")
    run(["gen-data", "--config", str(alt), "--out", data])
    run(["train", "--config", str(alt), "--data", data, "--out", ckpt])
    assert run(["report-norms", "--ckpt", ckpt]) == 1
    assert "bidirectional" in capsys.readouterr().err


def test_out_dir_supplies_default_paths(workdir, tmp_path):
    tmp, _ = workdir
    doc = dict(MICRO_CONFIG, out_dir=str(tmp / "artifacts"))
    doc["training"] = dict(MICRO_CONFIG["training"], steps=2)
    cfg = tmp / "outdir.json"
    cfg.write_text(json.dumps(doc))
    assert run(["gen-data", "--config", str(cfg)]) == 0
    assert run(["train", "--config", str(cfg), "--data", str(tmp / "artifacts" / "dataset.bin")]) == 0
    assert (tmp / "artifacts" / "trained.ckpt").exists()
    # without out_dir and without --out the command reports an error
    assert run(["gen-data", "--config", str(tmp / "cfg.json")]) == 1


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_errors_exit_nonzero(workdir, capsys):
    tmp, cfg = workdir
    bad_cfg = tmp / "bad.json"
    bad_cfg.write_text('{"training": {"d_m": -1}}')
    assert run(["count-params", "--config", str(bad_cfg)]) == 1
    assert "d_m" in capsys.readouterr().err
    assert run(["eval", "--ckpt", str(tmp / "missing.ckpt"), "--data", "x", "--split", "base"]) == 1


def test_seed_precedence(workdir, capsys, monkeypatch):
    tmp, _ = workdir
    doc = {k: v for k, v in MICRO_CONFIG.items() if k != "seed"}
    cfg_noseed = tmp / "noseed.json"
    cfg_noseed.write_text(json.dumps(doc))
    data_env = str(tmp / "env.bin")
    data_flag = str(tmp / "flag.bin")
    data_plain = str(tmp / "plain.bin")

    monkeypatch.setenv("MAIL_SEED", "5")
    assert run(["gen-data", "--config", str(cfg_noseed), "--out", data_env]) == 0
    # explicit flag wins over the environment
    assert run(["gen-data", "--config", str(cfg_noseed), "--out", data_flag, "--seed", "5"]) == 0
    assert (tmp / "env.bin").read_bytes() == (tmp / "flag.bin").read_bytes()

    monkeypatch.delenv("MAIL_SEED")
    assert run(["gen-data", "--config", str(cfg_noseed), "--out", data_plain]) == 0  # falls back to 0
    assert (tmp / "plain.bin").read_bytes() != (tmp / "env.bin").read_bytes()

    # config seed beats the environment
    monkeypatch.setenv("MAIL_SEED", "5")
    cfg_seeded = tmp / "seeded.json"
    cfg_seeded.write_text(json.dumps(dict(doc, seed=0)))
    data_cfg = str(tmp / "cfgseed.bin")
    assert run(["gen-data", "--config", str(cfg_seeded), "--out", data_cfg]) == 0
    assert (tmp / "cfgseed.bin").read_bytes() == (tmp / "plain.bin").read_bytes()


def test_fuse_refuses_already_fused(workdir, capsys):
    tmp, cfg = workdir
    data = str(tmp / "d.bin")
    ckpt = str(tmp / "c.ckpt")
    fused = str(tmp / "f.ckpt")
    run(["gen-data", "--config", cfg, "--out", data])
    run(["train", "--config", cfg, "--data", data, "--out", ckpt])
    run(["fuse", "--ckpt", ckpt, "--out", fused])
    assert run(["fuse", "--ckpt", fused, "--out", str(tmp / "g.ckpt")]) == 1
    assert "already fused" in capsys.readouterr().err


def test_fuse_writes_nothing_when_the_check_fails(workdir, capsys, monkeypatch):
    import mailpp.cli

    tmp, cfg = workdir
    data = str(tmp / "d.bin")
    ckpt = str(tmp / "c.ckpt")
    out = tmp / "fused.ckpt"
    run(["gen-data", "--config", cfg, "--out", data])
    run(["train", "--config", cfg, "--data", data, "--out", ckpt])
    real_fuse = mailpp.cli.fuse_model

    def corrupted_fuse(model, sites):
        fused = real_fuse(model, sites)
        fused.arrays["frozen/image/proj/w"][0, 0] += 0.5  # deliberate corruption
        return fused

    monkeypatch.setattr(mailpp.cli, "fuse_model", corrupted_fuse)
    capsys.readouterr()
    assert run(["fuse", "--ckpt", ckpt, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL  fusion_equivalence")
    assert "not written" in captured.err
    assert not out.exists()

    out.write_bytes(b"an earlier artifact")
    listing = sorted(p.name for p in tmp.iterdir())
    assert run(["fuse", "--ckpt", ckpt, "--out", str(out)]) == 1
    assert out.read_bytes() == b"an earlier artifact"
    assert sorted(p.name for p in tmp.iterdir()) == listing


REPORT_LINE = re.compile(r"(PASS|FAIL)  (\S+): worst error \S+ \(tol \S+, (\d+) trials, seed (\d+)\)(.*)")


def test_check_at_the_benchmark_config_passes_every_report(tmp_path, capsys):
    seed = 0
    spec = json.loads(WORKLOADS.read_text(encoding="utf-8"))
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps(spec["check_config"]))
    code = run(["check", "--config", str(cfg), "--seed", str(seed), *spec["check_flags"]])
    lines = capsys.readouterr().out.splitlines()
    reports = {}
    for line in lines:
        m = REPORT_LINE.fullmatch(line)
        assert m, line
        status, name, trials, printed_seed, detail = m.groups()
        assert status == "PASS" and detail == "" and int(printed_seed) == seed, line
        reports[name] = int(trials)
    assert code == 0
    assert reports == BENCH_CHECK_TRIALS
    assert list(reports) == list(BENCH_CHECK_TRIALS)


def test_check_at_the_benchmark_config_prints_the_same_for_any_stack_size(tmp_path, capsys, monkeypatch):
    """The finite-difference stack size (points per objective call) moves no digit of the report here."""
    import mailpp.verify

    spec = json.loads(WORKLOADS.read_text(encoding="utf-8"))
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps(spec["check_config"]))
    assert mailpp.verify.FD_TRIALS == 128
    outputs = {}
    for trials in (64, 128):
        monkeypatch.setattr(mailpp.verify, "FD_TRIALS", trials)
        for seed in range(16):
            assert run(["check", "--config", str(cfg), "--seed", str(seed), *spec["check_flags"]]) == 0
            outputs[trials, seed] = capsys.readouterr().out
    for seed in range(16):
        assert outputs[64, seed] == outputs[128, seed], seed


def test_the_reused_parser_carries_nothing_from_one_call_to_the_next(tmp_path, capsys, monkeypatch):
    spec = json.loads(WORKLOADS.read_text(encoding="utf-8"))
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps(spec["check_config"]))  # no seed in the config
    argv = ["check", "--config", str(cfg), "--models", "1", "--fusion-trials", "1"]

    def printed_seeds():
        return {int(m.group(4)) for m in map(REPORT_LINE.fullmatch, capsys.readouterr().out.splitlines())}

    assert run([*argv, "--seed", "3"]) == 0
    assert printed_seeds() == {3}
    monkeypatch.setenv("MAIL_SEED", "7")
    assert run(argv) == 0
    assert printed_seeds() == {7}  # the earlier --seed is gone
    with pytest.raises(SystemExit) as exc:
        run(["check", "--models", "1"])  # --config is missing
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def _fuzz_config(gen, i: int) -> dict:
    """A small valid config: L 1-2, 1-2 heads, mode i % 4, random positions, either precision."""
    mode = list(CouplingMode)[i % 4]
    heads = int(gen.integers(1, 3))
    d_t, d_v = (heads * int(gen.integers(2, 5)) for _ in range(2))
    d_m = int(gen.integers(2, 5))
    n_t = int(gen.integers(3, 6))
    positions = [p for p in ALL_POSITIONS if gen.random() < 0.5] or [str(gen.choice(ALL_POSITIONS))]
    return {
        "precision": str(gen.choice(["f32", "f64"])),
        "encoder": {
            "L": int(gen.integers(1, 3)),
            "d_t": d_t,
            "d_v": d_v,
            "n_heads": heads,
            "N_t": n_t,
            "N_v": int(gen.integers(2, 5)),
            "mlp_ratio": int(gen.integers(1, 3)),
            "vocab_size": 12,
        },
        "training": {
            "classes": int(gen.integers(2, min(d_v, 10) + 1)),
            "mode": mode.value,
            "rank": int(gen.integers(1, min(d_t, d_v, d_m) + 1)),
            "d_m": d_m,
            "bridge_shift": mode is not CouplingMode.IVLU and bool(gen.integers(2)),
            "positions": [str(p) for p in gen.permutation(positions)],
        },
        "data": {"text_len": int(gen.integers(2, n_t + 1))},
    }


@pytest.mark.parametrize("i", range(8))
def test_check_and_gradcheck_on_random_small_configs_pass_or_name_the_error(tmp_path, capsys, i):
    doc = _fuzz_config(np.random.default_rng([20, i]), i)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    # the parameter classes this config creates; only the others may report no trials
    sites = parse_config_doc(doc).sites(np.random.default_rng(0)).values()
    leaves = {name.rsplit("/", 1)[-1] for site in sites for name in site.arrays}
    created = {{"b_m": "a_m"}.get(leaf, leaf) for leaf in leaves}
    for argv in (["check", "--models", "1", "--fusion-trials", "2"], ["gradcheck"]):
        code = run([*argv, "--config", str(cfg), "--seed", str(i)])
        captured = capsys.readouterr()
        if code == 1:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
            continue
        assert code == 0 and captured.err == "", doc
        for line in captured.out.splitlines():
            m = REPORT_LINE.fullmatch(line)
            assert m and m.group(1) == "PASS", (doc, line)
            name, trials, detail = m.group(2), int(m.group(3)), m.group(5)
            cls = re.fullmatch(r"grad_fd\[(\w+)\]", name)
            if detail:
                assert detail == "  [no trials]" and trials == 0, (doc, line)
                assert cls and cls.group(1) not in created, (doc, line)
            else:
                assert trials > 0 and (not cls or cls.group(1) in created), (doc, line)


# ------------------------------------------------------------------
# malformed documents and the paths a plain session does not take


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(MICRO_CONFIG))
    data, ckpt = str(tmp / "d.bin"), str(tmp / "c.ckpt")
    assert run(["gen-data", "--config", str(cfg), "--out", data]) == 0
    assert run(["train", "--config", str(cfg), "--data", data, "--out", ckpt]) == 0
    return str(cfg), data, ckpt


def _resaved(src, dst, edit):
    """Save a copy of a container after ``edit(tensors, doc)`` changed it in place; returns ``dst``."""
    tensors, doc = load_checkpoint(src)
    edit(tensors, doc)
    save_checkpoint(dst, tensors, doc)
    return str(dst)


def _set(key, value):
    return lambda tensors, doc: doc.update({key: value})


def _only_kind(tensors, doc):
    doc.clear()
    doc["kind"] = "checkpoint"


def _five_prototypes(tensors, doc):
    tensors["data/prototypes"] = tensors["data/prototypes"][:5]


def _nan_in(name):
    def edit(tensors, doc):
        tensors[name] = tensors[name].copy()
        tensors[name].flat[3] = np.nan

    return edit


NAN_WEIGHT = "frozen/image/block0/mlp/fc2/w"


# case -> (container edited, command run on it, edit, the error it must print)
_MALFORMED = {
    "ckpt-no-run-config-fuse": ("ckpt", "fuse", _only_kind, "checkpoint has no 'run_config'"),
    "ckpt-no-run-config-eval": ("ckpt", "eval", _only_kind, "checkpoint has no 'run_config'"),
    "ckpt-str-seed": ("ckpt", "eval", _set("seed", "x"), "checkpoint field 'seed' must be an integer, got 'x'"),
    "ckpt-float-step": ("ckpt", "fuse", _set("step", 1.5), "checkpoint field 'step' must be an integer, got 1.5"),
    "ckpt-str-opt-step": (
        "ckpt",
        "eval",
        _set("opt_step", "8"),
        "checkpoint field 'opt_step' must be an integer, got '8'",
    ),
    "ckpt-str-fused": ("ckpt", "eval", _set("fused", "no"), "checkpoint field 'fused' must be true or false, got 'no'"),
    "ckpt-nan-weight-fuse": ("ckpt", "fuse", _nan_in(NAN_WEIGHT), f"{NAN_WEIGHT}: non-finite value in weight"),
    "ckpt-nan-weight-eval": ("ckpt", "eval", _nan_in(NAN_WEIGHT), f"{NAN_WEIGHT}: non-finite value in weight"),
    "ckpt-nan-weight-report-norms": (
        "ckpt",
        "report-norms",
        _nan_in(NAN_WEIGHT),
        f"{NAN_WEIGHT}: non-finite value in weight",
    ),
    "data-str-noise": ("data", "train", _set("noise", "x"), "dataset field 'noise' must be a number, got 'x'"),
    "data-bool-noise": ("data", "train", _set("noise", True), "dataset field 'noise' must be a number, got True"),
    "data-repeated-base-class": (
        "data",
        "eval",
        _set("base_classes", [0, 0, 1]),
        "dataset field 'base_classes' repeats a class index, got [0, 0, 1]",
    ),
    "data-novel-class-also-base": (
        "data",
        "eval",
        _set("novel_classes", [2, 3, 4]),
        "dataset field 'novel_classes' shares classes [2] with 'base_classes'",
    ),
    "data-int-tokens": (
        "data",
        "train",
        _set("tokens", 5),
        "dataset field 'tokens' must hold one list of token ids for each of 6 classes",
    ),
    "data-str-token": (
        "data",
        "eval",
        _set("tokens", [[1, 2]] * 5 + [[1, "3"]]),
        "dataset field 'tokens' must hold one list of token ids for each of 6 classes",
    ),
    "data-novel-class-out-of-range": (
        "data",
        "eval",
        _set("novel_classes", [3, 4, 99]),
        "dataset field 'novel_classes' must list class indices in [0, 6), got [3, 4, 99]",
    ),
    "data-negative-base-class": (
        "data",
        "train",
        _set("base_classes", [-1, 0, 1]),
        "dataset field 'base_classes' must list class indices in [0, 6), got [-1, 0, 1]",
    ),
    "data-prototypes-of-fewer-classes": (
        "data",
        "train",
        _five_prototypes,
        "dataset prototypes (5, 12) do not match images (6, 4, 4, 12)",
    ),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_a_malformed_document_exits_1_naming_what_is_wrong(trained, tmp_path, capsys, case):
    cfg, data, ckpt = trained
    which, command, edit, message = _MALFORMED[case]
    if which == "ckpt":
        ckpt = _resaved(ckpt, tmp_path / "bad.ckpt", edit)
    else:
        data = _resaved(data, tmp_path / "bad.bin", edit)
    out = tmp_path / "out.ckpt"
    argv = {
        "fuse": ["fuse", "--ckpt", ckpt, "--out", str(out)],
        "eval": ["eval", "--ckpt", ckpt, "--data", data, "--split", "novel"],
        "train": ["train", "--config", cfg, "--data", data, "--out", str(out)],
        "report-norms": ["report-norms", "--ckpt", ckpt, "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_and_eval_reject_a_dataset_of_another_class_count(trained, tmp_path, capsys):
    cfg, _, ckpt = trained
    other = tmp_path / "cfg8.json"
    other.write_text(json.dumps(dict(MICRO_CONFIG, training=dict(MICRO_CONFIG["training"], classes=8))))
    data, out = str(tmp_path / "d8.bin"), tmp_path / "out.ckpt"
    assert run(["gen-data", "--config", str(other), "--out", data]) == 0
    for argv in (
        ["train", "--config", cfg, "--data", data, "--out", str(out)],
        ["eval", "--ckpt", ckpt, "--data", data, "--split", "base"],
    ):
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr() == ("", "error: dataset has 8 classes but training.classes is 6\n")
    assert not out.exists()


def test_report_norms_prints_the_bytes_it_writes_with_out(trained, tmp_path, capsys):
    _, _, ckpt = trained
    out = tmp_path / "norms.csv"
    assert run(["report-norms", "--ckpt", ckpt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert run(["report-norms", "--ckpt", ckpt]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_eval_of_a_split_with_no_samples_left_exits_1(tmp_path, capsys):
    doc = dict(MICRO_CONFIG, training=dict(MICRO_CONFIG["training"], steps=2))
    doc["training"]["shots"] = doc["data"]["pool_per_class"]  # every base sample is a training shot
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    data, ckpt = str(tmp_path / "d.bin"), str(tmp_path / "c.ckpt")
    assert run(["gen-data", "--config", str(cfg), "--out", data]) == 0
    assert run(["train", "--config", str(cfg), "--data", data, "--out", ckpt]) == 0
    capsys.readouterr()
    assert run(["eval", "--ckpt", ckpt, "--data", data, "--split", "base"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: split 'base' has no evaluation samples\n"
    assert captured.out == ""
    assert run(["eval", "--ckpt", ckpt, "--data", data, "--split", "novel"]) == 0

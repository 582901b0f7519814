import json

import pytest

from mailpp.checkpoint import load_checkpoint
from mailpp.cli import run

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
        fused.image.arrays["frozen/image/proj/w"][0, 0] += 0.5  # deliberate corruption
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

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Tolerances and budgets are pinned here, not configurable.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from mailpp import rng
from mailpp.agents import (
    CouplingMode,
    bridge_norm,
    build_scaling_map,
    build_sites,
    fuse_model,
    named_params,
)
from mailpp.autodiff import Tape
from mailpp.checkpoint import load_checkpoint, save_checkpoint
from mailpp.cli import run as cli_run
from mailpp.config import RunConfig
from mailpp.encoder import image_forward, init_dual_encoder, text_forward
from mailpp.state import pack_state, unpack_state
from mailpp.training import TrainingConfig, evaluate, gen_synthetic, reg_losses, sample_few_shot, train
from mailpp.verify import (
    check_fusion_equivalence,
    check_identity_at_init,
    random_toy_model,
    randomize_sites,
    relative_error,
)

SEED = 0


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


# ------------------------------------------------------------------
# shared training runs (episode fixed across criteria 5-8)


@pytest.fixture(scope="module")
def episode_setup():
    run_cfg = RunConfig()  # documented defaults
    model = init_dual_encoder(run_cfg.encoder, rng.derive(SEED, "frozen-weights"), np.float32)
    ds = gen_synthetic(
        C=run_cfg.training.classes,
        k_pool=run_cfg.data.pool_per_class,
        noise=run_cfg.data.noise,
        seed=SEED,
        dims=(run_cfg.encoder.N_v, run_cfg.encoder.d_v),
        text_len=run_cfg.data.text_len,
    )
    episode = sample_few_shot(ds, run_cfg.training.shots, SEED)
    return run_cfg, model, ds, episode


@pytest.fixture(scope="module")
def trained_runs(episode_setup):
    """Train the default episode under every (mode, lambda) the criteria need."""
    run_cfg, model, ds, episode = episode_setup
    results = {}
    wanted = [(CouplingMode.BIDIRECTIONAL, lam) for lam in (0.0, 1.0, 10.0)]
    wanted += [(m, 1.0) for m in (CouplingMode.IVLU, CouplingMode.TEXT_TO_IMAGE, CouplingMode.IMAGE_TO_TEXT)]
    for mode, lam in wanted:
        tcfg = dataclasses.replace(run_cfg.training, mode=mode, lam=lam)
        sites = build_sites(
            run_cfg.encoder, mode, tcfg.rank, tcfg.d_m, rng.derive(SEED, "sites"), np.float32
        )
        t0 = time.monotonic()
        state = train(model, sites, tcfg, episode, SEED)
        results[(mode, lam)] = (state, time.monotonic() - t0)
    return results


# ------------------------------------------------------------------
# criteria


def test_criterion_1_parameter_count_reproduction(tmp_path, capsys):
    doc = {
        "encoder": {
            "L": 12,
            "d_t": 512,
            "d_v": 768,
            "n_heads": 8,
            "N_t": 16,
            "N_v": 16,
            "vocab_size": 1024,
        },
        "training": {"mode": "bidirectional", "rank": 32, "d_m": 512},
    }
    cfg_path = tmp_path / "full_scale.json"
    cfg_path.write_text(json.dumps(doc))
    t0 = time.monotonic()
    code = cli_run(["count-params", "--config", str(cfg_path)])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out.splitlines()
    total = int(out[0])
    ok = code == 0 and total == 3_831_296 and round(total / 1e6, 2) == 3.83 and elapsed < 1.0
    _report(1, ok, f"count-params -> {total} (want 3831296, rounds to 3.83M), {elapsed:.3f}s")
    assert code == 0
    assert total == 3_831_296
    assert elapsed < 1.0


def test_criterion_2_identity_at_init():
    t0 = time.monotonic()
    worst = 0.0
    n_models = 100
    for i in range(n_models):
        model = random_toy_model(1000 + i, np.float64, max_blocks=4)
        rep = check_identity_at_init(model, tuple(CouplingMode), n_inputs=1, seed=SEED + i)
        worst = max(worst, rep.worst_error)
    elapsed = time.monotonic() - t0
    ok = worst == 0.0 and elapsed < 30.0
    _report(2, ok, f"{n_models} random models x 4 modes: worst error {worst} (want exactly 0), {elapsed:.1f}s")
    assert worst == 0.0
    assert elapsed < 30.0


def test_criterion_3_fusion_equivalence():
    cfg = random_toy_model(7, np.float64, max_blocks=2).cfg
    model64 = init_dual_encoder(cfg, rng.derive(7, "fusion-model"), np.float64)
    model32 = model64.astype(np.float32)
    t0 = time.monotonic()
    worst64 = 0.0
    worst32 = 0.0
    gen = rng.derive(SEED, "fusion-inputs")
    modes = list(CouplingMode)
    for trial in range(1000):
        mode = modes[trial % 4]
        sites64 = build_sites(cfg, mode, 2, 4, rng.derive(SEED, "fusion-sites", trial), np.float64)
        randomize_sites(sites64, rng.derive(SEED, "fusion-perturb", trial))
        sites32 = build_sites(cfg, mode, 2, 4, rng.derive(SEED, "fusion-sites", trial), np.float32)
        for key, site in sites64.items():
            for local, arr in site.arrays.items():
                sites32[key].set_param(local, arr.astype(np.float32))

        tokens = gen.integers(0, cfg.vocab_size, size=4)
        patches64 = gen.standard_normal((cfg.N_v, cfg.d_v))
        patches32 = patches64.astype(np.float32)
        for model, sites, patches, is64 in (
            (model64, sites64, patches64, True),
            (model32, sites32, patches32, False),
        ):
            fused = fuse_model(model, sites)
            scalings = build_scaling_map(sites)
            err = max(
                relative_error(
                    text_forward(tokens, model, scalings).data,
                    text_forward(tokens, fused).data,
                ),
                relative_error(
                    image_forward(patches, model, scalings).data,
                    image_forward(patches, fused).data,
                ),
            )
            if is64:
                worst64 = max(worst64, err)
            else:
                worst32 = max(worst32, err)
    elapsed = time.monotonic() - t0
    ok = worst64 <= 1e-10 and worst32 <= 1e-5 and elapsed < 120.0
    _report(
        3,
        ok,
        f"1000 agent settings: worst f64 {worst64:.2e} (tol 1e-10), worst f32 {worst32:.2e} (tol 1e-5), {elapsed:.1f}s",
    )
    assert worst64 <= 1e-10
    assert worst32 <= 1e-5
    assert elapsed < 120.0


def test_criterion_4_gradient_fidelity():
    from mailpp.cli import _gradcheck_reports
    from mailpp.encoder import EncoderConfig

    run_cfg = RunConfig(
        encoder=EncoderConfig(L=2, d_t=8, d_v=12, n_heads=2, N_t=6, N_v=4, mlp_ratio=2, vocab_size=16),
        training=TrainingConfig(mode=CouplingMode.BIDIRECTIONAL, rank=2, d_m=6, classes=4, shots=2),
        precision="f64",
    )
    t0 = time.monotonic()
    reports = _gradcheck_reports(run_cfg, seed=SEED)
    elapsed = time.monotonic() - t0
    by_class = {r.name: r for r in reports}
    classes = ("a", "b", "w_up", "w_down", "a_m")
    covered = all(by_class[f"grad_fd[{c}]"].trials > 0 for c in classes)
    worst = max(r.worst_error for r in reports)
    ok = covered and worst <= 1e-4 and elapsed < 120.0
    _report(4, ok, f"2-block model, classes {classes}: worst rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s")
    assert covered
    assert worst <= 1e-4
    assert elapsed < 120.0


def test_criterion_5_learning_sanity(episode_setup, trained_runs):
    run_cfg, model, ds, episode = episode_setup
    state, elapsed = trained_runs[(CouplingMode.BIDIRECTIONAL, 1.0)]
    n_classes = episode.num_base
    frozen_acc = evaluate(model, None, episode.train_images, episode.train_labels, episode.base_tokens)
    chance_bound = 2.0 / n_classes + 0.10
    ce_first = state.metrics[0].l_ce
    ce_last = state.metrics[-1].l_ce
    ok = (
        n_classes == 8
        and state.steps_run <= 300
        and state.final_train_accuracy >= 0.95
        and frozen_acc <= chance_bound
        and ce_last < ce_first
        and elapsed < 180.0
    )
    _report(
        5,
        ok,
        f"C={n_classes} k=4 bidirectional: train acc {state.final_train_accuracy:.3f} (>=0.95) in "
        f"{state.steps_run} steps, frozen {frozen_acc:.3f} (<= {chance_bound:.2f}), "
        f"L_ce {ce_first:.3f} -> {ce_last:.3f}, {elapsed:.0f}s",
    )
    assert n_classes == 8
    assert state.final_train_accuracy >= 0.95
    assert frozen_acc <= chance_bound
    assert ce_last < ce_first
    assert elapsed < 180.0


def test_criterion_6_ablation_structure(episode_setup, trained_runs):
    run_cfg, model, ds, episode = episode_setup

    # all four modes completed the same episode
    completions = {
        mode: trained_runs[(mode, 1.0)][0].steps_run
        for mode in (
            CouplingMode.IVLU,
            CouplingMode.TEXT_TO_IMAGE,
            CouplingMode.IMAGE_TO_TEXT,
            CouplingMode.BIDIRECTIONAL,
        )
    }
    all_completed = all(v == run_cfg.training.steps for v in completions.values())

    # IVLU: no parameter accrues gradient from both modality losses
    ivlu_sites = trained_runs[(CouplingMode.IVLU, 1.0)][0].sites
    frozen_txt = np.stack(
        [text_forward(t, model).data for t in episode.base_tokens]
    )
    frozen_img = np.stack(
        [image_forward(i, model).data for i in episode.train_images[:4]]
    )

    def nonzero_grads(sites, which):
        from mailpp import autodiff as ad
        from mailpp.training import _feats_image, _feats_text

        tape = Tape()
        values = {name: tape.leaf(a) for name, a in named_params(sites)}
        scalings = build_scaling_map(sites, values)
        txt = _feats_text(model, episode.base_tokens, scalings)
        img = _feats_image(model, episode.train_images[:4], scalings)
        rv, rt = reg_losses(img, frozen_img, txt, frozen_txt)
        grads = tape.backward(rv if which == "image" else rt)
        return {n for n, leaf in values.items() if np.any(grads[leaf.node].data != 0.0)}

    img_set = nonzero_grads(ivlu_sites, "image")
    txt_set = nonzero_grads(ivlu_sites, "text")
    ivlu_disjoint = bool(img_set) and bool(txt_set) and not (img_set & txt_set)

    # bidirectional: coupling terms nonzero on both sides after training
    bi_sites = trained_runs[(CouplingMode.BIDIRECTIONAL, 1.0)][0].sites
    norms_v = [bridge_norm(s, "image") for s in bi_sites.values()]
    norms_t = [bridge_norm(s, "text") for s in bi_sites.values()]
    both_sides_active = min(norms_v) > 0.0 and min(norms_t) > 0.0

    ok = all_completed and ivlu_disjoint and both_sides_active
    _report(
        6,
        ok,
        f"4 modes completed={all_completed}; ivlu modality-disjoint grads={ivlu_disjoint} "
        f"({len(img_set)} image-only / {len(txt_set)} text-only params); "
        f"bidirectional min bridge_norm image {min(norms_v):.2e}, text {min(norms_t):.2e}",
    )
    assert all_completed
    assert ivlu_disjoint
    assert both_sides_active


def test_criterion_7_regularizer_monotonicity(trained_runs):
    drifts = {lam: trained_runs[(CouplingMode.BIDIRECTIONAL, lam)][0].feature_drift for lam in (0.0, 1.0, 10.0)}
    v = [drifts[lam][0] for lam in (0.0, 1.0, 10.0)]
    t = [drifts[lam][1] for lam in (0.0, 1.0, 10.0)]
    ok = v[0] >= v[1] >= v[2] and t[0] >= t[1] >= t[2]
    _report(
        7,
        ok,
        "drift non-increasing in lambda: image "
        + " >= ".join(f"{x:.4f}" for x in v)
        + "; text "
        + " >= ".join(f"{x:.4f}" for x in t),
    )
    assert v[0] >= v[1] >= v[2]
    assert t[0] >= t[1] >= t[2]


def test_criterion_8_persistence(episode_setup, trained_runs, tmp_path):
    run_cfg, model, ds, episode = episode_setup
    state, _ = trained_runs[(CouplingMode.BIDIRECTIONAL, 1.0)]

    ckpt = tmp_path / "trained.ckpt"
    tensors, doc = pack_state(model, state.sites, state.opt_state, run_cfg, SEED, step=state.steps_run)
    save_checkpoint(ckpt, tensors, doc)
    loaded_tensors, loaded_doc = load_checkpoint(ckpt)
    bitwise = loaded_doc == doc and set(loaded_tensors) == set(tensors)
    for name, arr in tensors.items():
        bitwise = bitwise and loaded_tensors[name].tobytes() == np.asarray(arr).tobytes()
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, loaded_tensors, loaded_doc)
    bitwise = bitwise and ckpt.read_bytes() == resaved.read_bytes()

    # `fuse` output passes the dual-path check against its source checkpoint
    fused_path = tmp_path / "fused.ckpt"
    assert cli_run(["fuse", "--ckpt", str(ckpt), "--out", str(fused_path)]) == 0
    restored = unpack_state(*load_checkpoint(ckpt))
    fused_restored = unpack_state(*load_checkpoint(fused_path))
    rep32 = check_fusion_equivalence(
        restored.model, restored.sites, n_inputs=20, tol=1e-5, seed=SEED, fused=fused_restored.model
    )
    model64 = restored.model.astype(np.float64)
    sites64 = build_sites(
        run_cfg.encoder,
        CouplingMode.BIDIRECTIONAL,
        run_cfg.training.rank,
        run_cfg.training.d_m,
        rng.derive(SEED, "c8"),
        np.float64,
    )
    for key, site in restored.sites.items():
        for local, arr in site.arrays.items():
            sites64[key].set_param(local, arr.astype(np.float64))
    rep64 = check_fusion_equivalence(model64, sites64, n_inputs=20, tol=1e-10, seed=SEED)

    ok = bitwise and rep32.passed and rep64.passed
    _report(
        8,
        ok,
        f"round trip bitwise={bitwise}; fused-vs-source worst f32 {rep32.worst_error:.2e} (tol 1e-5), "
        f"f64 {rep64.worst_error:.2e} (tol 1e-10)",
    )
    assert bitwise
    assert rep32.passed
    assert rep64.passed

import numpy as np
import pytest

from mailpp import rng
from mailpp.agents import CouplingMode, build_sites, fuse_model
from mailpp.autodiff import Tensor
from mailpp.encoder import EncoderConfig
from mailpp.verify import (
    CheckReport,
    check_counter_agreement,
    check_fusion_equivalence,
    check_identity_at_init,
    count_trainable_params,
    finite_diff_grad,
    random_toy_model,
    randomize_sites,
    relative_error,
)

FULL_SCALE = EncoderConfig(L=12, d_t=512, d_v=768, n_heads=8, N_t=16, N_v=16, vocab_size=1024)
TINY_SCALE = EncoderConfig(L=1, d_t=2, d_v=2, n_heads=1, N_t=4, N_v=3, vocab_size=8)


# ------------------------------------------------------------------
# finite differences


def test_fd_quadratic():
    g = finite_diff_grad(lambda x: float(x[0] ** 2), np.asarray([3.0]), h=1e-5)
    assert abs(g[0] - 6.0) <= 1e-9


def test_fd_linear_recovers_coefficients():
    c = np.asarray([2.0, -7.0, 0.25])
    g = finite_diff_grad(lambda x: float(c @ x), np.asarray([1.0, 2.0, 3.0]), h=1e-5)
    assert np.allclose(g, c, atol=1e-9)


def test_fd_rejects_bad_h_and_nonfinite():
    with pytest.raises(ValueError, match="positive"):
        finite_diff_grad(lambda x: 0.0, np.zeros(1), h=0.0)
    from mailpp.autodiff import NonFiniteError

    with pytest.raises(NonFiniteError):
        finite_diff_grad(lambda x: float("nan"), np.zeros(1), h=1e-5)


def test_relative_error_metric():
    assert relative_error(np.asarray([0.0]), np.asarray([0.0])) == 0.0
    assert relative_error(np.asarray([1e-9]), np.asarray([0.0])) == pytest.approx(1e-9)
    assert relative_error(np.asarray([200.0]), np.asarray([100.0])) == pytest.approx(0.5)


# ------------------------------------------------------------------
# CheckReport semantics


def test_report_pass_iff_error_within_tolerance():
    assert CheckReport("x", worst_error=1e-6, tolerance=1e-5, trials=3, seed=0).passed
    assert not CheckReport("x", worst_error=2e-5, tolerance=1e-5, trials=3, seed=0).passed


def test_identity_check_vacuous_with_zero_inputs():
    model = random_toy_model(0, np.float64)
    rep = check_identity_at_init(model, tuple(CouplingMode), n_inputs=0, seed=0)
    assert rep.trials == 0
    assert rep.passed
    assert rep.detail == "no trials"


def test_identity_check_fault_injection():
    model = random_toy_model(1, np.float64)
    sites = build_sites(model.cfg, CouplingMode.IVLU, 1, 2, rng.derive(0, "s"), np.float64)
    from mailpp.agents import build_scaling_map
    from mailpp.encoder import text_forward

    site = next(iter(sites.values()))
    site.text_agent.b = site.text_agent.b + 1e-3  # perturb one shifting vector
    scalings = build_scaling_map(sites)
    plain = text_forward([1, 2], model.cfg, model.text).data
    hooked = text_forward([1, 2], model.cfg, model.text, scalings).data
    assert np.max(np.abs(plain - hooked)) > 0.0


# ------------------------------------------------------------------
# fusion check


def test_fusion_check_passes_on_random_agents():
    model = random_toy_model(2, np.float64)
    sites = build_sites(model.cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(1, "s"), np.float64)
    randomize_sites(sites, rng.derive(2, "p"))
    rep = check_fusion_equivalence(model, sites, n_inputs=5, tol=1e-10, seed=3)
    assert rep.passed


def test_fusion_check_localizes_corrupted_weight():
    model = random_toy_model(3, np.float64)
    sites = build_sites(model.cfg, CouplingMode.TEXT_TO_IMAGE, 2, 4, rng.derive(4, "s"), np.float64)
    randomize_sites(sites, rng.derive(5, "p"))
    fused = fuse_model(model, sites)
    fused.text.arrays["frozen/text/block0/mlp/fc2/w"][0, 0] += 0.5  # deliberate corruption
    rep = check_fusion_equivalence(model, sites, n_inputs=5, tol=1e-10, seed=6, fused=fused)
    assert not rep.passed
    assert "frozen/text/block0/mlp/fc2/w" in rep.detail


def test_fusion_check_accepts_externally_supplied_fused_model():
    model = random_toy_model(4, np.float64)
    sites = build_sites(model.cfg, CouplingMode.IMAGE_TO_TEXT, 2, 4, rng.derive(7, "s"), np.float64)
    randomize_sites(sites, rng.derive(8, "p"))
    rep = check_fusion_equivalence(model, sites, n_inputs=4, tol=1e-10, seed=9, fused=fuse_model(model, sites))
    assert rep.passed


def _count_folds(monkeypatch):
    import mailpp.verify

    calls = []
    real = mailpp.verify.fuse_model

    def counting_fuse(model, sites):
        calls.append(1)
        return real(model, sites)

    monkeypatch.setattr(mailpp.verify, "fuse_model", counting_fuse)
    return calls


def test_fusion_check_folds_no_reference_for_a_passing_given_model(monkeypatch):
    model = random_toy_model(4, np.float64)
    sites = build_sites(model.cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(7, "s"), np.float64)
    randomize_sites(sites, rng.derive(8, "p"))
    fused = fuse_model(model, sites)
    calls = _count_folds(monkeypatch)
    assert check_fusion_equivalence(model, sites, n_inputs=4, tol=1e-10, seed=9, fused=fused).passed
    assert len(calls) == 0
    assert check_fusion_equivalence(model, sites, n_inputs=4, tol=1e-10, seed=9).passed
    assert len(calls) == 1  # without a given model the check folds its own
    fused.image.arrays["frozen/image/proj/b"][1] -= 0.25
    rep = check_fusion_equivalence(model, sites, n_inputs=4, tol=1e-10, seed=9, fused=fused)
    assert not rep.passed and "frozen/image/proj/b" in rep.detail
    assert len(calls) == 2  # a failure folds the reference once, to name the tensor


@pytest.mark.parametrize("forward", ["text_forward", "image_forward"])
def test_identity_check_sees_a_change_in_the_last_input_of_a_batch(monkeypatch, forward):
    import mailpp.verify

    real = getattr(mailpp.verify, forward)

    def last_row_off(inputs, cfg, weights, scalings=None):
        out = real(inputs, cfg, weights, scalings)
        if scalings is None:
            return out
        data = out.data.copy()
        data[-1, 0] += 1e-3
        return Tensor(data)

    monkeypatch.setattr(mailpp.verify, forward, last_row_off)
    rep = check_identity_at_init(random_toy_model(5, np.float64), tuple(CouplingMode), n_inputs=3, seed=1)
    assert rep.worst_error > 0.0 and not rep.passed


# ------------------------------------------------------------------
# parameter counting


def test_count_full_scale_bidirectional_total():
    total, breakdown = count_trainable_params(FULL_SCALE, CouplingMode.BIDIRECTIONAL, rank=32, d_m=512)
    assert total == 3_831_296
    assert round(total / 1e6, 2) == 3.83
    assert len(breakdown) == 4 * 12 + 2
    assert breakdown["block0.1a"] == 2 * (768 + 512) + 512 + 32 * (768 + 512) + 32 * (512 + 512)
    assert breakdown["final.5"] == 2 * (512 + 512) + 512 + 32 * (512 + 512) * 2


def test_count_tiny_hand_examples():
    total, breakdown = count_trainable_params(TINY_SCALE, CouplingMode.BIDIRECTIONAL, rank=1, d_m=2)
    assert total == 108
    assert all(n == 18 for n in breakdown.values())

    total_ivlu, breakdown_ivlu = count_trainable_params(TINY_SCALE, CouplingMode.IVLU, rank=1, d_m=2)
    assert total_ivlu == 48
    assert all(n == 8 for n in breakdown_ivlu.values())


def test_count_shift_bridges_double_the_coupling_parameters():
    base, _ = count_trainable_params(FULL_SCALE, CouplingMode.BIDIRECTIONAL, 32, 512)
    shifted, _ = count_trainable_params(FULL_SCALE, CouplingMode.BIDIRECTIONAL, 32, 512, bridge_shift=True)
    agents_only, _ = count_trainable_params(FULL_SCALE, CouplingMode.IVLU, 32, 512)
    assert shifted == 2 * base - agents_only  # coupling params double, agents do not
    assert round(shifted / 1e6, 2) == 7.54


def test_count_respects_positions_subset():
    total_all, _ = count_trainable_params(TINY_SCALE, CouplingMode.IVLU, 1, 2)
    total_final, bd = count_trainable_params(TINY_SCALE, CouplingMode.IVLU, 1, 2, positions=("4", "5"))
    assert set(bd) == {"final.4", "final.5"}
    assert total_final < total_all


def test_counter_agreement_check_all_modes():
    cfg = EncoderConfig(L=2, d_t=8, d_v=12, n_heads=2, N_t=6, N_v=5, mlp_ratio=2, vocab_size=24)
    for mode in CouplingMode:
        rep = check_counter_agreement(cfg, mode, rank=2, d_m=4, seed=0)
        assert rep.passed, rep.human_line()


def test_counter_agreement_at_full_scale():
    rep = check_counter_agreement(FULL_SCALE, CouplingMode.BIDIRECTIONAL, rank=32, d_m=512, seed=0)
    assert rep.passed


def test_ce_loss_gradient_matches_finite_differences():
    """Backward through the full matching loss on a toy model vs the FD oracle."""
    from mailpp.agents import build_scaling_map
    from mailpp.encoder import init_dual_encoder
    from mailpp.training import _feats_image, _feats_text, ce_loss
    from mailpp.verify import gradient_check

    cfg = EncoderConfig(L=2, d_t=6, d_v=8, n_heads=2, N_t=5, N_v=3, mlp_ratio=2, vocab_size=12)
    model = init_dual_encoder(cfg, rng.derive(30, "w"), np.float64)
    sites = build_sites(cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(31, "s"), np.float64)
    randomize_sites(sites, rng.derive(32, "p"))
    gen = rng.derive(33, "d")
    tokens = [[1, 2], [1, 3]]
    images = gen.standard_normal((2, cfg.N_v, cfg.d_v))
    labels = np.asarray([0, 1])

    def loss_of_params(values):
        scalings = build_scaling_map(sites, values)
        txt = _feats_text(model, tokens, scalings)
        img = _feats_image(model, images, scalings)
        return ce_loss(img, txt, labels, temperature=0.07)

    reports = gradient_check(model, sites, loss_of_params, h=1e-5, seed=0)
    for rep in reports:
        assert rep.worst_error <= 1e-4, rep.human_line()

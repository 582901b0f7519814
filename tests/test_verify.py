import dataclasses

import numpy as np
import pytest

from mailpp import rng
from mailpp.agents import CouplingMode, build_sites, flat_views, fuse_model, named_params
from mailpp.autodiff import NonFiniteError, Tensor
from mailpp.encoder import ALL_POSITIONS, EncoderConfig
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
# every coupling mode, and every coupled one with shift bridges
_COUPLINGS = [(mode, False) for mode in CouplingMode] + [
    (mode, True) for mode in CouplingMode if mode != CouplingMode.IVLU
]


# ------------------------------------------------------------------
# finite differences


def test_fd_quadratic():
    g = finite_diff_grad(lambda xs: xs[:, 0] ** 2, np.asarray([3.0]), h=1e-5)
    assert abs(g[0] - 6.0) <= 1e-9


def test_fd_linear_recovers_coefficients():
    c = np.asarray([2.0, -7.0, 0.25])
    g = finite_diff_grad(lambda xs: xs @ c, np.asarray([1.0, 2.0, 3.0]), h=1e-5)
    assert np.allclose(g, c, atol=1e-9)


def test_fd_rejects_bad_h_and_nonfinite():
    with pytest.raises(ValueError, match="positive"):
        finite_diff_grad(lambda xs: np.zeros(len(xs)), np.zeros(1), h=0.0)
    from mailpp.autodiff import NonFiniteError

    with pytest.raises(NonFiniteError):
        finite_diff_grad(lambda xs: np.full(len(xs), np.nan), np.zeros(1), h=1e-5)


def test_fd_never_writes_the_callers_point(monkeypatch):
    import mailpp.verify

    def raising(xs):
        if np.any(xs[:, 1] != 0.0):  # a point that moves coordinate 1
            raise RuntimeError("objective failed")
        return np.zeros(len(xs))

    for trials in (1, 64):  # one point per call reaches coordinate 1 after coordinate 0's points
        monkeypatch.setattr(mailpp.verify, "FD_TRIALS", trials)
        x = np.zeros(3)
        before = x.tobytes()
        with pytest.raises(RuntimeError, match="objective failed"):
            finite_diff_grad(raising, x, h=1e-5)
        assert x.tobytes() == before


# (points per call, coordinate, side): with 64 points per call, coordinate 31's
# pair ends the first call and 32's starts the second; with 7, coordinate 3's
# +h point ends the first call and its -h point starts the second
@pytest.mark.parametrize("trials,coord,sign", [(64, 31, 1), (64, 32, 1), (64, 39, -1), (7, 3, -1), (7, 3, 1)])
def test_fd_names_the_coordinate_of_a_non_finite_value(monkeypatch, trials, coord, sign):
    import mailpp.verify
    from mailpp.autodiff import NonFiniteError

    monkeypatch.setattr(mailpp.verify, "FD_TRIALS", trials)

    def f(xs):
        return np.where(sign * xs[:, coord] > 0.0, np.inf, 0.0)

    with pytest.raises(NonFiniteError, match=f"coordinate {coord}$"):
        finite_diff_grad(f, np.zeros(40), h=1e-5)


def test_fd_rejects_an_objective_of_the_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        finite_diff_grad(lambda xs: np.zeros((len(xs), 1)), np.zeros(2), h=1e-5)


def test_relative_error_metric():
    assert relative_error(np.asarray([0.0]), np.asarray([0.0])) == 0.0
    assert relative_error(np.asarray([1e-9]), np.asarray([0.0])) == pytest.approx(1e-9)
    assert relative_error(np.asarray([200.0]), np.asarray([100.0])) == pytest.approx(0.5)


# ------------------------------------------------------------------
# CheckReport semantics


def test_report_pass_iff_error_within_tolerance():
    assert CheckReport("x", worst_error=1e-6, tolerance=1e-5, trials=3, seed=0).passed
    assert not CheckReport("x", worst_error=2e-5, tolerance=1e-5, trials=3, seed=0).passed


def test_report_with_zero_trials_says_so():
    assert CheckReport("x", worst_error=0.0, tolerance=1e-5, trials=0, seed=0).detail == "no trials"
    assert CheckReport("x", worst_error=0.0, tolerance=1e-5, trials=0, seed=0, detail="skipped").detail == "skipped"
    ran = CheckReport("x", worst_error=0.0, tolerance=1e-5, trials=2, seed=0)
    assert ran.detail == ""
    assert dataclasses.replace(ran, trials=0).detail == "no trials"


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
    site.set_param("text/b", site.arrays["text/b"] + 1e-3)  # perturb one shifting vector
    scalings = build_scaling_map(sites)
    plain = text_forward([1, 2], model).data
    hooked = text_forward([1, 2], model, scalings).data
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
    fused.arrays["frozen/text/block0/mlp/fc2/w"][0, 0] += 0.5  # deliberate corruption
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
    real = mailpp.verify.fold_scalings

    def counting_fold(model, scalings):
        calls.append(1)
        return real(model, scalings)

    monkeypatch.setattr(mailpp.verify, "fold_scalings", counting_fold)
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
    fused.arrays["frozen/image/proj/b"][1] -= 0.25
    rep = check_fusion_equivalence(model, sites, n_inputs=4, tol=1e-10, seed=9, fused=fused)
    assert not rep.passed and "frozen/image/proj/b" in rep.detail
    assert len(calls) == 2  # a failure folds the reference once, to name the tensor


def _count_effective(monkeypatch):
    from mailpp.agents import CoupledAgentSite

    calls = []
    real = CoupledAgentSite.effective

    def counting_effective(self, values=None):
        calls.append(self.key)
        return real(self, values)

    monkeypatch.setattr(CoupledAgentSite, "effective", counting_effective)
    return calls


def test_fusion_check_computes_each_sites_vectors_once(monkeypatch):
    model = random_toy_model(6, np.float64)
    sites = build_sites(model.cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(10, "s"), np.float64, True)
    randomize_sites(sites, rng.derive(11, "p"))
    fused = fuse_model(model, sites)
    folds, effective = _count_folds(monkeypatch), _count_effective(monkeypatch)
    assert check_fusion_equivalence(model, sites, n_inputs=3, tol=1e-10, seed=12).passed
    assert len(folds) == 1 and effective == list(sites)  # one map, folded once
    fused.arrays["frozen/text/final_ln/beta"][0] += 0.25
    del folds[:], effective[:]
    rep = check_fusion_equivalence(model, sites, n_inputs=3, tol=1e-10, seed=12, fused=fused)
    assert not rep.passed and "frozen/text/final_ln/beta" in rep.detail
    assert len(folds) == 1 and effective == list(sites)  # the failure folds the same map to name the tensor


@pytest.mark.parametrize("mode,bridge_shift", _COUPLINGS, ids=[f"{m.value}-shift{int(s)}" for m, s in _COUPLINGS])
def test_fuse_model_is_fold_scalings_of_the_scaling_map(mode, bridge_shift):
    from mailpp.agents import build_scaling_map, fold_scalings

    model = random_toy_model(7, np.float64)
    sites = build_sites(model.cfg, mode, 2, 4, rng.derive(13, "s"), np.float64, bridge_shift)
    randomize_sites(sites, rng.derive(14, "p"))
    want = fuse_model(model, sites).arrays
    got = fold_scalings(model, build_scaling_map(sites)).arrays
    assert list(got) == list(want)
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype and got[name].tobytes() == arr.tobytes(), name
        assert not np.shares_memory(got[name], model.arrays[name]), name


def test_identity_check_runs_the_frozen_passes_once_per_model(monkeypatch):
    import mailpp.verify

    calls = {"text_forward": [0, 0], "image_forward": [0, 0]}  # [unhooked, hooked]
    for forward in calls:
        real = getattr(mailpp.verify, forward)

        def counting(inputs, model, scalings=None, real=real, count=calls[forward]):
            count[scalings is not None] += 1
            return real(inputs, model, scalings)

        monkeypatch.setattr(mailpp.verify, forward, counting)
    modes = tuple(CouplingMode)
    rep = check_identity_at_init(random_toy_model(8, np.float64), modes, n_inputs=3, seed=2)
    assert calls == {"text_forward": [1, len(modes)], "image_forward": [1, len(modes)]}
    assert rep.passed and rep.worst_error == 0.0 and rep.trials == 3 * len(modes) and rep.detail == ""


@pytest.mark.parametrize("forward", ["text_forward", "image_forward"])
def test_identity_check_sees_a_change_in_the_last_input_of_a_batch(monkeypatch, forward):
    import mailpp.verify

    real = getattr(mailpp.verify, forward)

    def last_row_off(inputs, model, scalings=None):
        out = real(inputs, model, scalings)
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
    from mailpp.encoder import image_forward, init_dual_encoder, text_forward
    from mailpp.training import ce_loss
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
        txt = text_forward(tokens, model, scalings)
        img = image_forward(images, model, scalings)
        return ce_loss(img, txt, labels, temperature=0.07)

    reports = gradient_check(model, sites, loss_of_params, h=1e-5, seed=0)
    for rep in reports:
        assert rep.worst_error <= 1e-4, rep.human_line()


@pytest.mark.parametrize("cast", ["model", "sites"])
def test_gradient_check_rejects_a_float32_model_or_sites_up_front(cast):
    from mailpp.verify import gradient_check

    model = random_toy_model(0, np.float64)
    sites = build_sites(model.cfg, CouplingMode.IVLU, 1, 2, rng.derive(0, "s"), np.float64)
    if cast == "model":
        model = random_toy_model(0, np.float32)
    else:
        sites = build_sites(model.cfg, CouplingMode.IVLU, 1, 2, rng.derive(0, "s"), np.float32)
    calls = []

    def loss_of_params(values):
        calls.append(values)
        raise AssertionError("the objective must not run")

    with pytest.raises(ValueError, match="float32"):
        gradient_check(model, sites, loss_of_params)
    assert calls == []


# ------------------------------------------------------------------
# the trial-batched objective of gradient_check


def _objective(model, sites, tokens, images, labels):
    """The CLI's full gradient-check objective on a toy model; stacked values give one loss per trial."""
    from mailpp.agents import build_scaling_map
    from mailpp.encoder import image_forward, text_forward
    from mailpp.training import ce_loss, reg_losses, total_loss

    cfg = model.cfg
    frozen_txt = text_forward(tokens, model).data
    frozen_img = image_forward(images, model).data

    def loss_of_params(values):
        scalings = build_scaling_map(sites, values)
        txt = text_forward(tokens, model, scalings)
        img = image_forward(images, model, scalings)
        ce = ce_loss(img, txt, labels, 0.07)
        rv, rt = reg_losses(img, frozen_img, txt, frozen_txt)
        return total_loss(ce, rv, rt, 0.5)

    return loss_of_params


def _objective_setup(seed, dtype, mode, bridge_shift, max_blocks=4, positions=ALL_POSITIONS):
    model = random_toy_model(seed, dtype, max_blocks)
    cfg = model.cfg
    sites = build_sites(cfg, mode, 1, 3, rng.derive(seed, "s"), dtype, bridge_shift, positions)
    randomize_sites(sites, rng.derive(seed, "p"))
    gen = rng.derive(seed, "d")
    tokens = [[1, 2], [1, 3, 4, 5], [2, 6, 1]]  # mixed lengths: the batch is right-padded
    images = gen.standard_normal((3, cfg.N_v, cfg.d_v)).astype(dtype)
    labels = np.asarray([0, 2, 1])
    x0 = np.concatenate([arr.reshape(-1) for _, arr in named_params(sites)]).astype(np.float64)
    return _objective(model, sites, tokens, images, labels), x0, sites


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("mode,bridge_shift", _COUPLINGS, ids=[f"{m.value}-shift{int(s)}" for m, s in _COUPLINGS])
def test_stacked_objective_equals_the_per_point_objective(dtype, mode, bridge_shift):
    """Row k of one stacked call equals an unstacked loss_of_params call at point k."""
    loss_of_params, x0, sites = _objective_setup(11, dtype, mode, bridge_shift)
    gen = rng.derive(12, "points")
    points = (x0[None, :] + 0.05 * gen.standard_normal((5, x0.size))).astype(dtype)
    stacked = loss_of_params({name: Tensor(v) for name, v in flat_views(points, sites).items()}).data
    assert stacked.shape == (5,) and stacked.dtype == dtype
    tol = 1e-12 if dtype == np.float64 else 1e-5
    for k, point in enumerate(points):
        values = {name: Tensor(v) for name, v in flat_views(point, sites).items()}
        single = loss_of_params(values)
        assert single.shape == ()
        assert relative_error(stacked[k], single.item()) <= tol, (k, stacked[k], single.item())


def test_trial_blocks_hold_the_stacks_values_bit_for_bit():
    """Each name's (K, *shape) block is that name's piece of the (K, n) stack, C-contiguous and finite-checked."""
    from mailpp.verify import _stacked_points, _trial_points

    _, x0, sites = _objective_setup(14, np.float64, CouplingMode.BIDIRECTIONAL, True)
    coords = np.repeat(np.arange(x0.size), 2)
    steps = np.tile([1e-5, -1e-5], x0.size)
    stack = _stacked_points(x0, coords, steps)
    blocks = _trial_points(sites)(x0, coords, steps)
    pieces = flat_views(stack, sites)
    assert list(blocks) == list(pieces)
    for name, block in blocks.items():
        assert block.data.flags.c_contiguous and block.data.tobytes() == np.ascontiguousarray(pieces[name]).tobytes()
    with pytest.raises(NonFiniteError, match=f"^{next(iter(blocks))}: "):
        _trial_points(sites)(x0, coords[:1], np.asarray([np.inf]))


def test_fd_gradient_is_the_same_for_any_number_of_trials_per_call(monkeypatch):
    import mailpp.verify
    from mailpp.verify import _trial_points

    # one block and two sites keep the one-point-per-call run short
    loss_of_params, x0, sites = _objective_setup(13, np.float64, CouplingMode.BIDIRECTIONAL, True, 1, ("2", "5"))
    build = _trial_points(sites)
    grads = {}
    for trials in (1, 7, 2 * x0.size, 2 * x0.size + 5):
        monkeypatch.setattr(mailpp.verify, "FD_TRIALS", trials)
        rows = []

        def counting(named):
            rows.append(len(next(iter(named.values())).data))
            return loss_of_params(named).data

        grads[trials] = finite_diff_grad(counting, x0, h=1e-5, build=build)
        assert max(rows) <= trials and sum(rows) == 2 * x0.size
    first = grads[1]
    for trials, g in grads.items():
        assert g.tobytes() == first.tobytes(), trials


def test_gradient_check_counts_the_shift_meta_vector_with_a_m():
    """With bridge_shift, grad_fd[a_m] covers both meta vectors: meta/a_m and shift_meta/b_m."""
    from mailpp.encoder import init_dual_encoder
    from mailpp.verify import gradient_check

    cfg = EncoderConfig(L=1, d_t=8, d_v=8, n_heads=2, N_t=5, N_v=3, mlp_ratio=2, vocab_size=12)
    model = init_dual_encoder(cfg, rng.derive(40, "w"), np.float64)
    sites = build_sites(cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(41, "s"), np.float64, bridge_shift=True)
    randomize_sites(sites, rng.derive(42, "p"))
    images = rng.derive(43, "d").standard_normal((2, cfg.N_v, cfg.d_v))
    loss_of_params = _objective(model, sites, [[1, 2], [1, 3]], images, np.asarray([0, 1]))
    reports = {r.name: r for r in gradient_check(model, sites, loss_of_params, h=1e-5, seed=0)}
    assert reports["grad_fd[a_m]"].trials == 6 * (4 + 4)  # 6 sites, d_m entries of a_m and of b_m each
    assert sum(r.trials for r in reports.values()) == sum(arr.size for _, arr in named_params(sites))
    for rep in reports.values():
        assert rep.passed and rep.worst_error <= 1e-4, rep.human_line()

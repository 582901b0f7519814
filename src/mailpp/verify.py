"""Independent oracles: finite differences, fusion equivalence, counting.

Everything here deliberately avoids the code paths it checks. Finite
differences probe the tape's gradients; the dual-path fusion check runs
hooked and folded models side by side; the closed-form parameter
counter never instantiates a site, so it can be cross-checked against
an enumeration of actually allocated arrays.

The identity and fusion checks do each piece of work once. The identity
check draws one input batch per model and runs the frozen passes once,
then only the hooked passes per coupling mode. The fusion check builds
the sites' scaling map once; the hooked passes read it and
``fold_scalings`` folds it, so each site's bridge products are computed
once per trial.

The finite differences run on a leading trial axis: each objective call
takes a stack of up to ``FD_TRIALS`` (128) perturbed parameter points
(flat, in ``named_params`` order) and returns one loss per point, so the
624 evaluations of the benchmark's check config take 5 calls.
``gradient_check`` hands each stack to the same ``loss_of_params`` that
the tape differentiates, as ``name -> (K, *shape)`` Tensors, and the
encoders and losses carry the trial axis through (one agent-value set per
trial). ``tests/test_verify.py`` ties the stacked objective to the
per-point one: row k of a stacked call equals an unstacked call at point k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from . import rng as rngmod
from .agents import (
    CoupledAgentSite,
    CouplingMode,
    SiteKey,
    build_scaling_map,
    build_sites,
    flat_views,
    fold_scalings,
    named_params,
    trainable_param_count,
)
from .autodiff import NonFiniteError, Tape, Tensor
from .encoder import (
    ALL_POSITIONS,
    BLOCK_POSITIONS,
    DualEncoder,
    EncoderConfig,
    Position,
    image_forward,
    init_dual_encoder,
    text_forward,
)

__all__ = [
    "CheckReport",
    "finite_diff_grad",
    "relative_error",
    "check_identity_at_init",
    "check_fusion_equivalence",
    "count_trainable_params",
    "gradient_check",
    "CHECK_CSV_HEADER",
]

CHECK_CSV_HEADER = "name,passed,worst_error,tolerance,trials,seed,detail"

PARAM_CLASSES = ("a", "b", "w_up", "w_down", "a_m")

FD_TRIALS = 128  # perturbed points per objective call of finite_diff_grad

FUSION_TOL = {"f64": 1e-10, "f32": 1e-5}  # dual-path fusion tolerance per precision


@dataclass
class CheckReport:
    name: str
    worst_error: float
    tolerance: float
    trials: int
    seed: int
    detail: str = ""

    def __post_init__(self):
        if self.trials == 0 and not self.detail:
            self.detail = "no trials"  # vacuous: passes, and says so

    @property
    def passed(self) -> bool:
        if self.trials == 0:
            return True  # vacuous; flagged via detail (see __post_init__)
        return self.worst_error <= self.tolerance

    def human_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (
            f"{status}  {self.name}: worst error {self.worst_error:.3e} "
            f"(tol {self.tolerance:.1e}, {self.trials} trials, seed {self.seed}){extra}"
        )

    def csv_row(self) -> str:
        detail = self.detail.replace(",", ";")
        return (
            f"{self.name},{str(self.passed).lower()},{self.worst_error:.10g},"
            f"{self.tolerance:.10g},{self.trials},{self.seed},{detail}"
        )


# ------------------------------------------------------------------
# finite differences


def finite_diff_grad(f: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences (f(x + h e_i) - f(x - h e_i)) / 2h per coordinate, in f64.

    ``f`` maps a (K, n) stack of points (x0 flattened, one perturbed
    coordinate per row) to K values, K <= ``FD_TRIALS``. Trial 2i moves
    coordinate i by +h and trial 2i + 1 by -h; each call's points are built
    from a copy of x0, so x0 itself is never written.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x0 = np.asarray(x0, dtype=np.float64)
    flat = x0.reshape(-1)
    values = np.empty(2 * flat.size)
    for start in range(0, values.size, FD_TRIALS):
        trials = np.arange(start, min(start + FD_TRIALS, values.size))
        coords = trials // 2
        points = np.repeat(flat[None, :], trials.size, axis=0)
        points[np.arange(trials.size), coords] += np.where(trials % 2 == 0, h, -h)
        got = np.asarray(f(points), dtype=np.float64)
        if got.shape != trials.shape:
            raise ValueError(f"finite_diff_grad: f returned shape {got.shape} for {trials.size} points")
        bad = np.flatnonzero(~np.isfinite(got))
        if bad.size:
            raise NonFiniteError(f"non-finite function value near coordinate {coords[bad[0]]}")
        values[trials] = got
    return ((values[0::2] - values[1::2]) / (2.0 * h)).reshape(x0.shape)


def relative_error(g1: np.ndarray, g2: np.ndarray) -> float:
    """max |g1 - g2| / max(1, |g1|, |g2|), elementwise; robust near zero."""
    g1 = np.asarray(g1, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(g1), np.abs(g2)))
    if g1.size == 0:
        return 0.0
    return float(np.max(np.abs(g1 - g2) / denom))


# ------------------------------------------------------------------
# shared helpers


def random_toy_model(seed: int, dtype=np.float64, max_blocks: int = 4) -> DualEncoder:
    """A small random frozen model with varied dimensions, deterministic per seed."""
    gen = rngmod.derive(seed, "toy-model")
    heads = int(gen.choice([1, 2]))
    l_blocks = int(gen.integers(1, max_blocks + 1))
    d_t = heads * int(gen.choice([4, 6, 8]))
    d_v = heads * int(gen.choice([6, 8, 10]))
    cfg = EncoderConfig(
        L=l_blocks,
        d_t=d_t,
        d_v=d_v,
        n_heads=heads,
        N_t=6,
        N_v=5,
        mlp_ratio=2,
        vocab_size=32,
    )
    return init_dual_encoder(cfg, rngmod.derive(seed, "toy-weights"), dtype)


def _random_batch(
    cfg: EncoderConfig, gen: np.random.Generator, dtype, n: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """``n`` random inputs as one text and one image batch; each draws its length, its ids, then its patches."""
    tokens, patches = [], np.empty((n, cfg.N_v, cfg.d_v), dtype=dtype)
    for i in range(n):
        tokens.append(gen.integers(0, cfg.vocab_size, size=int(gen.integers(2, cfg.N_t + 1))))
        patches[i] = gen.standard_normal((cfg.N_v, cfg.d_v))  # cast as astype(dtype) casts
    return tokens, patches


def randomize_sites(sites: Mapping[SiteKey, CoupledAgentSite], gen: np.random.Generator, spread: float = 0.2) -> None:
    """Perturb every trainable array in place (W_up included, so bridges are active)."""
    for site in sites.values():
        for local, arr in site.arrays.items():
            if local.endswith("/a") or local.endswith("a_m") or local.endswith("b_m"):
                new = 1.0 + spread * gen.standard_normal(arr.shape)
            elif local.endswith("/b"):
                new = spread * gen.standard_normal(arr.shape)
            elif local.endswith("w_up"):
                new = spread * gen.standard_normal(arr.shape) / np.sqrt(arr.shape[-1])
            else:  # w_down keeps its scale
                new = gen.standard_normal(arr.shape) / np.sqrt(arr.shape[-1])
            site.set_param(local, new.astype(arr.dtype))


# ------------------------------------------------------------------
# identity at initialization


def check_identity_at_init(
    model: DualEncoder,
    modes: Iterable[CouplingMode] = tuple(CouplingMode),
    n_inputs: int = 4,
    seed: int = 0,
    rank: int = 2,
    d_m: int = 4,
) -> CheckReport:
    """Hooked output must equal frozen output bit for bit with fresh sites.

    One batch of ``n_inputs`` inputs and one frozen pass per modality serve
    every mode; each mode runs only its hooked passes.
    """
    worst = 0.0
    trials = 0
    detail = ""
    tokens, patches = _random_batch(model.cfg, rngmod.derive(seed, "identity-inputs"), model.dtype, n_inputs)
    modes = tuple(modes) if tokens else ()
    if modes:
        plain_t = text_forward(tokens, model).data
        plain_v = image_forward(patches, model).data
    for mode in modes:
        sites = build_sites(
            model.cfg, CouplingMode(mode), rank, d_m, rngmod.derive(seed, "identity-sites", str(mode)), model.dtype
        )
        scalings = build_scaling_map(sites)
        hooked_t = text_forward(tokens, model, scalings).data
        hooked_v = image_forward(patches, model, scalings).data
        err = max(
            float(np.max(np.abs(plain_t - hooked_t))),
            float(np.max(np.abs(plain_v - hooked_v))),
        )
        trials += n_inputs
        if err > worst:
            worst = err
            detail = f"mode={CouplingMode(mode).value}"
    return CheckReport(
        name="identity_at_init",
        worst_error=worst,
        tolerance=0.0,
        trials=trials,
        seed=seed,
        detail=detail if worst > 0 else "",
    )


# ------------------------------------------------------------------
# fusion equivalence


def _locate_fused_mismatch(expected: DualEncoder, got: DualEncoder) -> str:
    for name, arr in got.arrays.items():
        ref = expected.arrays.get(name)
        if ref is None or ref.shape != arr.shape or not np.array_equal(ref, arr):
            return name
    return ""


def check_fusion_equivalence(
    model: DualEncoder,
    sites: Mapping[SiteKey, CoupledAgentSite],
    n_inputs: int = 8,
    tol: float = 1e-10,
    seed: int = 0,
    fused: DualEncoder | None = None,
) -> CheckReport:
    """Dual-path oracle: hooked forward vs folded forward on random inputs.

    The sites' scaling map is built once; both the hooked passes and the
    fold (``fold_scalings``) read it. A given ``fused`` model is checked as
    is; only when it fails is the map folded, to name the first tensor
    that differs.
    """
    scalings = build_scaling_map(sites)
    target = fused if fused is not None else fold_scalings(model, scalings)
    tokens, patches = _random_batch(model.cfg, rngmod.derive(seed, "fusion-inputs"), model.dtype, n_inputs)
    worst = 0.0
    detail = ""
    if tokens:
        hooked_t = text_forward(tokens, model, scalings).data
        fused_t = text_forward(tokens, target).data
        hooked_v = image_forward(patches, model, scalings).data
        fused_v = image_forward(patches, target).data
        worst = max(relative_error(hooked_t, fused_t), relative_error(hooked_v, fused_v))
    if worst > tol and fused is not None:
        bad = _locate_fused_mismatch(fold_scalings(model, scalings), fused)
        if bad:
            detail = f"fused tensor mismatch at {bad}"
    return CheckReport(
        name="fusion_equivalence",
        worst_error=worst,
        tolerance=tol,
        trials=n_inputs,
        seed=seed,
        detail=detail,
    )


# ------------------------------------------------------------------
# parameter counting (closed form; independent of site construction)


def count_trainable_params(
    cfg: EncoderConfig,
    mode: CouplingMode,
    rank: int,
    d_m: int,
    bridge_shift: bool = False,
    positions: tuple[Position, ...] = ALL_POSITIONS,
) -> tuple[int, dict[str, int]]:
    """Total trainable parameters and a per-site breakdown, by arithmetic alone."""
    mode = CouplingMode(mode)
    breakdown: dict[str, int] = {}
    keys = [SiteKey(i, p) for i in range(cfg.L) for p in BLOCK_POSITIONS if p in positions]
    keys += [SiteKey(None, p) for p in ("4", "5") if p in positions]
    for key in keys:
        w_v = cfg.hook_width("image", key.pos)
        w_t = cfg.hook_width("text", key.pos)
        coupling = 0  # bridges and meta vector of one coupled pair (the scales)
        if mode in (CouplingMode.TEXT_TO_IMAGE, CouplingMode.IMAGE_TO_TEXT):
            coupling = rank * (w_t + w_v)
        elif mode == CouplingMode.BIDIRECTIONAL:
            coupling = d_m + rank * (w_v + d_m) + rank * (w_t + d_m)
        # both agents' a and b; bridge_shift couples the shifts by the same rule
        breakdown[str(key)] = 2 * (w_v + w_t) + (1 + bool(bridge_shift)) * coupling
    return sum(breakdown.values()), breakdown


def check_counter_agreement(
    cfg: EncoderConfig,
    mode: CouplingMode,
    rank: int,
    d_m: int,
    bridge_shift: bool = False,
    positions: tuple[Position, ...] = ALL_POSITIONS,
    seed: int = 0,
) -> CheckReport:
    """Closed-form count vs enumeration of actually allocated arrays."""
    total, _ = count_trainable_params(cfg, mode, rank, d_m, bridge_shift, positions)
    sites = build_sites(
        cfg, mode, rank, d_m, rngmod.derive(seed, "count-sites"), np.float32, bridge_shift, positions
    )
    enumerated = trainable_param_count(sites)
    err = float(abs(total - enumerated))
    return CheckReport(
        name=f"param_count_agreement[{CouplingMode(mode).value}]",
        worst_error=err,
        tolerance=0.0,
        trials=1,
        seed=seed,
        detail="" if err == 0 else f"closed-form {total} vs enumerated {enumerated}",
    )


# ------------------------------------------------------------------
# gradient fidelity


def _trial_objective(
    sites: Mapping[SiteKey, CoupledAgentSite],
    loss_of_params: Callable[[Mapping[str, Tensor] | None], Tensor],
) -> Callable[[np.ndarray], np.ndarray]:
    """The stacked objective: (K, n) flat points -> K losses, one ``loss_of_params`` call."""

    def f(points: np.ndarray) -> np.ndarray:
        return loss_of_params({name: Tensor(v) for name, v in flat_views(points, sites).items()}).data

    return f


def _param_class(name: str) -> str:
    leaf = name.rsplit("/", 1)[-1]
    if leaf == "b_m":
        leaf = "a_m"
    return leaf


def gradient_check(
    model: DualEncoder,
    sites: dict[SiteKey, CoupledAgentSite],
    loss_of_params: Callable[[Mapping[str, Tensor] | None], Tensor],
    h: float = 1e-5,
    seed: int = 0,
) -> list[CheckReport]:
    """Backward vs central differences, reported per trainable parameter class.

    ``loss_of_params`` maps a name->Tensor dict (or None for current site
    values) to a scalar loss tensor, and a dict of stacked values,
    name -> (K, *shape), to K losses. It is differentiated on a tape once
    and evaluated on stacks of perturbed points for the differences.

    The model and every site array must be float64: the closure owns the
    model, so this function cannot cast it, and the parameter values it
    passes are float64. Anything else raises ``ValueError`` up front.
    """
    named = dict(named_params(sites))
    dtypes = sorted({str(arr.dtype) for arr in named.values()})
    if model.dtype != np.float64 or dtypes != ["float64"]:
        raise ValueError(
            f"gradient_check needs float64; got a {model.dtype} model and {'/'.join(dtypes)} "
            "site arrays: cast both first"
        )
    x0 = np.concatenate([arr.reshape(-1) for arr in named.values()])

    tape = Tape()
    leaves = {name: tape.leaf(view, name) for name, view in flat_views(x0, sites).items()}
    loss = loss_of_params(leaves)
    grads = tape.backward(loss)
    analytic = {name: grads[leaf.node].data for name, leaf in leaves.items()}
    numeric = flat_views(finite_diff_grad(_trial_objective(sites, loss_of_params), x0, h), sites)

    reports = []
    for cls in PARAM_CLASSES:
        names = [name for name in named if _param_class(name) == cls]
        worst = max((relative_error(analytic[name], numeric[name]) for name in names), default=0.0)
        n = sum(named[name].size for name in names)
        reports.append(CheckReport(name=f"grad_fd[{cls}]", worst_error=worst, tolerance=1e-4, trials=n, seed=seed))
    return reports

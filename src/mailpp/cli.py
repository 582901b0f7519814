"""Command-line surface.

Commands: gen-data, train, fuse, eval, gradcheck, check, count-params,
report-norms. Every command is deterministic given (config file, seed).
Seed precedence: --seed flag, then the config's "seed", then the
MAIL_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .agents import CouplingMode, bridge_norm, build_scaling_map, fuse_model
from .autodiff import NonFiniteError, Tensor
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint, write_atomic
from .config import ConfigError, RunConfig, parse_config
from .encoder import DualEncoder, image_forward, init_dual_encoder, text_forward
from .state import pack_dataset, pack_state, unpack_dataset, unpack_state
from .training import (
    METRICS_HEADER,
    ce_loss,
    evaluate,
    gen_synthetic,
    reg_losses,
    sample_few_shot,
    total_loss,
    train,
)
from .verify import (
    CHECK_CSV_HEADER,
    FUSION_TOL,
    CheckReport,
    check_counter_agreement,
    check_fusion_equivalence,
    check_identity_at_init,
    count_trainable_params,
    gradient_check,
    random_toy_model,
    randomize_sites,
)

__all__ = ["main", "run"]

ENV_SEED = "MAIL_SEED"


def _resolve_seed(args, run_cfg: RunConfig) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if run_cfg.seed is not None:
        return run_cfg.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{ENV_SEED}={env!r} is not an integer") from None
    return rngmod.DEFAULT_SEED


def _load_run_config(path: str) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _load_dataset(path: str, run_cfg: RunConfig):
    """The dataset at ``path``, which must have the config's class count."""
    ds = unpack_dataset(*load_checkpoint(path))
    if ds.num_classes != run_cfg.training.classes:
        raise ConfigError(
            f"dataset has {ds.num_classes} classes but training.classes is {run_cfg.training.classes}"
        )
    return ds


def _build_model(run_cfg: RunConfig, seed: int):
    return init_dual_encoder(run_cfg.encoder, rngmod.derive(seed, "frozen-weights"), run_cfg.dtype)


def _write(path: str, text: str) -> None:
    _ensure_parent(path)
    write_atomic(path, text.encode("utf-8"))


def _ensure_parent(path: str) -> None:
    p = Path(path)
    if p.parent != Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)


def _resolve_out(args, run_cfg: RunConfig, default_name: str) -> str:
    if getattr(args, "out", None):
        return args.out
    if run_cfg.out_dir:
        return str(Path(run_cfg.out_dir) / default_name)
    raise ConfigError("no output path: pass --out or set out_dir in the config")


# ------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    run_cfg = _load_run_config(args.config)
    seed = _resolve_seed(args, run_cfg)
    out = _resolve_out(args, run_cfg, "dataset.bin")
    ds = gen_synthetic(
        C=run_cfg.training.classes,
        k_pool=run_cfg.data.pool_per_class,
        noise=run_cfg.data.noise,
        seed=seed,
        dims=(run_cfg.encoder.N_v, run_cfg.encoder.d_v),
        text_len=run_cfg.data.text_len,
        dtype=run_cfg.dtype,
    )
    tensors, doc = pack_dataset(ds)
    _ensure_parent(out)
    save_checkpoint(out, tensors, doc)
    print(f"wrote dataset: {ds.num_classes} classes x {ds.pool_per_class} samples -> {out}")
    return 0


def cmd_train(args) -> int:
    run_cfg = _load_run_config(args.config)
    seed = _resolve_seed(args, run_cfg)
    ds = _load_dataset(args.data, run_cfg)
    out = _resolve_out(args, run_cfg, "trained.ckpt")
    model = _build_model(run_cfg, seed)
    sites = run_cfg.sites(rngmod.derive(seed, "sites"))
    episode = sample_few_shot(ds, run_cfg.training.shots, seed)
    state = train(model, sites, run_cfg.training, episode, seed)

    ck_tensors, ck_doc = pack_state(model, sites, state.opt_state, run_cfg, seed, step=state.steps_run)
    _ensure_parent(out)
    save_checkpoint(out, ck_tensors, ck_doc)
    metrics_path = out + ".metrics.csv"
    lines = [METRICS_HEADER] + [row.csv() for row in state.metrics]
    _write(metrics_path, "\n".join(lines) + "\n")
    last = state.metrics[-1] if state.metrics else None
    print(f"trained {state.steps_run} steps; final train accuracy {state.final_train_accuracy:.4f}")
    if last is not None:
        print(f"final losses: L_ce {last.l_ce:.6f}  L_reg_v {last.l_reg_v:.6f}  L_reg_t {last.l_reg_t:.6f}")
    print(f"wrote checkpoint {out} and metrics {metrics_path}")
    return 0


def cmd_fuse(args) -> int:
    tensors, doc = load_checkpoint(args.ckpt)
    restored = unpack_state(tensors, doc)
    if restored.fused or restored.sites is None:
        raise CheckpointError("checkpoint is already fused; nothing to fold")
    fused = fuse_model(restored.model, restored.sites)
    tol = FUSION_TOL[restored.run_cfg.precision]
    report = check_fusion_equivalence(
        restored.model, restored.sites, n_inputs=8, tol=tol, seed=restored.seed, fused=fused
    )
    print(report.human_line())
    if not report.passed:
        print(f"error: fused model failed the equivalence check; {args.out} not written", file=sys.stderr)
        return 1
    ck_tensors, ck_doc = pack_state(
        fused, None, None, restored.run_cfg, restored.seed, step=restored.step, fused=True
    )
    _ensure_parent(args.out)
    save_checkpoint(args.out, ck_tensors, ck_doc)
    print(f"wrote fused checkpoint {args.out}")
    return 0


def cmd_eval(args) -> int:
    tensors, doc = load_checkpoint(args.ckpt)
    restored = unpack_state(tensors, doc)
    ds = _load_dataset(args.data, restored.run_cfg)
    episode = sample_few_shot(ds, restored.run_cfg.training.shots, restored.seed)
    if args.split == "base":
        images, labels, tokens = episode.base_eval_images, episode.base_eval_labels, episode.base_tokens
    else:
        images, labels, tokens = episode.novel_eval_images, episode.novel_eval_labels, episode.novel_tokens
    if images.shape[0] == 0:
        raise ConfigError(f"split {args.split!r} has no evaluation samples")
    acc = evaluate(restored.model, restored.sites, images, labels, tokens)
    print(f"split={args.split} n={images.shape[0]} accuracy={acc:.4f}")
    return 0


def _gradcheck_reports(run_cfg: RunConfig, seed: int, frozen: DualEncoder | None = None) -> list[CheckReport]:
    """Gradient fidelity on the frozen model (built unless given) cast to f64, driven by the full objective."""
    enc = run_cfg.encoder
    t = run_cfg.training
    model = (_build_model(run_cfg, seed) if frozen is None else frozen).astype(np.float64)
    sites = run_cfg.sites(rngmod.derive(seed, "gradcheck-sites"), np.float64)
    randomize_sites(sites, rngmod.derive(seed, "gradcheck-perturb"))

    gen = rngmod.derive(seed, "gradcheck-data")
    n_classes = 2
    n_batch = 2
    tokens = [[1, 2 + c] for c in range(n_classes)]
    images = gen.standard_normal((n_batch, enc.N_v, enc.d_v))
    labels = np.asarray([i % n_classes for i in range(n_batch)])

    frozen_txt = text_forward(tokens, model).data
    frozen_img = image_forward(images, model).data

    def loss_of_params(values) -> Tensor:
        # plain values give one loss, stacked (K, *shape) values give K
        scalings = build_scaling_map(sites, values)
        txt = text_forward(tokens, model, scalings)
        img = image_forward(images, model, scalings)
        ce = ce_loss(img, txt, labels, t.temperature)
        rv, rt = reg_losses(img, frozen_img, txt, frozen_txt)
        return total_loss(ce, rv, rt, t.lam)

    return gradient_check(model, sites, loss_of_params, h=1e-5, seed=seed)


def cmd_gradcheck(args) -> int:
    run_cfg = _load_run_config(args.config)
    seed = _resolve_seed(args, run_cfg)
    reports = _gradcheck_reports(run_cfg, seed)
    for r in reports:
        print(r.human_line())
    return 0 if all(r.passed for r in reports) else 1


def cmd_check(args) -> int:
    run_cfg = _load_run_config(args.config)
    seed = _resolve_seed(args, run_cfg)
    reports: list[CheckReport] = []

    for flag, value in (("--models", args.models), ("--fusion-trials", args.fusion_trials)):
        if value < 0:
            raise ConfigError(f"{flag} must be non-negative, got {value}")

    # identity at init over several random toy models, all modes: the worst report, with the totals
    reps = [
        check_identity_at_init(random_toy_model(seed + i, np.float64), tuple(CouplingMode), n_inputs=2, seed=seed + i)
        for i in range(args.models)
    ]
    blank = CheckReport(name="identity_at_init", worst_error=0.0, tolerance=0.0, trials=0, seed=seed)
    worst = max(reps, key=lambda r: r.worst_error, default=blank)
    reports.append(replace(worst, trials=sum(r.trials for r in reps), seed=seed))

    # fusion equivalence with randomized agents, both precisions, on one frozen model cast to each
    frozen = _build_model(run_cfg, seed)
    for label, tol in FUSION_TOL.items():
        model = frozen.astype(replace(run_cfg, precision=label).dtype)
        worst_err = 0.0
        for trial in range(args.fusion_trials):
            sites = run_cfg.sites(rngmod.derive(seed, "check-fusion-sites", label, trial), model.dtype)
            randomize_sites(sites, rngmod.derive(seed, "check-fusion-perturb", label, trial))
            rep = check_fusion_equivalence(model, sites, n_inputs=1, tol=tol, seed=seed + trial)
            worst_err = max(worst_err, rep.worst_error)
        reports.append(
            CheckReport(
                name=f"fusion_equivalence[{label}]",
                worst_error=worst_err,
                tolerance=tol,
                trials=args.fusion_trials,
                seed=seed,
            )
        )

    reports.extend(_gradcheck_reports(run_cfg, seed, frozen))
    reports.append(check_counter_agreement(*run_cfg.layout, seed=seed))

    for r in reports:
        print(r.human_line())
    if args.csv:
        _write(args.csv, "\n".join([CHECK_CSV_HEADER] + [r.csv_row() for r in reports]) + "\n")
        print(f"wrote {args.csv}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_count_params(args) -> int:
    total, breakdown = count_trainable_params(*_load_run_config(args.config).layout)
    print(total)
    if args.breakdown:
        for site, n in breakdown.items():
            print(f"{site},{n}")
    return 0


def cmd_report_norms(args) -> int:
    tensors, doc = load_checkpoint(args.ckpt)
    restored = unpack_state(tensors, doc)
    if restored.sites is None:
        raise CheckpointError("fused checkpoint carries no agent sites to report on")
    mode = restored.run_cfg.training.mode
    if mode != CouplingMode.BIDIRECTIONAL:
        raise ConfigError(f"report-norms needs a bidirectional checkpoint, got mode {mode.value!r}")
    lines = ["block,position,side,norm"]
    for key, site in restored.sites.items():
        blk = "final" if key.block is None else str(key.block)
        for side in ("image", "text"):
            lines.append(f"{blk},{key.pos},{side},{bridge_norm(site, side):.10g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="mailpp",
        description="Agent-layer adaptation on a toy dual encoder: train, fold, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        return p

    p = add("gen-data", cmd_gen_data, "generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output path (default: <out_dir>/dataset.bin)")
    p.add_argument("--seed", type=int)

    p = add("train", cmd_train, "adapt agent parameters on one episode")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="checkpoint path (default: <out_dir>/trained.ckpt)")
    p.add_argument("--seed", type=int)

    p = add("fuse", cmd_fuse, "fold trained agents into the frozen weights")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)

    p = add("eval", cmd_eval, "classification accuracy on a dataset split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("base", "novel"), required=True)

    p = add("gradcheck", cmd_gradcheck, "backward vs central finite differences")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)

    p = add("check", cmd_check, "run the full oracle suite")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--models", type=int, default=25, help="random toy models for the identity check")
    p.add_argument("--fusion-trials", type=int, default=100)
    p.add_argument("--csv", help="also write reports to this CSV file")

    p = add("count-params", cmd_count_params, "closed-form trainable parameter count")
    p.add_argument("--config", required=True)
    p.add_argument("--breakdown", action="store_true")

    p = add("report-norms", cmd_report_norms, "scaled coupling-term norms per site")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out")

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, NonFiniteError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()

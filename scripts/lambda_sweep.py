#!/usr/bin/env python3
"""Sweep the feature-anchoring weight and report final feature drift.

Drift is 1 - mean cosine between adapted and frozen features; a larger
regularization weight should pin adapted features closer to the frozen
model on both modalities.
"""

import argparse
import dataclasses

from mailpp import rng
from mailpp.config import RunConfig
from mailpp.encoder import init_dual_encoder
from mailpp.training import gen_synthetic, sample_few_shot, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--lambdas", type=float, nargs="+", default=[0.0, 1.0, 10.0])
    args = ap.parse_args()

    run_cfg = RunConfig()
    ds = gen_synthetic(
        C=run_cfg.training.classes,
        k_pool=run_cfg.data.pool_per_class,
        noise=run_cfg.data.noise,
        seed=args.seed,
        dims=(run_cfg.encoder.N_v, run_cfg.encoder.d_v),
    )
    episode = sample_few_shot(ds, run_cfg.training.shots, args.seed)

    print(f"{'lambda':>8}  {'train':>6}  {'drift_img':>9}  {'drift_txt':>9}  {'L_ce final':>10}")
    for lam in args.lambdas:
        model = init_dual_encoder(run_cfg.encoder, rng.derive(args.seed, "frozen-weights"), run_cfg.dtype)
        tcfg = dataclasses.replace(run_cfg.training, lam=lam, steps=args.steps)
        sites = dataclasses.replace(run_cfg, training=tcfg).sites(rng.derive(args.seed, "sites"))
        state = train(model, sites, tcfg, episode, args.seed)
        dv, dt = state.feature_drift
        print(
            f"{lam:8.2f}  {state.final_train_accuracy:6.3f}  {dv:9.5f}  {dt:9.5f}"
            f"  {state.metrics[-1].l_ce:10.5f}"
        )


if __name__ == "__main__":
    main()

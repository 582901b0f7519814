#!/usr/bin/env python3
"""Run the same synthetic episode under every coupling mode.

Prints a small table: final train accuracy, held-out base/novel accuracy,
and (for the bidirectional run) the range of scaled coupling norms. This
is the information-flow-direction experiment at toy scale.
"""

import argparse
import dataclasses
import time

from mailpp import rng
from mailpp.agents import CouplingMode, bridge_norm
from mailpp.config import RunConfig
from mailpp.encoder import init_dual_encoder
from mailpp.training import evaluate, gen_synthetic, sample_few_shot, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=300)
    args = ap.parse_args()

    run_cfg = RunConfig()
    model = init_dual_encoder(run_cfg.encoder, rng.derive(args.seed, "frozen-weights"), run_cfg.dtype)
    ds = gen_synthetic(
        C=run_cfg.training.classes,
        k_pool=run_cfg.data.pool_per_class,
        noise=run_cfg.data.noise,
        seed=args.seed,
        dims=(run_cfg.encoder.N_v, run_cfg.encoder.d_v),
    )
    episode = sample_few_shot(ds, run_cfg.training.shots, args.seed)
    frozen = evaluate(model, None, episode.train_images, episode.train_labels, episode.base_tokens)
    print(f"frozen model train accuracy: {frozen:.3f} (chance {1.0 / episode.num_base:.3f})")
    print(f"{'mode':>16}  {'train':>6}  {'base':>6}  {'novel':>6}  {'secs':>5}")

    for mode in CouplingMode:
        tcfg = dataclasses.replace(run_cfg.training, mode=mode, steps=args.steps)
        sites = dataclasses.replace(run_cfg, training=tcfg).sites(rng.derive(args.seed, "sites"))
        t0 = time.monotonic()
        state = train(model, sites, tcfg, episode, args.seed)
        secs = time.monotonic() - t0
        base = evaluate(model, sites, episode.base_eval_images, episode.base_eval_labels, episode.base_tokens)
        novel = evaluate(model, sites, episode.novel_eval_images, episode.novel_eval_labels, episode.novel_tokens)
        print(f"{mode.value:>16}  {state.final_train_accuracy:6.3f}  {base:6.3f}  {novel:6.3f}  {secs:5.0f}")
        if mode == CouplingMode.BIDIRECTIONAL:
            nv = [bridge_norm(s, "image") for s in sites.values()]
            nt = [bridge_norm(s, "text") for s in sites.values()]
            print(
                f"{'':>16}  coupling norms: image [{min(nv):.2f}, {max(nv):.2f}],"
                f" text [{min(nt):.2f}, {max(nt):.2f}]"
            )


if __name__ == "__main__":
    main()

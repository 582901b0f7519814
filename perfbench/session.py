"""One benchmark run: a mailpp session driven through the public API.

The operations are the calls the ``mailpp`` CLI makes: set-up as
``gen-data`` and ``train`` do it, ``train``, the checkpoint round trip
behind ``train``/``fuse``/``eval``, ``fuse`` with its equivalence check,
``eval`` on the hooked and on the fused model, and ``check``. One caller
runs them in a closed loop, interleaved, each getting its share of the
run's seconds, and checks every result: a result that fails a check, or
an operation that raises, counts as failed.

Each timing is the median of the run's samples, and the step time also
has a tail. On a shared machine, spells of contention slow every sample
they cover by up to about 1.5x and come and go within seconds to minutes;
interleaving spreads every operation's samples over the whole run, so a
spell weighs on all of them alike instead of on whichever phase it hits.
A calibration kernel (``calib.py``) is interleaved the same way, and each
sample is taken to the kernel's reference speed at the moment it was
measured, which cancels most of a spell's effect, however long it lasts.

Run as a script (``python3 perfbench/session.py <workload> <seed>``) it
only sets up, which is how ``setup_s`` is timed in a fresh process.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

# relative tolerance on the recorded first and final loss: f32 runs differ
# from f64 runs of the same trajectory by under 1e-5, a 1% change of the
# learning rate moves the final loss by about 2e-3
LOSS_RTOL = {"f32": 1e-4, "f64": 1e-9}
FUSION_TOL = {"f32": 1e-5, "f64": 1e-10}
CHECK_REPORTS = (
    "identity_at_init",
    "fusion_equivalence[f64]",
    "fusion_equivalence[f32]",
    "grad_fd[a]",
    "grad_fd[b]",
    "grad_fd[w_up]",
    "grad_fd[w_down]",
    "grad_fd[a_m]",
    "param_count_agreement[bidirectional]",
)
# the step-time tail; a run times at least min_samples(TAIL_PERCENTILE) steps
TAIL_PERCENTILE = 90
# "calib" times the calibration kernel; it is not a mailpp operation
OPS = ("train", "ckpt", "fuse", "eval", "fused_eval", "check", "calib", "setup")
# how far past its seconds a run may go to collect its minimum samples
HARD_EXTRA_S = 60.0
# the calibration passes nearest in time to a sample that give its speed
NEAREST_PASSES = 15


class SourceMissing(RuntimeError):
    pass


def import_mailpp():
    """Import mailpp from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "mailpp" / "__init__.py").is_file():
        raise SourceMissing(f"no mailpp sources under {src}")
    sys.path.insert(0, str(src))
    import mailpp

    if Path(mailpp.__file__).resolve().parent != (src / "mailpp").resolve():
        raise SourceMissing(f"imported mailpp from {mailpp.__file__}, not from {src}")
    return mailpp


def min_samples(percentile: float) -> int:
    """Fewest samples that leave at least ten beyond the percentile (nearest rank)."""
    n = 1
    while n - math.ceil(percentile / 100 * n) < 10:
        n += 1
    return n


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def _same_tensors(a: dict, b: dict) -> bool:
    if list(a) != list(b):
        return False
    for name, x in a.items():
        y = b[name]
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return True


class Session:
    """The inputs of one workload and seed, and the operations run on them."""

    def __init__(self, workload: str, seed: int, spec: dict | None = None):
        import numpy as np

        from mailpp.config import parse_config

        self.workload = workload
        self.spec = spec if spec is not None else SPEC["workloads"][workload]
        self.seed = seed
        # mailpp only sees the episode drawn from the workload seed
        self.episode_seed = seed % SPEC["episodes"]
        # an installed spans.Tracer, set before any operation runs
        self.tracer = None
        self.run_cfg = parse_config(json.dumps(self.spec["config"]))
        self.precision = self.run_cfg.precision
        self.dtype = np.float64 if self.precision == "f64" else np.float32
        self.steps = self.run_cfg.training.steps
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.trajectory = None
        self.state = None
        self.restored = None
        self.fused = None
        self.accuracies = None
        self.ckpt_bytes = 0
        self.call_step_ms: list[list[float]] = []
        # the run-clock moment of each train() call, for its steps' speed
        self.call_mid: list[float] = []
        # files of this process only, so that runs sharing a checkout cannot collide
        OUT.mkdir(exist_ok=True)
        self.ckpt_path = OUT / f"{workload}-{os.getpid()}.ckpt"
        self.check_config_path = OUT / f"{workload}-{os.getpid()}.check.json"

    # ---- set-up ------------------------------------------------------

    def setup(self) -> None:
        """Model, sites, data, episode, and a one-step training warm-up."""
        from mailpp import rng
        from mailpp.encoder import init_dual_encoder
        from mailpp.training import gen_synthetic, sample_few_shot, train

        cfg, s = self.run_cfg, self.episode_seed
        self.model = init_dual_encoder(cfg.encoder, rng.derive(s, "frozen-weights"), self.dtype)
        data = gen_synthetic(
            C=cfg.training.classes,
            k_pool=cfg.data.pool_per_class,
            noise=cfg.data.noise,
            seed=s,
            dims=(cfg.encoder.N_v, cfg.encoder.d_v),
            text_len=cfg.data.text_len,
            dtype=self.dtype,
        )
        self.episode = sample_few_shot(data, cfg.training.shots, s)
        self.eval_images = self.episode.base_eval_images.shape[0] + self.episode.novel_eval_images.shape[0]
        train(self.model, self.fresh_sites(), replace(cfg.training, steps=1), self.episode, s)

    def close(self) -> None:
        """Remove the files the operations wrote."""
        self.ckpt_path.unlink(missing_ok=True)
        self.check_config_path.unlink(missing_ok=True)

    def setup_once(self):
        """Set-up in a fresh process, timed from outside: imports included."""
        t0 = time.perf_counter()
        # a blocking wait: Popen.wait with a timeout polls every 50 ms
        code = subprocess.Popen(
            [sys.executable, str(HERE / "session.py"), self.workload, str(self.seed)],
            stdout=subprocess.DEVNULL,
        ).wait()
        seconds = time.perf_counter() - t0
        return seconds, True if code == 0 else f"setup: exit code {code}"

    def fresh_sites(self):
        from mailpp import rng
        from mailpp.agents import build_sites

        t = self.run_cfg.training
        return build_sites(
            self.run_cfg.encoder,
            t.mode,
            t.rank,
            t.d_m,
            rng.derive(self.episode_seed, "sites"),
            self.dtype,
            t.bridge_shift,
            t.positions,
        )

    # ---- bookkeeping -----------------------------------------------------

    def attempt(self, what: str, fn) -> float | None:
        """Run one operation; return its seconds, or None if it failed."""
        self.attempted += 1
        try:
            seconds, ok = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            seconds, ok = None, f"{what} raised"
        if ok is not True:
            self.failed += 1
            self.failures.append(ok if isinstance(ok, str) else what)
            return None
        return seconds

    # ---- operations ------------------------------------------------------

    def calibrate(self) -> float:
        """Seconds of one calibration pass; never fails, never counted as attempted."""
        t0 = time.perf_counter()
        calib.kernel()
        return time.perf_counter() - t0

    def train_once(self):
        from mailpp.training import train

        sites = self.fresh_sites()
        timed = len(self.tracer.unit_times("step")[0])
        self.tracer.expect_steps(self.steps)
        t0 = time.perf_counter()
        state = train(self.model, sites, self.run_cfg.training, self.episode, self.episode_seed)
        seconds = time.perf_counter() - t0
        self.tracer.begin_unit("idle")
        self.call_step_ms.append([t * 1e3 for t in self.tracer.unit_times("step")[0][timed:]])
        self.call_mid.append(t0 + seconds / 2)
        losses = [row.l_total for row in state.metrics]
        ok = self.check_losses(losses)
        if ok is True:
            self.state = state
        return seconds, ok

    def check_losses(self, losses: list[float]):
        if len(losses) != self.steps or not all(math.isfinite(x) for x in losses):
            return "train: loss trajectory is not finite"
        if self.trajectory is None:
            self.trajectory = losses
        elif losses != self.trajectory:
            return "train: trajectory differs between repetitions of one seed"
        ref = REFERENCE.get(self.workload, {}).get(str(self.episode_seed))
        if ref is None:
            return f"train: no recorded loss for {self.workload} episode {self.episode_seed}"
        rtol = LOSS_RTOL[self.precision]
        for got, want, label in ((losses[0], ref["first"], "first"), (losses[-1], ref["final"], "final")):
            if abs(got - want) > rtol * abs(want):
                return f"train: {label} loss {got!r} differs from recorded {want!r} by more than {rtol}"
        return True

    def ckpt_once(self):
        from mailpp.checkpoint import load_checkpoint, save_checkpoint
        from mailpp.state import pack_state, unpack_state

        self.tracer.begin_unit("ckpt")
        state = self.state
        t0 = time.perf_counter()
        tensors, doc = pack_state(self.model, state.sites, state.opt_state, self.run_cfg, self.episode_seed, step=state.steps_run)
        save_checkpoint(self.ckpt_path, tensors, doc)
        loaded, loaded_doc = load_checkpoint(self.ckpt_path)
        restored = unpack_state(loaded, loaded_doc)
        seconds = time.perf_counter() - t0
        self.tracer.begin_unit("idle")
        self.ckpt_bytes = self.ckpt_path.stat().st_size
        same_doc = json.dumps(loaded_doc, sort_keys=True) == json.dumps(doc, sort_keys=True)
        if not same_doc or not _same_tensors(tensors, loaded):
            return seconds, "ckpt: loaded checkpoint differs from the saved one"
        repacked, _ = pack_state(
            restored.model, restored.sites, restored.opt_state, restored.run_cfg, restored.seed, step=restored.step
        )
        if not _same_tensors(tensors, repacked):
            return seconds, "ckpt: unpacked state differs from the trained one"
        self.restored = restored
        return seconds, True

    def fuse_once(self):
        from mailpp.agents import fuse_model
        from mailpp.verify import check_fusion_equivalence

        self.tracer.begin_unit("fuse")
        r = self.restored
        tol = FUSION_TOL[self.precision]
        t0 = time.perf_counter()
        fused = fuse_model(r.model, r.sites)
        report = check_fusion_equivalence(r.model, r.sites, n_inputs=8, tol=tol, seed=r.seed, fused=fused)
        seconds = time.perf_counter() - t0
        self.tracer.begin_unit("idle")
        if not report.passed or report.tolerance != tol or report.trials != 8:
            return seconds, f"fuse: {report.human_line()}"
        self.fused = fused
        return seconds, True

    def _evaluate(self, model, sites):
        from mailpp.training import evaluate

        ep = self.episode
        t0 = time.perf_counter()
        base = evaluate(model, sites, ep.base_eval_images, ep.base_eval_labels, ep.base_tokens)
        novel = evaluate(model, sites, ep.novel_eval_images, ep.novel_eval_labels, ep.novel_tokens)
        return time.perf_counter() - t0, (base, novel)

    def eval_once(self):
        self.tracer.begin_unit("eval")
        r = self.restored
        seconds, accs = self._evaluate(r.model, r.sites)
        self.tracer.begin_unit("idle")
        if self.accuracies is None:
            self.accuracies = accs
        elif accs != self.accuracies:
            return seconds, "eval: hooked accuracy differs between repetitions"
        return seconds, True

    def fused_eval_once(self):
        self.tracer.begin_unit("fused_eval")
        seconds, accs = self._evaluate(self.fused, None)
        self.tracer.begin_unit("idle")
        if accs != self.accuracies:
            return seconds, f"fused eval: accuracy {accs} differs from hooked {self.accuracies}"
        return seconds, True

    def check_once(self):
        from mailpp.cli import run as cli_run

        if not self.check_config_path.exists():
            self.check_config_path.write_text(json.dumps(SPEC["check_config"]), encoding="utf-8")
        argv = ["check", "--config", str(self.check_config_path), "--seed", str(self.episode_seed)]
        argv += SPEC["check_flags"]
        out = io.StringIO()
        self.tracer.begin_unit("check")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli_run(argv)
        seconds = time.perf_counter() - t0
        self.tracer.begin_unit("idle")
        reports = {}
        for line in out.getvalue().splitlines():
            status, _, rest = line.partition("  ")
            if status in ("PASS", "FAIL"):
                reports[rest.split(":", 1)[0]] = (status, line)
        for status, line in reports.values():
            if status != "PASS" or "[no trials]" in line:
                return seconds, f"check: {line}"
        for name in CHECK_REPORTS:
            if name not in reports:
                return seconds, f"check: no report for {name}"
        if code != 0:
            return seconds, f"check: exit code {code}"
        return seconds, True

    # ---- the schedule ----------------------------------------------------

    def run_schedule(self, seconds: float, ops: tuple[str, ...] = OPS, min_steps: int = 0) -> dict:
        """Interleave the operations for ``seconds``; returns each one's samples.

        A sample is ``(moment, seconds)``: the run-clock time halfway
        through the operation, and how long it took.

        The next operation is always the ready one furthest behind its
        share of the time, so every operation is sampled across the whole
        run and a slow spell of a shared machine falls on all of them
        alike. The run ends when the next operation would overrun, once
        every operation has a sample and ``min_steps`` steps are timed; a
        failure ends that wait, and so does a hard limit.
        """
        run = {
            "train": (self.train_once, lambda: True),
            "ckpt": (self.ckpt_once, lambda: self.state is not None),
            "fuse": (self.fuse_once, lambda: self.restored is not None),
            "eval": (self.eval_once, lambda: self.restored is not None),
            "fused_eval": (self.fused_eval_once, lambda: self.fused is not None and self.accuracies is not None),
            "check": (self.check_once, lambda: True),
            "calib": (self.calibrate, lambda: True),
            "setup": (self.setup_once, lambda: True),
        }
        share = self.spec["share"]
        spent = dict.fromkeys(ops, 0.0)
        last = dict.fromkeys(ops, 0.0)
        samples: dict[str, list[tuple[float, float]]] = {op: [] for op in ops}
        start = time.perf_counter()
        while True:
            ready = [op for op in ops if run[op][1]()]
            op = min(ready, key=lambda o: (spent[o] / share[o], ops.index(o)))
            elapsed = time.perf_counter() - start
            complete = all(samples.values()) and sum(map(len, self.call_step_ms)) >= min_steps
            if elapsed + last[op] > seconds:
                if complete or self.failed or elapsed > seconds + HARD_EXTRA_S:
                    return samples
                if all(samples.values()):  # only steps are missing
                    op = "train"
            t0 = time.perf_counter()
            result = self.calibrate() if op == "calib" else self.attempt(op, run[op][0])
            last[op] = time.perf_counter() - t0
            spent[op] += last[op]
            if result is not None:
                samples[op].append((t0 + last[op] / 2, result))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Speed:
    """The machine's speed over a run, read off its calibration passes."""

    def __init__(self, passes: list[tuple[float, float]]):
        self.passes = passes

    def calibration_ms(self) -> float:
        return median([s for _, s in self.passes]) * 1e3

    def scale(self) -> float:
        """The factor that takes a time measured in this run to the reference speed."""
        return calib.REFERENCE_MS / self.calibration_ms()

    def scale_at(self, moment: float) -> float:
        """The same factor from the passes nearest ``moment`` alone."""
        near = heapq.nsmallest(NEAREST_PASSES, self.passes, key=lambda p: abs(p[0] - moment))
        return calib.REFERENCE_MS / (median([s for _, s in near]) * 1e3)


def timings(session: Session, samples: dict, scale_at) -> dict:
    """The end-to-end metrics, each sample measured at moment t multiplied by ``scale_at(t)``."""
    n_img = session.eval_images
    steps = [ms * scale_at(t) for t, call in zip(session.call_mid, session.call_step_ms) for ms in call]
    med = {op: median([s * scale_at(t) for t, s in v]) for op, v in samples.items()}
    return {
        "setup_s": (med["setup"], "s"),
        "train_step_ms_p50": (median(steps), "ms"),
        "train_step_ms_tail": (nearest_rank(steps, TAIL_PERCENTILE) if steps else 0.0, "ms"),
        "eval_images_per_s": (n_img / med["eval"] if med["eval"] else 0.0, "1/s"),
        "fused_eval_images_per_s": (n_img / med["fused_eval"] if med["fused_eval"] else 0.0, "1/s"),
        "fuse_s": (med["fuse"], "s"),
        "ckpt_roundtrip_ms": (med["ckpt"] * 1e3, "ms"),
        "check_s": (med["check"], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def end_to_end(session: Session, samples: dict) -> tuple[dict, dict]:
    """The end-to-end metrics at the reference speed, and the facts a reader needs to interpret them."""
    steps = [ms for call in session.call_step_ms for ms in call]
    speed = Speed(samples["calib"])
    metrics = timings(session, samples, speed.scale_at)
    raw = timings(session, samples, lambda t: 1.0)
    facts = {
        "calibration_ms": speed.calibration_ms(),
        "reference_scale": speed.scale(),
        "raw": {name: value for name, (value, _unit) in raw.items()},
        "tail_percentile": TAIL_PERCENTILE,
        "steps": len(steps),
        "train_calls": len(session.call_step_ms),
        "samples": {op: len(v) for op, v in samples.items()},
        "eval_images_per_pass": session.eval_images,
        "checkpoint_bytes": session.ckpt_bytes,
        "samples_s": samples,
        "call_step_ms": session.call_step_ms,
        "call_mid": session.call_mid,
    }
    return metrics, facts


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    import_mailpp()
    Session(workload, seed).setup()
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main(sys.argv[1:]))

"""Spans and counters recorded around calls into mailpp's public functions.

Nothing here reaches inside ``src/``: each traced function is replaced,
for the duration of a run, by a wrapper at every module attribute that
holds it, so a caller that imported the function by name (``training``
imports ``text_forward``; ``cli`` imports the ``verify`` checks) calls the
wrapper too. ``Tracer.restore`` puts every original back.

Work is grouped into units: one training step, one ``mailpp check`` run,
one checkpoint round trip and so on. The benchmark opens a unit before
each piece of work; inside ``train()`` the wrapper around ``adamw_step``
opens the next step's unit when a step's update returns, so a step unit
holds the previous step's parameter write-back and this step's forward,
loss, backward and update. With ``spans=False`` only that step clock is
installed, which is what the untraced run uses to time steps.
"""

from __future__ import annotations

import gc
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

# autodiff functions that are not primitives: no span, no count
_NOT_PRIMITIVES = {"tensor", "causal_mask"}
# primitives reported under their own name; every other one is "other"
NAMED_OPS = (
    "linear",
    "layernorm",
    "attention_core",
    "affine",
    "gelu",
    "add",
    "row",
    "stack_rows",
    "l2_normalize",
    "softmax",
)

TRACED = {
    "encoder": ("text_forward", "image_forward"),
    "agents": ("build_scaling_map", "fuse_model"),
    "training": ("train", "ce_loss", "reg_losses", "adamw_step", "evaluate"),
    "verify": (
        "check_identity_at_init",
        "check_fusion_equivalence",
        "gradient_check",
        "finite_diff_grad",
        "check_counter_agreement",
    ),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "state": ("pack_state", "unpack_state"),
}


def _primitives(ad) -> list[str]:
    return sorted(
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn)
        and fn.__module__ == ad.__name__
        and not name.startswith("_")
        and name not in _NOT_PRIMITIVES
    )


class Tracer:
    """Install with ``install()``; always ``restore()`` (use it as a context manager)."""

    def __init__(self, spans: bool = True):
        self.spans_on = spans
        # span: [name, start, end, parent, unit, child_time, n]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.units: list[dict] = []
        self.tensor_new: dict[int, int] = defaultdict(int)
        self._steps_left = 0
        self._gc_start = 0.0

    # ---- units -------------------------------------------------------

    @property
    def unit(self) -> int:
        return len(self.units) - 1

    def begin_unit(self, kind: str) -> None:
        now, cpu = time.perf_counter(), time.process_time()
        self._close_unit(now, cpu)
        self.units.append({"kind": kind, "start": now, "cpu_start": cpu, "end": None, "cpu_end": None})

    def _close_unit(self, now: float, cpu: float) -> None:
        if self.units and self.units[-1]["end"] is None:
            self.units[-1]["end"] = now
            self.units[-1]["cpu_end"] = cpu

    def end_units(self) -> None:
        self._close_unit(time.perf_counter(), time.process_time())

    def expect_steps(self, steps: int) -> None:
        """Call before train(): its first unit holds set-up and step 1, its last the final pass."""
        self._steps_left = steps
        self.begin_unit("train-pre")

    def unit_times(self, kind: str) -> tuple[list[float], list[float]]:
        """Wall and CPU seconds of every closed unit of one kind."""
        wall, cpu = [], []
        for u in self.units:
            if u["kind"] == kind and u["end"] is not None:
                wall.append(u["end"] - u["start"])
                cpu.append(u["cpu_end"] - u["cpu_start"])
        return wall, cpu

    # ---- patching ----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mailpp" or mod_name.startswith("mailpp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self) -> "Tracer":
        # every module that imports a traced name must be loaded before
        # patching, or it would bind a wrapper that restore() cannot see
        import mailpp.agents
        import mailpp.autodiff as ad
        import mailpp.checkpoint
        import mailpp.cli  # noqa: F401
        import mailpp.encoder
        import mailpp.state
        import mailpp.training
        import mailpp.verify

        mods = {
            "encoder": mailpp.encoder,
            "agents": mailpp.agents,
            "training": mailpp.training,
            "verify": mailpp.verify,
            "checkpoint": mailpp.checkpoint,
            "state": mailpp.state,
        }
        step_fn = mods["training"].adamw_step
        wrapped_step = self._span("training.adamw_step", step_fn) if self.spans_on else step_fn
        self._patch_everywhere(step_fn, self._step_clock(wrapped_step))
        if not self.spans_on:
            return self
        for mod_key, names in TRACED.items():
            for name in names:
                if mod_key == "training" and name == "adamw_step":
                    continue
                fn = getattr(mods[mod_key], name)
                self._patch_everywhere(fn, self._span(f"{mod_key}.{name}", fn))
        for name in _primitives(ad):
            fn = getattr(ad, name)
            self._patch_everywhere(fn, self._span(f"autodiff.{name}", fn, rows=name == "linear"))
        self._patch(ad.Tape, "backward", self._span("autodiff.backward", ad.Tape.backward, records=True))
        site_cls = mailpp.agents.CoupledAgentSite
        self._patch(site_cls, "set_param", self._span("agents.set_param", site_cls.set_param))
        self._patch(ad.Tensor, "__init__", self._count_new(ad.Tensor.__init__))
        gc.callbacks.append(self._on_gc)
        return self

    def restore(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.end_units()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # ---- wrappers ----------------------------------------------------

    def _step_clock(self, fn):
        def adamw_step(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._steps_left -= 1
            self.begin_unit("step" if self._steps_left > 0 else "train-tail")
            return out

        return adamw_step

    def _span(self, name: str, fn, rows: bool = False, records: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            n = 0
            if rows:  # rows fed to linear(x, w, b): every axis of x but the last
                n = 1
                for dim in (args[0] if args else kwargs["x"]).shape[:-1]:
                    n *= dim
            elif records:
                n = args[0].num_records
            rec = [name, clock(), 0.0, parent, len(self.units) - 1, 0.0, n]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                rec[2] = end
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_new(self, init):
        counts = self.tensor_new

        def __init__(tensor, *args, **kwargs):
            counts[len(self.units) - 1] += 1
            init(tensor, *args, **kwargs)

        return __init__

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
            return
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(["runtime.gc", self._gc_start, now, parent, self.unit, 0.0, 0])
        if parent >= 0:
            self.spans[parent][5] += now - self._gc_start

    # ---- output --------------------------------------------------------

    def write_spans(self, path, run_id: str) -> None:
        """One JSON line per span: name, start, end, parent, run id, self time."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, unit, child, _n) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": f"{run_id}/{unit}",
                            "unit": self.units[unit]["kind"] if unit >= 0 else "none",
                            "self_ms": (end - start - child) * 1e3,
                        }
                    )
                    + "\n"
                )

    def totals(self, kinds: set[str]) -> dict[str, dict[str, float]]:
        """calls, inclusive ms, self ms and the summed size field per span name, over units of these kinds."""
        sel = {i for i, u in enumerate(self.units) if u["kind"] in kinds}
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "n": 0})
        for name, start, end, _parent, unit, child, n in self.spans:
            if unit in sel:
                t = out[name]
                t["calls"] += 1
                t["ms"] += (end - start) * 1e3
                t["self_ms"] += (end - start - child) * 1e3
                t["n"] += n
        out["autodiff.tensor_new"]["calls"] = sum(c for u, c in self.tensor_new.items() if u in sel)
        return out

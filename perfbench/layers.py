"""Per-layer metrics from a traced run.

Layers carry mailpp's module names. Work inside the workload's primary
unit (a training step on the train workloads, a ``mailpp check`` run on
``oracle``) is reported per unit: the autodiff primitives, the encoder
passes, the scaling-map build and write-back, the losses, AdamW and the
runtime (GC, CPU). Calls made in other phases are reported per call:
``fuse_model``, ``evaluate``, the ``verify`` checks, the checkpoint
container and the state packing. Autodiff times are self time (children
excluded); every other time includes the calls it makes. Every time is
given at the calibration kernel's reference speed, taken from the run's
median pass; ``trace.overhead_pct`` is a ratio of measured times.
"""

from __future__ import annotations

from session import median
from spans import NAMED_OPS


def per_layer(
    session, tracer, untraced: list[list[float]], traced: list[list[float]], scale: float
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; ``untraced`` and ``traced`` hold step times (ms) per train() call.

    ``scale`` takes a time of the traced run to the reference speed.
    """
    primary = session.spec["primary"]
    wall, cpu = tracer.unit_times(primary)
    n = max(1, len(wall))
    unit_totals = tracer.totals({primary})
    run_totals = tracer.totals({u["kind"] for u in tracer.units})

    def per_unit(name: str, field: str) -> float:
        return unit_totals[name][field] / n if name in unit_totals else 0.0

    def per_call(name: str) -> float:
        t = run_totals.get(name)
        return t["ms"] / t["calls"] if t and t["calls"] else 0.0

    m: dict[str, tuple[float, str]] = {}
    named = {f"autodiff.{op}" for op in NAMED_OPS}
    other_calls = other_ms = 0.0
    for name, t in unit_totals.items():
        if name.startswith("autodiff.") and name not in named and name not in ("autodiff.backward", "autodiff.tensor_new"):
            other_calls += t["calls"]
            other_ms += t["self_ms"]
    for op in NAMED_OPS:
        m[f"autodiff.{op}.calls"] = (per_unit(f"autodiff.{op}", "calls"), "count")
        m[f"autodiff.{op}.ms"] = (per_unit(f"autodiff.{op}", "self_ms"), "ms")
    m["autodiff.other.calls"] = (other_calls / n, "count")
    m["autodiff.other.ms"] = (other_ms / n, "ms")
    lin = unit_totals.get("autodiff.linear")
    m["autodiff.linear.rows_per_call"] = (lin["n"] / lin["calls"] if lin and lin["calls"] else 0.0, "rows")
    m["autodiff.backward.ms"] = (per_unit("autodiff.backward", "self_ms"), "ms")
    m["autodiff.tape_records"] = (per_unit("autodiff.backward", "n"), "count")
    m["autodiff.tensor_new.calls"] = (per_unit("autodiff.tensor_new", "calls"), "count")
    for fn in ("text_forward", "image_forward"):
        m[f"encoder.{fn}.calls"] = (per_unit(f"encoder.{fn}", "calls"), "count")
        m[f"encoder.{fn}.ms"] = (per_unit(f"encoder.{fn}", "ms"), "ms")
    m["agents.build_scaling_map.calls"] = (per_unit("agents.build_scaling_map", "calls"), "count")
    m["agents.build_scaling_map.ms"] = (per_unit("agents.build_scaling_map", "ms"), "ms")
    m["agents.set_param.ms"] = (per_unit("agents.set_param", "ms"), "ms")
    m["agents.fuse_model.ms"] = (per_call("agents.fuse_model"), "ms")
    for fn in ("ce_loss", "reg_losses", "adamw_step"):
        m[f"training.{fn}.ms"] = (per_unit(f"training.{fn}", "ms"), "ms")
    m["training.evaluate.ms"] = (per_call("training.evaluate"), "ms")
    for fn in (
        "check_identity_at_init",
        "check_fusion_equivalence",
        "gradient_check",
        "finite_diff_grad",
        "check_counter_agreement",
    ):
        m[f"verify.{fn}.ms"] = (per_call(f"verify.{fn}"), "ms")
    m["checkpoint.save_checkpoint.ms"] = (per_call("checkpoint.save_checkpoint"), "ms")
    m["checkpoint.load_checkpoint.ms"] = (per_call("checkpoint.load_checkpoint"), "ms")
    m["checkpoint.bytes"] = (float(session.ckpt_bytes), "bytes")
    m["state.pack_state.ms"] = (per_call("state.pack_state"), "ms")
    m["state.unpack_state.ms"] = (per_call("state.unpack_state"), "ms")
    m["runtime.gc.ms"] = (per_unit("runtime.gc", "ms"), "ms")
    m["runtime.gc.collections"] = (per_unit("runtime.gc", "calls"), "count")
    m["runtime.cpu_ms"] = (sum(cpu) * 1e3 / n, "ms")
    base = median([ms for call in untraced for ms in call])
    overhead = (median([ms for call in traced for ms in call]) / base - 1.0) * 100.0 if base else 0.0
    m["trace.overhead_pct"] = (overhead, "%")
    return {name: (value * scale if unit == "ms" else value, unit) for name, (value, unit) in m.items()}

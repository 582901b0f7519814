import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mailpp import rng
from mailpp.agents import CouplingMode, build_sites, named_params
from mailpp.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from mailpp.config import RunConfig
from mailpp.encoder import EncoderConfig, init_dual_encoder
from mailpp.state import pack_dataset, pack_state, unpack_dataset, unpack_state
from mailpp.training import adamw_init, gen_synthetic
from mailpp.verify import randomize_sites


def test_round_trip_bitwise(tmp_path):
    gen = rng.derive(0, "ckpt")
    tensors = {
        "a/one": gen.standard_normal((3, 4)).astype(np.float32),
        "b/two": gen.standard_normal(7),
        "c": np.asarray(3.25),
    }
    doc = {"kind": "test", "note": "hello", "n": 3}
    path = tmp_path / "t.bin"
    save_checkpoint(path, tensors, doc)
    loaded, doc2 = load_checkpoint(path)
    assert doc2 == doc
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].tobytes() == arr.tobytes()


def test_save_load_save_is_byte_stable(tmp_path):
    gen = rng.derive(1, "ckpt")
    tensors = {"x": gen.standard_normal(5), "y": gen.standard_normal((2, 2)).astype(np.float32)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, tensors, {"k": 1})
    t2, d2 = load_checkpoint(p1)
    save_checkpoint(p2, t2, d2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=20, deadline=None)
@given(
    st.dictionaries(
        st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12),
        st.tuples(
            st.sampled_from([np.float32, np.float64]),
            st.lists(st.integers(1, 4), min_size=0, max_size=3),
        ),
        min_size=1,
        max_size=5,
    ),
    st.integers(0, 2**31),
)
def test_round_trip_random_shapes(tmp_path_factory, specs, seed):
    gen = np.random.default_rng(seed)
    tensors = {name: gen.standard_normal(shape).astype(dt) for name, (dt, shape) in specs.items()}
    path = tmp_path_factory.mktemp("ck") / "t.bin"
    save_checkpoint(path, tensors, {"seed": seed})
    loaded, _ = load_checkpoint(path)
    for name, arr in tensors.items():
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].dtype == arr.dtype


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_newer_version_refused(tmp_path):
    path = tmp_path / "v.bin"
    path.write_bytes(MAGIC + struct.pack("<II", 99, 0) + struct.pack("<I", 2) + b"{}")
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_truncation_names_the_tensor(tmp_path):
    tensors = {"weights/alpha": np.ones(8)}
    path = tmp_path / "t.bin"
    save_checkpoint(path, tensors, {})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 30])  # cut inside the tensor payload
    with pytest.raises(CheckpointError, match="truncated.*weights/alpha"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_checkpoint(path, {"x": np.ones(2)}, {})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="dtype"):
        save_checkpoint(tmp_path / "t.bin", {"x": np.ones(2, dtype=np.int32)}, {})


def test_header_size_that_overflows_int64_is_a_checkpoint_error(tmp_path):
    # (2**32-1)**2 * 4 bytes wraps negative in int64 arithmetic
    blob = (
        MAGIC
        + struct.pack("<II", 1, 1)
        + struct.pack("<H", 4)
        + b"huge"
        + struct.pack("<BB", 0, 2)
        + struct.pack("<II", 2**32 - 1, 2**32 - 1)
        + b"\x00" * 16
        + struct.pack("<I", 2)
        + b"{}"
    )
    path = tmp_path / "huge.bin"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="truncated.*huge"):
        load_checkpoint(path)


def _fuzz_seed_blob(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("fuzz") / "seed.bin"
    tensors = {
        "w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "s": np.asarray(1.5),
        "v": np.linspace(-1.0, 1.0, 4),
    }
    save_checkpoint(path, tensors, {"kind": "test", "n": 1})
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_or_truncated_files_raise_only_checkpoint_error(tmp_path_factory, data):
    blob = _fuzz_seed_blob(tmp_path_factory)
    byte = st.one_of(st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF]), st.integers(0, 255))
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), byte), max_size=4))
    cut = data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    mutated = bytearray(blob)
    for i, value in edits:
        mutated[i] = value
    path = tmp_path_factory.mktemp("fuzz") / "mutated.bin"
    path.write_bytes(bytes(mutated[:cut]))
    try:
        load_checkpoint(path)
    except CheckpointError:
        return
    assert cut == len(blob), "a truncated file loaded"


def test_failed_save_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    import mailpp.checkpoint

    path = tmp_path / "t.bin"
    save_checkpoint(path, {"x": np.ones(2)}, {"v": 1})
    old = path.read_bytes()

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(mailpp.checkpoint.os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"x": np.zeros(3)}, {"v": 2})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]


# ------------------------------------------------------------------
# full state round trips


def _full_state(dtype=np.float32, mode=CouplingMode.BIDIRECTIONAL):
    cfg = EncoderConfig(L=1, d_t=8, d_v=12, n_heads=2, N_t=6, N_v=4, mlp_ratio=2, vocab_size=24)
    run_cfg = RunConfig(encoder=cfg, precision="f64" if dtype == np.float64 else "f32")
    import dataclasses

    run_cfg = dataclasses.replace(
        run_cfg, training=dataclasses.replace(run_cfg.training, mode=mode, rank=2, d_m=4, classes=8)
    )
    model = init_dual_encoder(cfg, rng.derive(5, "w"), dtype)
    sites = build_sites(cfg, mode, 2, 4, rng.derive(6, "s"), dtype)
    randomize_sites(sites, rng.derive(7, "p"))
    opt = adamw_init(np.concatenate([a.reshape(-1) for _, a in named_params(sites)]))
    opt.m[:] = rng.derive(8, "m").standard_normal(opt.m.size)
    opt.v[:] = rng.derive(8, "v").random(opt.v.size)
    return run_cfg, model, sites, opt


def test_packed_tensors_keep_the_layout_order_and_each_moment_its_own_slice():
    run_cfg, model, sites, opt = _full_state()
    tensors, _ = pack_state(model, sites, opt, run_cfg, seed=3, step=17)
    names = [name for name, _ in named_params(sites)]
    frozen = list(model.arrays)
    want = frozen + [f"agent/{n}" for n in names] + [f"opt/m/{n}" for n in names] + [f"opt/v/{n}" for n in names]
    assert list(tensors) == want
    offset = 0
    for name, arr in named_params(sites):
        for moment, flat in (("m", opt.m), ("v", opt.v)):
            assert np.array_equal(tensors[f"opt/{moment}/{name}"].reshape(-1), flat[offset : offset + arr.size])
        offset += arr.size
    assert offset == opt.m.size == opt.v.size


def test_state_round_trip(tmp_path):
    run_cfg, model, sites, opt = _full_state()
    tensors, doc = pack_state(model, sites, opt, run_cfg, seed=3, step=17)
    path = tmp_path / "s.bin"
    save_checkpoint(path, tensors, doc)
    loaded, doc2 = load_checkpoint(path)
    restored = unpack_state(loaded, doc2)
    assert restored.seed == 3 and restored.step == 17 and not restored.fused
    assert restored.run_cfg == run_cfg
    for (name, a), (name2, b) in zip(model.arrays.items(), restored.model.arrays.items()):
        assert name == name2 and np.array_equal(a, b) and a.dtype == b.dtype
    for key, site in sites.items():
        other = restored.sites[key]
        for (n1, a), (n2, b) in zip(site.params(), other.params()):
            assert n1 == n2 and np.array_equal(a, b)
    assert restored.opt_state is not None
    assert np.array_equal(restored.opt_state.m, opt.m)
    assert np.array_equal(restored.opt_state.v, opt.v)


def test_fused_state_round_trip(tmp_path):
    from mailpp.agents import fuse_model

    run_cfg, model, sites, _ = _full_state(np.float64, CouplingMode.TEXT_TO_IMAGE)
    fused = fuse_model(model, sites)
    tensors, doc = pack_state(fused, None, None, run_cfg, seed=1, step=5, fused=True)
    assert not any(n.startswith(("agent/", "opt/")) for n in tensors)
    path = tmp_path / "f.bin"
    save_checkpoint(path, tensors, doc)
    restored = unpack_state(*load_checkpoint(path))
    assert restored.fused and restored.sites is None and restored.opt_state is None
    for (name, a), (name2, b) in zip(fused.arrays.items(), restored.model.arrays.items()):
        assert name == name2 and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_unpacked_model_uses_the_loaded_arrays_in_layout_order():
    from mailpp.encoder import weight_shapes

    run_cfg, model, sites, opt = _full_state()
    tensors, doc = pack_state(model, sites, opt, run_cfg, seed=3)
    restored = unpack_state(tensors, doc)
    arrays = restored.model.arrays
    assert list(arrays) == [*weight_shapes(run_cfg.encoder, "text"), *weight_shapes(run_cfg.encoder, "image")]
    assert all(arrays[name] is tensors[name] for name in arrays)


def _first(tensors, prefix):
    return next(n for n in tensors if n.startswith(prefix))


# each edit returns the tensor name the error must give
_LAYOUT_FAULTS = {
    "f64 agent tensor in an f32 checkpoint": lambda t: _retype(t, _first(t, "agent/"), np.float64),
    "misshapen frozen weight": lambda t: _replace(t, "frozen/image/block0/attn/q/w", np.zeros((3, 3), np.float32)),
    "unknown agent tensor": lambda t: _replace(t, "agent/bogus", np.zeros(2, np.float32)),
    "f64 frozen position table": lambda t: _retype(t, "frozen/text/pos", np.float64),
    "misshapen optimizer moment": lambda t: _replace(t, _first(t, "opt/v/"), np.zeros((1, 1), np.float32)),
    "missing optimizer moment": lambda t: _drop(t, _first(t, "opt/v/")),
    "unknown optimizer tensor": lambda t: _replace(t, "opt/m/bogus", np.zeros(2, np.float32)),
}


def _retype(tensors, name, dtype):
    tensors[name] = tensors[name].astype(dtype)
    return name


def _drop(tensors, name):
    del tensors[name]
    return name


def _replace(tensors, name, arr):
    tensors[name] = arr
    return name


@pytest.mark.parametrize("fault", sorted(_LAYOUT_FAULTS))
def test_unpack_rejects_a_tensor_the_config_does_not_define(tmp_path, fault):
    run_cfg, model, sites, opt = _full_state()
    tensors, doc = pack_state(model, sites, opt, run_cfg, seed=0)
    tensors = dict(tensors)
    name = _LAYOUT_FAULTS[fault](tensors)
    path = tmp_path / "bad.bin"
    save_checkpoint(path, tensors, doc)
    with pytest.raises(CheckpointError, match=name.replace("[", ".").replace("]", ".")):
        unpack_state(*load_checkpoint(path))


def test_fused_checkpoint_with_agent_tensors_is_rejected(tmp_path):
    from mailpp.agents import fuse_model

    run_cfg, model, sites, _ = _full_state()
    tensors, doc = pack_state(fuse_model(model, sites), None, None, run_cfg, seed=1, fused=True)
    agent, _ = pack_state(model, sites, None, run_cfg, seed=1)
    name = _first(agent, "agent/")
    tensors[name] = agent[name]
    with pytest.raises(CheckpointError, match=name.replace("[", ".").replace("]", ".")):
        unpack_state(tensors, doc)


def test_missing_tensor_is_named(tmp_path):
    run_cfg, model, sites, opt = _full_state()
    tensors, doc = pack_state(model, sites, opt, run_cfg, seed=0)
    victim = next(n for n in tensors if n.startswith("agent/"))
    del tensors[victim]
    path = tmp_path / "m.bin"
    save_checkpoint(path, tensors, doc)
    with pytest.raises(CheckpointError, match=victim.replace("[", ".").replace("]", ".")):
        unpack_state(*load_checkpoint(path))


def test_dataset_round_trip(tmp_path):
    ds = gen_synthetic(6, 5, 0.1, seed=4, dims=(4, 10))
    tensors, doc = pack_dataset(ds)
    path = tmp_path / "d.bin"
    save_checkpoint(path, tensors, doc)
    ds2 = unpack_dataset(*load_checkpoint(path))
    assert np.array_equal(ds2.images, ds.images)
    assert np.array_equal(ds2.prototypes, ds.prototypes)
    assert ds2.tokens == ds.tokens
    assert ds2.base_classes == ds.base_classes
    assert ds2.novel_classes == ds.novel_classes


def test_kind_mismatch_detected(tmp_path):
    ds = gen_synthetic(4, 3, 0.1, seed=4, dims=(4, 10))
    tensors, doc = pack_dataset(ds)
    path = tmp_path / "d.bin"
    save_checkpoint(path, tensors, doc)
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        unpack_state(*load_checkpoint(path))

import json
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mailpp import rng
from mailpp.agents import CouplingMode, SiteKey, build_sites, named_params, trainable_param_count
from mailpp.checkpoint import config_bytes
from mailpp.cli import run as cli_run
from mailpp.config import ConfigError, DEFAULT_CONFIG_DOC, RunConfig, parse_config, parse_config_doc
from mailpp.encoder import ALL_POSITIONS, EncoderConfig, init_dual_encoder
from mailpp.state import pack_dataset
from mailpp.training import TrainingConfig, gen_synthetic
from mailpp.verify import check_counter_agreement


def test_minimal_document_gets_defaults():
    cfg = parse_config("{}")
    assert cfg.encoder.L == 2
    assert cfg.training.lam == 1.0
    assert cfg.training.mode == CouplingMode.BIDIRECTIONAL
    assert cfg.training.temperature == 0.07
    assert cfg.training.betas == (0.9, 0.999)
    assert cfg.precision == "f32"
    assert cfg.seed is None
    assert cfg.training.positions == ("1a", "1b", "2", "3", "4", "5")


def test_round_trip_through_doc():
    from mailpp.config import parse_config_doc

    cfg = parse_config(json.dumps(DEFAULT_CONFIG_DOC))
    assert parse_config_doc(cfg.to_doc()) == cfg


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'foo'"):
        parse_config('{"foo": 1}')
    with pytest.raises(ConfigError, match="'lrate'.*'training'"):
        parse_config('{"training": {"lrate": 0.1}}')


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config('{"seed": 1, "seed": 2}')
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config('{"training": {"lr": 0.1, "lr": 0.2}}')


def test_invalid_d_m_names_the_key():
    with pytest.raises(ConfigError, match="d_m"):
        parse_config('{"training": {"d_m": -1}}')


def test_syntax_error_reported():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{")


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="training.lr"):
        parse_config('{"training": {"lr": "fast"}}')
    with pytest.raises(ConfigError, match="encoder.L"):
        parse_config('{"encoder": {"L": 2.5}}')
    with pytest.raises(ConfigError, match="betas"):
        parse_config('{"training": {"betas": [0.9]}}')


def test_mode_values():
    for mode in CouplingMode:
        cfg = parse_config(json.dumps({"training": {"mode": mode.value}}))
        assert cfg.training.mode == mode
    with pytest.raises(ConfigError, match="training.mode"):
        parse_config('{"training": {"mode": "both_ways"}}')


def test_head_divisibility_checked():
    with pytest.raises(ConfigError, match="divisible"):
        parse_config('{"encoder": {"d_t": 30, "n_heads": 4}}')


def test_rank_bound_per_mode():
    doc = {"encoder": {"d_t": 8, "d_v": 8, "n_heads": 2}, "training": {"rank": 12, "mode": "text_to_image"}}
    with pytest.raises(ConfigError, match="rank"):
        parse_config(json.dumps(doc))
    doc = {"training": {"rank": 20, "d_m": 8, "mode": "bidirectional"}}
    with pytest.raises(ConfigError, match="rank"):
        parse_config(json.dumps(doc))


def test_positions_validation():
    with pytest.raises(ConfigError, match="positions"):
        parse_config('{"training": {"positions": []}}')
    with pytest.raises(ConfigError, match="duplicates"):
        parse_config('{"training": {"positions": ["1a", "1a"]}}')
    with pytest.raises(ConfigError, match="unknown position"):
        parse_config('{"training": {"positions": ["9"]}}')
    cfg = parse_config('{"training": {"positions": ["2", "5"]}}')
    assert cfg.training.positions == ("2", "5")


def test_cross_section_checks():
    with pytest.raises(ConfigError, match="vocab_size"):
        parse_config('{"encoder": {"vocab_size": 10}, "training": {"classes": 16}}')
    with pytest.raises(ConfigError, match="shots"):
        parse_config('{"training": {"shots": 20}, "data": {"pool_per_class": 4}}')
    with pytest.raises(ConfigError, match="text_len"):
        parse_config('{"data": {"text_len": 20}}')
    with pytest.raises(ConfigError, match="bridge_shift"):
        parse_config('{"training": {"mode": "ivlu", "bridge_shift": true}}')
    with pytest.raises(ConfigError, match="classes"):
        parse_config('{"encoder": {"d_v": 8, "n_heads": 1}, "training": {"classes": 12}}')


def test_precision_and_seed_fields():
    cfg = parse_config('{"precision": "f64", "seed": 17, "out_dir": "runs/x"}')
    assert cfg.precision == "f64"
    assert cfg.seed == 17
    assert cfg.out_dir == "runs/x"
    with pytest.raises(ConfigError, match="precision"):
        parse_config('{"precision": "f16"}')
    with pytest.raises(ConfigError, match="seed"):
        parse_config('{"seed": true}')


def test_lambda_key_maps_to_tradeoff():
    cfg = parse_config('{"training": {"lambda": 2.5}}')
    assert cfg.training.lam == 2.5
    with pytest.raises(ConfigError, match="non-negative"):
        parse_config('{"training": {"lambda": -0.5}}')


# Every document below has exactly one fault. A value rule of a section's
# dataclass or of the site layout (`site_shapes`) reads `<section>.<error>`;
# a rank bound names the two widths of the first bridge that breaks it.
ONE_FAULT_MESSAGES = [
    # whole document
    ('{', 'config is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'),
    ('[]', 'config must be a JSON object'),
    ('null', 'config must be a JSON object'),
    ('{"foo": 1}', "unknown key 'foo'"),
    ('{"seed": 1, "seed": 2}', "duplicate key 'seed'"),
    ('{"seed": true}', 'seed must be an integer'),
    ('{"seed": 1.5}', 'seed must be an integer'),
    ('{"seed": "1"}', 'seed must be an integer'),
    ('{"out_dir": 3}', 'out_dir must be a string'),
    ('{"out_dir": ["runs"]}', 'out_dir must be a string'),
    ('{"precision": "f16"}', "precision must be 'f32' or 'f64'"),
    ('{"precision": 3}', "precision must be 'f32' or 'f64'"),
    ('{"precision": null}', "precision must be 'f32' or 'f64'"),
    ('{"encoder": []}', 'encoder must be an object'),
    ('{"encoder": null}', 'encoder must be an object'),
    ('{"training": 1}', 'training must be an object'),
    ('{"data": "x"}', 'data must be an object'),
    # encoder
    ('{"encoder": {"foo": 1}}', "unknown key 'foo' in section 'encoder'"),
    ('{"encoder": {"L": 1, "L": 2}}', "duplicate key 'L'"),
    ('{"encoder": {"L": 2.5}}', 'encoder.L must be an integer'),
    ('{"encoder": {"L": true}}', 'encoder.L must be an integer'),
    ('{"encoder": {"d_t": "32"}}', 'encoder.d_t must be an integer'),
    ('{"encoder": {"eps": "x"}}', 'encoder.eps must be a number'),
    ('{"encoder": {"eps": true}}', 'encoder.eps must be a number'),
    ('{"encoder": {"L": 0}}', 'encoder.L must be positive'),
    ('{"encoder": {"d_t": 0}}', 'encoder.d_t must be positive'),
    ('{"encoder": {"d_v": -48}}', 'encoder.d_v must be positive'),
    ('{"encoder": {"n_heads": 0}}', 'encoder.n_heads must be positive'),
    ('{"encoder": {"N_t": 0}}', 'encoder.N_t must be positive'),
    ('{"encoder": {"N_v": 0}}', 'encoder.N_v must be positive'),
    ('{"encoder": {"mlp_ratio": 0}}', 'encoder.mlp_ratio must be positive'),
    ('{"encoder": {"vocab_size": 0}}', 'encoder.vocab_size must be positive'),
    ('{"encoder": {"eps": 0}}', 'encoder.eps must be positive'),
    ('{"encoder": {"eps": -1e-5}}', 'encoder.eps must be positive'),
    ('{"encoder": {"d_t": 30}}', 'encoder.d_t=30 not divisible by n_heads=4'),
    ('{"encoder": {"d_v": 50}}', 'encoder.d_v=50 not divisible by n_heads=4'),
    # training: keys and types
    ('{"training": {"lrate": 0.1}}', "unknown key 'lrate' in section 'training'"),
    ('{"training": {"lam": 1.0}}', "unknown key 'lam' in section 'training'"),
    ('{"training": {"lr": 0.1, "lr": 0.2}}', "duplicate key 'lr'"),
    ('{"training": {"shots": "4"}}', 'training.shots must be an integer'),
    ('{"training": {"classes": 16.0}}', 'training.classes must be an integer'),
    ('{"training": {"batch_size": null}}', 'training.batch_size must be an integer'),
    ('{"training": {"steps": true}}', 'training.steps must be an integer'),
    ('{"training": {"lr": "fast"}}', 'training.lr must be a number'),
    ('{"training": {"lr": true}}', 'training.lr must be a number'),
    ('{"training": {"weight_decay": "x"}}', 'training.weight_decay must be a number'),
    ('{"training": {"betas": [0.9]}}', 'training.betas must be a pair of numbers'),
    ('{"training": {"betas": "x"}}', 'training.betas must be a pair of numbers'),
    ('{"training": {"betas": [0.9, "a"]}}', 'training.betas must be a pair of numbers'),
    ('{"training": {"betas": [0.9, 0.999, 0.5]}}', 'training.betas must be a pair of numbers'),
    ('{"training": {"adam_eps": [1e-8]}}', 'training.adam_eps must be a number'),
    ('{"training": {"lambda": "x"}}', 'training.lambda must be a number'),
    ('{"training": {"temperature": null}}', 'training.temperature must be a number'),
    ('{"training": {"mode": 3}}', 'training.mode must be a string'),
    (
        '{"training": {"mode": "both_ways"}}',
        "training.mode must be one of ['ivlu', 'text_to_image', 'image_to_text', 'bidirectional'], got 'both_ways'",
    ),
    ('{"training": {"rank": 1.5}}', 'training.rank must be an integer'),
    ('{"training": {"d_m": "16"}}', 'training.d_m must be an integer'),
    ('{"training": {"bridge_shift": 1}}', 'training.bridge_shift must be true or false'),
    ('{"training": {"positions": "1a"}}', 'training.positions must be a list of strings'),
    ('{"training": {"positions": [1]}}', 'training.positions must be a list of strings'),
    ('{"training": {"cosine_lr": "yes"}}', 'training.cosine_lr must be true or false'),
    # training: value rules
    ('{"training": {"positions": []}}', 'training.positions must not be empty'),
    ('{"training": {"positions": ["1a", "1a"]}}', 'training.positions contains duplicates'),
    ('{"training": {"positions": ["9"]}}', "training.positions: unknown position '9'"),
    ('{"training": {"d_m": 0}}', 'training.d_m must be positive'),
    ('{"training": {"rank": 0}}', 'training.rank must be positive'),
    ('{"training": {"rank": 17}}', 'training.rank 17 outside [1, min(16, 48)]'),
    ('{"training": {"rank": 33, "mode": "text_to_image", "d_m": 64}}', 'training.rank 33 outside [1, min(32, 48)]'),
    ('{"training": {"rank": 33, "mode": "image_to_text"}}', 'training.rank 33 outside [1, min(48, 32)]'),
    ('{"training": {"lambda": -0.5}}', 'training.lambda must be non-negative'),
    ('{"training": {"shots": 0}}', 'training.shots must be >= 1'),
    ('{"training": {"classes": 1}}', 'training.classes must be >= 2'),
    ('{"training": {"lr": 0}}', 'training.lr must be positive'),
    ('{"training": {"temperature": 0}}', 'training.temperature must be positive'),
    ('{"training": {"batch_size": 0}}', 'training.batch_size must be >= 1 and steps >= 0'),
    ('{"training": {"steps": -1}}', 'training.batch_size must be >= 1 and steps >= 0'),
    ('{"training": {"betas": [1.0, 0.999]}}', 'training.betas must lie in [0, 1)'),
    ('{"training": {"betas": [0.9, -0.1]}}', 'training.betas must lie in [0, 1)'),
    ('{"training": {"betas": [true, 0.999]}}', 'training.betas must lie in [0, 1)'),
    # data
    ('{"data": {"foo": 1}}', "unknown key 'foo' in section 'data'"),
    ('{"data": {"noise": 0.1, "noise": 0.2}}', "duplicate key 'noise'"),
    ('{"data": {"pool_per_class": "12"}}', 'data.pool_per_class must be an integer'),
    ('{"data": {"noise": "x"}}', 'data.noise must be a number'),
    ('{"data": {"text_len": 2.5}}', 'data.text_len must be an integer'),
    # one prefix, not `data: data.` as before
    ('{"data": {"pool_per_class": 0}}', 'data.pool_per_class must be >= 1'),
    ('{"data": {"noise": -0.1}}', 'data.noise must be >= 0'),
    ('{"data": {"text_len": 1}}', 'data.text_len must be >= 2'),
    # cross-section
    (
        '{"encoder": {"vocab_size": 10}}',
        'encoder.vocab_size 10 too small for training.classes 16 (needs classes + 2 token ids)',
    ),
    ('{"training": {"classes": 50}}', 'training.classes 50 exceeds encoder.d_v 48 prototypes'),
    ('{"data": {"text_len": 9}}', 'data.text_len 9 exceeds encoder.N_t 8'),
    ('{"training": {"shots": 13}}', 'training.shots 13 exceeds data.pool_per_class 12'),
    ('{"training": {"mode": "ivlu", "bridge_shift": true}}', 'training.bridge_shift requires a coupled mode'),
]


@pytest.mark.parametrize("text,message", ONE_FAULT_MESSAGES, ids=[t for t, _ in ONE_FAULT_MESSAGES])
def test_one_fault_document_gets_its_exact_message(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_one_fault_table_leaves_no_section_unchecked():
    docs = [json.loads(t) for t, _ in ONE_FAULT_MESSAGES[1:]]
    sections = {key for doc in docs if isinstance(doc, dict) for key in doc}
    assert sections == {"foo", "seed", "out_dir", "precision", "encoder", "training", "data"}
    for section in ("encoder", "training", "data"):
        keys = {k for doc in docs if isinstance(doc, dict) and isinstance(doc.get(section), dict) for k in doc[section]}
        assert set(DEFAULT_CONFIG_DOC[section]) <= keys, section


# ------------------------------------------------------------------
# the agent-site layout's rules have one owner, site_shapes

# widths 8 (text), 12 (image) and d_m 6: each rank bound below breaks the narrower end of one bridge
_LAYOUT_ENCODER = {"L": 1, "d_t": 8, "d_v": 12, "n_heads": 2, "N_t": 6, "N_v": 5, "mlp_ratio": 2, "vocab_size": 24}
LAYOUT_FAULTS = [
    ({"positions": ()}, "positions must not be empty"),
    ({"positions": ("1a", "1a")}, "positions contains duplicates"),
    ({"positions": ("9",)}, "positions: unknown position '9'"),
    ({"d_m": 0}, "d_m must be positive"),
    *[({"mode": mode, "rank": 0}, "rank must be positive") for mode in CouplingMode],
    *[
        ({"mode": mode, "rank": rank, "bridge_shift": shift}, f"rank {rank} outside [1, {bound}]")
        for mode, rank, bound in (
            (CouplingMode.TEXT_TO_IMAGE, 9, "min(8, 12)"),
            (CouplingMode.IMAGE_TO_TEXT, 9, "min(12, 8)"),
            (CouplingMode.BIDIRECTIONAL, 7, "min(6, 12)"),
        )
        for shift in (False, True)
    ],
    ({"mode": CouplingMode.IVLU, "bridge_shift": True}, "bridge_shift requires a coupled mode"),
]


@pytest.mark.parametrize("fields,message", LAYOUT_FAULTS, ids=[json.dumps(f) for f, _ in LAYOUT_FAULTS])
def test_each_layout_rule_is_stated_once_by_site_shapes(fields, message):
    """parse_config reports exactly what build_sites raises on the same values, under `training.`."""
    training = {"classes": 4, "d_m": 6, **fields}
    enc = EncoderConfig(**_LAYOUT_ENCODER)
    t = TrainingConfig(**training)
    with pytest.raises(ValueError) as built:
        build_sites(enc, t.mode, t.rank, t.d_m, rng.derive(0, "layout"), np.float32, t.bridge_shift, t.positions)
    assert type(built.value) is ValueError and str(built.value) == message
    with pytest.raises(ConfigError) as parsed:
        parse_config(json.dumps({"encoder": _LAYOUT_ENCODER, "training": training}))
    assert str(parsed.value) == "training." + message


def test_a_layout_that_build_sites_builds_is_accepted(tmp_path, capsys):
    """At position 5 both hooks are d_t wide, so a text -> image bridge there may take a rank above d_v."""
    training = {"classes": 8, "mode": "text_to_image", "rank": 20, "positions": ["5"]}
    doc = {"encoder": {"d_t": 32, "d_v": 16}, "training": training}
    cfg = parse_config(json.dumps(doc))
    sites = cfg.sites(rng.derive(0, "position-5"))
    assert list(sites) == [SiteKey(None, "5")]
    assert sites[SiteKey(None, "5")].arrays["bridge_v/w_down"].shape == (20, 32)
    assert check_counter_agreement(*cfg.layout).passed
    path = tmp_path / "position5.json"
    path.write_text(json.dumps(doc))
    assert cli_run(["count-params", "--config", str(path)]) == 0
    assert int(capsys.readouterr().out.splitlines()[0]) == trainable_param_count(sites)


def _number(lo, hi):
    """A JSON number in [lo, hi]: an integer (integer-valued floats must come back as floats) or a float."""
    return st.one_of(st.integers(int(np.ceil(lo)), int(hi)), st.floats(lo, hi, allow_nan=False))


@st.composite
def valid_documents(draw):
    n_heads = draw(st.sampled_from([1, 2, 4]))
    d_t = n_heads * draw(st.integers(1, 12))
    d_v = n_heads * draw(st.integers(2, 12))
    n_t = draw(st.integers(2, 12))
    classes = draw(st.integers(2, d_v))
    mode = draw(st.sampled_from(list(CouplingMode)))
    d_m = draw(st.integers(1, 24))
    bound = {
        CouplingMode.IVLU: 64,
        CouplingMode.TEXT_TO_IMAGE: min(d_t, d_v),
        CouplingMode.IMAGE_TO_TEXT: min(d_t, d_v),
        CouplingMode.BIDIRECTIONAL: min(d_t, d_v, d_m),
    }[mode]
    shots = draw(st.integers(1, 6))
    doc = {
        "precision": draw(st.sampled_from(["f32", "f64"])),
        "encoder": {
            "L": draw(st.integers(1, 6)),
            "d_t": d_t,
            "d_v": d_v,
            "n_heads": n_heads,
            "N_t": n_t,
            "N_v": draw(st.integers(1, 12)),
            "mlp_ratio": draw(st.integers(1, 8)),
            "eps": draw(_number(1e-9, 1.0).filter(lambda v: v > 0)),
            "vocab_size": draw(st.integers(classes + 2, classes + 40)),
        },
        "training": {
            "shots": shots,
            "classes": classes,
            "batch_size": draw(st.integers(1, 64)),
            "steps": draw(st.integers(0, 1000)),
            "lr": draw(_number(1e-6, 3.0).filter(lambda v: v > 0)),
            "weight_decay": draw(_number(-1.0, 1.0)),
            "betas": [draw(st.floats(0.0, 1.0, exclude_max=True)), draw(st.sampled_from([0, 0.5, 0.999]))],
            "adam_eps": draw(_number(0.0, 1e-3)),
            "lambda": draw(_number(0.0, 10.0)),
            "temperature": draw(_number(1e-3, 5.0).filter(lambda v: v > 0)),
            "mode": mode.value,
            "rank": draw(st.integers(1, bound)),
            "d_m": d_m,
            "bridge_shift": draw(st.booleans()) and mode != CouplingMode.IVLU,
            "positions": draw(st.lists(st.sampled_from(ALL_POSITIONS), min_size=1, unique=True)),
            "cosine_lr": draw(st.booleans()),
        },
        "data": {
            "pool_per_class": draw(st.integers(shots, 16)),
            "noise": draw(_number(0.0, 2.0)),
            "text_len": draw(st.integers(2, n_t)),
        },
    }
    for key, value in (("seed", st.integers(0, 2**31)), ("out_dir", st.text(max_size=8))):
        if draw(st.booleans()):
            doc[key] = draw(st.one_of(st.none(), value))
    return doc


@settings(max_examples=200, deadline=None)
@given(valid_documents())
def test_valid_documents_round_trip_through_to_doc(doc):
    cfg = parse_config_doc(doc)
    assert parse_config_doc(cfg.to_doc()) == cfg
    assert parse_config(config_bytes(cfg.to_doc()).decode()) == cfg
    out = cfg.to_doc()
    for section in ("encoder", "training", "data"):
        assert list(out[section]) == list(DEFAULT_CONFIG_DOC[section])
    floats = [out["encoder"]["eps"], out["data"]["noise"], *out["training"]["betas"]]
    floats += [out["training"][key] for key in ("lr", "weight_decay", "adam_eps", "lambda", "temperature")]
    assert all(isinstance(v, float) for v in floats)


# recorded from the hand-written to_doc that the derived one replaced
DEFAULT_BYTES = (
    b'{"data":{"noise":0.1,"pool_per_class":12,"text_len":4},"encoder":{"L":2,"N_t":8,"N_v":8,"d_t":32,"d_v":48,'
    b'"eps":1e-05,"mlp_ratio":4,"n_heads":4,"vocab_size":64},"precision":"f32","training":{"adam_eps":1e-08,'
    b'"batch_size":32,"betas":[0.9,0.999],"bridge_shift":false,"classes":16,"cosine_lr":false,"d_m":16,'
    b'"lambda":1.0,"lr":0.00015,"mode":"bidirectional","positions":["1a","1b","2","3","4","5"],"rank":4,'
    b'"shots":4,"steps":300,"temperature":0.07,"weight_decay":0.01}}'
)
INTEGER_FLOATS_BYTES = DEFAULT_BYTES.replace(b'"lambda":1.0,"lr":0.00015', b'"lambda":2.0,"lr":1.0')


def test_config_bytes_of_the_default_and_of_integer_valued_floats_are_pinned():
    assert config_bytes(DEFAULT_CONFIG_DOC) == DEFAULT_BYTES
    assert config_bytes(parse_config("{}").to_doc()) == DEFAULT_BYTES
    cfg = parse_config('{"training": {"lr": 1, "lambda": 2}}')
    assert config_bytes(cfg.to_doc()) == INTEGER_FLOATS_BYTES
    assert b'"lambda":2.0,"lr":1.0' in INTEGER_FLOATS_BYTES


def test_default_document_keeps_its_key_order():
    assert list(DEFAULT_CONFIG_DOC) == ["precision", "encoder", "training", "data"]
    seeded = parse_config('{"out_dir": "runs/x", "seed": 3}').to_doc()
    assert list(seeded) == ["precision", "encoder", "training", "data", "seed", "out_dir"]


def test_schema_is_built_once_at_import(monkeypatch):
    def no_hints(*args, **kwargs):
        raise AssertionError("get_type_hints called while parsing")

    monkeypatch.setattr(typing, "get_type_hints", no_hints)
    assert parse_config_doc(DEFAULT_CONFIG_DOC) == RunConfig()
    assert RunConfig().to_doc() == DEFAULT_CONFIG_DOC


def test_readme_configuration_block_is_the_default_document():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    assert doc.pop("seed") is None and doc.pop("out_dir") is None
    assert doc == DEFAULT_CONFIG_DOC


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_precision_gives_the_dtype(precision):
    cfg = parse_config(json.dumps({"precision": precision}))
    assert cfg.dtype == np.dtype(np.float32 if precision == "f32" else np.float64)


@pytest.mark.parametrize("override", [None, np.float64])
def test_sites_are_the_build_sites_of_the_training_fields(override):
    cfg = parse_config('{"training": {"mode": "bidirectional", "bridge_shift": true, "positions": ["1b", "4", "5"]}}')
    t = cfg.training
    dtype = np.float32 if override is None else override
    expected = build_sites(cfg.encoder, t.mode, t.rank, t.d_m, rng.derive(5, "s"), dtype, t.bridge_shift, t.positions)
    got = cfg.sites(rng.derive(5, "s"), override)
    assert list(got) == list(expected)
    pairs = list(zip(named_params(got), named_params(expected), strict=True))
    for (name, arr), (name_e, arr_e) in pairs:
        assert name == name_e and arr.dtype == arr_e.dtype and arr.tobytes() == arr_e.tobytes()
    assert cfg.layout == (cfg.encoder, t.mode, t.rank, t.d_m, t.bridge_shift, t.positions)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the default data section, and one whose text length and pool size are not the defaults
_RECIPE_DATA = [{}, {"text_len": 3, "pool_per_class": 5, "noise": 0.25}]


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("data", _RECIPE_DATA)
def test_the_recipe_is_its_expansion(precision, data):
    encoder = {"L": 1, "d_t": 8, "d_v": 12, "n_heads": 2, "N_t": 6, "N_v": 4, "vocab_size": 16}
    cfg = parse_config_doc({"precision": precision, "encoder": encoder, "training": {"classes": 6}, "data": data})
    dtype = np.float32 if precision == "f32" else np.float64
    expected = init_dual_encoder(cfg.encoder, rng.derive(7, "frozen-weights"), dtype)
    got = cfg.model(7)
    assert got.cfg == cfg.encoder and list(got.arrays) == list(expected.arrays)
    assert all(_same_bits(got.arrays[n], expected.arrays[n]) for n in expected.arrays)

    d = cfg.data
    ds = cfg.dataset(7)
    assert ds.images.shape == (6, d.pool_per_class, 4, 12) and ds.images.dtype == dtype
    assert len(ds.tokens[0]) == d.text_len
    tensors, doc = pack_dataset(ds)
    want, want_doc = pack_dataset(gen_synthetic(6, d.pool_per_class, d.noise, 7, (4, 12), d.text_len, dtype))
    assert doc == want_doc and list(tensors) == list(want)
    assert all(_same_bits(tensors[n], want[n]) for n in want)

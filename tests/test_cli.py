import csv
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synq import cli
from synq.cli import load_config, main
from synq.params import ParameterStore
from synq.pipeline import (
    ANSATZE, BACKENDS, OPTIMIZERS, READERS, PipelineConfig,
)
from synq.rewrite import RULE_NAMES


@pytest.mark.parametrize("pipeline", [
    {"ansatz": "iqp", "optimizer": "spsa"},
    {"reader": "cups", "ansatz": "tensor", "optimizer": "adam",
     "rewrites": []},
])
def test_train_writes_outputs(tmp_path, capsys, pipeline):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**pipeline, "iterations": 2, "seed": 1}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0

    rows = list(csv.reader((out / "history.csv").read_text().splitlines()))
    assert rows[0] == ["iter", "train_loss", "train_acc", "dev_loss",
                       "dev_acc"]
    assert [row[0] for row in rows[1:]] == ["0", "1"]
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {f"{split}_{name}" for split in
                            ("train", "dev", "test")
                            for name in ("loss", "accuracy")}
    assert all(0.0 <= metrics[f"{s}_accuracy"] <= 1.0
               for s in ("train", "dev", "test"))
    assert json.loads(capsys.readouterr().out) == metrics
    store = ParameterStore.from_jsonable(
        json.loads((out / "store.json").read_text()))
    assert store.size > 0 and np.isfinite(store.to_vector()).all()


@pytest.mark.parametrize("text", ['{"ansatz": "iqp", "layers": 2}',
                                  '{"ansatz": "nope"}', "[1]", "{",
                                  '{"learning_rate": 0.1}',
                                  '{"dim_map": {"n": 3, "s": 2}}',
                                  '{"rewrites": "determiner"}',
                                  '{"backend": "shots"}',
                                  '{"ccg_path": 5}', '{"rewrites": 5}'])
def test_bad_config_is_a_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "bad config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("auto", [None, "ID=0\n(<L N NN NN flower N>)\n"])
def test_compile_failure_is_one_line_and_status_1(tmp_path, capsys, auto):
    path = tmp_path / "derivations.auto"
    if auto is not None:  # item 1 and every later item lack their ID
        path.write_text(auto)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ccg_path": str(path), "iterations": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("synq: cannot compile: ") and err.count("\n") == 1
    assert str(path) in err
    if auto is not None:
        assert "; 1: " in err
    assert not (tmp_path / "o").exists()


def test_non_utf8_auto_is_a_compile_error(tmp_path, capsys):
    path = tmp_path / "derivations.auto"
    path.write_bytes(b"ID=0\n(<L N NN NN fl\xe9 N>)\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ccg_path": str(path), "iterations": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"synq: cannot compile: {path}: ")
    assert "byte 0xe9 in position 19" in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("below", [False, True])
def test_out_that_cannot_be_a_directory_fails_before_training(
        tmp_path, capsys, monkeypatch, below):
    existing = tmp_path / "file"
    existing.write_text("kept")
    out = existing / "run" if below else existing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iterations": 1}))

    def refuse(model):
        raise AssertionError("trained")

    monkeypatch.setattr(cli, "train", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"synq: cannot create {out}: ")
    assert err.count("\n") == 1 and existing.read_text() == "kept"


FIELDS = tuple(f.name for f in fields(PipelineConfig))
# what a refusal of each field says; a rewrites refusal may name the rule
NAMED = {**{name: name for name in FIELDS}, "rewrites": "rewrite"}
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([0, 1, -1, 2 ** 63 - 1, 2 ** 63, 2 ** 70, -2 ** 70])
    | st.floats() | st.sampled_from([float("nan"), float("inf"),
                                     -float("inf")])
    | st.text(max_size=8)
    | st.sampled_from(READERS + ANSATZE + BACKENDS + OPTIMIZERS + RULE_NAMES))
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=6),
                       JSON_VALUES, max_size=4) | JSON_VALUES)
def test_config_json_is_refused_by_name(tmp_path, obj):
    """Any JSON value: load_config builds a config or raises a ValueError
    that names a field it was given, an unknown key or the wrong type."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    try:
        cfg = load_config(path)
    except ValueError as exc:
        message = str(exc)
        if not isinstance(obj, dict):
            assert "must be a JSON object" in message
        elif set(obj) - set(FIELDS):
            assert "unknown config keys" in message
        else:
            assert any(NAMED[name] in message for name in obj), message
        return
    assert isinstance(obj, dict) and isinstance(cfg, PipelineConfig)

import csv
import json

import numpy as np
import pytest

from synq.cli import main
from synq.params import ParameterStore


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
                                  '{"rewrites": "determiner"}'])
def test_bad_config_is_a_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "bad config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

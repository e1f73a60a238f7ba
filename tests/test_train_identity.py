"""Training outputs are bit-identical to the recorded golden hashes.

``tests/data/train_golden.json`` holds, per config, the sha256 of its
training history rows, of its trained store's names and vector bytes, and
of its three ``evaluate_split`` results, all from ``generate_dataset(0)``,
seed 0 and 3 iterations. The configs cover Adam on the spider, tensor and
mps ansatze, SPSA on spider networks rewritten with ``determiner``, SPSA
on exact IQP circuits, and SPSA on noisy shot-based IQP circuits. A change
to the contraction engine, the planner or the training loop that is meant
to keep every output must not change any of them.

Regenerate the golden file, only for an intended change of output, with
``PYTHONPATH=src python tests/test_train_identity.py > GOLDEN`` from the
repository root, GOLDEN being ``tests/data/train_golden.json``.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from synq.dataset import SPLITS, generate_dataset
from synq.pipeline import PipelineConfig, compile_model
from synq.training import evaluate_split, train

GOLDEN = Path(__file__).parent / "data" / "train_golden.json"

CONFIGS = {
    "spider-adam": {"ansatz": "spider"},
    "tensor-adam": {"ansatz": "tensor"},
    "mps-adam": {"ansatz": "mps"},
    "spider-spsa-determiner": {"ansatz": "spider", "optimizer": "spsa",
                               "rewrites": ("determiner",)},
    "iqp-exact-spsa": {"ansatz": "iqp", "optimizer": "spsa"},
    "iqp-shots-noisy": {"ansatz": "iqp", "optimizer": "spsa",
                        "backend": "shots", "noise_p": 0.01},
}


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
        digest.update(b"\n")
    return digest.hexdigest()


def run_hashes(name: str) -> dict:
    cfg = PipelineConfig(**CONFIGS[name], iterations=3, seed=0)
    model = compile_model(cfg, generate_dataset(0))
    store, history = train(model)
    return {
        "history": _sha([np.asarray(history.rows, dtype=float).tobytes()]),
        "store": _sha([json.dumps(store.names()).encode(),
                       store.to_vector().tobytes()]),
        "splits": _sha(json.dumps(evaluate_split(model, store, split),
                                  sort_keys=True).encode()
                       for split in SPLITS),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CONFIGS)
def test_training_matches_golden(golden, name):
    assert run_hashes(name) == golden[name]


def test_golden_covers_every_config(golden):
    assert sorted(golden) == sorted(CONFIGS)


if __name__ == "__main__":
    print(json.dumps({name: run_hashes(name) for name in CONFIGS}, indent=2,
                     sort_keys=True))

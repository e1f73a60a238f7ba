"""End-to-end model assembly: sentences -> diagrams -> compiled artifacts.

A PipelineConfig names the reader, optional rewrite rules, the ansatz and
its geometry, the evaluation backend and the optimizer block. compile_model
turns a dataset plus config into one artifact per sentence with a shared
parameter store, giving the training loop a uniform predict interface.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import ccg
from .ansatz import (
    Circuit, TensorNetwork, iqp_ansatz, mps_ansatz, spider_ansatz,
    tensor_ansatz,
)
from .contract import contract, contract_grad
from .dataset import LabeledDataset, sentence_to_auto
from .diagram import Diagram
from .params import ParameterStore
from .readers import cups_read, spiders_read, tokenize
from .rewrite import Rewriter
from .simulator import (
    AllShotsDiscarded, CircuitPlan, ZeroNorm, evaluate, plan_circuits, sample,
)
from .types import ts

logger = logging.getLogger(__name__)

READERS = ("ccg", "cups", "spiders")
ANSATZE = ("iqp", "tensor", "mps", "spider")
BACKENDS = ("exact", "shots")
OPTIMIZERS = ("adam", "spsa")
ZERO_VECTOR = 1e-300  # squared norm of a degenerate sentence vector


class CompileError(Exception):
    """One or more sentences failed to compile under the pipeline."""


@dataclass(frozen=True)
class PipelineConfig:
    reader: str = "ccg"
    ccg_path: Optional[str] = None  # AUTO file; None derives from the grammar
    rewrites: tuple[str, ...] = ()
    ansatz: str = "spider"
    qubit_map: dict = field(default_factory=lambda: {"n": 1, "s": 1})
    dim_map: dict = field(default_factory=lambda: {"n": 2, "s": 2})
    n_layers: int = 1
    bond_dim: int = 4
    max_order: int = 0  # 0 picks the ansatz default
    backend: str = "exact"
    n_shots: int = 8192
    noise_p: float = 0.0
    optimizer: str = "adam"
    iterations: int = 200
    learning_rate: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    spsa_a: float = 0.05
    spsa_c: float = 0.06
    spsa_alpha: float = 0.602
    spsa_gamma: float = 0.101
    spsa_big_a: Optional[float] = None  # None means 0.1 * iterations
    seed: int = 0

    def __post_init__(self):
        checks = (
            (self.reader, READERS, "reader"),
            (self.ansatz, ANSATZE, "ansatz"),
            (self.backend, BACKENDS, "backend"),
            (self.optimizer, OPTIMIZERS, "optimizer"),
        )
        for value, allowed, what in checks:
            if value not in allowed:
                raise ValueError(
                    f"unknown {what} {value!r}; allowed: {', '.join(allowed)}")
        if self.iterations < 0 or self.n_shots < 1:
            raise ValueError("iterations must be >= 0 and n_shots >= 1")


def sentence_to_diagram(cfg: PipelineConfig, text: str,
                        derivation: Optional[str] = None) -> Diagram:
    if cfg.reader == "cups":
        d = cups_read(tokenize(text))
    elif cfg.reader == "spiders":
        d = spiders_read(tokenize(text))
    else:
        line = derivation if derivation is not None else sentence_to_auto(text)
        (tree,) = ccg.parse_auto(line)
        d = ccg.tree_to_diagram(tree)
    if cfg.rewrites:
        d = Rewriter(list(cfg.rewrites))(d).normal_form()
    return d


def _load_derivations(cfg: PipelineConfig,
                      ds: LabeledDataset) -> list[Optional[str]]:
    """Item i's derivation is the ``ID=i`` entry of ``cfg.ccg_path``."""
    if cfg.reader != "ccg" or cfg.ccg_path is None:
        return [None] * len(ds.items)
    by_id = ccg.read_auto(cfg.ccg_path)
    missing = [f"{i}: {text!r}" for i, (text, _) in enumerate(ds.items)
               if str(i) not in by_id]
    if missing:
        raise CompileError(
            f"{len(missing)} sentences have no derivation in "
            f"{cfg.ccg_path}:\n" + "\n".join(missing))
    return [by_id[str(i)] for i in range(len(ds.items))]


def compile_diagram(cfg: PipelineConfig, d: Diagram):
    if cfg.ansatz == "iqp":
        return iqp_ansatz(d, cfg.qubit_map, cfg.n_layers)
    if cfg.ansatz == "tensor":
        return tensor_ansatz(d, cfg.dim_map)
    if cfg.ansatz == "mps":
        return mps_ansatz(d, cfg.dim_map, cfg.bond_dim,
                          cfg.max_order or 3)
    return spider_ansatz(d, cfg.dim_map, cfg.max_order or 2)


@dataclass
class CompiledModel:
    config: PipelineConfig
    dataset: LabeledDataset
    artifacts: list
    store: ParameterStore
    plan: Optional[CircuitPlan] = None  # circuits grouped by structure


def compile_model(cfg: PipelineConfig, ds: LabeledDataset) -> CompiledModel:
    derivations = _load_derivations(cfg, ds)
    artifacts, failures = [], []
    for i, (text, _) in enumerate(ds.items):
        try:
            d = sentence_to_diagram(cfg, text, derivations[i])
            if d.cod != ts("s"):
                raise CompileError(f"codomain {d.cod} is not the sentence type")
            artifacts.append(compile_diagram(cfg, d))
        except Exception as exc:
            failures.append(f"{i}: {text!r}: {exc}")
            artifacts.append(None)
    if failures:
        raise CompileError(
            f"{len(failures)} sentences failed to compile:\n"
            + "\n".join(failures))
    if cfg.ansatz == "iqp":
        if cfg.qubit_map.get("s") != 1:
            raise CompileError("binary prediction needs 1 sentence qubit")
    else:
        if cfg.dim_map.get("s") != 2:
            raise CompileError("binary prediction needs sentence dimension 2")
    symbols = []
    for art in artifacts:
        symbols.extend(art.symbols)
    store = ParameterStore.initialize(symbols, cfg.seed)
    plan = plan_circuits(artifacts, store) if cfg.ansatz == "iqp" else None
    return CompiledModel(cfg, ds, artifacts, store, plan)


def shot_seed(base_seed: int, iteration: int, slot: int, item: int) -> int:
    """Stable per-(iteration, evaluation-slot, sentence) sampling seed."""
    seq = np.random.SeedSequence(base_seed,
                                 spawn_key=(iteration + 1, slot, item))
    return int(seq.generate_state(1)[0])


def _vector_p1(v: np.ndarray) -> Optional[float]:
    """p1 of a sentence vector, or None if the vector is degenerate."""
    denom = float(v[0] ** 2 + v[1] ** 2)
    return float(v[1] ** 2) / denom if denom >= ZERO_VECTOR else None


def predict_p1(model: CompiledModel, store: ParameterStore, item: int,
               sample_seed: Optional[int] = None) -> float:
    """Probability of label 1 for one sentence under the current store."""
    art = model.artifacts[item]
    cfg = model.config
    if isinstance(art, TensorNetwork):
        p1 = _vector_p1(contract(art, store))
        if p1 is None:
            logger.warning("degenerate sentence vector for item %d", item)
            return 0.5
        return p1
    assert isinstance(art, Circuit)
    try:
        if cfg.backend == "exact" or sample_seed is None:
            probs = evaluate(art, store)
            return probs.get("1", 0.0)
        counts = sample(art, store, cfg.n_shots, sample_seed, cfg.noise_p)
        total = sum(counts.values())
        return counts.get("1", 0) / total
    except (ZeroNorm, AllShotsDiscarded) as exc:
        logger.warning("item %d: %s; predicting 0.5", item, exc)
        return 0.5


def prediction_gradient(model: CompiledModel, store: ParameterStore,
                        item: int) -> tuple[Optional[float], np.ndarray]:
    """p1 of a tensor-backend sentence and dp1/dtheta, from one contraction.

    A degenerate sentence vector gives p1 None and a zero gradient; the
    caller reports it through predict_p1."""
    art = model.artifacts[item]
    if not isinstance(art, TensorNetwork):
        raise TypeError("exact gradients need a tensor backend")

    def dp1_dv(v: np.ndarray) -> np.ndarray:
        s = float(v[0] ** 2 + v[1] ** 2)
        if s < ZERO_VECTOR:
            return np.zeros(2)
        return np.array([-2.0 * v[0] * v[1] ** 2 / s ** 2,
                         2.0 * v[1] * v[0] ** 2 / s ** 2])

    v, grad = contract_grad(art, store, dp1_dv)
    return _vector_p1(v), grad

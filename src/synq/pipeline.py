"""End-to-end model assembly: sentences -> diagrams -> compiled artifacts.

A PipelineConfig names the reader (with an optional AUTO file for the CCG
reader), the rewrite rules, the ansatz, the evaluation backend with its
shot count and noise, the optimizer, the iteration count and the seed.
The ansatz geometry is fixed in compile_diagram, and the optimizer
hyperparameters are the defaults of ``training.adam_step`` and
``training.spsa_step``. compile_model turns a dataset plus config into one
artifact per sentence with a shared parameter store, giving the training
loop a uniform predict interface.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import ccg
from .ansatz import (
    Circuit, TensorNetwork, iqp_ansatz, mps_ansatz, spider_ansatz,
    tensor_ansatz,
)
from .contract import Group, contract, contract_batch, contract_grad
from .dataset import LabeledDataset, sentence_to_auto
from .diagram import Diagram
from .params import ParameterStore
from .readers import cups_read, spiders_read, tokenize
from .rewrite import RULE_NAMES, Rewriter
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
    backend: str = "exact"
    n_shots: int = 8192
    noise_p: float = 0.0
    optimizer: str = "adam"
    iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.rewrites, str):
            raise ValueError(f"rewrites must be a list of rule names, not "
                             f"the string {self.rewrites!r}")
        object.__setattr__(self, "rewrites", tuple(self.rewrites))
        checks = (
            (self.reader, READERS, "reader"),
            (self.ansatz, ANSATZE, "ansatz"),
            (self.backend, BACKENDS, "backend"),
            (self.optimizer, OPTIMIZERS, "optimizer"),
            *((rule, RULE_NAMES, "rewrite rule") for rule in self.rewrites),
        )
        for value, allowed, what in checks:
            if value not in allowed:
                raise ValueError(
                    f"unknown {what} {value!r}; allowed: {', '.join(allowed)}")
        if self.ccg_path is not None and self.reader != "ccg":
            raise ValueError(f"ccg_path {self.ccg_path!r} needs reader "
                             f"'ccg', not {self.reader!r}")
        if self.iterations < 0 or self.n_shots < 1:
            raise ValueError("iterations must be >= 0 and n_shots >= 1")
        if not 0.0 <= self.noise_p <= 1.0:
            raise ValueError(
                f"noise_p must lie in [0, 1], got {self.noise_p!r}")


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
        d = _rewriter(cfg.rewrites)(d).normal_form()
    return d


# one Rewriter per rule tuple, so its word lists are read once
_rewriter = lru_cache(Rewriter)


def _load_derivations(cfg: PipelineConfig,
                      ds: LabeledDataset) -> list[Optional[str]]:
    """Item i's derivation is the ``ID=i`` entry of ``cfg.ccg_path``."""
    if cfg.ccg_path is None:
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
    """The artifact of one diagram: one qubit per wire for IQP, dimension 2
    per wire for the tensor ansatzes, each with its default split."""
    if cfg.ansatz == "iqp":
        return iqp_ansatz(d, {"n": 1, "s": 1})
    dims = {"n": 2, "s": 2}
    if cfg.ansatz == "tensor":
        return tensor_ansatz(d, dims)
    if cfg.ansatz == "mps":
        return mps_ansatz(d, dims)
    return spider_ansatz(d, dims)


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


def _rows_p1(v: np.ndarray) -> np.ndarray:
    """_vector_p1 of each row of ``v``; nan for a degenerate vector. Kept
    apart from _vector_p1, whose float arithmetic on one vector is about
    ten times cheaper than these numpy calls."""
    square = v[:, 1] ** 2
    denom = v[:, 0] ** 2 + square
    return np.where(denom >= ZERO_VECTOR,
                    square / np.maximum(denom, ZERO_VECTOR), np.nan)


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


def group_p1(group: Group, vec: np.ndarray) -> np.ndarray:
    """p1 of each sentence of a tensor group under the flat vector ``vec``;
    nan for a degenerate sentence vector, which the caller reports through
    predict_p1."""
    return _rows_p1(contract_batch(group, vec))


def prediction_gradient(group: Group, vec: np.ndarray,
                        dloss_dp1: Callable[[np.ndarray], np.ndarray]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """group_p1, and the gradient of the sum of the sentences' losses given
    ``dloss_dp1(p1)``, each loss's derivative by its p1; one batched
    contraction serves both. A degenerate sentence adds nothing."""
    def upstream(v: np.ndarray) -> np.ndarray:
        p1 = _rows_p1(v)
        ok = ~np.isnan(p1)
        v0, v1 = v[:, 0], v[:, 1]
        s = np.where(ok, v0 ** 2 + v1 ** 2, 1.0)
        w = np.where(ok, dloss_dp1(p1), 0.0) / s ** 2
        return np.stack((-2.0 * v0 * v1 ** 2 * w, 2.0 * v1 * v0 ** 2 * w),
                        axis=1)

    v, grad = contract_grad(group, vec, upstream)
    return _rows_p1(v), grad

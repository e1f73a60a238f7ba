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
import numbers
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
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
    MAX_SHOTS, ZERO_NORM_THRESHOLD, AllShotsDiscarded, ZeroNorm, evaluate,
    sample,
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
        if not isinstance(self.rewrites, (list, tuple)):
            raise ValueError(f"rewrites must be a list of rule names, got "
                             f"{self.rewrites!r}")
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
        if len(set(self.rewrites)) != len(self.rewrites):
            raise ValueError(f"rewrites names a rule twice: "
                             f"{list(self.rewrites)}")
        if self.ccg_path is not None and self.reader != "ccg":
            raise ValueError(f"ccg_path {self.ccg_path!r} needs reader "
                             f"'ccg', not {self.reader!r}")
        if self.ccg_path is not None and not isinstance(self.ccg_path, str):
            raise ValueError(f"ccg_path must be a str or None, got "
                             f"{self.ccg_path!r}")
        for name, least in (("iterations", 0), ("n_shots", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:  # bool is no int
                raise ValueError(
                    f"{name} must be an int >= {least}, got {value!r}")
        if self.n_shots > MAX_SHOTS:
            raise ValueError(f"n_shots must be at most 2**63 - 1, got "
                             f"{self.n_shots!r}")
        if isinstance(self.noise_p, bool) \
                or not isinstance(self.noise_p, numbers.Real) \
                or not 0.0 <= self.noise_p <= 1.0:
            raise ValueError(f"noise_p must be a real number in [0, 1], got "
                             f"{self.noise_p!r}")
        if self.ansatz == "iqp" and self.optimizer == "adam":
            raise ValueError("ansatz 'iqp' needs optimizer 'spsa': 'adam' "
                             "needs the exact gradients of a tensor ansatz")
        if self.noise_p > 0 and self.backend != "shots":
            raise ValueError(f"noise_p {self.noise_p!r} needs backend "
                             f"'shots', not {self.backend!r}")
        if self.backend == "shots" and self.ansatz != "iqp":
            raise ValueError(f"backend 'shots' needs ansatz 'iqp', not "
                             f"{self.ansatz!r}: a tensor model has no shots")


def sentence_to_diagram(cfg: PipelineConfig, text: str,
                        derivation: Optional[str] = None) -> Diagram:
    if cfg.reader == "cups":
        d = cups_read(tokenize(text))
    elif cfg.reader == "spiders":
        d = spiders_read(tokenize(text))
    else:
        line = derivation if derivation is not None else sentence_to_auto(text)
        trees = ccg.parse_auto(line)
        if len(trees) != 1:
            raise ccg.ParseError(f"expected one derivation, found "
                                 f"{len(trees)}", 1, 1)
        d = ccg.tree_to_diagram(trees[0])
    if cfg.rewrites:
        d = _rewriter(cfg.rewrites)(d).normal_form()
    return d


# one Rewriter per rule tuple, so its word lists are read once
_rewriter = lru_cache(Rewriter)


def _load_derivations(cfg: PipelineConfig, ds: LabeledDataset
                      ) -> list[tuple[Optional[str], int]]:
    """Item i's derivation is the ``ID=i`` entry of ``cfg.ccg_path``, given
    with its line of the file; without a file, (None, 1) for each item."""
    if cfg.ccg_path is None:
        return [(None, 1)] * len(ds.items)
    auto = Path(cfg.ccg_path).read_text(encoding="utf-8")
    by_id = {key: (line, lineno) for key, lineno, line in ccg.scan_auto(auto)}
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


def compile_model(cfg: PipelineConfig, ds: LabeledDataset) -> CompiledModel:
    derivations = _load_derivations(cfg, ds)
    artifacts, failures = [], []
    for i, (text, _) in enumerate(ds.items):
        derivation, lineno = derivations[i]
        try:
            d = sentence_to_diagram(cfg, text, derivation)
            if d.cod != ts("s"):
                raise CompileError(f"codomain {d.cod} is not the sentence type")
            artifacts.append(compile_diagram(cfg, d))
        except Exception as exc:
            if isinstance(exc, ccg.ParseError):  # parsed alone, it is line 1
                exc = ccg.ParseError(exc.reason, lineno, exc.column)
            failures.append(f"{i}: {text!r}: {exc}")
            artifacts.append(None)
    if failures:
        raise CompileError(
            f"{len(failures)} sentences failed to compile:\n"
            + "\n".join(failures))
    symbols = []
    for art in artifacts:
        symbols.extend(art.symbols)
    return CompiledModel(cfg, ds, artifacts,
                         ParameterStore.initialize(symbols, cfg.seed))


def shot_seed(base_seed: int, iteration: int, slot: int, item: int) -> int:
    """Stable per-(iteration, evaluation-slot, sentence) sampling seed."""
    seq = np.random.SeedSequence(base_seed,
                                 spawn_key=(iteration + 1, slot, item))
    return int(seq.generate_state(1)[0])


def _vector_p1(v: np.ndarray) -> Optional[float]:
    """p1 of a sentence vector, or None if the vector is degenerate."""
    denom = float(v[0] ** 2 + v[1] ** 2)
    return float(v[1] ** 2) / denom if denom >= ZERO_VECTOR else None


def _rows_p1(v: np.ndarray, floor: float = ZERO_VECTOR) -> np.ndarray:
    """|v1|^2 / (|v0|^2 + |v1|^2) of each row of a real or complex ``v``;
    nan where that norm is below ``floor``. Kept apart from _vector_p1,
    whose float arithmetic is about ten times cheaper on one vector."""
    squares = np.abs(v) ** 2
    square = squares[:, 1]
    denom = squares[:, 0] + square
    return np.where(denom >= floor, square / np.maximum(denom, floor),
                    np.nan)


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
    """p1 of each sentence of a group under the flat vector ``vec``, read
    off its 2-vector: a tensor's value, or a circuit's amplitudes on its
    open qubit. nan where the norm is below ZERO_VECTOR for a tensor, or
    below ZERO_NORM_THRESHOLD (a postselection probability) for a circuit;
    the caller reports such a sentence through predict_p1."""
    floor = ZERO_VECTOR if group.gates is None else ZERO_NORM_THRESHOLD
    return _rows_p1(contract_batch(group, vec), floor)


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

"""End-to-end model assembly: sentences -> diagrams -> compiled artifacts.

A PipelineConfig names the reader (with an optional AUTO file for the CCG
reader), the rewrite rules, the ansatz, the evaluation backend with its
shot count and noise, the optimizer, the iteration count and the seed.
The ansatz geometry is fixed in compile_diagram, and the optimizer
hyperparameters are the defaults of ``training.adam_step`` and
``training.spsa_step``. compile_model turns a dataset plus config into one
artifact per sentence with a shared parameter store, giving the training
loop a uniform predict interface; ``CompiledModel.plan`` is built lazily.

The AUTO parse, conversion and compile run once per sentence structure.
The sentences of a dataset share few structures (the 130 of the dataset
grammar have 4), and a token reaches a compiled artifact only through its
symbol names. So compile_diagram compiles the first diagram of each
structure and re-labels that artifact for the others, as
``ccg.line_to_diagram`` does for derivation lines of one key; each
re-labelled node or op is checked against the template's.
"""
from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import ccg
from .ansatz import Circuit, TensorNetwork, iqp_template, network_template
from .contract import NetworkPlan, ShapeMismatch, contract, contract_grad, \
    contract_plan, plan_networks
from .dataset import LabeledDataset, sentence_to_auto
from .diagram import Diagram, Word
from .params import ParameterStore, UnboundSymbol
from .readers import cups_read, spiders_read, tokenize
from .rewrite import RULE_NAMES, Rewriter
from .simulator import (
    MAX_SHOTS, ZERO_NORM_THRESHOLD, AllShotsDiscarded, NonFiniteAngle,
    ZeroNorm, draw, evaluate, plan_circuits, sample,
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


class NoSampleSeed(ValueError):
    """A shot-based model asked to predict without a sampling seed."""


class UnknownItem(IndexError):
    """An item that is no int or numpy integer in [0, sentence count)."""


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
        auto = derivation if derivation is not None else sentence_to_auto(text)
        found = list(ccg.scan_auto(auto))
        if len(found) != 1:
            raise ccg.ParseError(f"expected one derivation, found "
                                 f"{len(found)}", 1, 1)
        _, lineno, line = found[0]
        d = ccg.line_to_diagram(line, lineno)
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
    try:
        auto = Path(cfg.ccg_path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:  # names the byte and its offset
        raise CompileError(f"{cfg.ccg_path}: {exc}") from None
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
    per wire for the tensor ansatzes, each with the default split of
    ``mps_ansatz`` or ``spider_ansatz``.

    The first diagram of a structure is compiled, and its artifact kept as
    the template of that structure; a later one is its template re-labelled
    with the diagram's tokens (``Template.instance``)."""
    tokens, structure = [], [cfg.ansatz, d.dom]
    for box, offset in d.layers:
        if isinstance(box, Word):
            tokens.append(box.token)
            structure += (box.dom, box.cod, offset)
        else:
            structure += (box, offset)
    cell = _artifact_templates(tuple(structure))
    if cell:
        return cell[0].instance(tokens)
    dims = {"n": 2, "s": 2}
    if cfg.ansatz == "iqp":
        template = iqp_template(d, {"n": 1, "s": 1})
    elif cfg.ansatz == "tensor":
        template = network_template(d, dims, "full", 0, 0)
    elif cfg.ansatz == "mps":
        template = network_template(d, dims, "mps", 4, 3)
    else:
        template = network_template(d, dims, "spider", 0, 2)
    cell.append(template)
    return template.artifact


@lru_cache(maxsize=1024)  # bounded, like contract's plans
def _artifact_templates(structure: tuple) -> list:
    """The template of the diagrams of one structure, once the first has
    compiled: the ansatz, the dom, and each layer's box and offset, a word
    given by its dom and cod alone (its token makes only symbol names).
    Empty until then, and after a failed compile, so a structure that does
    not compile fails on every diagram."""
    return []


@dataclass
class CompiledModel:
    config: PipelineConfig
    dataset: LabeledDataset
    artifacts: list
    store: ParameterStore

    @cached_property
    def plan(self) -> NetworkPlan:
        """Every sentence grouped by structure, planned on first use: the
        networks in split order, or the circuits at a shots noise level."""
        cfg, ds = self.config, self.dataset
        if cfg.ansatz != "iqp":
            return plan_networks(self.artifacts, ds.train + ds.dev + ds.test,
                                 self.store)
        return plan_circuits(self.artifacts, self.store, cfg.noise_p
                             if cfg.backend == "shots" else None)


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
    """Probability of label 1 for sentence ``item`` under the current store;
    a shot-based model samples with ``sample_seed``, which it needs. A
    symbol the store lacks, or holds in another shape, raises
    UnboundSymbol or ShapeMismatch naming the item, and a circuit's angle
    that is not finite NonFiniteAngle."""
    if isinstance(item, (bool, np.bool_)) \
            or not 0 <= item < len(model.artifacts):
        raise UnknownItem(f"item {item!r} is not in the dataset's "
                          f"{len(model.artifacts)} sentences")
    art = model.artifacts[item]
    cfg = model.config
    if cfg.backend == "shots" and sample_seed is None \
            and isinstance(art, Circuit):
        raise NoSampleSeed(f"item {item}: backend 'shots' samples, so it "
                           "needs a sample_seed")
    try:
        if isinstance(art, TensorNetwork):
            p1 = _vector_p1(contract(art, store))
            if p1 is None:
                logger.warning("degenerate sentence vector for item %d", item)
                return 0.5
            return p1
        assert isinstance(art, Circuit)
        if cfg.backend == "exact":
            probs = evaluate(art, store)
            return probs.get("1", 0.0)
        counts = sample(art, store, cfg.n_shots, sample_seed, cfg.noise_p)
        total = sum(counts.values())
        return counts.get("1", 0) / total
    except (ZeroNorm, AllShotsDiscarded) as exc:
        logger.warning("item %d: %s; predicting 0.5", item, exc)
        return 0.5
    except (UnboundSymbol, ShapeMismatch, NonFiniteAngle) as exc:
        raise type(exc)(f"item {item}: {exc}") from None


def group_p1(plan: NetworkPlan, vec: np.ndarray, n_shots: int = 0,
             seeds: Sequence[int] = ()) -> np.ndarray:
    """p1 of each sentence of a plan under the flat vector ``vec``, in
    ``plan.rows`` order, from one engine call (contract_plan) over every
    group: read off a tensor's value or a circuit's amplitudes, nan where
    the norm is below ZERO_VECTOR or ZERO_NORM_THRESHOLD; with
    ``n_shots``, the share of the kept shots that read 1 among those that
    row k's superoperator network (plan_circuits with a noise level)
    draws with ``seeds[k]`` as ``sample`` does, nan where its outcomes are
    not finite (never drawn) or it keeps none, which the caller reports
    (``degenerate``)."""
    if not plan.groups:  # an empty split
        return np.zeros(0)
    values = contract_plan(plan, vec)
    if not n_shots:  # a circuit's amplitudes are complex, a tensor's real
        floor = ZERO_NORM_THRESHOLD if np.iscomplexobj(values) \
            else ZERO_VECTOR
        return _rows_p1(values, floor)
    p1, outcomes = np.full(len(values), np.nan), values.real
    for k in np.flatnonzero(np.isfinite(outcomes).all(axis=1)):
        kept = draw(outcomes[k], n_shots, seeds[k])
        p1[k] = int(kept[1]) / int(kept.sum()) if kept.any() else np.nan
    return p1


def degenerate(cfg: PipelineConfig) -> str:
    """Why group_p1 reads a sentence of a ``cfg`` model as nan."""
    if cfg.backend == "shots":
        return f"all {cfg.n_shots} shots violated postselection"
    return "degenerate sentence vector" if cfg.ansatz != "iqp" else \
        f"postselection probability below {ZERO_NORM_THRESHOLD:.0e}"


def prediction_gradient(plan: NetworkPlan, vec: np.ndarray,
                        dloss_dp1: Callable[[np.ndarray], np.ndarray]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """group_p1, and the gradient of the sum of the sentences' losses given
    ``dloss_dp1(p1)``, each loss's derivative by its p1, in ``plan.rows``
    order. One engine call (contract_grad) serves every group and both
    results: dloss_dp1 sees every sentence at once, and the gradient sums
    the groups' gradients in group order. A degenerate sentence adds
    nothing."""
    if not plan.groups:  # no train or dev sentence
        return np.zeros(0), np.zeros(len(vec))
    p1 = []

    def upstream(v: np.ndarray) -> np.ndarray:
        p1.append(_rows_p1(v))
        ok = ~np.isnan(p1[0])
        v0, v1 = v[:, 0], v[:, 1]
        s = np.where(ok, v0 ** 2 + v1 ** 2, 1.0)
        w = np.where(ok, dloss_dp1(p1[0]), 0.0) / s ** 2
        return np.stack((-2.0 * v0 * v1 ** 2 * w, 2.0 * v1 * v0 ** 2 * w),
                        axis=1)

    _, grad = contract_grad(plan, vec, upstream)
    return p1[0], grad

"""Losses, optimizers and the full-batch experiment loop.

The classical pipeline trains tensor networks with Adam on exact gradients.
Quantum pipelines use SPSA, which probes the loss at two randomly perturbed
points per step and never needs circuit gradients. ``train`` and
``evaluate_split`` share the model's plan (``CompiledModel.plan``), which
groups the sentences by network structure and plans each group once:
tensor networks, exact circuits as the tensor networks of their gates, and
shot-based circuits as their superoperator networks.

Every iteration is then one batched pass at the current point, one engine
call that serves every structure group (``prediction_gradient`` or
``group_p1`` on the whole ``NetworkPlan``). That pass also scores the
point, which is the previous iteration's history row, so scoring takes no
pass of its own; one final forward pass scores the last point. With Adam
the pass computes values and gradients over the train and dev sentences,
the plan stacked over those rows alone, the dev rows with a zero
cotangent. With SPSA, ``spsa_step`` hands both probe points to the loss in
one call, and the pass stacks the train sentences at each probe with the
train and dev sentences at the current point (``NetworkPlan.stack``). A
shot-based row draws its shots from its outcome probabilities with the
shot seed of its iteration, evaluation slot and item. All runs are
deterministic given the config seed, bit for bit.
A pass reads a degenerate sentence as nan, which predicts 0.5 with one
warning that names it and why (``pipeline.degenerate``); the gradient
skips the same rows. A circuit's non-finite angle would read so too, so
``train`` refuses one before its first pass.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .contract import NetworkPlan, ShapeMismatch
from .dataset import (  # noqa: F401  re-exported
    SPLITS, EmptySplit, UnknownSplit,
)
from .params import ParameterStore, UnboundSymbol
from .pipeline import CompiledModel, degenerate, group_p1, logger, \
    predict_p1, prediction_gradient, shot_seed
from .simulator import NonFiniteAngle, angles

CLAMP = 1e-9


def bce_loss(p1, y):
    """Binary cross entropy with probability clamping; elementwise on
    arrays."""
    p = np.clip(p1, CLAMP, 1.0 - CLAMP)
    return -(y * np.log(p) + (1 - y) * np.log(1.0 - p))


def bce_grad(p1, y):
    """d bce_loss / d p1 with the same clamping; elementwise on arrays."""
    p = np.clip(p1, CLAMP, 1.0 - CLAMP)
    return -y / p + (1 - y) / (1.0 - p)


def accuracy(p1s, labels) -> float:
    """Share of sentences whose p1 >= 0.5 matches the label; nan if there
    are none."""
    if not len(labels):
        return float("nan")
    hits = np.count_nonzero((np.asarray(p1s) >= 0.5)
                            == np.asarray(labels, dtype=bool))
    return hits / len(labels)


# ---------------------------------------------------------------------------
# Optimizers.
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n))


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float = 0.05, beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> tuple[np.ndarray, AdamState]:
    """One Adam update with bias correction."""
    t = state.t + 1
    m = beta1 * state.m + (1 - beta1) * grad
    v = beta2 * state.v + (1 - beta2) * grad ** 2
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    new = params - lr * m_hat / (np.sqrt(v_hat) + epsilon)
    return new, AdamState(m, v, t)


def spsa_step(params: np.ndarray,
              loss_fn: Callable[[np.ndarray, np.ndarray], tuple[float, float]],
              k: int, a: float = 0.05, c: float = 0.06, big_a: float = 0.0,
              alpha: float = 0.602, gamma: float = 0.101, *,
              rng: np.random.Generator) -> np.ndarray:
    """One SPSA update along a random direction. ``loss_fn`` gets both
    probe points in one call, so it can evaluate them as one batch, and
    returns the loss at each."""
    delta = rng.choice((-1.0, 1.0), size=params.shape)
    ck = c / (k + 1) ** gamma
    ak = a / (big_a + k + 1) ** alpha
    plus, minus = loss_fn(params + ck * delta, params - ck * delta)
    gradient = (plus - minus) / (2.0 * ck) / delta
    return params - ak * gradient


# ---------------------------------------------------------------------------
# Experiment loop.
# ---------------------------------------------------------------------------


@dataclass
class TrainHistory:
    COLUMNS = ("iter", "train_loss", "train_acc", "dev_loss", "dev_acc")
    rows: list[tuple[int, float, float, float, float]] = field(
        default_factory=list)

    def append(self, iteration, train_loss, train_acc, dev_loss, dev_acc):
        self.rows.append((iteration, float(train_loss), float(train_acc),
                          float(dev_loss), float(dev_acc)))

    def column(self, name: str) -> list[float]:
        if name not in self.COLUMNS:
            raise ValueError(f"unknown column {name!r}; allowed: "
                             f"{', '.join(self.COLUMNS)}")
        idx = self.COLUMNS.index(name)
        return [row[idx] for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.COLUMNS)
        writer.writerows(self.rows)
        return buf.getvalue()

    def __len__(self) -> int:
        return len(self.rows)


def _parts_p1(model: CompiledModel, p1: np.ndarray, parts
              ) -> list[np.ndarray]:
    """Each part's p1, cut out of ``p1`` (one row per point, one column
    per sentence); a nan entry, a degenerate sentence, predicts 0.5 with
    one warning that names the item and why (``degenerate``)."""
    out, why = [], degenerate(model.config)
    for point, rows in parts:
        values = p1[point, list(rows)]
        for k in np.flatnonzero(np.isnan(values)):
            logger.warning("item %d: %s; predicting 0.5", rows[k], why)
            values[k] = 0.5
        out.append(values)
    return out


def _circuit_angles(model: CompiledModel, store: ParameterStore,
                    items) -> np.ndarray:
    """The angles of ``store`` in the layout of the circuit model's own
    store, nan where one is missing or not a scalar. A missing, misshapen
    or non-finite one that ``items`` read raises as predict_p1 would on
    the first item that reads one."""
    names = model.store.names()
    vec = np.array([store[n] if n in store and store[n].shape == ()
                    else np.nan for n in names], float)
    bad = {n for n, x in zip(names, vec) if not np.isfinite(x)}
    for i in items if bad else ():
        if bad.intersection(s.name for s in model.artifacts[i].symbols):
            try:
                angles(model.artifacts[i], store)
            except (UnboundSymbol, ShapeMismatch, NonFiniteAngle) as exc:
                raise type(exc)(f"item {i}: {exc}") from None
    return vec


def _batch_p1(model: CompiledModel, plan: NetworkPlan, points, parts,
              seeds) -> list[np.ndarray]:
    """p1 of each part's sentences, part (point, rows) the sentences at
    ``rows`` under the flat vector ``points[point]``, from one pass
    (group_p1) over ``plan``, the model's plan stacked over ``parts``; a
    shot-based row draws with the shot seed of its item and of part k's
    (iteration, slot) = ``seeds[k]``."""
    cfg, count = model.config, len(model.artifacts)
    n_shots, draws = 0, ()
    if cfg.backend == "shots":
        at = {point * count + i: shot_seed(cfg.seed, *seed, i)
              for (point, rows), seed in zip(parts, seeds) for i in rows}
        n_shots, draws = cfg.n_shots, [at[row] for row in plan.rows.tolist()]
    p1 = np.zeros(plan.count)
    p1[plan.rows] = group_p1(plan, np.concatenate(points), n_shots, draws)
    return _parts_p1(model, p1.reshape(len(points), -1), parts)


def _mean_loss(p1s, labels) -> float:
    """Mean bce_loss over the sentences; nan if there are none."""
    if not len(labels):
        return float("nan")
    return float(np.mean(bce_loss(np.asarray(p1s), np.asarray(labels))))


def train(model: CompiledModel) -> tuple[ParameterStore, TrainHistory]:
    """Full-batch training; returns the final store and the history.

    Iteration k takes one batched pass over every structure group at its
    point theta_k: with Adam, values and gradients over train and dev; with
    SPSA, the train rows at both probes stacked with train and dev at
    theta_k. The values at theta_k give history row k - 1, the score of
    step k - 1's result, and a final forward pass gives the last row.
    Raises EmptySplit if there is no train sentence, and NonFiniteAngle,
    naming the first, if a train or dev circuit reads an angle that is not
    finite; an empty dev split scores nan."""
    cfg = model.config
    ds = model.dataset
    if not ds.train:
        raise EmptySplit("split 'train' holds no sentence to train on")
    train_idx, train_y = ds.train, ds.labels("train")
    dev_idx, dev_y = ds.dev, ds.labels("dev")
    store = model.store
    history = TrainHistory()
    if cfg.iterations == 0:
        return store, history

    plan = model.plan
    vec = _circuit_angles(model, store, train_idx + dev_idx) \
        if cfg.ansatz == "iqp" else store.to_vector()
    size = len(vec)

    def record(it: int, train_p1: np.ndarray, dev_p1: np.ndarray) -> None:
        history.append(it, _mean_loss(train_p1, train_y),
                       accuracy(train_p1, train_y),
                       _mean_loss(dev_p1, dev_y), accuracy(dev_p1, dev_y))

    # a score: the train and dev sentences at one point, their shots drawn
    # in slots 1 and 2
    score = [(0, train_idx), (0, dev_idx)]
    if cfg.optimizer == "adam":  # the config pairs adam with tensors only
        adam_state = AdamState.zeros(size)
        plan = plan.stack([(0, train_idx + dev_idx)], size)  # no test row
        labels, trains = np.zeros(plan.count), np.zeros(plan.count, bool)
        labels[list(train_idx)] = train_y
        trains[list(train_idx)] = True
        y, t = labels[plan.rows], trains[plan.rows]
        for it in range(cfg.iterations):
            p1 = np.zeros(plan.count)
            p1[plan.rows], grad = prediction_gradient(
                plan, vec, lambda p: np.where(t, bce_grad(p, y), 0.0))
            # at iteration 0 only to report degenerate rows
            scores = _parts_p1(model, p1[None], score)
            if it:
                record(it - 1, *scores)
            vec, adam_state = adam_step(vec, grad / len(train_idx),
                                        adam_state)
    else:
        # the probes at points 0 and 1, whose shots share slot 0, and the
        # score of the current point, 2
        probes = [(0, train_idx), (1, train_idx)]
        parts = probes + [(2, rows) for _, rows in score]
        plans = plan.stack(probes, size), plan.stack(parts, size)
        spsa_rng = np.random.default_rng(cfg.seed)
        for it in range(cfg.iterations):
            def losses(plus, minus, _it=it, _vec=vec):
                seeds = [(_it, 0)] * 2 + [(_it - 1, 1), (_it - 1, 2)]
                if _it:
                    p1s = _batch_p1(model, plans[1], (plus, minus, _vec),
                                    parts, seeds)
                    record(_it - 1, *p1s[2:])
                else:  # no row to score yet: the probes alone
                    p1s = _batch_p1(model, plans[0], (plus, minus), probes,
                                    seeds)
                return (_mean_loss(p1s[0], train_y),
                        _mean_loss(p1s[1], train_y))

            vec = spsa_step(vec, losses, it, big_a=0.1 * cfg.iterations,
                            rng=spsa_rng)

    last = cfg.iterations - 1
    record(last, *_batch_p1(model, plan.stack(score, size), [vec], score,
                            [(last, 1), (last, 2)]))
    return store.from_vector(vec), history


def evaluate_split(model: CompiledModel, store: ParameterStore,
                   split: str = "test") -> dict[str, float]:
    """Loss and accuracy of a split, one of SPLITS, under a trained store;
    shot-based sentences draw in slot 3 of iteration -1. A bad symbol
    raises as predict_p1 does on the first sentence that reads it."""
    cfg, ds = model.config, model.dataset
    labels, idx = ds.labels(split), getattr(ds, split)  # labels checks it
    if cfg.ansatz == "iqp" and cfg.backend == "exact":
        vec = _circuit_angles(model, store, idx)  # in the model's layout
        part = [(0, idx)]
        (p1s,) = _batch_p1(model, model.plan.stack(part, len(vec)), [vec],
                           part, [(-1, 3)])
    else:  # per sentence: the benchmark times and records each predict_p1
        p1s = [predict_p1(model, store, i, shot_seed(cfg.seed, -1, 3, i)
                          if cfg.backend == "shots" else None) for i in idx]
    return {
        f"{split}_loss": _mean_loss(p1s, labels),
        f"{split}_accuracy": accuracy(p1s, labels),
    }

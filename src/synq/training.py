"""Losses, optimizers and the full-batch experiment loop.

The classical pipeline trains tensor networks with Adam on exact gradients.
Quantum pipelines use SPSA, which probes the loss at two randomly perturbed
points per step and never needs circuit gradients. ``train`` groups the
sentences by network structure and plans each group's contraction once:
tensor networks, and exact circuits as the tensor networks of their gates.
Every iteration then takes one batched pass per group for each loss (with
Adam, a value-and-gradient pass) and one for the train and dev scores
together. Shot-based circuits are sampled one sentence at a time, each
with its own shot seed.
All runs are deterministic given the config seed (with the exact backend,
bit-for-bit).
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .ansatz import TensorNetwork
from .contract import NetworkPlan, plan_networks
from .params import ParameterStore
from .pipeline import CompiledModel, group_p1, predict_p1, \
    prediction_gradient, shot_seed
from .simulator import plan_circuits

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
    """Share of sentences whose p1 >= 0.5 matches the label."""
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


def spsa_step(params: np.ndarray, loss_fn: Callable[[np.ndarray], float],
              k: int, a: float = 0.05, c: float = 0.06, big_a: float = 0.0,
              alpha: float = 0.602, gamma: float = 0.101, *,
              rng: np.random.Generator) -> np.ndarray:
    """One SPSA update: two loss evaluations along a random direction."""
    delta = rng.choice((-1.0, 1.0), size=params.shape)
    ck = c / (k + 1) ** gamma
    ak = a / (big_a + k + 1) ** alpha
    plus = loss_fn(params + ck * delta)
    minus = loss_fn(params - ck * delta)
    gradient = (plus - minus) / (2.0 * ck) / delta
    return params - ak * gradient


# ---------------------------------------------------------------------------
# Experiment loop.
# ---------------------------------------------------------------------------


@dataclass
class TrainHistory:
    rows: list[tuple[int, float, float, float, float]] = field(
        default_factory=list)

    def append(self, iteration, train_loss, train_acc, dev_loss, dev_acc):
        self.rows.append((iteration, float(train_loss), float(train_acc),
                          float(dev_loss), float(dev_acc)))

    def column(self, name: str) -> list[float]:
        idx = ("iter", "train_loss", "train_acc", "dev_loss", "dev_acc"
               ).index(name)
        return [row[idx] for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["iter", "train_loss", "train_acc", "dev_loss",
                         "dev_acc"])
        writer.writerows(self.rows)
        return buf.getvalue()

    def __len__(self) -> int:
        return len(self.rows)


def _circuit_plan(model: CompiledModel) -> Optional[NetworkPlan]:
    """The plan of an exact circuit model, else None: shot-based circuits
    are sampled sentence by sentence, each with its shot seed."""
    if model.config.ansatz == "iqp" and model.config.backend == "exact":
        return plan_circuits(model.artifacts, model.store)
    return None


def _batch_p1(model: CompiledModel, plan: Optional[NetworkPlan],
              vec: np.ndarray, indices, iteration: int,
              slot: int) -> list[float]:
    """p1 of the sentences at ``indices`` under the flat vector ``vec``.

    With a plan (tensor models and exact circuits), one batched pass per
    group (group_p1); a sentence whose norm is below the floor of its kind
    is re-predicted by predict_p1, which reports it. Without a plan,
    sentence by sentence."""
    cfg = model.config
    if plan is None:
        store = model.store.from_vector(vec)
        return [predict_p1(model, store, i,
                           shot_seed(cfg.seed, iteration, slot, i)
                           if cfg.backend == "shots" else None)
                for i in indices]
    p1 = np.zeros(plan.count)
    for g in plan.select(indices):
        p1[g.rows] = group_p1(g, vec)
    p1 = p1[list(indices)]
    bad = np.flatnonzero(np.isnan(p1))
    if len(bad):
        store = model.store.from_vector(vec)
        for k in bad:
            p1[k] = predict_p1(model, store, indices[k])
    return p1.tolist()


def _mean_loss(p1s, labels) -> float:
    return float(np.mean(bce_loss(np.asarray(p1s), np.asarray(labels))))


def train(model: CompiledModel) -> tuple[ParameterStore, TrainHistory]:
    """Full-batch training; returns the final store and the history."""
    cfg = model.config
    ds = model.dataset
    train_idx, train_y = ds.train, ds.labels("train")
    dev_idx, dev_y = ds.dev, ds.labels("dev")
    store = model.store
    history = TrainHistory()
    if cfg.iterations == 0:
        return store, history

    if isinstance(model.artifacts[0], TensorNetwork):
        plan = plan_networks(model.artifacts, train_idx + dev_idx, store)
    else:
        plan = _circuit_plan(model)
    vec = store.to_vector()
    adam_state = AdamState.zeros(len(vec))
    spsa_rng = np.random.default_rng(cfg.seed)
    if cfg.optimizer == "adam":  # the config pairs adam with tensors only
        groups = plan.select(train_idx)
        labels = np.zeros(plan.count)
        labels[list(train_idx)] = train_y

    for it in range(cfg.iterations):
        if cfg.optimizer == "adam":
            grad, degenerate = np.zeros_like(vec), []
            for g in groups:
                y = labels[g.rows]
                p1, g_grad = prediction_gradient(
                    g, vec, lambda p, y=y: bce_grad(p, y))
                grad += g_grad
                degenerate += g.rows[np.isnan(p1)].tolist()
            if degenerate:  # zero vectors add no gradient: report them
                current = store.from_vector(vec)
                for i in sorted(degenerate):
                    predict_p1(model, current, i)
            grad /= len(train_idx)
            vec, adam_state = adam_step(vec, grad, adam_state)
        else:
            def loss_at(theta: np.ndarray, _it=it) -> float:
                p1s = _batch_p1(model, plan, theta, train_idx, _it, slot=0)
                return _mean_loss(p1s, train_y)

            vec = spsa_step(vec, loss_at, it, big_a=0.1 * cfg.iterations,
                            rng=spsa_rng)

        if plan is not None:  # one pass per group for both
            p1s = _batch_p1(model, plan, vec, train_idx + dev_idx, it, 1)
            train_p1, dev_p1 = p1s[:len(train_idx)], p1s[len(train_idx):]
        else:
            train_p1 = _batch_p1(model, plan, vec, train_idx, it, slot=1)
            dev_p1 = _batch_p1(model, plan, vec, dev_idx, it, slot=2)
        history.append(it, _mean_loss(train_p1, train_y),
                       accuracy(train_p1, train_y),
                       _mean_loss(dev_p1, dev_y),
                       accuracy(dev_p1, dev_y))

    return store.from_vector(vec), history


def evaluate_split(model: CompiledModel, store: ParameterStore,
                   split: str = "test") -> dict[str, float]:
    """Loss and accuracy of a split under a trained store."""
    ds = model.dataset
    idx, labels = getattr(ds, split), ds.labels(split)
    vec = store.to_vector(model.store.names())  # in the model's layout
    p1s = _batch_p1(model, _circuit_plan(model), vec, idx, -1, slot=3)
    return {
        f"{split}_loss": _mean_loss(p1s, labels),
        f"{split}_accuracy": accuracy(p1s, labels),
    }

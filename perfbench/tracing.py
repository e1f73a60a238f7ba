"""Outside-in instrumentation of synq's layers.

``HOOKS`` lists each layer's public function at the name its caller looks
up, so replacing that attribute sees every call without editing synq. The
``Tracer`` keeps spans (name, start, end, parent) in memory and counts
degenerate outcomes at the simulator and contraction boundaries; the
per-layer metrics are computed from the spans after the run. ``patched``
is the one place that swaps an attribute and puts it back.
"""
from __future__ import annotations

import importlib
from collections import Counter
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np

from workloads import length_bucket

# (module, class or "", attribute, layer). Each attribute is the one the
# calling code resolves at call time: pipeline.sentence_to_diagram calls
# ccg.parse_auto, Rewriter.__call__ calls rewrite.apply, predict_p1 calls
# pipeline.contract, training.train calls training.predict_p1, and so on.
HOOKS = (
    ("synq.ccg", "", "parse_auto", "ccg.parse_auto"),
    ("synq.ccg", "", "tree_to_diagram", "ccg.tree_to_diagram"),
    ("synq.rewrite", "", "apply", "rewrite.apply"),
    ("synq.diagram", "Diagram", "normal_form", "diagram.normal_form"),
    ("synq.pipeline", "", "compile_diagram", "ansatz.compile"),
    ("synq.params", "ParameterStore", "initialize", "params.initialize"),
    ("synq.pipeline", "", "contract", "contract.contract"),
    ("synq.pipeline", "", "contract_grad", "contract.contract_grad"),
    ("synq.pipeline", "", "evaluate", "simulator.evaluate"),
    ("synq.pipeline", "", "sample", "simulator.sample"),
    ("synq.training", "", "predict_p1", "pipeline.predict_p1"),
    ("synq.training", "", "prediction_gradient",
     "pipeline.prediction_gradient"),
    ("synq.params", "ParameterStore", "from_vector", "params.from_vector"),
    ("synq.training", "", "adam_step", "training.step"),
    ("synq.training", "", "spsa_step", "training.step"),
)

ZERO_VECTOR = 1e-300  # predict_p1's threshold for a degenerate vector


def resolve(module: str, owner: str):
    target = importlib.import_module(module)
    return getattr(target, owner, None) if owner else target


@contextmanager
def patched(target, attr: str, make_wrapper):
    """Replace target.attr by make_wrapper(function) and restore it after.

    Class and static methods are unwrapped and rewrapped, so the
    replacement binds as the original did."""
    raw = vars(target)[attr]
    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    wrapped = make_wrapper(raw.__func__ if kind else raw)
    setattr(target, attr, kind(wrapped) if kind else wrapped)
    try:
        yield
    finally:
        setattr(target, attr, raw)


class Tracer:
    """Spans and boundary counters of the traced episodes."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.absent = [layer for module, owner, attr, layer in HOOKS
                       if attr not in vars(resolve(module, owner) or object)]

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(
            [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = perf_counter()

    def _observe(self, layer: str, result, exc) -> None:
        c = self.counters
        if layer in ("simulator.evaluate", "simulator.sample"):
            c[f"{layer}.raised"] += exc is not None
            if layer == "simulator.sample" and exc is None:
                c["simulator.sample.kept"] += sum(result.values())
        elif layer == "contract.contract" and exc is None:
            parent = self.spans[self.stack[-1]][0] if self.stack else ""
            v = np.asarray(result)
            if parent == "pipeline.predict_p1" and v.shape == (2,) \
                    and float(v[0] ** 2 + v[1] ** 2) < ZERO_VECTOR:
                c["contract.zero_vector"] += 1

    def _wrapper(self, layer: str):
        def make(fn):
            def traced(*args, **kwargs):
                result = exc = None
                with self.span(layer):
                    try:
                        result = fn(*args, **kwargs)
                    except Exception as e:
                        exc = e
                        raise
                    finally:
                        self._observe(layer, result, exc)
                return result
            return traced
        return make

    @contextmanager
    def installed(self):
        """Every present hook wraps its layer for the duration."""
        with ExitStack() as stack:
            for module, owner, attr, layer in HOOKS:
                if layer not in self.absent:
                    stack.enter_context(patched(
                        resolve(module, owner), attr, self._wrapper(layer)))
            yield


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans.
# ---------------------------------------------------------------------------


def _phases_and_self(spans: list) -> tuple[list[str], list[float]]:
    """The root phase of each span and its self time in seconds."""
    phase, self_s = [], [s[2] - s[1] for s in spans]
    for i, (name, start, end, parent) in enumerate(spans):
        phase.append(phase[parent] if parent >= 0 else name)
        if parent >= 0:
            self_s[parent] -= end - start
    return phase, self_s


def self_time_shares(spans: list) -> dict:
    """Each layer's self time as a share of its phase's wall time."""
    phase, self_s = _phases_and_self(spans)
    wall, own = Counter(), {}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            wall[name] += end - start
        else:
            own.setdefault(phase[i], Counter())[name] += self_s[i]
    return {p: {name: t / wall[p] for name, t in layers.most_common()}
            for p, layers in own.items()}


def _train_split(spans: list, phase: list, self_s: list,
                 evals_per_iter: int) -> dict:
    """Attribute train-phase time to grad, step and eval by call order.

    After each optimizer step, train() rebuilds the store once and predicts
    every train and dev sentence: that is eval. Everything else at the top
    of the train phase, and the SPSA probes nested in the step, is grad."""
    out = Counter()
    roots = {i for i, s in enumerate(spans) if s[3] < 0
             and s[0] == "phase.train"}
    quota = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        if parent not in roots:
            continue
        dur = end - start
        if name == "training.step":
            out["step"] += self_s[i]
            out["grad"] += dur - self_s[i]
            quota = Counter({"params.from_vector": 1,
                             "pipeline.predict_p1": evals_per_iter})
        elif quota[name] > 0:
            quota[name] -= 1
            out["eval"] += dur
        else:
            out["grad"] += dur
    return out


def layer_metrics(tracer: Tracer, iterations: int, predictions: int,
                  setups: int, evals_per_iter: int, n_shots: int,
                  words: list[int]) -> dict:
    """Per-layer figures of the traced episodes, keyed by metric name."""
    spans = tracer.spans
    phase, self_s = _phases_and_self(spans)
    total, own, calls = Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        key = (phase[i], s[0])
        total[key] += s[2] - s[1]
        own[key] += self_s[i]
        calls[key] += 1
    per_iter = 1e3 / max(iterations, 1)
    per_pred = 1e3 / max(predictions, 1)
    per_setup = 1e3 / max(setups, 1)
    split = _train_split(spans, phase, self_s, evals_per_iter)
    c = tracer.counters
    samples = calls[("phase.predict", "simulator.sample")]
    sim_calls = sum(calls[(p, n)] for p in ("phase.train", "phase.predict")
                    for n in ("simulator.evaluate", "simulator.sample"))
    raised = c["simulator.evaluate.raised"] + c["simulator.sample.raised"]
    out = {
        f"{layer}.ms": total[("phase.setup", layer)] * per_setup
        for layer in ("ccg.parse_auto", "ccg.tree_to_diagram",
                      "rewrite.apply", "diagram.normal_form",
                      "ansatz.compile", "params.initialize")}
    out["compile.ms_per_word.growth"] = _growth(spans, phase, words)
    for layer in ("contract.contract", "contract.contract_grad",
                  "simulator.evaluate"):
        out[f"{layer}.calls_per_iter"] = \
            calls[("phase.train", layer)] / max(iterations, 1)
        out[f"{layer}.self_ms_per_iter"] = \
            own[("phase.train", layer)] * per_iter
    out["contract.contract.self_ms_per_sentence"] = \
        own[("phase.predict", "contract.contract")] * per_pred
    out["simulator.sample.self_ms_per_sentence"] = \
        own[("phase.predict", "simulator.sample")] * per_pred
    out["simulator.shots_kept_ratio"] = (
        c["simulator.sample.kept"] / (samples * n_shots) if samples else 0.0)
    out["simulator.degenerate"] = raised / sim_calls if sim_calls else 0.0
    for layer in ("pipeline.predict_p1", "pipeline.prediction_gradient"):
        out[f"{layer}.self_ms_per_iter"] = \
            own[("phase.train", layer)] * per_iter
    out["params.from_vector.ms_per_iter"] = \
        total[("phase.train", "params.from_vector")] * per_iter
    out["training.grad.ms_per_iter"] = split["grad"] * per_iter
    out["training.step.self_ms_per_iter"] = split["step"] * per_iter
    out["training.eval.ms_per_iter"] = split["eval"] * per_iter
    return out


def _growth(spans: list, phase: list, words: list[int]) -> float:
    """ms per word of conversion, rewrite and normal form on the longest
    power-of-two length bucket over the same on the shortest.

    Each sentence's stages follow its parse_auto call, so the calls are
    split at parse_auto; the setups repeat the sentences in order."""
    stages = ("ccg.tree_to_diagram", "rewrite.apply", "diagram.normal_form")
    per_sentence: list[float] = []
    for i, s in enumerate(spans):
        if phase[i] != "phase.setup":
            continue
        if s[0] == "ccg.parse_auto":
            per_sentence.append(0.0)
        elif s[0] in stages and per_sentence:
            per_sentence[-1] += s[2] - s[1]
    if not per_sentence or len(per_sentence) % len(words):
        return 0.0
    ms, count = Counter(), Counter()
    for k, seconds in enumerate(per_sentence):
        w = words[k % len(words)]
        bucket = length_bucket(w)
        ms[bucket] += 1e3 * seconds
        count[bucket] += w
    lo, hi = min(ms), max(ms)
    return (ms[hi] / count[hi]) / (ms[lo] / count[lo])

"""One benchmark run: episodes of compile, train and predict, their
oracle checks, and the metrics and report built from them.

``run.py`` is the command line; it pins BLAS to one thread before this
module imports numpy.
"""
import json
import logging
import os
import platform
import resource
import statistics
import tempfile
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import calibration
import oracles
import workloads
from synq import pipeline, training
from tracing import Tracer, layer_metrics, patched, self_time_shares

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

END_TO_END = {
    "setup_s": "s",
    "train_iter_ms.p50": "ms",
    "train_iter_ms.p90": "ms",
    "predict_ms.p50": "ms/sentence",
    "predict_ms.p90": "ms/sentence",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.ms": "ms" for layer in (
        "ccg.parse_auto", "ccg.tree_to_diagram", "rewrite.apply",
        "diagram.normal_form", "ansatz.compile", "params.initialize")},
    "compile.ms_per_word.growth": "ratio",
    "contract.contract.calls_per_iter": "calls/iter",
    "contract.contract.self_ms_per_iter": "ms/iter",
    "contract.contract_grad.calls_per_iter": "calls/iter",
    "contract.contract_grad.self_ms_per_iter": "ms/iter",
    "contract.contract.self_ms_per_sentence": "ms/sentence",
    "simulator.evaluate.calls_per_iter": "calls/iter",
    "simulator.evaluate.self_ms_per_iter": "ms/iter",
    "simulator.sample.self_ms_per_sentence": "ms/sentence",
    "simulator.shots_kept_ratio": "ratio",
    "simulator.degenerate": "ratio",
    "pipeline.predict_p1.self_ms_per_iter": "ms/iter",
    "pipeline.prediction_gradient.self_ms_per_iter": "ms/iter",
    "params.from_vector.ms_per_iter": "ms/iter",
    "training.grad.ms_per_iter": "ms/iter",
    "training.step.self_ms_per_iter": "ms/iter",
    "training.eval.ms_per_iter": "ms/iter",
    "trace.overhead": "ratio",
    "fallback_rate": "ratio",
}


class WarningCounter(logging.Handler):
    """Counts synq.pipeline's fallback warnings per episode phase."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.phase = "setup"
        self.counts = Counter()

    def emit(self, record):
        self.counts[self.phase] += 1


@dataclass
class Episode:
    setup_s: float
    iter_ms: list  # wall time between consecutive optimizer steps
    predict_ms: dict  # item -> ms, from one predict_p1 call to the next
    scale: dict  # "setup", "train" or an item -> calibration factor
    p1: dict  # item -> p1 returned in the predict phase
    kept: dict  # item -> kept shots, for sampled predictions
    scores: dict  # split -> (loss, accuracy) from evaluate_split
    history: list  # every row of the training history
    warnings: Counter  # phase -> fallback warnings
    traced: bool
    model: object = None
    store: object = None


def run_episode(wl, counter: WarningCounter, tracer=None) -> Episode:
    """Compile, train and predict once, timing each phase from outside.

    The clock is read around compile_model, once per optimizer step and
    once per prediction; with a tracer each phase is also a root span.
    The calibration kernel runs between phases, outside every timing."""
    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    counter.counts = Counter()
    counter.phase = "setup"
    cal = [calibration.probe()]
    with span("phase.setup"):
        t0 = perf_counter()
        model = pipeline.compile_model(wl.config, wl.dataset)
        setup_s = perf_counter() - t0

    stamps = []

    def stamp(fn):
        def stamped(*args, **kwargs):
            stamps.append(perf_counter())
            return fn(*args, **kwargs)
        return stamped

    cal.append(calibration.probe())
    counter.phase = "train"
    with span("phase.train"), patched(training, "adam_step", stamp), \
            patched(training, "spsa_step", stamp):
        store, history = training.train(model)

    events, kept, current = [], {}, [None]

    def record(fn):
        def recorded(m, s, item, *args, **kwargs):
            start = perf_counter()
            current[0] = item
            p1 = fn(m, s, item, *args, **kwargs)
            events.append((start, item, p1))
            return p1
        return recorded

    def count_kept(fn):
        def counted(*args, **kwargs):
            kept[current[0]] = 0
            counts = fn(*args, **kwargs)
            kept[current[0]] = sum(counts.values())
            return counts
        return counted

    cal.append(calibration.probe())
    counter.phase = "predict"
    predict_model = replace(model, config=wl.predict_config)
    scores = {}
    for split in workloads.SPLITS:
        with span("phase.predict"), \
                patched(training, "predict_p1", record), \
                patched(pipeline, "sample", count_kept):
            result = training.evaluate_split(predict_model, store, split)
            events.append((perf_counter(), None, None))
        scores[split] = (result[f"{split}_loss"], result[f"{split}_accuracy"])
        cal.append(calibration.probe())
    predict_ms, p1 = {}, {}
    for (start, item, value), (nxt, _, _) in zip(events, events[1:]):
        if item is not None:
            predict_ms[item] = 1e3 * (nxt - start)
            p1[item] = value
    # each phase, and each split's predictions, is scaled by the kernel
    # times at its two ends
    factor = [2 * calibration.NOMINAL_MS / (a + b)
              for a, b in zip(cal, cal[1:])]
    scale = {"setup": factor[0], "train": factor[1]}
    for k, split in enumerate(workloads.SPLITS):
        scale.update({i: factor[2 + k] for i in getattr(wl.dataset, split)})
    iter_ms = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
    return Episode(setup_s, iter_ms, predict_ms, scale, p1, kept, scores,
                   list(history.rows), counter.counts, tracer is not None,
                   model, store)


def check_episode(wl, ep: Episode) -> list[dict]:
    """Oracle checks of one episode's outputs; oracle time is not timed."""
    ds, arts, store = wl.dataset, ep.model.artifacts, ep.store
    checks = []

    def add(name, failures):
        checks.append({"check": name, "ok": not failures,
                       "failed": len(failures),
                       "examples": [list(f) for f in failures[:3]]})

    if wl.config.ansatz == "iqp":
        exact = {i: oracles.circuit_exact(arts[i], store)
                 for i in range(len(ds.items))}
        trained = {i: (p1 if p_post >= oracles.ZERO_NORM else 0.5)
                   for i, (p_post, p1) in exact.items()}
        exact_model = replace(ep.model, config=wl.config)
        synq_exact = {i: pipeline.predict_p1(exact_model, store, i)
                      for i in trained}
        add("iqp-exact-statevector",
            oracles.check_close(synq_exact, trained, oracles.EXACT_TOL))
    else:
        trained = {i: oracles.tensor_p1(arts[i], store)
                   for i in range(len(ds.items))}
    row = ep.history[-1]
    add("train-history-vs-oracle",
        oracles.check_scores(row[1:3], [trained[i] for i in ds.train],
                             ds.labels("train"))
        + oracles.check_scores(row[3:5], [trained[i] for i in ds.dev],
                               ds.labels("dev")))
    pcfg = wl.predict_config
    if pcfg.backend == "shots":
        noisy = {i: oracles.circuit_noisy(arts[i], store, pcfg.noise_p)
                 for i in range(len(ds.items))}
        add("noisy-shots-density-matrix",
            oracles.check_sampled(ep.p1, ep.kept, noisy, pcfg.n_shots))
    else:
        add("tensor-pairwise-tensordot",
            oracles.check_close(ep.p1, trained, oracles.TENSOR_TOL))
    for split in workloads.SPLITS:
        add(f"{split}-scores",
            oracles.check_scores(ep.scores[split],
                                 [ep.p1[i] for i in getattr(ds, split)],
                                 ds.labels(split)))
    return checks


def same_outputs(a: Episode, b: Episode) -> bool:
    return (a.history == b.history and a.p1 == b.p1 and a.kept == b.kept
            and a.scores == b.scores and a.warnings == b.warnings)


def timings(episodes: list[Episode], calibrated: bool = True) -> dict:
    """Timing statistics of the episodes, with their sample counts.

    Calibrated, each sample is scaled to the host's fast state (see
    calibration.py); that keeps the figures of runs made minutes apart, in
    different host states, comparable. Every episode repeats the same
    training iterations and predictions, so each iteration and each
    sentence gets its median time over the episodes, and the percentiles
    are taken over iterations or over sentences."""
    def scale(ep, key):
        return ep.scale[key] if calibrated else 1.0

    per_iter = [float(np.median([ep.iter_ms[k] * scale(ep, "train")
                                 for ep in episodes]))
                for k in range(len(episodes[0].iter_ms))]
    per_item = [float(np.median([ep.predict_ms[i] * scale(ep, i)
                                 for ep in episodes]))
                for i in episodes[0].predict_ms]
    return {
        "setup_s": float(np.median([ep.setup_s * scale(ep, "setup")
                                    for ep in episodes])),
        "train_iter_ms.p50": float(np.percentile(per_iter, 50)),
        "train_iter_ms.p90": float(np.percentile(per_iter, 90)),
        "predict_ms.p50": float(np.percentile(per_item, 50)),
        "predict_ms.p90": float(np.percentile(per_item, 90)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": {"episodes": len(episodes), "iterations": len(per_iter),
                    "sentences": len(per_item)},
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, dict]:
    """Run the episodes; returns (report, result line)."""
    RESULTS.mkdir(exist_ok=True)
    counter = WarningCounter()
    logger = logging.getLogger("synq.pipeline")
    logger.addHandler(counter)
    tracer = Tracer() if trace else None
    episodes: list[Episode] = []
    try:
        with tempfile.TemporaryDirectory(dir=RESULTS) as inputs:
            wl = workloads.build(workload, seed, Path(inputs), tiny)
            start = perf_counter()
            while True:
                t0 = perf_counter()
                if trace and len(episodes) % 2 == 1:
                    with tracer.installed():
                        ep = run_episode(wl, counter, tracer)
                else:
                    ep = run_episode(wl, counter)
                if episodes:
                    ep.model = ep.store = None
                episodes.append(ep)
                last = perf_counter() - t0
                if len(episodes) >= (2 if trace else 1) and \
                        perf_counter() - start + last > seconds:
                    break
            first = episodes[0]
            checks = check_episode(wl, first)
            descriptors = workloads.describe(wl, first.model.artifacts)
    finally:
        logger.removeHandler(counter)

    checks.append({"check": "episodes-identical", "ok": all(
        same_outputs(first, ep) for ep in episodes[1:]), "failed": 0})
    untraced = [ep for ep in episodes if not ep.traced]
    traced = [ep for ep in episodes if ep.traced]
    predictions = len(wl.dataset.items)
    fallbacks = sum(ep.warnings["predict"] for ep in episodes)
    outputs = {
        "final_history_row": first.history[-1],
        "scores": first.scores,
        "fallback_warnings_per_episode": dict(first.warnings),
        "fallback_predictions": fallbacks,
    }
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "episodes": len(episodes),
              "traced_episodes": len(traced),
              "training_iterations_per_episode": len(first.history),
              "episode_setup_s": [ep.setup_s for ep in episodes],
              "episode_iter_ms_median": [
                  statistics.median(ep.iter_ms) if ep.iter_ms else None
                  for ep in episodes],
              "episode_calibration": [
                  {"setup": ep.scale["setup"], "train": ep.scale["train"]}
                  for ep in episodes],
              "descriptors": descriptors, "environment": environment(),
              "outputs": outputs}
    if trace:
        iterations = sum(len(ep.history) for ep in traced)
        metrics = layer_metrics(
            tracer, iterations=iterations,
            predictions=predictions * len(traced), setups=len(traced),
            evals_per_iter=len(wl.dataset.train) + len(wl.dataset.dev),
            n_shots=wl.predict_config.n_shots,
            words=workloads.word_counts(wl.dataset))
        metrics = {name: value for name, value in metrics.items()
                   if not any(name.startswith(layer + ".")
                              for layer in tracer.absent)}
        metrics["trace.overhead"] = (
            timings(traced)["train_iter_ms.p50"]
            / timings(untraced)["train_iter_ms.p50"])
        metrics["fallback_rate"] = fallbacks / (predictions * len(episodes))
        boundary = (tracer.counters["simulator.evaluate.raised"]
                    + tracer.counters["simulator.sample.raised"]
                    + tracer.counters["contract.zero_vector"])
        logged = sum(ep.warnings[p] for ep in traced
                     for p in ("train", "predict"))
        checks.append({"check": "fallback-counts-agree",
                       "ok": boundary == logged and all(
                           ep.warnings == first.warnings for ep in episodes),
                       "failed": abs(boundary - logged),
                       "logged": logged, "boundary": boundary})
        report["absent_hooks"] = tracer.absent
        report["counters"] = dict(tracer.counters)
        report["self_time_shares"] = self_time_shares(tracer.spans)
        spans_path = RESULTS / f"{workload}-seed{seed}-spans.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"],
             "spans": tracer.spans}))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        units = PER_LAYER
    else:
        metrics = report["timings"] = timings(episodes)
        report["uncalibrated_timings"] = timings(episodes, calibrated=False)
        units = END_TO_END
    report["checks"] = checks
    result = {
        "correct": all(c["ok"] for c in checks),
        # an operation is a training iteration or a prediction; it fails
        # when it yields no probability. A fallback to 0.5 is a probability
        # and is counted by fallback_rate instead.
        "attempted": sum(predictions + len(ep.history) for ep in episodes),
        "failed": sum(not 0.0 <= p <= 1.0
                      for ep in episodes for p in ep.p1.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    return report, result

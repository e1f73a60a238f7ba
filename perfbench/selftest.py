"""Tests of the benchmark itself: output schema, tiny smoke runs of every
workload, oracle checks that fail on perturbed predictions, and the hook
table. Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from synq import pipeline, simulator  # noqa: E402
from synq.pipeline import compile_model  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
harness.RESULTS.mkdir(exist_ok=True)
DESCRIPTORS = {"seed", "sentences", "words_per_sentence",
               "distinct_structures", "shared_structure_share",
               "qubits_per_circuit", "nodes_per_network", "n_shots",
               "noise_p"}


@pytest.fixture(scope="module", params=workloads.NAMES)
def tiny_runs(request):
    return {trace: harness.run(request.param, 3, 0.01, trace, tiny=True)
            for trace in (False, True)}


def test_spec_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        harness.PER_LAYER


def test_output_schema_and_smoke(tiny_runs):
    for trace, (report, result) in tiny_runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], report["checks"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        table = harness.PER_LAYER if trace else harness.END_TO_END
        assert list(result["metrics"]) == list(table)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == table[name]
            assert isinstance(metric["value"], float)
            if not trace:
                assert metric["value"] > 0, name
        assert DESCRIPTORS <= set(report["descriptors"])
        assert {"cpu_count", "python", "numpy", "threads_env"} <= \
            set(report["environment"])
    assert tiny_runs[True][0]["absent_hooks"] == []


def test_result_is_the_last_stdout_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mc-spider",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report, result = map(json.loads, proc.stdout.splitlines()[-2:])
    assert result["correct"]
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert set(report["environment"]["threads_env"].values()) == {"1"}


def test_fails_without_sources():
    bare = harness.RESULTS / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mc-spider",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


def _model(name):
    wl = workloads.build(name, 5, harness.RESULTS, tiny=True)
    return wl, compile_model(wl.config, wl.dataset)


def test_tensor_check_fails_on_perturbed_prediction():
    for name in ("mc-spider", "long-ccg"):
        wl, model = _model(name)
        items = range(len(wl.dataset.items))
        synq_p1 = {i: pipeline.predict_p1(model, model.store, i)
                   for i in items}
        ref = {i: oracles.tensor_p1(model.artifacts[i], model.store)
               for i in items}
        assert oracles.check_close(synq_p1, ref, oracles.TENSOR_TOL) == []
        synq_p1[1] += 1e-8
        assert [i for i, _ in oracles.check_close(
            synq_p1, ref, oracles.TENSOR_TOL)] == [1]


def test_exact_circuit_check_fails_on_perturbed_prediction():
    wl, model = _model("mc-iqp")
    items = range(len(wl.dataset.items))
    synq_p1 = {i: pipeline.predict_p1(model, model.store, i) for i in items}
    ref = {i: oracles.circuit_exact(model.artifacts[i], model.store)[1]
           for i in items}
    assert oracles.check_close(synq_p1, ref, oracles.EXACT_TOL) == []
    synq_p1[2] += 1e-10
    assert [i for i, _ in oracles.check_close(
        synq_p1, ref, oracles.EXACT_TOL)] == [2]


def test_noisy_check_fails_on_perturbed_prediction():
    wl, model = _model("mc-iqp")
    cfg = wl.predict_config
    predicted, kept, ref = {}, {}, {}
    for i, art in enumerate(model.artifacts):
        counts = simulator.sample(art, model.store, cfg.n_shots, 100 + i,
                                  cfg.noise_p)
        kept[i] = sum(counts.values())
        predicted[i] = counts.get("1", 0) / kept[i]
        ref[i] = oracles.circuit_noisy(art, model.store, cfg.noise_p)
    assert oracles.check_sampled(predicted, kept, ref, cfg.n_shots) == []
    best = max(kept, key=kept.get)
    shifted = dict(predicted)
    shifted[best] = min(1.0, predicted[best] + 0.1) \
        if predicted[best] < 0.5 else predicted[best] - 0.1
    assert [i for i, _ in oracles.check_sampled(
        shifted, kept, ref, cfg.n_shots)] == [best]
    fallback = dict(kept)
    fallback[best] = 0
    shifted = dict(predicted)
    shifted[best] = 0.5
    assert [i for i, _ in oracles.check_sampled(
        shifted, fallback, ref, cfg.n_shots)] == [best]


def test_noisy_oracle_reduces_to_exact_without_noise():
    wl, model = _model("mc-iqp")
    for art in model.artifacts:
        noisy = oracles.circuit_noisy(art, model.store, 0.0)
        exact = oracles.circuit_exact(art, model.store)
        assert noisy == pytest.approx(exact, abs=1e-12)


def test_score_check_fails_on_perturbed_loss():
    p1s, labels = [0.2, 0.7, 0.9], [0, 1, 0]
    loss, acc = oracles.split_scores(p1s, labels)
    assert oracles.check_scores((loss, acc), p1s, labels) == []
    assert oracles.check_scores((loss + 1e-6, acc), p1s, labels) != []
    assert oracles.check_scores((loss, acc - 1 / 3), p1s, labels) != []


def test_run_fails_when_predictions_are_perturbed(monkeypatch):
    real = pipeline.predict_p1

    def off(*args, **kwargs):
        return real(*args, **kwargs) * (1 + 1e-7)

    monkeypatch.setattr("synq.training.predict_p1", off)
    report, result = harness.run("mc-spider", 0, 0.01, False, tiny=True)
    failed = {c["check"] for c in report["checks"] if not c["ok"]}
    assert not result["correct"] and "tensor-pairwise-tensordot" in failed


def test_hooks_are_restored_and_absent_hooks_reported(monkeypatch):
    before = {(m, o, a): vars(tracing.resolve(m, o))[a]
              for m, o, a, _ in tracing.HOOKS}
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(vars(tracing.resolve(m, o))[a] is not before[(m, o, a)]
                   for m, o, a in before)
    assert all(vars(tracing.resolve(m, o))[a] is before[(m, o, a)]
               for m, o, a in before)
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (
        ("synq.contract", "", "contract_planned", "contract.planned"),))
    assert tracing.Tracer().absent == ["contract.planned"]


def test_traced_outputs_equal_untraced():
    wl = workloads.build("mc-iqp", 1, harness.RESULTS, tiny=True)
    counter = harness.WarningCounter()
    plain = harness.run_episode(wl, counter)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = harness.run_episode(wl, counter, tracer)
    assert harness.same_outputs(plain, traced)
    names = {s[0] for s in tracer.spans}
    assert {"simulator.evaluate", "simulator.sample",
            "training.step"} <= names


def test_calibration_scales_every_phase_and_sentence():
    wl = workloads.build("long-ccg", 2, harness.RESULTS, tiny=True)
    ep = harness.run_episode(wl, harness.WarningCounter())
    assert set(ep.scale) == {"setup", "train"} | set(ep.predict_ms)
    assert all(f > 0 for f in ep.scale.values())
    raw = harness.timings([ep], calibrated=False)
    assert raw["setup_s"] == ep.setup_s
    assert harness.timings([ep])["setup_s"] == ep.setup_s * ep.scale["setup"]


def test_long_ccg_inputs_follow_the_length_schedule():
    ds, auto = workloads.long_dataset(7, workloads.LONG_WORDS)
    lengths = [n for split in workloads.SPLITS
               for n in workloads.LONG_WORDS[split]]
    assert workloads.word_counts(ds) == lengths
    assert auto.splitlines()[0] == "ID=0"
    assert workloads.long_dataset(7, workloads.LONG_WORDS) == (ds, auto)
    assert workloads.long_dataset(8, workloads.LONG_WORDS)[0] != ds
    wl = workloads.build("long-ccg", 7, harness.RESULTS, tiny=True)
    model = compile_model(wl.config, wl.dataset)
    assert len({workloads.structure_key(a) for a in model.artifacts}) == \
        len(model.artifacts)

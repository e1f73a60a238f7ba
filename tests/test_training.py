import logging
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from synq.dataset import generate_dataset
from synq.params import ParameterStore
from synq.pipeline import (
    CompileError, CompiledModel, PipelineConfig, compile_model, predict_p1,
    sentence_to_diagram,
)
from synq.simulator import plan_circuits
from synq.training import (
    AdamState, TrainHistory, _batch_p1, accuracy, adam_step, bce_loss,
    evaluate_split, iterations_to_reach, spsa_step, train,
)


class TestBce:
    def test_certain_correct(self):
        assert bce_loss(1.0, 1) == pytest.approx(1e-9, abs=1e-10)
        assert bce_loss(0.0, 0) == pytest.approx(1e-9, abs=1e-10)

    def test_half(self):
        assert bce_loss(0.5, 0) == pytest.approx(np.log(2))
        assert bce_loss(0.5, 1) == pytest.approx(np.log(2))

    def test_clamp_boundary(self):
        assert bce_loss(0.0, 1) == pytest.approx(np.log(1e9), rel=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert bce_loss(float(rng.random()), int(rng.integers(2))) >= 0


class TestAdam:
    def test_zero_gradient_no_motion(self):
        x = np.array([1.0, -2.0])
        out, state = adam_step(x, np.zeros(2), AdamState.zeros(2))
        assert np.allclose(out, x)

    def test_first_step_signed_unit(self):
        x = np.zeros(3)
        g = np.array([0.3, -2.0, 0.0])
        out, _ = adam_step(x, g, AdamState.zeros(3), lr=0.05)
        # at t=1 the update is ~ -lr * sign(g) per coordinate
        assert out[0] == pytest.approx(-0.05, rel=1e-6)
        assert out[1] == pytest.approx(0.05, rel=1e-6)
        assert out[2] == 0.0

    def test_quadratic_convergence(self):
        rng = np.random.default_rng(0)
        target = rng.normal(size=8)
        x = target + rng.normal(size=8)
        state = AdamState.zeros(8)
        for _ in range(500):
            grad = 2 * (x - target)
            x, state = adam_step(x, grad, state, lr=0.05)
        assert np.linalg.norm(x - target) < 1e-3


class TestSpsa:
    def test_linear_gradient_exact(self):
        # for L = 3 theta, the two-point estimate is exactly 3 either way
        for seed in range(5):
            rng = np.random.default_rng(seed)
            out = spsa_step(np.array([1.0]), lambda t: 3.0 * t[0], k=0,
                            a=0.1, big_a=0.0, rng=rng)
            ak = 0.1 / 1.0 ** 0.602
            assert out[0] == pytest.approx(1.0 - ak * 3.0)

    def test_constant_loss_no_motion(self):
        out = spsa_step(np.ones(4), lambda t: 7.0, k=3,
                        rng=np.random.default_rng(0))
        assert np.allclose(out, np.ones(4))

    def test_quadratic_bowl_90_percent(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=10)
        start = float(np.sum(x ** 2))
        for k in range(300):
            x = spsa_step(x, lambda t: float(np.sum(t ** 2)), k,
                          a=0.05, c=0.06, big_a=30.0, rng=rng)
        assert float(np.sum(x ** 2)) < 0.1 * start

    def test_two_evaluations_per_step(self):
        calls = []

        def loss(t):
            calls.append(1)
            return float(np.sum(t ** 2))

        spsa_step(np.ones(3), loss, k=0, rng=np.random.default_rng(0))
        assert len(calls) == 2


class TestHistory:
    def test_csv_shape(self):
        h = TrainHistory()
        h.append(0, 0.7, 0.5, 0.71, 0.48)
        text = h.to_csv()
        assert text.splitlines()[0] == "iter,train_loss,train_acc,dev_loss,dev_acc"
        assert len(text.splitlines()) == 2

    def test_iterations_to_reach(self):
        h = TrainHistory()
        for it, acc in enumerate([0.4, 0.6, 0.8, 0.95, 0.97]):
            h.append(it, 0, 0, 0, acc)
        assert iterations_to_reach(h, 0.8) == 2
        assert iterations_to_reach(h, 0.99) is None


def tiny_dataset(n_train=6, n_eval=2):
    from synq.dataset import LabeledDataset
    sents = [
        ("chef prepares meal", 0), ("cook bakes soup", 0),
        ("baker serves dinner", 0), ("chef cooks dessert", 0),
        ("programmer creates software", 1), ("developer writes code", 1),
        ("engineer debugs program", 1), ("hacker designs algorithm", 1),
    ]
    extra = [("waiter tastes sauce", 0), ("analyst runs application", 1),
             ("gourmet prepares dinner", 0), ("programmer writes program", 1)]
    items = tuple(sents + extra)
    train = tuple(range(8))
    dev = (8, 9)
    test = (10, 11)
    return LabeledDataset(items, train, dev, test)


class TestPipelines:
    def test_compile_model_tensor(self):
        ds = tiny_dataset()
        cfg = PipelineConfig(reader="ccg", ansatz="spider", seed=1)
        model = compile_model(cfg, ds)
        assert len(model.artifacts) == len(ds.items)
        assert model.store.size > 0

    def test_compile_error_lists_sentences(self):
        from synq.dataset import LabeledDataset
        ds = LabeledDataset((("", 0),), (0,), (), ())
        cfg = PipelineConfig(reader="cups")
        with pytest.raises(CompileError) as err:
            compile_model(cfg, ds)
        assert "0:" in str(err.value)

    def test_zero_iterations(self):
        ds = tiny_dataset()
        cfg = PipelineConfig(reader="cups", ansatz="tensor", iterations=0,
                             dim_map={"n": 2, "s": 2}, seed=0)
        model = compile_model(cfg, ds)
        store, history = train(model)
        assert len(history) == 0
        assert np.allclose(store.to_vector(), model.store.to_vector())

    def test_predict_bounds_and_determinism(self):
        ds = tiny_dataset()
        cfg = PipelineConfig(reader="ccg", ansatz="iqp", backend="exact",
                             optimizer="spsa", seed=3)
        model = compile_model(cfg, ds)
        p = [predict_p1(model, model.store, i) for i in range(4)]
        q = [predict_p1(model, model.store, i) for i in range(4)]
        assert p == q
        assert all(0.0 <= x <= 1.0 for x in p)

    def test_tensor_predict_examples(self):
        # v = (1, 0) -> 0 ; v = (1, 1) -> 0.5
        from synq.ansatz import tensor_ansatz
        from synq.diagram import word
        from synq.types import ts as _ts
        ds = tiny_dataset()
        cfg = PipelineConfig(reader="cups", ansatz="tensor",
                             dim_map={"n": 2, "s": 2})
        model = compile_model(cfg, ds)
        art = tensor_ansatz(word("w", _ts("s")), {"s": 2})
        model.artifacts[0] = art
        sym = art.symbols[0].name
        st = model.store.copy()
        st[sym] = np.array([1.0, 0.0])
        assert predict_p1(model, st, 0) == 0.0
        st[sym] = np.array([1.0, 1.0])
        assert predict_p1(model, st, 0) == 0.5

    def test_training_classical_tiny(self):
        ds = tiny_dataset()
        cfg = PipelineConfig(reader="ccg", ansatz="spider", optimizer="adam",
                             iterations=150, seed=0)
        model = compile_model(cfg, ds)
        store, history = train(model)
        assert len(history) == 150
        metrics = evaluate_split(model, store, "test")
        assert history.column("train_acc")[-1] == 1.0
        assert metrics["test_accuracy"] >= 0.5

    def test_training_deterministic(self):
        ds = tiny_dataset()
        cfg = PipelineConfig(reader="ccg", ansatz="spider", optimizer="adam",
                             iterations=5, seed=7)
        s1, h1 = train(compile_model(cfg, ds))
        s2, h2 = train(compile_model(cfg, ds))
        assert np.allclose(s1.to_vector(), s2.to_vector())
        assert h1.rows == h2.rows

    def test_ccg_path_keys_items_by_integer_id(self, tmp_path):
        from synq.dataset import write_auto
        ds = tiny_dataset()
        write_auto(ds, tmp_path / "d.auto")
        cfg = PipelineConfig(reader="ccg", ansatz="spider", seed=1)
        from_file = compile_model(
            replace(cfg, ccg_path=str(tmp_path / "d.auto")), ds)
        assert from_file.artifacts == compile_model(cfg, ds).artifacts

    @pytest.mark.parametrize("ids", ["fix", "short"])
    def test_ccg_path_missing_derivation_names_item(self, tmp_path, ids):
        ds = tiny_dataset()
        path = Path(__file__).parent / "data" / "fixtures.auto"
        if ids == "short":  # derivations for all items but the last
            from synq.dataset import sentence_to_auto
            path = tmp_path / "short.auto"
            path.write_text("".join(
                f"ID={i}\n{sentence_to_auto(text)}\n"
                for i, (text, _) in enumerate(ds.items[:-1])))
        cfg = PipelineConfig(reader="ccg", ccg_path=str(path))
        with pytest.raises(CompileError) as err:
            compile_model(cfg, ds)
        missing = range(len(ds.items)) if ids == "fix" else [len(ds.items) - 1]
        assert str(err.value).splitlines()[1:] == [
            f"{i}: {ds.items[i][0]!r}" for i in missing]

    def test_sentence_to_diagram_rewrites(self):
        cfg = PipelineConfig(reader="ccg", rewrites=("determiner",))
        d = sentence_to_diagram(
            cfg, "john walks",
            "(<T S[dcl] 1 2> (<L NP NNP NNP john NP>) "
            "(<L S[dcl]\\NP VBZ VBZ walks S[dcl]\\NP>))")
        assert d.cod.items[0].base == "s"


class TestPlannedCircuits:
    def model(self):
        cfg = PipelineConfig(ansatz="iqp", optimizer="spsa", iterations=3,
                             seed=2)
        return compile_model(cfg, generate_dataset(0))

    def test_spsa_deterministic_and_matches_per_sentence(self):
        model = self.model()
        s1, h1 = train(model)
        s2, h2 = train(self.model())
        assert h1.rows == h2.rows
        assert np.array_equal(s1.to_vector(), s2.to_vector())
        # without a plan, every p1 comes from predict_p1, one sentence at a
        # time, through the same SPSA loop
        s3, h3 = train(replace(model, plan=None))
        assert np.abs(np.array(h1.rows) - np.array(h3.rows)).max() < 1e-10
        assert np.abs(s1.to_vector() - s3.to_vector()).max() < 1e-10
        assert evaluate_split(model, s1, "test") == pytest.approx(
            evaluate_split(replace(model, plan=None), s1, "test"), abs=1e-10)

    def test_zero_norm_row_falls_back_once(self, caplog):
        from synq.ansatz import Circuit, Op, Symbol
        model = self.model()
        rows = list(range(10))
        before = _batch_p1(model, model.store.to_vector(), rows, 0, 1)
        # Rx(pi) leaves the postselected qubit in |1>: zero norm
        dead = Circuit(2, (Op("Rx", (1,), Symbol("flip")),), (1,), (0,))
        store = model.store.copy()
        store["flip"] = np.pi
        artifacts = list(model.artifacts)
        artifacts[3] = dead
        broken = replace(model, artifacts=artifacts, store=store,
                         plan=plan_circuits(artifacts, store))
        with caplog.at_level(logging.WARNING, logger="synq.pipeline"):
            after = _batch_p1(broken, store.to_vector(), rows, 0, 1)
        warnings = [r for r in caplog.records if r.name == "synq.pipeline"]
        assert len(warnings) == 1 and "item 3" in warnings[0].getMessage()
        assert after[3] == 0.5
        assert after[:3] + after[4:] == before[:3] + before[4:]

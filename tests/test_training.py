import logging
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from synq.dataset import generate_dataset
from synq.params import ParameterStore
from synq import pipeline, training
from synq.contract import plan_networks
from synq.pipeline import (
    CompileError, CompiledModel, PipelineConfig, compile_model, group_p1,
    predict_p1, prediction_gradient, sentence_to_diagram,
)
from synq.simulator import plan_circuits
from synq.training import (
    AdamState, TrainHistory, _batch_p1, accuracy, adam_step, bce_grad,
    bce_loss, evaluate_split, iterations_to_reach, spsa_step, train,
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

    def test_array_and_scalar_calls_agree(self):
        rng = np.random.default_rng(4)
        p1 = np.concatenate([rng.random(40), [0.0, 1.0, 0.5, 1e-12]])
        y = rng.integers(0, 2, size=p1.size)
        for fn in (bce_loss, bce_grad):
            got = fn(p1, y)
            assert got.shape == p1.shape
            assert got.tolist() == [fn(float(p), int(t))
                                    for p, t in zip(p1, y)]
        for p, t in zip(p1.tolist(), y.tolist()):  # the scalar rule
            clamped = min(max(p, 1e-9), 1.0 - 1e-9)
            assert bce_grad(p, t) == -t / clamped + (1 - t) / (1 - clamped)
        hits = sum((float(p) >= 0.5) == bool(t) for p, t in zip(p1, y))
        assert accuracy(p1, y) == accuracy(p1.tolist(), y.tolist()) \
            == hits / p1.size

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

    @pytest.mark.parametrize("noise_p", [3.0, 1.0001, -0.5, float("nan"),
                                         float("inf")])
    def test_noise_p_outside_unit_interval_rejected(self, noise_p):
        with pytest.raises(ValueError, match=f"noise_p .*{noise_p!r}"):
            PipelineConfig(ansatz="iqp", backend="shots", noise_p=noise_p)

    def test_config_is_hashable_and_holds_no_mutable_value(self):
        cfg = PipelineConfig(rewrites=["determiner"])
        assert cfg.rewrites == ("determiner",)
        assert hash(cfg) == hash(PipelineConfig(rewrites=("determiner",)))

    @pytest.mark.parametrize("kwargs, named", [
        ({"rewrites": ("determiners",)}, "rewrite rule 'determiners'"),
        ({"rewrites": "determiner"}, "string 'determiner'"),
        ({"reader": "cups", "ccg_path": "/nonexistent.auto"},
         "'/nonexistent.auto' needs reader 'ccg', not 'cups'"),
    ])
    def test_config_mistake_rejected_at_construction(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            PipelineConfig(**kwargs)

    def test_zero_iterations(self):
        ds = tiny_dataset()
        cfg = PipelineConfig(reader="cups", ansatz="tensor", iterations=0,
                             seed=0)
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
        cfg = PipelineConfig(reader="cups", ansatz="tensor")
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

    def test_rewriter_is_built_once_per_rule_tuple(self, monkeypatch):
        from synq import rewrite
        loads = []
        load = rewrite.load_wordlist
        monkeypatch.setattr(rewrite, "load_wordlist",
                            lambda name: loads.append(name) or load(name))
        pipeline._rewriter.cache_clear()
        cfg = PipelineConfig(reader="cups", rewrites=tuple(rewrite.RULE_NAMES))
        for text in ("chef cooks meal", "red chef cooks tasty meal"):
            sentence_to_diagram(cfg, text)
            sentence_to_diagram(replace(cfg, rewrites=list(cfg.rewrites)), text)
        assert len(loads) == len(rewrite.RULE_NAMES)


def with_dead_row(model, item):
    """The model with item's network renamed apart: its first parameter
    node gets a fresh all-zero symbol, so the sentence vector is zero while
    the network keeps its structure and its group."""
    from synq.ansatz import Node, Symbol, TensorNetwork
    tn = model.artifacts[item]
    k = next(k for k, n in enumerate(tn.nodes) if n.kind == "param")
    node = tn.nodes[k]
    dead = Node(node.node_id, "param", node.shape, Symbol("dead", node.shape))
    nodes = tn.nodes[:k] + (dead,) + tn.nodes[k + 1:]
    artifacts = list(model.artifacts)
    artifacts[item] = TensorNetwork(nodes, tn.edges, tn.open_legs)
    store = model.store.copy()
    store["dead"] = np.zeros(node.shape)
    return replace(model, artifacts=artifacts, store=store)


def one_row(model, item):
    (group,) = plan_networks(model.artifacts, [item], model.store).groups
    return group


class TestAdamGradientPass:
    def test_contracts_only_for_evaluation(self, monkeypatch):
        ds = generate_dataset(0)
        model = compile_model(
            PipelineConfig(ansatz="spider", iterations=2, seed=0), ds)
        calls, grads = [], []
        real, real_grad = pipeline.contract, pipeline.contract_grad
        monkeypatch.setattr(pipeline, "contract",
                            lambda *args: calls.append(1) or real(*args))
        monkeypatch.setattr(pipeline, "contract_grad", lambda *args: (
            grads.append(1) or real_grad(*args)))
        train(model)
        # no sentence is contracted on its own: one batched gradient pass
        # per group of training sentences and iteration
        groups = plan_networks(model.artifacts, ds.train, model.store).groups
        assert len(calls) == 0
        assert len(grads) == 2 * len(groups) == 8

    def test_prediction_gradient_matches_finite_differences(self):
        model = compile_model(PipelineConfig(ansatz="spider", seed=3),
                              tiny_dataset())
        store = model.store
        x0 = store.to_vector()
        rng = np.random.default_rng(0)
        u = rng.normal(size=x0.shape)
        u /= np.linalg.norm(u)
        h = 1e-6
        rows = list(range(8))
        w = rng.normal(size=len(rows))
        for g in plan_networks(model.artifacts, rows, store).groups:
            p1, dp1 = prediction_gradient(g, x0, lambda p, w=w[g.rows]: w)
            assert p1.tolist() == [predict_p1(model, store, i)
                                   for i in g.rows]
            loss = [sum(w[i] * predict_p1(model, store.from_vector(x), i)
                        for i in g.rows) for x in (x0 + h * u, x0 - h * u)]
            assert abs((loss[0] - loss[1]) / (2 * h) - dp1 @ u) < 1e-6

    def test_zero_vector_warns_once_and_adds_no_gradient(self, monkeypatch,
                                                         caplog):
        ds = tiny_dataset()
        cfg = PipelineConfig(reader="cups", ansatz="tensor", iterations=1)
        clean = compile_model(cfg, ds)
        model = with_dead_row(clean, 0)
        assert ds.train[0] == 0
        predicted, steps = [], []
        real_predict = training.predict_p1

        def spy_predict(*args):
            p1 = real_predict(*args)
            predicted.append((args[2], p1))
            return p1

        def spy_step(vec, grad, state, *args):
            warned = [r for r in caplog.records if r.name == "synq.pipeline"]
            steps.append((list(predicted), len(warned), grad))
            return vec, state

        monkeypatch.setattr(training, "predict_p1", spy_predict)
        monkeypatch.setattr(training, "adam_step", spy_step)
        with caplog.at_level(logging.WARNING, logger="synq.pipeline"):
            train(model)
        ((in_gradient_pass, warnings, grad),) = steps
        assert in_gradient_pass == [(0, 0.5)]
        assert warnings == 1
        # the clean sentences alone, in the same groups and order
        labels = np.array(ds.labels("train"), dtype=float)
        want = np.zeros(clean.store.size)
        netplan = plan_networks(clean.artifacts, ds.train, clean.store)
        for g in netplan.select(ds.train[1:]):
            want += prediction_gradient(
                g, clean.store.to_vector(),
                lambda p, y=labels[g.rows]: bce_grad(p, y))[1]
        assert np.array_equal(grad[:clean.store.size], want / len(ds.train))
        assert not grad[clean.store.size:].any()


class TestBatchedTensors:
    @pytest.mark.parametrize("ansatz", ["spider", "tensor", "mps"])
    def test_batch_matches_rows_and_finite_differences(self, ansatz):
        ds = generate_dataset(0)
        model = compile_model(PipelineConfig(ansatz=ansatz, seed=1), ds)
        store, rows = model.store, ds.train + ds.dev
        vec = store.to_vector()
        netplan = plan_networks(model.artifacts, rows, store)
        assert len(netplan.groups) < len(rows)
        rng = np.random.default_rng(2)
        w = rng.normal(size=len(model.artifacts))
        u = rng.normal(size=vec.shape)
        u /= np.linalg.norm(u)
        h = 1e-6
        for g in netplan.groups:
            p1, grad = prediction_gradient(g, vec, lambda p: w[g.rows])
            want_p1 = [predict_p1(model, store, i) for i in g.rows]
            assert np.allclose(p1, want_p1, rtol=0, atol=1e-12)
            assert np.array_equal(group_p1(g, vec), p1)
            want = sum(prediction_gradient(one_row(model, i), vec,
                                           lambda p, i=i: w[[i]])[1]
                       for i in g.rows)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(grad - want)) <= 1e-12 * scale
            fd = (w[g.rows] @ group_p1(g, vec + h * u)
                  - w[g.rows] @ group_p1(g, vec - h * u)) / (2 * h)
            assert abs(fd - grad @ u) < 1e-6

    def test_zero_vector_row_reports_once_and_leaves_others(self, caplog):
        model = compile_model(PipelineConfig(ansatz="spider", seed=4),
                              generate_dataset(0))
        rows = list(model.dataset.train)
        item = rows[5]
        dead = with_dead_row(model, item)
        netplan = plan_networks(model.artifacts, rows, model.store)
        dead_plan = plan_networks(dead.artifacts, rows, dead.store)
        assert len(dead_plan.groups) == len(netplan.groups)
        before = _batch_p1(model, netplan, model.store.to_vector(), rows,
                           0, 1)
        assert np.allclose(before, [predict_p1(model, model.store, i)
                                    for i in rows], rtol=0, atol=1e-12)
        with caplog.at_level(logging.WARNING, logger="synq.pipeline"):
            after = _batch_p1(dead, dead_plan, dead.store.to_vector(), rows,
                              0, 1)
        warnings = [r for r in caplog.records if r.name == "synq.pipeline"]
        assert len(warnings) == 1
        assert f"item {item}" in warnings[0].getMessage()
        assert after[5] == 0.5
        assert after[:5] + after[6:] == before[:5] + before[6:]


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
        before = _batch_p1(model, model.plan, model.store.to_vector(), rows,
                           0, 1)
        # Rx(pi) leaves the postselected qubit in |1>: zero norm
        dead = Circuit(2, (Op("Rx", (1,), Symbol("flip")),), (1,), (0,))
        store = model.store.copy()
        store["flip"] = np.pi
        artifacts = list(model.artifacts)
        artifacts[3] = dead
        broken = replace(model, artifacts=artifacts, store=store,
                         plan=plan_circuits(artifacts, store))
        with caplog.at_level(logging.WARNING, logger="synq.pipeline"):
            after = _batch_p1(broken, broken.plan, store.to_vector(), rows,
                              0, 1)
        warnings = [r for r in caplog.records if r.name == "synq.pipeline"]
        assert len(warnings) == 1 and "item 3" in warnings[0].getMessage()
        assert after[3] == 0.5
        assert after[:3] + after[4:] == before[:3] + before[4:]

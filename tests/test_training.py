import logging
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from synq.contract import ShapeMismatch
from synq.dataset import LabeledDataset, generate_dataset
from synq.params import ParameterStore, UnboundSymbol
from synq import ccg, pipeline, training
from synq import contract as contract_module
from synq.contract import NetworkPlan, plan_networks
from synq.pipeline import (
    CompileError, CompiledModel, NoSampleSeed, PipelineConfig, UnknownItem,
    compile_model, group_p1, predict_p1, prediction_gradient,
    sentence_to_diagram,
)
from synq.simulator import NonFiniteAngle, plan_circuits
from synq.training import (
    SPLITS, AdamState, TrainHistory, UnknownSplit, _batch_p1, accuracy,
    adam_step, bce_grad, bce_loss, evaluate_split, spsa_step, train,
)
from test_contract import alone


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


def pointwise(loss):
    """A two-point loss function of spsa_step from a one-point ``loss``."""
    return lambda plus, minus: (loss(plus), loss(minus))


class TestSpsa:
    def test_linear_gradient_exact(self):
        # for L = 3 theta, the two-point estimate is exactly 3 either way
        for seed in range(5):
            rng = np.random.default_rng(seed)
            out = spsa_step(np.array([1.0]), pointwise(lambda t: 3.0 * t[0]),
                            k=0, a=0.1, big_a=0.0, rng=rng)
            ak = 0.1 / 1.0 ** 0.602
            assert out[0] == pytest.approx(1.0 - ak * 3.0)

    def test_constant_loss_no_motion(self):
        out = spsa_step(np.ones(4), pointwise(lambda t: 7.0), k=3,
                        rng=np.random.default_rng(0))
        assert np.allclose(out, np.ones(4))

    def test_quadratic_bowl_90_percent(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=10)
        start = float(np.sum(x ** 2))
        for k in range(300):
            x = spsa_step(x, pointwise(lambda t: float(np.sum(t ** 2))), k,
                          a=0.05, c=0.06, big_a=30.0, rng=rng)
        assert float(np.sum(x ** 2)) < 0.1 * start

    def test_two_evaluations_per_step(self):
        # both probe points reach the loss function in one call
        calls = []

        def losses(plus, minus):
            calls.append((plus, minus))
            return float(np.sum(plus ** 2)), float(np.sum(minus ** 2))

        spsa_step(np.ones(3), losses, k=0, rng=np.random.default_rng(0))
        ((plus, minus),) = calls
        # +-c along a +-1 direction, c = 0.06 at k = 0
        assert np.allclose(plus + minus, 2.0)
        assert np.allclose(np.abs(plus - minus), 0.12)


class TestHistory:
    def test_csv_shape(self):
        h = TrainHistory()
        h.append(0, 0.7, 0.5, 0.71, 0.48)
        text = h.to_csv()
        assert text.splitlines()[0] == "iter,train_loss,train_acc,dev_loss,dev_acc"
        assert len(text.splitlines()) == 2

    def test_unknown_column_is_named(self):
        h = TrainHistory()
        h.append(0, 0.7, 0.5, 0.71, 0.48)
        assert h.column("dev_acc") == [0.48]
        with pytest.raises(ValueError, match="unknown column 'loss'; allowed: "
                           "iter, train_loss, train_acc, dev_loss, dev_acc"):
            h.column("loss")


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
        ({"ansatz": "iqp", "optimizer": "adam"},
         "ansatz 'iqp' needs optimizer 'spsa'"),
        ({"iterations": 2.5}, "iterations must be an int >= 0, got 2.5"),
        ({"n_shots": 1.5}, "n_shots must be an int >= 1, got 1.5"),
        ({"seed": -1}, "seed must be an int >= 0, got -1"),
        ({"seed": True}, "seed must be an int >= 0, got True"),
        ({"noise_p": "0.1"}, "noise_p must be a real number in .* '0.1'"),
        ({"ansatz": "iqp", "optimizer": "spsa", "backend": "exact",
          "noise_p": 0.3}, "noise_p 0.3 needs backend 'shots', not 'exact'"),
        ({"ansatz": "spider", "backend": "shots", "noise_p": 0.3},
         "backend 'shots' needs ansatz 'iqp', not 'spider'"),
        ({"ccg_path": 5}, "ccg_path must be a str or None, got 5"),
        ({"ccg_path": {}}, r"ccg_path must be a str or None, got \{\}"),
        ({"ccg_path": ["a"]}, r"ccg_path must be a str or None, got \['a'\]"),
        ({"rewrites": 5}, "rewrites must be a list of rule names, got 5"),
        ({"rewrites": None}, "rewrites must be a list of rule names, got None"),
        ({"rewrites": {"determiner": 1}},
         "rewrites must be a list of rule names, got {'determiner': 1}"),
        ({"rewrites": ("determiner", "determiner")},
         r"rewrites names a rule twice: \['determiner', 'determiner'\]"),
        ({"ansatz": "iqp", "optimizer": "spsa", "backend": "shots",
          "noise_p": True}, "noise_p must be a real number in .* True"),
        ({"ansatz": "iqp", "optimizer": "spsa", "backend": "shots",
          "n_shots": 2 ** 63},
         rf"n_shots must be at most 2\*\*63 - 1, got {2 ** 63}"),
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

    def test_shots_prediction_needs_a_seed(self):
        """Without a seed a noisy model would predict its noiseless p1."""
        cfg = PipelineConfig(ansatz="iqp", optimizer="spsa", backend="shots",
                             noise_p=0.3)
        model = compile_model(cfg, generate_dataset(0))
        with pytest.raises(NoSampleSeed, match="item 0: backend 'shots'"):
            predict_p1(model, model.store, 0)
        exact = replace(model, config=replace(cfg, backend="exact",
                                              noise_p=0.0))
        assert predict_p1(model, model.store, 0, 5) \
            != predict_p1(exact, model.store, 0)

    @pytest.mark.parametrize("cfg", [
        PipelineConfig(),
        PipelineConfig(ansatz="iqp", optimizer="spsa"),
        PipelineConfig(ansatz="iqp", optimizer="spsa", backend="shots")],
        ids=["spider", "iqp", "iqp-shots"])
    @pytest.mark.parametrize("item", [-1, 130, np.int64(130), True, False,
                                      np.True_])
    def test_unknown_item_is_named(self, cfg, item):
        model = compile_model(cfg, generate_dataset(0))
        with pytest.raises(UnknownItem) as exc:
            predict_p1(model, model.store, item, 5)
        assert isinstance(exc.value, IndexError)
        assert str(exc.value) == (f"item {item!r} is not in the dataset's "
                                  "130 sentences")

    @pytest.mark.parametrize("kind", ["spider", "iqp", "iqp-shots",
                                      "long-ccg"])
    def test_store_errors_name_the_item(self, kind, tmp_path):
        if kind == "long-ccg":  # a chain leaf's symbol, in chain steps
            from test_scan_once import long_derivation
            lines = [long_derivation(words) for words in (48, 8, 9)]
            path = tmp_path / "long.auto"
            path.write_text("".join(f"ID={i}\n{line}\n"
                                    for i, (_, line) in enumerate(lines)))
            ds = LabeledDataset(tuple((text, i % 2) for i, (text, _)
                                      in enumerate(lines)), (0,), (1,), (2,))
            cfg = PipelineConfig(ccg_path=str(path), rewrites=("determiner",))
            model = compile_model(cfg, ds)
            art = model.artifacts[0]
            p = contract_module._planned(art.structure)
            name = art.nodes[p.chains[0][0]].symbol.name
            assert all(art.nodes[k].symbol.name != name for k in p.singles)
        else:
            cfg = {"spider": PipelineConfig(),
                   "iqp": PipelineConfig(ansatz="iqp", optimizer="spsa"),
                   "iqp-shots": PipelineConfig(ansatz="iqp", optimizer="spsa",
                                               backend="shots")}[kind]
            model = compile_model(cfg, generate_dataset(0))
            name = model.artifacts[0].symbols[0].name
        values = {n: model.store[n] for n in model.store.names() if n != name}
        shape = model.store[name].shape
        missing, misshapen = ParameterStore(values), ParameterStore(
            {**values, name: np.zeros((3, 2))})
        want = "plan" if kind.startswith("iqp") else "network"
        cases = [(missing, UnboundSymbol,
                  f"item 0: no value bound for symbol {name!r}"),
                 (misshapen, ShapeMismatch,
                  f"item 0: {name}: stored (3, 2), {want} wants {shape}")]
        if kind.startswith("iqp"):  # a tensor's nan is a degenerate row
            cases.append((ParameterStore({**values, name: np.nan}),
                          NonFiniteAngle,
                          f"item 0: symbol {name!r} has the angle nan"))
        for store, error, message in cases:
            with pytest.raises(error) as exc:
                predict_p1(model, store, 0, 5)
            assert str(exc.value) == message
            first = next(i for i in model.dataset.train
                         if name in {s.name for s in
                                     model.artifacts[i].symbols})
            with pytest.raises(error, match=re.escape(
                    message.replace("item 0", f"item {first}"))):
                evaluate_split(model, store, "train")

    def test_numpy_integer_items_predict(self):
        model = compile_model(PipelineConfig(), generate_dataset(0))
        for item in (0, 129):
            assert predict_p1(model, model.store, np.int64(item)) \
                == predict_p1(model, model.store, item)

    @pytest.mark.parametrize("split", ["items", "validation", "Test"])
    def test_unknown_split_is_named(self, split):
        model = compile_model(PipelineConfig(iterations=1), tiny_dataset())
        with pytest.raises(UnknownSplit, match=f"unknown split {split!r}; "
                                               "allowed: train, dev, test"):
            evaluate_split(model, model.store, split)

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

    def test_ccg_path_malformed_derivation_names_its_file_line(self,
                                                               tmp_path):
        from synq.dataset import sentence_to_auto
        ds = tiny_dataset()
        lines = [f"ID={i}\n{sentence_to_auto(text)}\n"
                 for i, (text, _) in enumerate(ds.items)]
        lines[1] = lines[1][:len("ID=1\n") + 30] + "\n"  # file line 4
        path = tmp_path / "truncated.auto"
        path.write_text("".join(lines))
        cfg = PipelineConfig(reader="ccg", ccg_path=str(path))
        with pytest.raises(CompileError) as err:
            compile_model(cfg, ds)
        assert str(err.value).splitlines()[1:] == [
            f"1: {ds.items[1][0]!r}: unterminated node header "
            "(line 4, column 31)"]

    def test_ccg_path_deeply_nested_category_is_a_failed_sentence(
            self, tmp_path):
        from synq.dataset import sentence_to_auto
        ds = tiny_dataset()
        lines = [f"ID={i}\n{sentence_to_auto(text)}\n"
                 for i, (text, _) in enumerate(ds.items)]
        deep = "(" * 2000 + "N" + ")" * 2000
        lines[2] = lines[2].replace("(<L N NN NN", f"(<L {deep} NN NN", 1)
        path = tmp_path / "deep.auto"
        path.write_text("".join(lines))
        cfg = PipelineConfig(reader="ccg", ccg_path=str(path))
        with pytest.raises(CompileError) as err:
            compile_model(cfg, ds)
        (failed,) = str(err.value).splitlines()[1:]
        assert failed.startswith(f"2: {ds.items[2][0]!r}: category '((((")
        assert "nests too deep" in failed

    def test_ccg_path_noun_phrase_root_is_a_failed_sentence(self, tmp_path):
        from synq.dataset import sentence_to_auto
        ds = tiny_dataset()
        lines = [f"ID={i}\n{sentence_to_auto(text)}\n"
                 for i, (text, _) in enumerate(ds.items)]
        lines[1] = ("ID=1\n(<T NP 0 2> (<L NP/N DT DT the NP/N>) "
                    "(<L N NN NN soup N>))\n")
        path = tmp_path / "np.auto"
        path.write_text("".join(lines))
        cfg = PipelineConfig(reader="ccg", ccg_path=str(path))
        with pytest.raises(CompileError) as err:
            compile_model(cfg, ds)
        assert str(err.value).splitlines() == [
            "1 sentences failed to compile:",
            f"1: {ds.items[1][0]!r}: codomain n is not the sentence type"]

    def test_sentence_to_diagram_rewrites(self):
        cfg = PipelineConfig(reader="ccg", rewrites=("determiner",))
        d = sentence_to_diagram(
            cfg, "john walks",
            "(<T S[dcl] 1 2> (<L NP NNP NNP john NP>) "
            "(<L S[dcl]\\NP VBZ VBZ walks S[dcl]\\NP>))")
        assert d.cod.items[0].base == "s"

    @pytest.mark.parametrize("derivation, found", [
        ("", 0), ("ID=3", 0), ("\n\n", 0),
        ("(<L NP NNP NNP john NP>)\n(<L NP NNP NNP mary NP>)", 2),
    ])
    def test_sentence_to_diagram_needs_one_derivation(self, derivation,
                                                      found):
        cfg = PipelineConfig(reader="ccg")
        with pytest.raises(
                ccg.ParseError,
                match=f"expected one derivation, found {found} ") as err:
            sentence_to_diagram(cfg, "john", derivation)
        assert err.value.reason == f"expected one derivation, found {found}"

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


EMPTY_SPLIT_CONFIGS = {
    "adam": {"ansatz": "spider"},
    "spsa-spider": {"ansatz": "spider", "optimizer": "spsa"},
    "spsa-iqp": {"ansatz": "iqp", "optimizer": "spsa"},
    "spsa-shots": {"ansatz": "iqp", "optimizer": "spsa", "backend": "shots",
                   "n_shots": 64},
}


def without(ds, split):
    return replace(ds, **{split: ()})


class TestEmptySplits:
    @pytest.mark.parametrize("config", EMPTY_SPLIT_CONFIGS)
    def test_empty_train_split_is_named_before_any_pass(self, config,
                                                        monkeypatch):
        model = compile_model(
            PipelineConfig(**EMPTY_SPLIT_CONFIGS[config], iterations=2),
            without(tiny_dataset(), "train"))

        def no_pass(*args, **kwargs):
            raise AssertionError("a pass ran")

        for name in ("prediction_gradient", "group_p1"):
            monkeypatch.setattr(training, name, no_pass)
        with pytest.raises(training.EmptySplit, match="split 'train'"):
            train(model)

    @pytest.mark.parametrize("config", EMPTY_SPLIT_CONFIGS)
    @pytest.mark.parametrize("split", ["dev", "test"])
    def test_empty_evaluation_split_scores_nan(self, config, split):
        """The train columns and the other split still score; the empty
        split's loss and accuracy are nan, with no numpy warning."""
        ds = without(tiny_dataset(), split)
        model = compile_model(
            PipelineConfig(**EMPTY_SPLIT_CONFIGS[config], iterations=2), ds)
        store, history = train(model)
        assert len(history) == 2
        for column in ("train_loss", "train_acc"):
            assert np.isfinite(history.column(column)).all()
        dev = np.array([history.column("dev_loss"),
                        history.column("dev_acc")])
        assert np.isnan(dev).all() if split == "dev" \
            else np.isfinite(dev).all()
        for name in SPLITS:
            scores = list(evaluate_split(model, store, name).values())
            assert np.isnan(scores).all() if name == split \
                else np.isfinite(scores).all()

    def test_no_rows_score_nan(self):
        assert np.isnan(accuracy([], []))
        assert np.isnan(training._mean_loss(np.zeros(0), []))


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


def refuse_to_predict(*args):
    raise AssertionError("train predicted a sentence through predict_p1")


def batch_p1(model, plan, vec, rows):
    """_batch_p1 of the sentences at ``rows`` under ``vec`` alone."""
    part = [(0, rows)]
    (p1,) = _batch_p1(model, plan.stack(part, len(vec)), [vec], part,
                      [(0, 1)])
    return p1.tolist()


def one_row(model, item):
    netplan = plan_networks(model.artifacts, [item], model.store)
    assert len(netplan.groups) == 1
    return netplan


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
        # per iteration serves every group of train and dev sentences
        groups = plan_networks(model.artifacts, ds.train + ds.dev,
                               model.store).groups
        assert len(calls) == 0
        assert len(groups) == 4 and len(grads) == 2

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
        netplan = plan_networks(model.artifacts, rows, store)
        for g in netplan.groups:
            p1, dp1 = prediction_gradient(alone(netplan, g), x0,
                                          lambda p, w=w[g.rows]: w)
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
        steps = []

        def spy_step(vec, grad, state, *args):
            steps.append(([r.getMessage() for r in caplog.records
                           if r.name == "synq.pipeline"], grad))
            return vec, state

        # the pass reads the zero vector as nan: nothing is re-predicted
        monkeypatch.setattr(training, "predict_p1", refuse_to_predict)
        monkeypatch.setattr(training, "adam_step", spy_step)
        with caplog.at_level(logging.WARNING, logger="synq.pipeline"):
            train(model)
        ((warnings, grad),) = steps
        assert warnings == ["item 0: degenerate sentence vector; "
                            "predicting 0.5"]
        # the clean sentences alone, in the same groups and order
        labels = np.array(ds.labels("train"), dtype=float)
        want = np.zeros(clean.store.size)
        netplan = plan_networks(clean.artifacts, ds.train, clean.store)
        stacked = netplan.stack([(0, ds.train[1:])], clean.store.size)
        for g in stacked.groups:
            want += prediction_gradient(
                alone(stacked, g), clean.store.to_vector(),
                lambda p, y=labels[g.rows]: bce_grad(p, y))[1]
        assert np.array_equal(grad[:clean.store.size], want / len(ds.train))
        assert not grad[clean.store.size:].any()


    def test_zero_vector_warns_once_per_iteration(self, caplog):
        # one pass per iteration reports it, and the final pass once more
        cfg = PipelineConfig(reader="cups", ansatz="tensor", iterations=3)
        model = with_dead_row(compile_model(cfg, tiny_dataset()), 0)
        with caplog.at_level(logging.WARNING, logger="synq.pipeline"):
            train(model)
        warnings = [r for r in caplog.records if r.name == "synq.pipeline"]
        assert len(warnings) == 3 + 1
        assert all("item 0" in r.getMessage() for r in warnings)


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
            one = alone(netplan, g)
            p1, grad = prediction_gradient(one, vec, lambda p: w[g.rows])
            want_p1 = [predict_p1(model, store, i) for i in g.rows]
            assert np.allclose(p1, want_p1, rtol=0, atol=1e-12)
            assert np.array_equal(group_p1(one, vec), p1)
            want = sum(prediction_gradient(one_row(model, i), vec,
                                           lambda p, i=i: w[[i]])[1]
                       for i in g.rows)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(grad - want)) <= 1e-12 * scale
            fd = (w[g.rows] @ group_p1(one, vec + h * u)
                  - w[g.rows] @ group_p1(one, vec - h * u)) / (2 * h)
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
        before = batch_p1(model, netplan, model.store.to_vector(), rows)
        assert np.allclose(before, [predict_p1(model, model.store, i)
                                    for i in rows], rtol=0, atol=1e-12)
        with caplog.at_level(logging.WARNING, logger="synq.pipeline"):
            after = batch_p1(dead, dead_plan, dead.store.to_vector(), rows)
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

    def test_spsa_deterministic_and_matches_per_sentence(self, monkeypatch):
        model = self.model()
        s1, h1 = train(model)
        s2, h2 = train(self.model())
        assert h1.rows == h2.rows
        assert np.array_equal(s1.to_vector(), s2.to_vector())
        planned = evaluate_split(model, s1, "test")
        # every p1 from predict_p1, one sentence at a time, through the
        # same SPSA loop
        monkeypatch.setattr(training, "_batch_p1", per_sentence_p1)
        s3, h3 = train(model)
        assert np.abs(np.array(h1.rows) - np.array(h3.rows)).max() < 1e-10
        assert np.abs(s1.to_vector() - s3.to_vector()).max() < 1e-10
        assert planned == pytest.approx(evaluate_split(model, s1, "test"),
                                        abs=1e-10)

    def test_zero_norm_row_falls_back_once(self, caplog):
        from synq.ansatz import Circuit, Op, Symbol
        model = self.model()
        rows = list(range(10))
        before = batch_p1(model, plan_circuits(model.artifacts, model.store),
                          model.store.to_vector(), rows)
        # Rx(pi) leaves the postselected qubit in |1>: zero norm
        dead = Circuit(2, (Op("Rx", (1,), Symbol("flip")),), (1,), (0,))
        store = model.store.copy()
        store["flip"] = np.pi
        artifacts = list(model.artifacts)
        artifacts[3] = dead
        broken = replace(model, artifacts=artifacts, store=store)
        with caplog.at_level(logging.WARNING, logger="synq.pipeline"):
            after = batch_p1(broken, plan_circuits(artifacts, store),
                             store.to_vector(), rows)
        warnings = [r for r in caplog.records if r.name == "synq.pipeline"]
        assert len(warnings) == 1 and "item 3" in warnings[0].getMessage()
        assert after[3] == 0.5
        assert after[:3] + after[4:] == before[:3] + before[4:]

    def test_all_shots_discarded_row_falls_back_once(self, caplog):
        """A planned shot row whose every shot fails postselection reads
        nan: 0.5 and one warning naming the item and the shot count, the
        other rows drawn as before."""
        from synq.ansatz import Circuit, Op, Symbol
        model = compile_model(replace(self.model().config, backend="shots",
                                      noise_p=0.01),
                              generate_dataset(0))
        rows = list(range(10))
        noisy = plan_circuits(model.artifacts, model.store, 0.01)
        before = batch_p1(model, noisy, model.store.to_vector(), rows)
        assert before == [predict_p1(model, model.store, i,
                                     pipeline.shot_seed(2, 0, 1, i))
                          for i in rows]
        # Rx(pi) leaves the postselected qubit in |1>: every shot discarded
        dead = Circuit(2, (Op("Rx", (1,), Symbol("flip")),), (1,), (0,))
        store = model.store.copy()
        store["flip"] = np.pi
        artifacts = list(model.artifacts)
        artifacts[3] = dead
        broken = replace(model, artifacts=artifacts, store=store)
        with caplog.at_level(logging.WARNING, logger="synq.pipeline"):
            after = batch_p1(broken, plan_circuits(artifacts, store, 0.01),
                             store.to_vector(), rows)
        warnings = [r for r in caplog.records if r.name == "synq.pipeline"]
        assert len(warnings) == 1 and "item 3" in warnings[0].getMessage()
        assert "all 8192 shots" in warnings[0].getMessage()
        assert after[3] == 0.5
        assert after[:3] + after[4:] == before[:3] + before[4:]


def with_dead_circuit(model, item):
    """The model with item's circuit replaced by one that postselects a
    qubit H and CX leave in |1>, whatever its angle: zero norm, or every
    shot discarded, at every point SPSA probes."""
    from synq.ansatz import Circuit, Op, Symbol
    flip = (Op("H", (0,)), Op("CX", (0, 1))) * 3
    dead = Circuit(2, flip + (Op("Rx", (0,), Symbol("dead")),), (1,), (0,))
    store = model.store.copy()
    store["dead"] = 0.3
    artifacts = list(model.artifacts)
    artifacts[item] = dead
    return replace(model, artifacts=artifacts, store=store)


class TestDegenerateRows:
    @pytest.mark.parametrize("backend", ["tensor", "exact", "shots"])
    def test_train_reads_dead_rows_off_the_batch(self, backend, monkeypatch,
                                                 caplog):
        """A dead train row predicts 0.5 at every point of every pass,
        with one warning each that names the item and why, and predict_p1
        never runs. It adds no gradient: under Adam the gradient of its
        own symbol is zero, and under SPSA it is 0.5 at both probes, so
        its two loss terms cancel."""
        if backend == "tensor":
            cfg = PipelineConfig(reader="cups", ansatz="tensor", iterations=3)
            model = with_dead_row(compile_model(cfg, tiny_dataset()), 0)
            why = "degenerate sentence vector"
        else:
            cfg = PipelineConfig(ansatz="iqp", optimizer="spsa",
                                 backend=backend, iterations=3, seed=2)
            ds = generate_dataset(0)
            model = with_dead_circuit(compile_model(cfg, ds), ds.train[0])
            why = {"exact": "postselection probability below 1e-12",
                   "shots": "all 8192 shots violated postselection"}[backend]
        item = model.dataset.train[0]
        message = f"item {item}: {why}; predicting 0.5"
        passes, grads = [], []
        real_parts, real_adam = training._parts_p1, training.adam_step

        def spy_parts(model, p1, parts):
            before = len(caplog.records)
            out = real_parts(model, p1, parts)
            passes.append(([values[list(rows).index(item)]
                            for (_, rows), values in zip(parts, out)
                            if item in rows],
                           [r.getMessage() for r in caplog.records[before:]
                            if r.name == "synq.pipeline"
                            and r.getMessage().startswith(f"item {item}:")]))
            return out

        def spy_adam(vec, grad, state):
            grads.append(grad)
            return real_adam(vec, grad, state)

        monkeypatch.setattr(training, "predict_p1", refuse_to_predict)
        monkeypatch.setattr(training, "_parts_p1", spy_parts)
        monkeypatch.setattr(training, "adam_step", spy_adam)
        with caplog.at_level(logging.WARNING, logger="synq.pipeline"):
            _, history = train(model)
        assert len(passes) == cfg.iterations + 1
        # under SPSA the first pass holds the two probes, the next ones the
        # probes and the score, the last one the score
        points = [1] * 4 if backend == "tensor" else [2, 3, 3, 1]
        assert [len(dead) for dead, _ in passes] == points
        for dead, warnings in passes:
            assert dead == [0.5] * len(dead)
            assert warnings == [message] * len(dead)
        assert np.isfinite(history.rows).all()
        if backend == "tensor":
            offset = dict((name, at) for name, _, at
                          in model.store.layout)["dead"]
            size = model.store["dead"].size
            assert len(grads) == cfg.iterations
            assert all(not g[offset:offset + size].any() for g in grads)
            assert all(g.any() for g in grads)


class TestExactCircuitSplit:
    """An exact circuit split gathers the given store's angles at the
    offsets of the model's store, so it checks them first."""
    NAME = "chef__n__0"

    @pytest.fixture(scope="class")
    def trained(self):
        model = compile_model(PipelineConfig(ansatz="iqp", optimizer="spsa",
                                             iterations=1),
                              generate_dataset(0))
        store, _ = train(model)
        return model, store

    @pytest.mark.parametrize("case", ["missing", "misshapen", "non-finite"])
    def test_bad_angle_names_the_first_sentence_that_reads_it(self, trained,
                                                              case):
        """It raises as predict_p1 does on the first sentence of the split
        that reads the angle."""
        model, store = trained
        name = self.NAME
        first = next(i for i in model.dataset.test if name in {
            s.name for s in model.artifacts[i].symbols})
        values = {n: store[n] for n in store.names() if n != name}
        bad, error, message = {
            "missing": (ParameterStore(values), UnboundSymbol,
                        f"no value bound for symbol {name!r}"),
            "misshapen": (ParameterStore({**values, name: np.zeros(2)}),
                          ShapeMismatch,
                          f"{name}: stored (2,), plan wants ()"),
            "non-finite": (ParameterStore({**values, name: np.inf}),
                           NonFiniteAngle,
                           f"symbol {name!r} has the angle inf")}[case]
        for score in (lambda: predict_p1(model, bad, first),
                      lambda: evaluate_split(model, bad, "test")):
            with pytest.raises(error) as exc:
                score()
            assert str(exc.value) == f"item {first}: {message}"

    def test_angle_no_sentence_reads_is_not_checked(self, trained):
        model, store = trained
        read = {s.name for i in model.dataset.test
                for s in model.artifacts[i].symbols}
        unread = next(n for n in store.names() if n not in read)
        want = evaluate_split(model, store, "test")
        others = {n: store[n] for n in store.names() if n != unread}
        for bad in (ParameterStore(others),
                    ParameterStore({**others, unread: np.zeros(2)}),
                    ParameterStore({**others, unread: np.nan})):
            assert evaluate_split(model, bad, "test") == want


def per_sentence_p1(model, plan, points, parts, seeds):
    """The per-sentence branch that one planned batch per pass replaced,
    kept as its oracle: every p1 from predict_p1 under its part's point, a
    shot-based sentence drawing with its shot seed."""
    cfg = model.config
    stores = [model.store.from_vector(v) for v in points]
    return [np.array([predict_p1(model, stores[point], i,
                                 pipeline.shot_seed(cfg.seed, *seed, i)
                                 if cfg.backend == "shots" else None)
                      for i in rows])
            for (point, rows), seed in zip(parts, seeds)]


def reference_train(model):
    """The three-pass loop ``train`` folds into one pass per iteration,
    kept as its oracle. Each iteration takes its gradient (Adam: one
    value-and-gradient pass over the train rows) or its two SPSA probes
    (two passes over the train rows), steps, and then scores train and dev
    at the new point in a pass of its own."""
    cfg, ds = model.config, model.dataset
    train_idx, train_y = ds.train, ds.labels("train")
    dev_idx, dev_y = ds.dev, ds.labels("dev")
    vec = model.store.to_vector()
    if cfg.backend == "shots":
        plan = None  # sentence by sentence, each with its shot seed
    elif cfg.ansatz == "iqp":
        plan = plan_circuits(model.artifacts, model.store)
    else:
        plan = plan_networks(model.artifacts, train_idx + dev_idx,
                             model.store)

    def p1_at(theta, rows, it, slot):
        store = model.store.from_vector(theta)
        if plan is None:
            return [predict_p1(model, store, i,
                               pipeline.shot_seed(cfg.seed, it, slot, i))
                    for i in rows]
        p1 = np.zeros(plan.count)
        stacked = plan.stack([(0, rows)], len(theta))
        for g in stacked.groups:
            p1[g.rows] = group_p1(alone(stacked, g), theta)
        return [predict_p1(model, store, i) if np.isnan(p1[i]) else p1[i]
                for i in rows]

    def loss(p1s, labels):
        return float(np.mean(bce_loss(np.asarray(p1s), np.asarray(labels))))

    history, state = TrainHistory(), AdamState.zeros(len(vec))
    rng = np.random.default_rng(cfg.seed)
    labels = np.zeros(len(model.artifacts))
    labels[list(train_idx)] = train_y
    for it in range(cfg.iterations):
        if cfg.optimizer == "adam":
            grad = np.zeros_like(vec)
            stacked = plan.stack([(0, train_idx)], len(vec))
            for g in stacked.groups:
                grad += prediction_gradient(
                    alone(stacked, g), vec,
                    lambda p, y=labels[g.rows]: bce_grad(p, y))[1]
            vec, state = adam_step(vec, grad / len(train_idx), state)
        else:
            def losses(plus, minus, it=it):
                return (loss(p1_at(plus, train_idx, it, 0), train_y),
                        loss(p1_at(minus, train_idx, it, 0), train_y))

            vec = spsa_step(vec, losses, it, big_a=0.1 * cfg.iterations,
                            rng=rng)
        if plan is None:
            train_p1 = p1_at(vec, train_idx, it, 1)
            dev_p1 = p1_at(vec, dev_idx, it, 2)
        else:
            p1s = p1_at(vec, train_idx + dev_idx, it, 1)
            train_p1, dev_p1 = p1s[:len(train_idx)], p1s[len(train_idx):]
        history.append(it, loss(train_p1, train_y),
                       accuracy(train_p1, train_y), loss(dev_p1, dev_y),
                       accuracy(dev_p1, dev_y))
    return model.store.from_vector(vec), history


class TestOnePassPerIteration:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("kind", ["spider", "tensor", "mps", "iqp",
                                      "shots", "spider-spsa"])
    def test_matches_the_three_pass_loop_bit_for_bit(self, kind, seed):
        if kind == "spider-spsa":  # stacked probes of a tensor model
            cfg = PipelineConfig(ansatz="spider", optimizer="spsa",
                                 iterations=4, seed=seed)
            ds = generate_dataset(0)
        elif kind == "shots":
            cfg = PipelineConfig(ansatz="iqp", optimizer="spsa",
                                 backend="shots", n_shots=256, noise_p=0.01,
                                 iterations=3, seed=seed)
            ds = tiny_dataset()
        else:
            cfg = PipelineConfig(
                ansatz=kind, optimizer="spsa" if kind == "iqp" else "adam",
                iterations=4, seed=seed)
            ds = generate_dataset(0)
        model = compile_model(cfg, ds)
        store, history = train(model)
        want_store, want = reference_train(model)
        assert history.rows == want.rows
        assert np.array_equal(store.to_vector(), want_store.to_vector())

    @pytest.mark.parametrize("kind", ["adam", "spsa", "shots"])
    def test_one_batched_call_per_pass(self, monkeypatch, kind):
        ds = generate_dataset(0)
        optimizer = "adam" if kind == "adam" else "spsa"
        cfg = PipelineConfig(ansatz="spider" if optimizer == "adam"
                             else "iqp", optimizer=optimizer, iterations=3,
                             seed=0)
        if kind == "shots":  # SPSA on shot-based circuits
            cfg = replace(cfg, backend="shots", n_shots=64, noise_p=0.01)
        model = compile_model(cfg, ds)
        calls = []
        for name in ("group_p1", "prediction_gradient"):
            real = getattr(training, name)
            monkeypatch.setattr(training, name, lambda plan, *args,
                                real=real, name=name: calls.append(
                                    (name, len(plan.groups), plan.rows))
                                or real(plan, *args))
        steps = []
        real_step = getattr(training, f"{optimizer}_step")
        monkeypatch.setattr(training, f"{optimizer}_step", lambda *args, **kw:
                            steps.append(len(calls)) or real_step(*args, **kw))
        train(model)
        netplan = (plan_networks(model.artifacts, ds.train + ds.dev,
                                 model.store)
                   if optimizer == "adam" else plan_circuits(model.artifacts,
                                                             model.store))
        assert len(netplan.groups) == 4
        both, train_dev = len(ds.train), len(ds.train) + len(ds.dev)
        if optimizer == "adam":
            # each pass precedes its step; the final pass scores the last
            # point
            assert steps == [1, 2, 3]
            per_iter = [("prediction_gradient", train_dev)] * 3
        else:
            # the loss function runs inside the step: at iteration 0 it
            # takes the probes alone, then the probes and the score
            assert steps == [0, 1, 2]
            per_iter = [("group_p1", 2 * both)] + [
                ("group_p1", 2 * both + train_dev)] * 2
        # one call per pass, every group of the pass in it
        assert [(n, groups, len(rows)) for n, groups, rows in calls] == [
            (n, 4, rows) for n, rows in per_iter + [("group_p1", train_dev)]]


class TestOnePlanPerModel:
    def test_train_and_three_splits_plan_once(self, monkeypatch):
        model = compile_model(PipelineConfig(ansatz="iqp", optimizer="spsa",
                                             iterations=2),
                              generate_dataset(0))
        calls = []
        real = pipeline.plan_circuits
        monkeypatch.setattr(pipeline, "plan_circuits", lambda *args: (
            calls.append(args) or real(*args)))
        store, _ = train(model)
        for split in SPLITS:
            evaluate_split(model, store, split)
        assert len(calls) == 1

    def test_adam_pass_runs_train_and_dev_rows_only(self, monkeypatch):
        ds = generate_dataset(0)
        model = compile_model(PipelineConfig(iterations=2), ds)
        seen = []
        real = training.prediction_gradient
        monkeypatch.setattr(training, "prediction_gradient", lambda plan, *a: (
            seen.append(sorted(plan.rows.tolist())) or real(plan, *a)))
        train(model)
        assert sorted(model.plan.rows.tolist()) == sorted(
            ds.train + ds.dev + ds.test)
        assert seen == [sorted(ds.train + ds.dev)] * 2

    def test_replaced_model_plans_afresh(self):
        """perfbench predicts with replace(model, config=shots_cfg)."""
        from synq.ansatz import GATE_TENSORS, SUPEROPERATORS
        cfg = PipelineConfig(ansatz="iqp", optimizer="spsa")
        model = compile_model(cfg, generate_dataset(0))
        exact = model.plan
        assert model.plan is exact
        noisy = replace(model, config=replace(cfg, backend="shots",
                                              noise_p=0.01)).plan
        assert noisy is not exact
        for plan, kernels in ((exact, GATE_TENSORS),
                              (noisy, SUPEROPERATORS)):
            kinds = {k for g in plan.groups for k in g.plan.kinds}
            assert kinds and kinds <= set(kernels)


def per_group_pass(plan, vec, dloss_dp1):
    """The per-group loop that one engine call per pass replaced, kept as
    its oracle: each group is contracted, its cotangent taken from its own
    rows and scattered with np.add.at into a zero vector of its own, and
    the groups' gradients are added one after another. Returns the values
    and p1 in ``plan.rows`` order, and the gradient."""
    from synq.contract import _backprop, _replay, _value
    values, p1, grad = [], [], np.zeros(len(vec))
    start = 0
    for g in plan.groups:
        p, n = g.plan, len(g.rows)
        (params,) = alone(plan, g)._gather(vec)
        tensors = _replay(p, params)
        v = _value(p, tensors, n)
        q = pipeline._rows_p1(v)
        ok = ~np.isnan(q)
        v0, v1 = v[:, 0], v[:, 1]
        s = np.where(ok, v0 ** 2 + v1 ** 2, 1.0)
        w = np.where(ok, dloss_dp1(q, slice(start, start + n)), 0.0) / s ** 2
        cot = np.stack((-2.0 * v0 * v1 ** 2 * w, 2.0 * v1 * v0 ** 2 * w),
                       axis=1)
        flat = np.zeros(len(vec))
        if tensors and p.live[-1] and cot.any():
            np.add.at(flat, g.index, np.concatenate(
                [c.reshape(n, -1) for c in _backprop(p, tensors, cot)],
                axis=1))
        grad += flat
        values.append(v)
        p1.append(q)
        start += n
    return np.concatenate(values), np.concatenate(p1), grad


class TestFusedPass:
    @pytest.mark.parametrize("ansatz", ["spider", "tensor", "mps"])
    def test_matches_the_per_group_loop_bit_for_bit(self, ansatz, monkeypatch,
                                                    caplog):
        ds = generate_dataset(0)
        model = compile_model(PipelineConfig(ansatz=ansatz, seed=5), ds)
        everything = plan_networks(model.artifacts, range(len(ds.items)),
                                   model.store)
        by_size = sorted(everything.groups, key=lambda g: len(g.rows))
        a, b, c, d = (g.rows.tolist() for g in by_size[::-1])
        # A: many train rows, one of them a zero vector; B: a lone train
        # row, as every group of long sentences is; C: train rows that
        # share symbols with A's, so the order of the groups' sums shows;
        # D: dev rows only, whose cotangent is all zero
        dead_item = a[2]
        rows = a[:12] + b[:1] + c[:6] + d[:5]
        trains = set(a[:12] + b[:1] + c[:6])
        model = with_dead_row(model, dead_item)
        store = model.store
        netplan = plan_networks(model.artifacts, rows, store)
        assert [len(g.rows) for g in netplan.groups] == [12, 1, 6, 5]
        vec = store.to_vector() * 1.5  # away from the initial point
        labels = np.array([item[1] for item in ds.items], dtype=float)
        y = labels[netplan.rows]
        t = np.array([r in trains for r in netplan.rows.tolist()])
        reversed_passes = []
        real = contract_module._backprop
        monkeypatch.setattr(contract_module, "_backprop", lambda *args: (
            reversed_passes.append(1) or real(*args)))
        p1, grad = prediction_gradient(
            netplan, vec, lambda p: np.where(t, bce_grad(p, y), 0.0))
        # the dev-only group is not walked back
        assert len(reversed_passes) == 3
        monkeypatch.undo()
        want_values, want_p1, want_grad = per_group_pass(
            netplan, vec,
            lambda p, cut: np.where(t[cut], bce_grad(p, y[cut]), 0.0))
        assert np.array_equal(contract_module.contract_plan(netplan, vec),
                              want_values)
        assert np.array_equal(p1, want_p1, equal_nan=True)
        assert np.array_equal(group_p1(netplan, vec), want_p1,
                              equal_nan=True)
        assert np.array_equal(grad, want_grad)
        assert grad.any()
        # the zero vector is nan in the pass, which predicts 0.5 and warns
        # once
        (dead,) = np.flatnonzero(np.isnan(p1))
        assert netplan.rows[dead] == dead_item
        full = np.zeros(netplan.count)
        full[netplan.rows] = p1
        with caplog.at_level(logging.WARNING, logger="synq.pipeline"):
            (got,) = training._parts_p1(model, full[None], [(0, rows)])
        warnings = [r for r in caplog.records if r.name == "synq.pipeline"]
        assert len(warnings) == 1
        assert f"item {dead_item}" in warnings[0].getMessage()
        assert got[rows.index(dead_item)] == 0.5

    def test_circuit_plan_stacked_over_three_points(self):
        from synq.simulator import ZERO_NORM_THRESHOLD
        cfg = PipelineConfig(ansatz="iqp", optimizer="spsa", seed=3)
        ds = generate_dataset(0)
        model = compile_model(cfg, ds)
        vec = model.store.to_vector()
        size = len(vec)
        parts = [(0, ds.train), (1, ds.train), (2, ds.train), (2, ds.dev)]
        netplan = plan_circuits(model.artifacts, model.store).stack(parts,
                                                                    size)
        assert len(netplan.groups) == 4
        flat = np.concatenate([vec, vec + 0.25, vec - 0.25])
        # every gate's kernel once per pass, on fewer angles than the
        # groups' own tables hold between them
        for gate, offsets in netplan.angles:
            assert len(offsets) < sum(
                len(np.unique(g.index[:, [k == gate for k in g.plan.kinds]]))
                for g in netplan.groups)
        for g, leaves in zip(netplan.groups, netplan._gather(flat)):
            (own,) = alone(netplan, g)._gather(flat)
            for got, want in zip(leaves, own):
                assert np.array_equal(got, want)
                assert got.flags.c_contiguous
        values = [contract_module.contract_plan(alone(netplan, g), flat)
                  for g in netplan.groups]
        assert np.array_equal(contract_module.contract_plan(netplan, flat),
                              np.concatenate(values))
        want = np.concatenate([pipeline._rows_p1(v, ZERO_NORM_THRESHOLD)
                               for v in values])
        assert np.array_equal(group_p1(netplan, flat), want)

    def test_empty_plan_scores_nothing(self):
        # an empty split scores nan, without a warning from the mean of
        # nothing
        empty = NetworkPlan((), 5)
        vec = np.arange(3.0)
        assert group_p1(empty, vec).shape == (0,)
        p1, grad = prediction_gradient(empty, vec, lambda p: p)
        assert p1.shape == (0,) and grad.tolist() == [0.0] * 3
        cfg = PipelineConfig(ansatz="iqp", optimizer="spsa")
        model = compile_model(cfg, replace(generate_dataset(0), test=()))
        got = evaluate_split(model, model.store, "test")
        assert np.isnan(got["test_loss"]) and np.isnan(got["test_accuracy"])


FIXTURES = Path(__file__).parent / "data" / "fixtures.auto"


def ditransitive_model(tmp_path, ansatz):
    """A model compiled from an AUTO file whose sentences hold the order-4
    ditransitive ``gave`` of the fixtures, of type n.r s n.l n.l, and the
    order-5 preposition ``in``: words that ``mps_ansatz`` splits at the
    dimensions of compile_diagram, where no word of the dataset grammar
    is split."""
    lines = {key: line for key, _, line in ccg.scan_auto(FIXTURES.read_text())}
    gave = lines["fix.1"]  # john gave mary a flower
    swapped = gave.replace(" john ", " X ").replace(" mary ", " john ") \
        .replace(" X ", " mary ")
    derivations = [gave, swapped, lines["fix.6"], lines["fix.2"],
                   gave.replace(" flower ", " cake "), lines["fix.9"]]
    items = (("john gave mary a flower", 1), ("mary gave john a flower", 0),
             ("mary sleeps", 0), ("john walks in the park", 1),
             ("john gave mary a cake", 0), ("john and mary sleep", 1))
    path = tmp_path / "gave.auto"
    path.write_text("".join(f"ID={i}\n{line}\n"
                            for i, line in enumerate(derivations)))
    from synq.dataset import LabeledDataset
    ds = LabeledDataset(items, (0, 1, 2, 3), (4, 5), ())
    cfg = PipelineConfig(ccg_path=str(path), ansatz=ansatz, iterations=4,
                         seed=0)
    return compile_model(cfg, ds)


class TestMpsBond:
    def test_ditransitive_splits_into_a_bond(self, tmp_path):
        mps = ditransitive_model(tmp_path, "mps")
        tensor = ditransitive_model(tmp_path, "tensor")
        differs = [a.to_json() != b.to_json()
                   for a, b in zip(mps.artifacts, tensor.artifacts)]
        # the sentences with gave or in
        assert differs == [True, True, False, True, True, False]
        shapes = [node.shape for node in mps.artifacts[0].nodes
                  if node.kind == "param"
                  and node.symbol.name.startswith("gave__")]
        # n.r s | n.l n.l, joined by a bond of dimension 4
        assert shapes == [(2, 2, 4), (4, 2, 2)]

    def test_trains_as_the_reference_with_exact_gradients(self, tmp_path):
        model = ditransitive_model(tmp_path, "mps")
        store, history = train(model)
        want_store, want = reference_train(model)
        assert history.rows == want.rows
        assert np.array_equal(store.to_vector(), want_store.to_vector())
        rows = model.dataset.train + model.dataset.dev
        vec = store.to_vector()
        netplan = plan_networks(model.artifacts, rows, store)
        rng = np.random.default_rng(0)
        w = rng.normal(size=len(model.artifacts))
        u = rng.normal(size=vec.shape)
        u /= np.linalg.norm(u)
        h = 1e-6
        p1, grad = prediction_gradient(netplan, vec, lambda p: w[netplan.rows])
        assert np.allclose(p1, [predict_p1(model, store, i)
                                for i in netplan.rows], rtol=0, atol=1e-12)
        fd = (w[netplan.rows] @ group_p1(netplan, vec + h * u)
              - w[netplan.rows] @ group_p1(netplan, vec - h * u)) / (2 * h)
        assert abs(fd - grad @ u) < 1e-6

"""Seeded inputs and pipeline configurations of the benchmark's workloads.

A workload is one input set plus the configuration that compiles, trains
and predicts it. The seed picks words, labels and the MC dataset; the
lengths of long-ccg sentences are fixed, so a timing compares across seeds.
synq only ever receives the generated sentences and derivations.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from synq.ansatz import Circuit
from synq.dataset import FOOD, IT, LabeledDataset, generate_dataset
from synq.pipeline import PipelineConfig

NAMES = ("mc-spider", "mc-iqp", "long-ccg")
SPLITS = ("train", "dev", "test")

# Training iterations per episode. The host's speed drifts by up to 1.8x over
# seconds, so a run holds many short episodes: every phase is then sampled
# at many points of the run rather than in a few long windows.
ITERATIONS = {"mc-spider": 10, "mc-iqp": 12, "long-ccg": 20}

# long-ccg sentence lengths in words. Training and dev sentences are short,
# so Adam's per-sentence gradient stays cheap; test sentences double in
# length up to ~200 words, where diagram building is quadratic. All lengths
# differ, so no two sentences share a structure.
LONG_WORDS = {
    "train": (8, 9, 10, 11, 12, 13),
    "dev": (14, 15),
    "test": (24, 48, 96, 192),
}
TINY_LONG_WORDS = {"train": (8, 9), "dev": (10,), "test": (16,)}

SHOTS_PREDICT = {"n_shots": 8192, "noise_p": 0.01}
VERB_CATEGORY = "(S[dcl]\\NP)/NP"


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    config: PipelineConfig  # compile and train
    predict_config: PipelineConfig  # the predict phase
    dataset: LabeledDataset


def _leaf(category: str, pos: str, token: str) -> str:
    return f"(<L {category} {pos} {pos} {token} {category}>)"


def _noun_phrase(adjectives: list[str], noun: str) -> str:
    tree = _leaf("N", "NN", noun)
    for adjective in reversed(adjectives):
        tree = f"(<T N 1 2> {_leaf('N/N', 'JJ', adjective)} {tree})"
    return f"(<T NP 0 2> {_leaf('NP/N', 'DT', 'the')} {tree})"


def long_sentence(rng: np.random.Generator, words: int,
                  vocab: dict) -> tuple[str, str]:
    """(text, AUTO derivation) of 'the ADJ* N V the ADJ* N' with ``words``."""
    n_adjectives = words - 5
    pick = [str(a) for a in rng.choice(vocab["adjectives"], n_adjectives)]
    subj_adjs, obj_adjs = pick[:n_adjectives // 2], pick[n_adjectives // 2:]
    subj = str(rng.choice(vocab["subjects"]))
    verb = str(rng.choice(vocab["verbs"]))
    obj = str(rng.choice(vocab["objects"]))
    verb_phrase = (f"(<T S[dcl]\\NP 0 2> {_leaf(VERB_CATEGORY, 'VBZ', verb)} "
                   f"{_noun_phrase(obj_adjs, obj)})")
    derivation = (f"(<T S[dcl] 1 2> {_noun_phrase(subj_adjs, subj)} "
                  f"{verb_phrase})")
    text = " ".join(["the", *subj_adjs, subj, verb, "the", *obj_adjs, obj])
    return text, derivation


def long_dataset(seed: int, lengths: dict) -> tuple[LabeledDataset, str]:
    """Seeded long sentences and their AUTO text in write_auto's format."""
    rng = np.random.default_rng(seed)
    items, splits, lines = [], {}, []
    for split in SPLITS:
        splits[split] = []
        for words in lengths[split]:
            label = int(rng.integers(0, 2))
            text, derivation = long_sentence(rng, words, IT if label else FOOD)
            lines += [f"ID={len(items)}", derivation]
            splits[split].append(len(items))
            items.append((text, label))
    ds = LabeledDataset(tuple(items), *(tuple(splits[s]) for s in SPLITS))
    return ds, "\n".join(lines) + "\n"


def _subset(ds: LabeledDataset, per_split: dict) -> LabeledDataset:
    """The first sentences of each split, renumbered."""
    items, splits = [], []
    for split in SPLITS:
        keep = getattr(ds, split)[:per_split[split]]
        splits.append(tuple(range(len(items), len(items) + len(keep))))
        items.extend(ds.items[i] for i in keep)
    return LabeledDataset(tuple(items), *splits)


def build(name: str, seed: int, input_dir: Path,
          tiny: bool = False) -> Workload:
    """The workload's inputs; long-ccg writes its AUTO file to input_dir."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; known: {NAMES}")
    iterations = 2 if tiny else ITERATIONS[name]
    if name == "long-ccg":
        ds, auto = long_dataset(seed, TINY_LONG_WORDS if tiny else LONG_WORDS)
        path = Path(input_dir) / f"long-ccg-{seed}.auto"
        path.write_text(auto, encoding="utf-8")
        cfg = PipelineConfig(reader="ccg", ccg_path=str(path),
                             rewrites=("determiner",), ansatz="spider",
                             optimizer="adam", iterations=iterations,
                             seed=seed)
        return Workload(name, seed, cfg, cfg, ds)
    ds = generate_dataset(seed)
    if tiny:
        ds = _subset(ds, {"train": 6, "dev": 3, "test": 3})
    if name == "mc-spider":
        cfg = PipelineConfig(ansatz="spider", optimizer="adam",
                             iterations=iterations, seed=seed)
        return Workload(name, seed, cfg, cfg, ds)
    cfg = PipelineConfig(ansatz="iqp", optimizer="spsa", backend="exact",
                         iterations=iterations, seed=seed)
    return Workload(name, seed, cfg,
                    replace(cfg, backend="shots", **SHOTS_PREDICT), ds)


def word_counts(ds: LabeledDataset) -> list[int]:
    return [len(text.split()) for text, _ in ds.items]


def length_bucket(words: int) -> int:
    """Power-of-two length bucket: words in [2**k, 2**(k+1)) give k."""
    return words.bit_length() - 1


def structure_key(artifact) -> tuple:
    """Node kinds, shapes and edges of a network; gates and qubits of a
    circuit. Symbol names are left out, so sentences of one shape share a
    key."""
    if isinstance(artifact, Circuit):
        return ("circuit", artifact.n_qubits,
                tuple((op.gate, op.qubits) for op in artifact.ops),
                artifact.postselect, artifact.open)
    index = {node.node_id: i for i, node in enumerate(artifact.nodes)}

    def leg(l):
        return index[l[0]], l[1]

    return ("network", tuple((n.kind, n.shape) for n in artifact.nodes),
            tuple((leg(a), leg(b)) for a, b in artifact.edges),
            tuple(leg(l) for l in artifact.open_legs))


def _histogram(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def describe(wl: Workload, artifacts: list) -> dict:
    """Input properties a performance claim may cite."""
    keys = [structure_key(a) for a in artifacts]
    per_key = Counter(keys)
    circuits = [a for a in artifacts if isinstance(a, Circuit)]
    networks = [a for a in artifacts if not isinstance(a, Circuit)]
    pcfg = wl.predict_config
    return {
        "seed": wl.seed,
        "sentences": len(wl.dataset.items),
        "split_sizes": {s: len(getattr(wl.dataset, s)) for s in SPLITS},
        "words_per_sentence": _histogram(word_counts(wl.dataset)),
        "distinct_structures": len(per_key),
        "shared_structure_share": sum(
            1 for k in keys if per_key[k] > 1) / len(keys),
        "qubits_per_circuit": _histogram(c.n_qubits for c in circuits),
        "nodes_per_network": _histogram(len(n.nodes) for n in networks),
        "reader": wl.config.reader,
        "rewrites": list(wl.config.rewrites),
        "ansatz": wl.config.ansatz,
        "optimizer": wl.config.optimizer,
        "train_backend": wl.config.backend,
        "iterations_per_episode": wl.config.iterations,
        "predict_backend": pcfg.backend,
        "n_shots": pcfg.n_shots if pcfg.backend == "shots" else None,
        "noise_p": pcfg.noise_p,
    }

"""Command line: ``synq train --config cfg.json --out DIR``.

The config is a JSON object of PipelineConfig fields; fields left out keep
their defaults. The keys are ``reader`` ("ccg", "cups" or "spiders"),
``ccg_path`` (an AUTO file, CCG reader only), ``rewrites`` (a list of rule
names), ``ansatz`` ("iqp", "tensor", "mps" or "spider"), ``backend``
("exact" or "shots"), ``n_shots``, ``noise_p``, ``optimizer`` ("adam" or
"spsa"), ``iterations`` and ``seed``. ``train`` compiles the generated
MC-style dataset (``generate_dataset(0)``), trains it and writes into DIR:

- ``history.csv``: loss and accuracy on train and dev, one row per iteration;
- ``store.json``: the trained parameters, symbol name -> values;
- ``metrics.json``: loss and accuracy of the train, dev and test splits
  under the trained parameters (also printed on stdout).

A bad config is a usage error (exit status 2). A config that cannot compile,
such as one whose AUTO file is missing, malformed, not UTF-8 or lacks an
item's ID, prints ``synq: cannot compile: <message>`` on stderr and exits
with status 1; so does ``synq: cannot create DIR: <reason>``, before
training, for a DIR that cannot be made a directory. Neither writes DIR.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .ccg import ParseError
from .dataset import generate_dataset
from .pipeline import CompileError, PipelineConfig, compile_model
from .training import SPLITS, evaluate_split, train


def load_config(path: str | Path) -> PipelineConfig:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: the config must be a JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}; "
                         f"known: {sorted(known)}")
    return PipelineConfig(**obj)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="synq", description="Compile and train sentence classifiers.")
    commands = parser.add_subparsers(dest="command", required=True)
    cmd = commands.add_parser(
        "train", help="train one pipeline and write its outputs")
    cmd.add_argument("--config", required=True,
                     help="JSON object of PipelineConfig fields")
    cmd.add_argument("--out", required=True,
                     help="output directory, created if missing")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError, TypeError) as exc:
        parser.error(f"bad config: {exc}")
    ds = generate_dataset(0)
    try:
        model = compile_model(cfg, ds)
    except (OSError, CompileError, ParseError) as exc:
        message = "; ".join(str(exc).splitlines())
        parser.exit(1, f"synq: cannot compile: {message}\n")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.exit(1, f"synq: cannot create {out}: {exc.strerror}\n")
    store, history = train(model)
    metrics: dict[str, float] = {}
    for split in SPLITS:
        metrics.update(evaluate_split(model, store, split))
    (out / "history.csv").write_text(history.to_csv(), encoding="utf-8")
    (out / "store.json").write_text(json.dumps(store.to_jsonable()),
                                    encoding="utf-8")
    (out / "metrics.json").write_text(json.dumps(metrics, indent=1),
                                      encoding="utf-8")
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

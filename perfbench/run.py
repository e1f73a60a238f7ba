"""Benchmark of synq's parse -> rewrite -> compile -> train -> predict flow.

    python3 perfbench/run.py --workload mc-spider --seed 0 --seconds 30 --trace 0

Run from the repository root; synq is imported from ``src/``. One episode
compiles the seeded workload (timed as set-up), trains it and predicts
every sentence with ``evaluate_split``. Episodes repeat while another one
fits in ``--seconds``. With ``--trace 0`` the episodes are untraced: the
clock is read around set-up, once per optimizer step and once per
prediction, and the end-to-end metrics are printed, scaled by the
calibration kernel (``calibration.py``) run between phases. With
``--trace 1`` untraced and traced episodes alternate and the per-layer
metrics are printed; the spans are written to ``perfbench/results/``.
Every run checks its outputs against the oracles in ``oracles.py``. The
last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full report.
"""
import os

# One thread for BLAS and OpenMP, set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "synq" / "__init__.py").is_file():
        print(f"perfbench: no synq sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.NAMES)}")
    report, result = harness.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (harness.RESULTS / name).write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end desk-scale demo: generate the toy fixture, then run the full
clean-train/corrupted-test sweep for the classical baseline and the
depth-1 quanvolutional model."""

import argparse
import time
from pathlib import Path

from quanvaudio.harness import ExperimentConfig, run_experiment
from quanvaudio.toydata import make_toy_dataset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--per-class", type=int, default=100)
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--max-epochs", type=int, default=500)
    args = parser.parse_args()

    data_root = args.workdir / "data"
    if not data_root.exists():
        make_toy_dataset(data_root, n_per_class=args.per_class)
    cfg = ExperimentConfig(
        data_root=str(data_root),
        output_dir=str(args.workdir / "results"),
        models=("cnn_base", "qnn_basic"),
        depths=(1,),
        n_seeds=args.seeds,
        lr=1e-3,  # the toy task converges far faster than a speech corpus
        max_epochs=args.max_epochs,
        patience=min(30, args.max_epochs - 1),  # patience must stay below max_epochs
    )
    t0 = time.time()
    result = run_experiment(cfg)
    print(f"sweep finished in {time.time() - t0:.1f}s -> {result.out_dir}")
    if result.failures:
        print(f"{len(result.failures)} failed cells; see failures.csv")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

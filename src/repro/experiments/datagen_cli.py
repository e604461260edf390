"""CLI for generating and persisting voltage datasets.

Generating the paper-scale dataset takes minutes of simulation; this
tool runs it once and stores the train/eval datasets as ``.npz`` so
analysis sessions and CI can ``load_dataset`` instantly::

    python -m repro.experiments.datagen_cli --out data/ --profile paper
    python -m repro.experiments.datagen_cli --out demo/ --profile fast
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.experiments.config import FAST_SETUP, PAPER_SETUP
from repro.experiments.data_generation import generate_dataset
from repro.voltage.persistence import save_dataset

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-datagen",
        description="Generate and persist train/eval voltage datasets.",
    )
    parser.add_argument(
        "--out",
        required=True,
        help="output directory (train.npz / eval.npz are written there)",
    )
    parser.add_argument(
        "--profile",
        choices=("paper", "fast"),
        default="fast",
        help="experiment profile to generate (default: fast)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-benchmark progress output",
    )
    args = parser.parse_args(argv)

    setup = PAPER_SETUP if args.profile == "paper" else FAST_SETUP
    t0 = time.time()
    data = generate_dataset(setup, verbose=not args.quiet)
    os.makedirs(args.out, exist_ok=True)
    train_path = os.path.join(args.out, "train.npz")
    eval_path = os.path.join(args.out, "eval.npz")
    save_dataset(train_path, data.train)
    save_dataset(eval_path, data.eval)
    print(
        f"generated {args.profile} profile in {time.time() - t0:.1f}s:\n"
        f"  {train_path}: {data.train.summary()}\n"
        f"  {eval_path}: {data.eval.summary()}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Large-scale run on FMNIST-format IDX data: 100 clients, 20 online per round.

Expects the standard ubyte files (train-images-idx3-ubyte /
train-labels-idx1-ubyte). Budget about 4 minutes for the default 300 rounds
(the FMNIST-shaped `wide` benchmark workload takes about 0.66-0.76 s per
round on a 2-vCPU machine); progress is printed as rounds complete.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from corefed.aggregation import ParticipationLedger
from corefed.config import ExperimentConfig, IdxSource
from corefed.simulation import RunState, build_shards, initial_params, run_round


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("data_dir", help="directory holding the IDX image/label files")
    parser.add_argument("--images", default="train-images-idx3-ubyte")
    parser.add_argument("--labels", default="train-labels-idx1-ubyte")
    parser.add_argument("--algorithm", default="corefed",
                        choices=("corefed", "cofed", "refed", "fedavg"))
    parser.add_argument("--rounds", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--report-every", type=int, default=10)
    args = parser.parse_args()

    data_dir = Path(args.data_dir)
    cfg = ExperimentConfig(
        algorithm=args.algorithm, rounds=args.rounds, clients=100, online_per_round=20,
        batch_size=50, dirichlet_alpha=0.5, seed=args.seed,
        dataset=IdxSource(images=str(data_dir / args.images),
                          labels=str(data_dir / args.labels)))

    start = time.perf_counter()
    print("partitioning data ...")
    shards = build_shards(cfg)
    state = RunState(round=0, params=initial_params(cfg), ledger=ParticipationLedger(),
                     seed=cfg.seed)
    report = None
    for _ in range(cfg.rounds):
        state, report = run_round(state, cfg, shards)
        if report.round % args.report_every == 0 or report.round == cfg.rounds:
            print(f"round {report.round:4d}: accuracy {report.mean_accuracy:.4f} "
                  f"d_cosine {report.d_cosine_mean:.5f} d_manhattan {report.d_manhattan_mean:.2f} "
                  f"lr {report.learning_rate:.5f} ({time.perf_counter() - start:.0f}s)")
    if report is not None:
        print(f"final mean test accuracy after {cfg.rounds} rounds: {report.mean_accuracy:.4f}")


if __name__ == "__main__":
    main()

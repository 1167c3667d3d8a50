#!/usr/bin/env python3
"""Desk-scale ablation run: all four algorithms on identical seeds/partitions.

Prints a per-seed table of final accuracy and fairness distances, plus the
across-seed means. Takes a couple of minutes on a laptop CPU.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

import numpy as np

from corefed.config import ALGORITHMS, ExperimentConfig, SyntheticSource
from corefed.simulation import run_simulation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds (default 1,2,3)")
    parser.add_argument("--rounds", type=int, default=150)
    parser.add_argument("--clients", type=int, default=10)
    parser.add_argument("--online", type=float, default=0.4, help="participation fraction")
    parser.add_argument("--alpha", type=float, default=0.5, help="Dirichlet concentration")
    parser.add_argument("--samples", type=int, default=2000, help="synthetic dataset size")
    args = parser.parse_args()

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    base = ExperimentConfig(
        rounds=args.rounds, clients=args.clients, online_per_round=args.online,
        batch_size=50, dirichlet_alpha=args.alpha,
        dataset=SyntheticSource(num_classes=4, input_dim=32, n=args.samples))

    collected: dict[str, list] = {a: [] for a in ALGORITHMS}
    for seed in seeds:
        print(f"--- seed {seed} ---")
        print(f"{'algorithm':10s} {'accuracy':>9s} {'d_cosine':>10s} {'d_manhattan':>12s}")
        for algorithm in ALGORITHMS:
            cfg = replace(base, algorithm=algorithm, seed=seed)
            final = run_simulation(cfg).reports[-1]
            collected[algorithm].append(
                (final.mean_accuracy, final.d_cosine_mean, final.d_manhattan_mean))
            print(f"{algorithm:10s} {final.mean_accuracy:9.4f} "
                  f"{final.d_cosine_mean:10.5f} {final.d_manhattan_mean:12.3f}")

    print(f"--- means over {len(seeds)} seed(s) ---")
    print(f"{'algorithm':10s} {'accuracy':>9s} {'d_cosine':>10s} {'d_manhattan':>12s}")
    for algorithm in ALGORITHMS:
        acc, d_cos, d_man = np.mean(collected[algorithm], axis=0)
        print(f"{algorithm:10s} {acc:9.4f} {d_cos:10.5f} {d_man:12.3f}")


if __name__ == "__main__":
    main()

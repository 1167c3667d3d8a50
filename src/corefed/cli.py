"""Command-line entry point: run single experiments, sweep algorithms, validate configs.

Numeric CSV fields are written with 17 significant digits so every 64-bit
value round-trips exactly; reruns with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .checkpoint import atomic_write
from .config import (
    ALGORITHMS,
    ExperimentConfig,
    config_hash,
    dumps_config,
    parse_config,
)
from .errors import ConfigError
from .metrics import RoundReport
from .simulation import build_shards, run_simulation

SEED_ENV_VAR = "COREFED_SEED"
SUMMARY_SCHEMA_VERSION = 1


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# The rounds.csv columns: RoundReport attributes, each with its CSV formatter.
# summary.json's final object holds the same attributes of the last round.
ROUND_FIELDS = (("round", str), ("mean_accuracy", _fmt), ("d_cosine_mean", _fmt),
                ("d_manhattan_mean", _fmt), ("learning_rate", _fmt), ("num_online", str),
                ("mean_contrastive_loss", _fmt))
ROUNDS_HEADER = ",".join(name for name, _ in ROUND_FIELDS)


def load_config(path) -> ExperimentConfig:
    """Parse a config file and apply the seed override from the environment."""
    cfg = parse_config(path)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg = replace(cfg, seed=int(env_seed))
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
    return cfg


@contextmanager
def _fresh_dir(path: Path, overwrite: bool) -> Iterator[Path]:
    """Yield a new directory to build a run in; it becomes ``path`` only if the block succeeds.

    The run is built inside a hidden sibling of ``path``. A ``path`` that
    already exists (``--overwrite``) is swapped out after the block returns,
    so a failed run leaves the previous one as it was and no directory of
    its own.
    """
    if path.exists() and not overwrite:
        raise FileExistsError(f"run directory {path} exists; pass --overwrite to replace it")
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{path.name}.", dir=path.parent))
    try:
        build = staging / "run"
        build.mkdir()
        yield build
        if path.exists():
            os.replace(path, staging / "replaced")
        os.replace(build, path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _write_text(path: Path, text: str) -> None:
    atomic_write(path, [text.encode("utf-8")])


def _round_row(report: RoundReport) -> str:
    return ",".join(fmt(getattr(report, name)) for name, fmt in ROUND_FIELDS)


def write_outputs(run_dir: Path, cfg: ExperimentConfig, run_id: str,
                  reports: list[RoundReport]) -> None:
    _write_text(run_dir / "config.json", dumps_config(cfg))

    lines = [ROUNDS_HEADER] + [_round_row(r) for r in reports]
    _write_text(run_dir / "rounds.csv", "\n".join(lines) + "\n")

    # a run repeats few accuracies; each is hits / size, never a -0.0 that 0.0's key would take
    text = {value: _fmt(value) + "\n" for report in reports for value in set(report.accuracies)}
    middles = {ids: [f",{cid}," for cid in ids] for ids in {r.client_ids for r in reports}}
    blocks = ["round,client_id,accuracy\n"]
    for report in reports:  # the evaluation plan's client ids ascend
        row = [str(report.round)] * (3 * len(report.client_ids))  # round, ",cid,", accuracy
        row[1::3] = middles[report.client_ids]
        row[2::3] = map(text.__getitem__, report.accuracies)
        blocks.append("".join(row))
    _write_text(run_dir / "per_client_accuracy.csv", "".join(blocks))

    final = None
    if reports:
        final = {name: getattr(reports[-1], name) for name, _ in ROUND_FIELDS}
        if math.isnan(final["mean_contrastive_loss"]):
            final["mean_contrastive_loss"] = None
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "run_id": run_id,
        "algorithm": cfg.algorithm,
        "config_sha1": config_hash(cfg),
        "rounds": len(reports),
        "final": final,
    }
    _write_text(run_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _run_id(args, prefix: str, cfg: ExperimentConfig) -> str:
    """``--run-id``, which must name one directory inside ``--out``, or a config-hash default."""
    if args.run_id is None:
        return f"{prefix}-{config_hash(cfg)[:12]}"
    if args.run_id in ("", ".", "..") or Path(args.run_id).name != args.run_id:
        raise ConfigError(f"--run-id must be one plain directory name, got {args.run_id!r}")
    return args.run_id


def _run_into(run_dir: Path, run_id: str, cfg: ExperimentConfig, shards=None) -> list[RoundReport]:
    """Simulate ``cfg`` into the existing ``run_dir`` (checkpoints included) and write its files;
    ``shards`` are a sweep's one build of the data (by default ``cfg``'s own)."""
    reports = run_simulation(cfg, shards=shards, checkpoint_dir=run_dir).reports
    write_outputs(run_dir, cfg, run_id, reports)
    return reports


def cmd_run(cfg: ExperimentConfig, args) -> None:
    run_id = _run_id(args, "run", cfg)
    with _fresh_dir(Path(args.out) / run_id, args.overwrite) as run_dir:
        reports = _run_into(run_dir, run_id, cfg)
    print(f"run {run_id}: {len(reports)} rounds -> {Path(args.out) / run_id}")


def cmd_sweep(cfg: ExperimentConfig, args) -> None:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise ConfigError("sweep needs at least one algorithm")
    repeated = sorted({a for a in algorithms if algorithms.count(a) > 1})
    if repeated:
        raise ConfigError(f"algorithm(s) given more than once: {', '.join(repeated)}")
    configs = [replace(cfg, algorithm=a) for a in algorithms]  # _validate rejects unknown names
    out = Path(args.out)
    run_id = _run_id(args, "sweep", cfg)
    with _fresh_dir(out / run_id, args.overwrite) as sweep_dir:
        shards = build_shards(cfg)  # one data set-up; every algorithm trains on it
        comparison = ["algorithm,accuracy,d_cosine,d_manhattan"]
        for algorithm, run_cfg in zip(algorithms, configs):
            (sweep_dir / algorithm).mkdir()
            reports = _run_into(sweep_dir / algorithm, f"{run_id}/{algorithm}", run_cfg, shards)
            finals = [getattr(reports[-1], name) if reports else math.nan
                      for name in ("mean_accuracy", "d_cosine_mean", "d_manhattan_mean")]
            comparison.append(",".join([algorithm, *map(_fmt, finals)]))
        _write_text(sweep_dir / "comparison.csv", "\n".join(comparison) + "\n")
    print(f"sweep {run_id}: {', '.join(algorithms)} -> {out / run_id}")


def cmd_validate(cfg: ExperimentConfig, args) -> None:
    sys.stdout.write(dumps_config(cfg))


COMMANDS = {"run": cmd_run, "sweep": cmd_sweep, "validate": cmd_validate}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corefed",
        description="Deterministic simulator for fairness-aware federated learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="path to a JSON experiment config")
    outputs = argparse.ArgumentParser(add_help=False, parents=[config])
    outputs.add_argument("--out", required=True, help="output directory (run files go in <out>/<run-id>)")
    outputs.add_argument("--run-id", default=None,
                         help="run directory name (default: run- or sweep- plus the config hash)")
    outputs.add_argument("--overwrite", action="store_true", help="replace an existing run directory")

    sub.add_parser("run", parents=[outputs], help="run one experiment and write result files")
    sweep_p = sub.add_parser("sweep", parents=[outputs],
                             help="run several algorithms on the identical seed/partition")
    sweep_p.add_argument("--algorithms", required=True,
                         help=f"comma-separated subset of {{{','.join(ALGORITHMS)}}}")
    sub.add_parser("validate", parents=[config], help="parse a config and echo the resolved values")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](load_config(args.config), args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

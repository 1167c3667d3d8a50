"""Workloads, measurement and output checks of the corefed benchmark.

Import this module only after ``run.configure()``: the BLAS thread variables
must be in the environment before numpy is first imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from corefed import cli, simulation
from corefed.config import ExperimentConfig, config_hash

import tracer

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCE_FILE = Path(__file__).with_name("reference_digests.json")
SWEEP_ALGORITHMS = ("corefed", "cofed", "refed", "fedavg")
MIN_ACCURACY = 0.5  # floor on a full-length run's final accuracy; chance is 0.25 or 0.1
SETUP_SLOT_SECONDS = 0.3  # set-ups repeat for this long before each warm unit
COLD_PER_UNIT = 2  # short fresh processes before each warm unit
SHORT_ROUNDS = 1  # rounds of the config that fresh processes and the warm-up run
CALIBRATION_PIECES = 40  # calibration pieces before each warm unit, about 3 ms each
# The calibration figure on the machine the benchmark was tuned on (a 2-vCPU
# x86_64 VM); timings are scaled to the machine speed this stands for.
CALIBRATION_REFERENCE_S = 2.6e-3
_CAL_RNG = np.random.default_rng(0)
_CAL_X, _CAL_W = _CAL_RNG.random((4096, 32)), _CAL_RNG.random((32, 64))  # 1 MB, 16 KB


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict          # experiment config without its seed
    min_units: int        # warm units per run at least, whatever --seconds says
    tail: float           # percentile that round_ms.tail reports
    sweep: bool           # corefed sweep over SWEEP_ALGORITHMS instead of corefed run

    @property
    def runs_per_config(self) -> int:
        return len(SWEEP_ALGORITHMS) if self.sweep else 1

    def argv(self, config_path: Path, out_dir: Path, run_id: str) -> list[str]:
        common = ["--config", str(config_path), "--out", str(out_dir), "--run-id", run_id]
        if self.sweep:
            return ["sweep", *common, "--algorithms", ",".join(SWEEP_ALGORITHMS)]
        return ["run", *common]


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md; `wide`
# runs on request but is not in BENCHMARK.json (see NOTES.md). The tail is
# the highest percentile with at least ten of a unit's rounds beyond it.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk",
        config={"rounds": 150, "clients": 10, "online_per_round": 0.4, "batch_size": 50,
                "dirichlet_alpha": 0.5,
                "dataset": {"kind": "synthetic", "num_classes": 4, "input_dim": 32, "n": 2000}},
        min_units=3, tail=98, sweep=True),
    Workload(
        name="wide",
        config={"algorithm": "corefed", "rounds": 20, "clients": 100, "online_per_round": 20,
                "batch_size": 50, "dirichlet_alpha": 0.5, "checkpoint_interval": 0,
                "dataset": {"kind": "synthetic", "num_classes": 10, "input_dim": 784,
                            "n": 60000},
                "model": {"input_dim": 784, "hidden_dims": [200, 200], "num_classes": 10}},
        min_units=1, tail=50, sweep=False),
    Workload(
        name="crowd",
        config={"algorithm": "corefed", "rounds": 200, "clients": 300, "online_per_round": 5,
                "batch_size": 20, "dirichlet_alpha": 0.5, "checkpoint_interval": 10,
                "dataset": {"kind": "synthetic", "num_classes": 10, "input_dim": 32,
                            "n": 20000}},
        min_units=3, tail=95, sweep=False),
)}


class OutputError(ValueError):
    """A run's output files fail a check."""


# ---------------------------------------------------------------- outputs


def tree_digest(run_dir: Path) -> str:
    """sha256 over every file under run_dir: relative path, size, bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        digest.update(f"{path.relative_to(run_dir).as_posix()}\0{path.stat().st_size}\0".encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def _check_run_dir(run_dir: Path, cfg: ExperimentConfig) -> float:
    """Check one algorithm's result files; return its final mean accuracy."""
    lines = (run_dir / "rounds.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != cli.ROUNDS_HEADER or len(lines) != cfg.rounds + 1:
        raise OutputError(f"{run_dir.name}/rounds.csv: bad header or {len(lines) - 1} rows")
    no_contrast = cfg.algorithm in ("cofed", "fedavg")
    for t, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        acc, d_cos, d_man, lr, online, contrast = (float(f) for f in fields[1:])
        if (fields[0] != str(t) or not 0.0 <= acc <= 1.0
                or not all(math.isfinite(v) for v in (d_cos, d_man, lr))
                or online != cfg.resolved_online() or math.isnan(contrast) != no_contrast):
            raise OutputError(f"{run_dir.name}/rounds.csv row {t} is out of range: {line}")
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    final = summary["final"]["mean_accuracy"] if cfg.rounds else 1.0
    if cfg.rounds and final != float(lines[-1].split(",")[1]):
        raise OutputError(f"{run_dir.name}: summary.json disagrees with rounds.csv")
    per_client = (run_dir / "per_client_accuracy.csv").read_text(encoding="utf-8").splitlines()
    if len(per_client) < 1 + cfg.rounds or (len(per_client) - 1) % max(cfg.rounds, 1):
        raise OutputError(f"{run_dir.name}/per_client_accuracy.csv has {len(per_client)} lines")
    if cfg.checkpoint_interval:
        saved = {p.name for p in run_dir.glob("round_*")}
        due = {f"round_{t}" for t in range(cfg.checkpoint_interval, cfg.rounds + 1,
                                           cfg.checkpoint_interval)}
        vector_bytes = 8 + 8 * cfg.model.num_params()
        if saved != due or any((run_dir / d / "global.bin").stat().st_size != vector_bytes
                               for d in due):
            raise OutputError(f"{run_dir.name}: checkpoints {sorted(saved)} != {sorted(due)}")
    return final


def check_outputs(workload: Workload, cfg: ExperimentConfig, run_dir: Path) -> float:
    """Check a run's files; return the lowest final accuracy among its algorithms."""
    if not workload.sweep:
        finals = [_check_run_dir(run_dir, cfg)]
    else:
        finals = [_check_run_dir(run_dir / a, replace(cfg, algorithm=a)) for a in SWEEP_ALGORITHMS]
        rows = (run_dir / "comparison.csv").read_text(encoding="utf-8").splitlines()
        if [r.split(",")[0] for r in rows[1:]] != list(SWEEP_ALGORITHMS):
            raise OutputError("comparison.csv does not list the sweep's algorithms")
    if cfg.rounds == workload.config["rounds"] and min(finals) < MIN_ACCURACY:
        raise OutputError(f"final accuracy {min(finals):.4f} is below {MIN_ACCURACY}")
    return min(finals)


@dataclass
class OutputGate:
    """Correctness gate over CLI runs; its counts feed ``failed_fraction``.

    A run fails when it exits non-zero, its files fail ``check_outputs``, its
    digest differs from the first run of the same config in this process, or
    a reference digest exists for the config and differs.
    """

    workload: Workload
    references: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    final_accuracy: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def check(self, cfg: ExperimentConfig, run_dir: Path, exit_code, label: str) -> bool:
        self.attempted += 1
        key = config_hash(cfg)
        problem = None
        if exit_code != 0:
            problem = f"exit status {exit_code}"
        else:
            try:
                self.final_accuracy[key] = check_outputs(self.workload, cfg, run_dir)
                digest = tree_digest(run_dir)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
            else:
                first = self.digests.setdefault(key, digest)
                if digest != first:
                    problem = f"digest {digest[:16]} differs from the first run's {first[:16]}"
                elif key in self.references and digest != self.references[key]:
                    problem = f"digest {digest[:16]} differs from the reference"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{label} seed {cfg.seed}: {problem}")
        return problem is None


def load_references(workload: Workload) -> dict[str, str]:
    entries = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {e["config_sha1"]: e["digest"] for e in entries if e["workload"] == workload.name}


# ---------------------------------------------------------------- running


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def write_config(workload: Workload, seed: int, rounds: int | None,
                 work_dir: Path) -> tuple[Path, ExperimentConfig]:
    """Write the workload's config for a benchmark seed, whose experiment seed
    is ``seed + 1``; return (path, parsed config)."""
    raw = dict(workload.config, seed=seed + 1)
    if rounds is not None:
        raw["rounds"] = rounds
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / f"config_{raw['rounds']}_rounds.json"
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path, cli.load_config(path)


def run_unit(workload, config, out_dir: Path, clock: tracer.RoundClock,
             gate: OutputGate, label: str) -> None:
    """One unit of work: the workload's config through ``cli.main``."""
    path, cfg = config
    run_id = f"seed{cfg.seed}"
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(workload.argv(path, out_dir, run_id))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted by the gate as a failed run
            code = f"{type(exc).__name__}: {exc}"
    clock.mark_cli_end()
    gate.check(cfg, out_dir / run_id, code, label)


def cold_run(workload, path: Path, cfg, out_dir: Path, gate: OutputGate) -> tuple[float, float]:
    """One fresh ``python -m corefed`` process: (wall seconds, peak RSS in MB)."""
    run_id = f"seed{cfg.seed}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "corefed", *workload.argv(path, out_dir, run_id)],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    gate.check(cfg, out_dir / run_id, proc.returncode, "cold")
    return wall, usage.ru_maxrss / 1024


def setup_once(config) -> tuple[float, dict[int, int]]:
    """Seconds from config file to shards plus initial params, and the
    training-set size of each client."""
    start = time.perf_counter()
    cfg = cli.load_config(config[0])
    shards = simulation.build_shards(cfg)
    simulation.initial_params(cfg)
    taken = time.perf_counter() - start
    return taken, {s.client_id: len(s.train) for s in shards}


def predicted_train_samples(workload, config, train_sizes) -> int:
    """Local-SGD samples one unit trains, from the clients each round samples."""
    cfg = config[1]
    total = 0
    for t in range(cfg.rounds):
        state = simulation.RunState(round=t, params=None, ledger=None, seed=cfg.seed)
        sampled = simulation.sample_clients(state, cfg)
        total += cfg.local_epochs * sum(train_sizes[c] for c in sampled)
    return total * workload.runs_per_config


def calibration_piece() -> float:
    """Seconds for a fixed piece of work of the kind a corefed round does:
    minibatch products over a 1 MB array, each followed by Python dict and
    sort bookkeeping. It never changes, so its time tracks only the speed of
    the machine."""
    start = time.perf_counter()
    for _ in range(4):
        for row in range(0, len(_CAL_X), 64):
            hidden = np.maximum(_CAL_X[row:row + 64] @ _CAL_W, 0.0)
            by_id = {i: float(hidden[i, 0]) for i in range(8)}
            sorted(by_id.items(), key=lambda kv: kv[1])
    return time.perf_counter() - start


def _fastest_for(seconds: float, step) -> float:
    """Repeat ``step()`` (which returns its own time) for ``seconds``; the fastest."""
    times, start = [], time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(step())
    return min(times)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]

    def line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}}


def _timed_unit(workload, config, work_dir, gate, problems,
                label) -> tuple[list[float], list[float]]:
    """One untraced unit: its round intervals and simulation tails."""
    out_dir = work_dir / "warm"
    with tracer.RoundClock() as clock:
        problems.extend(f"untraced run would call a probe: {p}"
                        for p in tracer.untraced_problems())
        run_unit(workload, config, out_dir, clock, gate, label)
    shutil.rmtree(out_dir, ignore_errors=True)
    return clock.timings()


def _warm_up(workload, short_config, work_dir, gate) -> None:
    """Run the unit cut to one round, untimed, so that imports, lazy set-up
    and the unit's code paths are warm before timing."""
    with tracer.RoundClock() as clock:
        run_unit(workload, short_config, work_dir / "warm-up", clock, gate, "warm-up")
    shutil.rmtree(work_dir / "warm-up", ignore_errors=True)


def _end_to_end(workload, config, short_config, seconds, work_dir, gate, problems,
                notes) -> dict:
    # One fresh process of the full-length config, for peak_rss_mb.
    rss_mb = cold_run(workload, *config, work_dir / "cold", gate)[1]
    shutil.rmtree(work_dir / "cold", ignore_errors=True)
    _warm_up(workload, short_config, work_dir, gate)

    # Cycles of fresh processes, set-ups and one warm unit, so that every
    # kind of sample spreads over the whole run.
    cold, setups, calibrations, unit_intervals, unit_tails, cycles = [], [], [], [], [], []
    train_sizes = {}

    def set_up() -> float:
        taken, sizes = setup_once(config)
        train_sizes.update(sizes)
        return taken

    started = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for _ in range(COLD_PER_UNIT):
            cold.append(cold_run(workload, *short_config, work_dir / "cold", gate)[0])
            shutil.rmtree(work_dir / "cold", ignore_errors=True)
        setups.append(_fastest_for(SETUP_SLOT_SECONDS, set_up))
        calibrations.append([calibration_piece() for _ in range(CALIBRATION_PIECES)])
        intervals, tails = _timed_unit(workload, config, work_dir, gate, problems,
                                       f"warm {len(unit_intervals) + 1}")
        unit_intervals.append(intervals)
        unit_tails.append(tails)
        cycles.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - started
        # Stop before a cycle that would end past --seconds.
        if (len(unit_intervals) >= workload.min_units
                and elapsed + statistics.median(cycles) > seconds):
            break

    # Every unit repeats the same rounds. Each round and each simulation tail
    # counts at the fastest of its repeats, which filters out the machine's
    # slow spells; the calibration scales out slow spells that last the whole
    # run (NOTES.md, "Timing on a machine whose speed changes").
    rounds = np.min(unit_intervals, axis=0)
    run_s = float(rounds.sum() + np.min(unit_tails, axis=0).sum())
    unit_runs = [sum(i) + sum(t) for i, t in zip(unit_intervals, unit_tails)]
    # The calibration pieces are filtered as the rounds are: each piece at
    # the fastest of its repeats, then the median piece.
    calibration = float(np.median(np.min(calibrations, axis=0)))
    scale = CALIBRATION_REFERENCE_S / calibration
    samples = predicted_train_samples(workload, config, train_sizes)
    beyond = len(rounds) * (100 - workload.tail) / 100
    raw = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_run_s": (min(cold), "s"),
        "run_s": (run_s, "s"),
        "round_ms.p50": (float(np.percentile(rounds, 50)) * 1e3, "ms"),
        "round_ms.tail": (float(np.percentile(rounds, workload.tail)) * 1e3, "ms"),
    }
    notes += [f"setup_s is the median of {len(setups)} cycles' fastest set-up, cold_run_s the "
              f"fastest of {len(cold)} fresh {SHORT_ROUNDS}-round processes",
              f"run_s sums each round and tail at its fastest of {len(unit_runs)} warm units "
              f"(each unit: {', '.join(f'{t:.4f}' for t in unit_runs)} s)",
              f"round_ms.p50 and round_ms.tail (p{workload.tail:g}, {beyond:g} rounds beyond it) "
              f"are over those {len(rounds)} fastest rounds",
              f"calibration piece {calibration * 1e3:.4f} ms (median over {CALIBRATION_PIECES} "
              f"pieces of each one's fastest of {len(calibrations)} repeats; fastest piece "
              f"{np.min(calibrations) * 1e3:.4f} ms, median {np.median(calibrations) * 1e3:.4f} "
              f"ms); timings are scaled by {CALIBRATION_REFERENCE_S * 1e3:g} ms / that = "
              f"{scale:.4f}",
              "unscaled " + ", ".join(f"{k} {v!r} {u}" for k, (v, u) in raw.items()),
              f"train samples per unit: {samples}"]
    scaled = {k: (v * scale, u) for k, (v, u) in raw.items()}
    return {**scaled,
            "train_samples_per_s": (samples / scaled["run_s"][0], "1/s"),
            "peak_rss_mb": (rss_mb, "MB")}


def _per_layer(workload, config, short_config, seconds, work_dir, gate, problems,
               notes) -> dict:
    samples = predicted_train_samples(workload, config, setup_once(config)[1])
    _warm_up(workload, short_config, work_dir, gate)
    run_times = []
    started = time.perf_counter()
    while not run_times or time.perf_counter() - started < seconds:
        run_times.append(sum(map(sum, _timed_unit(workload, config, work_dir, gate, problems,
                                                   f"warm {len(run_times) + 1}"))))
    trace_tracer = tracer.Tracer()
    out_dir = work_dir / "traced"
    with tracer.RoundClock() as clock, trace_tracer:
        run_unit(workload, config, out_dir, clock, gate, "traced")
    traced_run_s = sum(map(sum, clock.timings()))
    shutil.rmtree(out_dir, ignore_errors=True)
    layer, shares, span_problems = trace_tracer.layer_metrics()
    problems += span_problems + [f"not restored: {p}" for p in tracer.untraced_problems()]
    if layer["nn.train_samples"][0] != samples:
        problems.append(f"traced nn.train_samples {layer['nn.train_samples'][0]} "
                        f"!= predicted {samples}")
    total = sum(shares.values())
    notes.append("layer shares of traced time: " + ", ".join(
        f"{k} {v:.3f} s ({v / total:.1%})"
        for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    notes.append(f"{len(trace_tracer.spans)} spans")
    return {**dict(sorted(layer.items())),
            "trace.run_s": (traced_run_s, "s"),
            "trace.overhead_s": (traced_run_s - statistics.median(run_times), "s")}


def measure(name: str, seed: int, seconds: float, trace: bool,
            rounds: int | None = None) -> Result:
    """Run one workload and return its end-to-end or (trace) per-layer metrics.

    ``rounds`` shortens the config for the self-test.
    """
    workload = WORKLOADS[name]
    work_dir = OUT_ROOT / name
    shutil.rmtree(work_dir, ignore_errors=True)
    config = write_config(workload, seed, rounds, work_dir)
    short_rounds = min(SHORT_ROUNDS, config[1].rounds)
    short_config = write_config(workload, seed, short_rounds, work_dir)
    gate = OutputGate(workload, load_references(workload))
    notes = [f"workload {name}, seed {seed} -> config seed {config[1].seed}, "
             f"trace={int(trace)}",
             "env " + json.dumps(environment(), sort_keys=True)]
    problems: list[str] = []  # checks of the benchmark itself, apart from the gate
    measure_mode = _per_layer if trace else _end_to_end
    metrics = measure_mode(workload, config, short_config, seconds, work_dir, gate,
                           problems, notes)

    for key, digest in gate.digests.items():
        reference = gate.references.get(key)
        verdict = "none" if reference is None else "match" if reference == digest else "MISMATCH"
        notes.append(f"digest {digest} config_sha1 {key} final_accuracy "
                     f"{gate.final_accuracy[key]:.6f} reference {verdict}")
    notes.append(f"failed_fraction {gate.failed / max(gate.attempted, 1)} ratio "
                 f"({gate.failed}/{gate.attempted})")
    notes += [f"failed: {p}" for p in gate.problems]
    notes += [f"benchmark check failed: {p}" for p in problems]
    notes += [f"{k} {v!r} {u}" for k, (v, u) in metrics.items()]
    return Result(correct=not problems and gate.failed == 0, attempted=gate.attempted,
                  failed=gate.failed, metrics=metrics, notes=notes)

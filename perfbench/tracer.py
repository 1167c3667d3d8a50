"""Outside-in tracing of the corefed simulator.

Nothing under ``src/`` is instrumented. Instead, the benchmark replaces the
module attributes that ``corefed.simulation``, ``corefed.embedding``,
``corefed.metrics``, ``corefed.nn``, ``corefed.data`` and ``corefed.cli``
call through with wrappers, and puts the originals back afterwards.

Two probes exist:

* ``RoundClock`` stamps ``cli.run_simulation`` entry and each
  ``simulation.run_round`` call. It is the only probe present in untraced
  runs and costs two clock reads per round.
* ``Tracer`` records one span ``(name, start, end, parent)`` per call of
  every traced function and counts work at the same boundaries. Spans stay
  in memory; self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from functools import wraps
from time import perf_counter

from corefed import cli, data, embedding, metrics, nn, simulation
from corefed.errors import ClientSkipped

def _flops_per_sample(spec) -> int:
    # forward: one matmul per layer; backward: the weight gradient and the
    # upstream product for every layer (the code computes both for layer 1).
    return 6 * sum(fan_in * fan_out for fan_in, fan_out in spec.layer_shapes())


def _dataset_bytes(dataset) -> int:
    return dataset.inputs.nbytes + dataset.labels.nbytes


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _dir_file_bytes(run_dir) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(run_dir) if entry.is_file())


# after(counts, args, result): work counted at the boundary of a traced call.
# Every corefed call site below passes its arguments positionally.
def _after_backward(counts, args, result):
    rows = args[2].inputs.shape[0]
    counts["nn.train_samples"] += rows
    counts["nn.train_flop"] += rows * _flops_per_sample(args[1])


def _after_eval_forward(counts, args, result):
    counts["metrics.eval_forward_calls"] += 1
    counts["metrics.eval_samples"] += args[2].inputs.shape[0]


def _after_client_embedding(counts, args, result):
    counts["embedding.embedded_samples"] += len(args[2].train)


def _after_assemble_round(counts, args, result):
    assignment, gradients = result
    members = len(assignment.weights)
    counts["aggregation.members"] += members
    counts["aggregation.reused"] += members - len(args[1])
    counts["aggregation.window_tau"] += assignment.window_tau
    counts["aggregation.consumed_gradients"] += len(args[2])
    counts["aggregation.bytes"] += members * len(next(iter(gradients.values()))) * 8


def _after_fedavg_aggregate(counts, args, result):
    members = len(args[0])
    counts["aggregation.members"] += members
    counts["aggregation.bytes"] += members * len(result) * 8


def _after_save_ledger(counts, args, result):
    counts["checkpoint.count"] += 1
    counts["checkpoint.bytes"] += _file_bytes(args[1], args[2])


def _after_write_vector(counts, args, result):
    counts["checkpoint.bytes"] += 8 + 8 * len(args[1])


def _after_write_outputs(counts, args, result):
    counts["cli.output_bytes"] += _dir_file_bytes(args[0])


def _after_gen_synthetic(counts, args, result):
    counts["data.datasets"] += 1
    counts["data.dataset_bytes"] += _dataset_bytes(result)


def _after_split_test(counts, args, result):
    counts["data.partitions"] += 1
    counts["data.shard_bytes"] += sum(_dataset_bytes(s.train) + _dataset_bytes(s.test)
                                      for s in result)


# (module, attribute, span name, after-hook).
SPANS = (
    (simulation, "run_round", "simulation.run_round", None),
    (simulation, "sample_clients", "simulation.sample_clients", None),
    (simulation, "local_train", "nn.local_train", None),
    (nn, "backward", "nn.backward", _after_backward),
    (nn, "sgd_step", "nn.sgd_step", None),
    (nn, "flatten", "nn.flatten", None),
    (embedding, "forward", "nn.forward", None),
    (metrics, "forward", "nn.forward", _after_eval_forward),
    (simulation, "client_embedding", "embedding.client_embedding", _after_client_embedding),
    (simulation, "build_alignment_records", "embedding.build_alignment_records", None),
    (simulation, "pseudo_gradient", "aggregation.pseudo_gradient", None),
    (simulation, "assemble_round", "aggregation.assemble_round", _after_assemble_round),
    (simulation, "aggregate", "aggregation.aggregate", None),
    (simulation, "fedavg_aggregate", "aggregation.fedavg_aggregate", _after_fedavg_aggregate),
    (simulation, "evaluate_accuracy", "metrics.evaluate_accuracy", None),
    (simulation, "fairness_summary", "metrics.fairness_summary", None),
    (simulation, "save_ledger", "checkpoint.save_ledger", _after_save_ledger),
    (simulation, "write_vector", "checkpoint.write_vector", _after_write_vector),
    (cli, "write_outputs", "cli.write_outputs", _after_write_outputs),
    (simulation, "gen_synthetic", "data.gen_synthetic", _after_gen_synthetic),
    (simulation, "dirichlet_partition", "data.dirichlet_partition", None),
    (simulation, "split_test", "data.split_test", _after_split_test),
)
COUNTS = (
    (simulation, "cosine", "embedding.cosine.calls"),
    (embedding, "cosine", "embedding.cosine.calls"),
    (simulation, "substream", "rng.substream.calls"),
    (data, "substream", "rng.substream.calls"),
)  # count-only: too small to time without the wrapper dominating them
CLOCK = ((cli, "run_simulation"), (simulation, "run_round"))

# The functions as corefed defines them, captured before any probe exists.
ORIGINALS = {(module, attr): getattr(module, attr)
             for module, attr, *_ in SPANS + COUNTS + CLOCK}

# Top-level entry points of each layer below run_round; a layer's share is
# the inclusive time of these spans.
LAYER_ROOTS = {
    "data": ("data.gen_synthetic", "data.dirichlet_partition", "data.split_test"),
    "nn": ("nn.local_train",),
    "embedding": ("embedding.client_embedding", "embedding.build_alignment_records"),
    "aggregation": ("aggregation.pseudo_gradient", "aggregation.assemble_round",
                    "aggregation.aggregate", "aggregation.fedavg_aggregate"),
    "metrics": ("metrics.evaluate_accuracy", "metrics.fairness_summary"),
    "checkpoint": ("checkpoint.save_ledger", "checkpoint.write_vector"),
    "cli": ("cli.write_outputs",),
}


class _Patches:
    """Attribute replacements that can be undone exactly."""

    def __init__(self):
        self._saved = []

    def set(self, module, attr, wrapper) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original, wrapper))
        setattr(module, attr, wrapper)

    def undo(self) -> None:
        while self._saved:
            module, attr, original, wrapper = self._saved.pop()
            if getattr(module, attr) is not wrapper:
                raise RuntimeError(f"{module.__name__}.{attr} was replaced while probed")
            setattr(module, attr, original)


def untraced_problems() -> list[str]:
    """Attributes that are not what an untraced run should call.

    Every traced attribute must be corefed's own function, except the two
    clock points, which may carry the clock probe around the original.
    """
    problems = []
    for (module, attr), original in ORIGINALS.items():
        current = getattr(module, attr)
        if getattr(current, "_perfbench_clock", False):
            current = current.__wrapped__
        if current is not original:
            problems.append(f"{module.__name__}.{attr}")
    return problems


class RoundClock:
    """Timestamps simulation starts and round boundaries.

    ``events`` holds ``(kind, time)`` with kind ``sim`` (run_simulation
    entered), ``start``/``end`` (a round began/finished) and ``cli_end``
    (appended by the caller when a ``cli.main`` call returns).
    """

    def __init__(self):
        self.events: list[tuple[str, float]] = []
        self._patches = _Patches()

    def __enter__(self):
        events = self.events
        run_simulation = cli.run_simulation
        run_round = simulation.run_round

        @wraps(run_simulation)
        def clocked_simulation(*args, **kwargs):
            events.append(("sim", perf_counter()))
            return run_simulation(*args, **kwargs)

        @wraps(run_round)
        def clocked_round(*args, **kwargs):
            events.append(("start", perf_counter()))
            result = run_round(*args, **kwargs)
            events.append(("end", perf_counter()))
            return result

        for fn in (clocked_simulation, clocked_round):
            fn._perfbench_clock = True
        self._patches.set(cli, "run_simulation", clocked_simulation)
        self._patches.set(simulation, "run_round", clocked_round)
        return self

    def __exit__(self, *exc):
        self._patches.undo()

    def mark_cli_end(self) -> None:
        self.events.append(("cli_end", perf_counter()))

    def timings(self) -> tuple[list[float], list[float]]:
        """(round intervals, simulation tails) in seconds from the recorded events.

        Round intervals are the gaps between consecutive round completions,
        the first one measured from the first round's start, so a checkpoint
        write lands in the interval after its round. A simulation's tail runs
        from its last round completion to where the next simulation starts or
        its ``cli.main`` call returns: the last checkpoint and the output
        files. Their sum is the run time, without data set-up.
        """
        intervals, tails = [], []
        last = None
        for kind, t in self.events:
            if kind in ("sim", "cli_end"):
                if last is not None:
                    tails.append(t - last)
                last = None
            elif kind == "start" and last is None:
                last = t
            elif kind == "end":
                intervals.append(t - last)
                last = t
        return intervals, tails


class _DegenerateEmbeddings(logging.Handler):
    """Counts corefed.embedding warnings about all-degenerate embeddings."""

    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if record.msg.startswith("client %d: all %d sample embeddings degenerate"):
            self.counts["embedding.degenerate"] += 1


class Tracer:
    """Spans and counts for every traced call while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches = _Patches()
        self._handler = _DegenerateEmbeddings(self.counts)

    def __enter__(self):
        for module, attr, name, after in SPANS:
            self._patches.set(module, attr, self._span(getattr(module, attr), name, after))
        for module, attr, name in COUNTS:
            self._patches.set(module, attr, self._count(getattr(module, attr), name))
        logging.getLogger(embedding.__name__).addHandler(self._handler)
        return self

    def __exit__(self, *exc):
        logging.getLogger(embedding.__name__).removeHandler(self._handler)
        self._patches.undo()

    def _span(self, fn, name, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ClientSkipped:
                counts[name + ".failed"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> tuple[dict, dict, dict, list[str]]:
        """Per-name self seconds, inclusive seconds, call counts, and problems.

        A problem is a span whose direct children cover more time than the
        span itself, which would make the self times overcount.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_s, total_s, calls, problems = Counter(), Counter(), Counter(), []
        for index, (name, start, end, _) in enumerate(self.spans):
            duration = end - start
            if children[index] > duration + 1e-9:
                problems.append(f"{name} span {index}: children {children[index]:.6f} s "
                                f"> span {duration:.6f} s")
            self_s[name] += duration - children[index]
            total_s[name] += duration
            calls[name] += 1
        return self_s, total_s, calls, problems

    def layer_metrics(self) -> tuple[dict, dict, list[str]]:
        """(metrics as name -> (value, unit), layer shares in seconds, problems)."""
        self_s, total_s, calls, problems = self.self_times()
        c = self.counts
        fair_rounds = calls["aggregation.assemble_round"]
        rounds = max(fair_rounds + calls["aggregation.fedavg_aggregate"], 1)
        embeddings = calls["embedding.client_embedding"]
        out = {}
        for name in ("nn.local_train", "nn.backward", "nn.sgd_step", "nn.flatten", "nn.forward",
                     "embedding.client_embedding", "embedding.build_alignment_records",
                     "aggregation.pseudo_gradient", "aggregation.assemble_round",
                     "aggregation.aggregate", "aggregation.fedavg_aggregate",
                     "metrics.evaluate_accuracy", "metrics.fairness_summary",
                     "checkpoint.save_ledger", "checkpoint.write_vector", "cli.write_outputs",
                     "data.gen_synthetic", "data.dirichlet_partition", "data.split_test",
                     "simulation.sample_clients"):
            out[name + ".s"] = (self_s[name], "s")
        for name in ("nn.backward", "nn.forward", "embedding.client_embedding",
                     "aggregation.pseudo_gradient"):
            out[name + ".calls"] = (calls[name], "count")
        out["simulation.run_round.s"] = (total_s["simulation.run_round"], "s")
        out["simulation.run_round.self_s"] = (self_s["simulation.run_round"], "s")
        out["nn.local_train.failed"] = (c["nn.local_train.failed"], "count")
        out["nn.train_samples"] = (c["nn.train_samples"], "count")
        out["nn.train_gflop"] = (c["nn.train_flop"] / 1e9, "GFLOP")
        out["embedding.embedded_samples"] = (c["embedding.embedded_samples"], "count")
        out["embedding.cosine.calls"] = (c["embedding.cosine.calls"], "count")
        out["embedding.usable_ratio"] = (
            (embeddings - c["embedding.degenerate"]) / max(embeddings, 1), "ratio")
        out["aggregation.members"] = (c["aggregation.members"] / rounds, "count")
        out["aggregation.reused"] = (c["aggregation.reused"] / rounds, "count")
        out["aggregation.window_tau"] = (
            c["aggregation.window_tau"] / max(fair_rounds, 1), "count")
        out["aggregation.bytes"] = (c["aggregation.bytes"], "B")
        out["aggregation.gradient_useful_ratio"] = (
            c["aggregation.consumed_gradients"] / max(calls["aggregation.pseudo_gradient"], 1),
            "ratio")
        out["metrics.eval_forward_calls"] = (c["metrics.eval_forward_calls"], "count")
        out["metrics.eval_samples"] = (c["metrics.eval_samples"], "count")
        out["checkpoint.bytes"] = (c["checkpoint.bytes"], "B")
        out["checkpoint.count"] = (c["checkpoint.count"], "count")
        out["cli.output_bytes"] = (c["cli.output_bytes"], "B")
        out["data.dataset_mb"] = (c["data.dataset_bytes"] / max(c["data.datasets"], 1) / 1e6, "MB")
        out["data.shard_mb"] = (c["data.shard_bytes"] / max(c["data.partitions"], 1) / 1e6, "MB")
        out["rng.substream.calls"] = (c["rng.substream.calls"], "count")

        shares = {layer: sum(total_s[n] for n in roots) for layer, roots in LAYER_ROOTS.items()}
        shares["simulation"] = self_s["simulation.run_round"] + self_s["simulation.sample_clients"]
        return out, shares, problems

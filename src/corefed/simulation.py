"""Round loop: sampling, local training, alignment, aggregation, metrics.

Everything is a pure function of the experiment config. Substreams for
sampling, shuffling, initialization and partitioning are derived from
(seed, purpose, round, client) only, so switching the algorithm never
perturbs the data partition or the per-round client samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import (
    ParticipationLedger,
    aggregate,
    assemble_round,
    fedavg_aggregate,
    pseudo_gradient,
    window_bound,
)
from .checkpoint import save_ledger, write_vector
from .config import ALGORITHMS, ExperimentConfig, SyntheticSource, lr_schedule
from .data import Dataset, Shard, dirichlet_partition, gen_synthetic, load_idx, split_test
from .data import _PARTITION_RETRIES
from .embedding import build_alignment_records, client_embedding, cosine, global_embedding
from .errors import ConfigError, NumericalError
from .metrics import (
    EvaluationPlan,
    RoundReport,
    evaluate_accuracy,
    evaluation_plan,
    fairness_summary,
)
from .nn import ModelSpec, init_params, local_train
from .rng import derive_seed, substream


@dataclass
class RunState:
    """Mutable simulation state; ``round`` counts completed rounds."""

    round: int
    params: np.ndarray
    ledger: ParticipationLedger
    seed: int


def sample_clients(state: RunState, config: ExperimentConfig) -> frozenset[int]:
    """Uniform sample without replacement from {1..N} for the next round."""
    t = state.round + 1
    rng = substream(state.seed, "sampling", round_index=t)
    chosen = rng.choice(config.clients, size=config.resolved_online(), replace=False)
    return frozenset(int(c) + 1 for c in chosen)


def _check_fits(spec: ModelSpec, data: Dataset, source: str) -> None:
    """Reject ``data`` that ``spec`` cannot read: the one rule for data from outside.

    Inputs must be (n, d) with one integer label per row and every label in
    [0, num_classes); the model must take width d and score each of the
    ``num_classes`` labels. ``source`` names the data in the message.
    """
    inputs, labels = data.inputs, data.labels
    if inputs.ndim != 2 or labels.shape != (len(inputs),):
        raise ConfigError(f"{source} data needs one label per row of (n, d) inputs, "
                          f"not {inputs.shape} inputs and {labels.shape} labels")
    if not np.issubdtype(labels.dtype, np.integer):  # bool too: it would index as a mask
        raise ConfigError(f"{source} labels must be integers, not {labels.dtype}")
    if len(labels) and not 0 <= labels.min() <= labels.max() < data.num_classes:
        raise ConfigError(f"{source} labels must lie in [0, {data.num_classes})")
    if data.input_dim != spec.input_dim:
        raise ConfigError(f"model.input_dim {spec.input_dim} does not match "
                          f"{source} data dimension {data.input_dim}")
    if data.num_classes > spec.num_classes:
        raise ConfigError(f"model.num_classes {spec.num_classes} is too small "
                          f"for {source} labels ({data.num_classes} classes)")


def build_shards(config: ExperimentConfig) -> list[Shard]:
    """Materialize the dataset and its client partition for a config."""
    if isinstance(config.dataset, SyntheticSource):
        src = config.dataset
        dataset = gen_synthetic(src.num_classes, src.input_dim, src.n,
                                seed=derive_seed(config.seed, "dataset"))
    else:
        dataset = load_idx(config.dataset.images, config.dataset.labels)
        _check_fits(config.model, dataset, "loaded")
        if config.clients > len(dataset):
            raise ConfigError(f"clients ({config.clients}) must be at most the "
                              f"{len(dataset)} loaded samples: every client needs one")
    plan = dirichlet_partition(dataset, config.clients, config.dirichlet_alpha,
                               seed=derive_seed(config.seed, "partition"))
    if plan is None:
        raise ConfigError(f"no partition gave every client data after {_PARTITION_RETRIES} attempts "
                          f"(m={config.clients}, alpha={config.dirichlet_alpha}, n={len(dataset)})")
    return split_test(dataset, plan, config.test_fraction)


def initial_params(config: ExperimentConfig) -> np.ndarray:
    return init_params(config.model, substream(config.seed, "init"))


def run_round(state: RunState, config: ExperimentConfig, shards: list[Shard],
              plan: EvaluationPlan) -> tuple[RunState, RoundReport]:
    """Execute one round and return the advanced state plus its report.

    The algorithm's two switches shape the round: ``align`` takes each
    client's similarity from its distilled embedding and logs contrastive
    losses, ``fair`` aggregates pseudo-gradients with the reward-penalty
    weights (similarity from the raw embedding unless ``align`` is on).
    With neither, no embedding pass runs and the round is plain FedAvg.
    ``shards[i - 1]`` is client i's shard, with training rows, as
    ``run_simulation`` orders and checks them. Every sampled client trains;
    a client's dead last hidden layer, or a new global model that is not
    finite or is dead on every test row, stops the run with ``NumericalError``.
    The new global model is scored against ``plan``, built from ``shards``.
    """
    t = state.round + 1
    align, fair = ALGORITHMS[config.algorithm]
    eta = lr_schedule(config.eta0, config.lr_decay, t)
    active = sorted(sample_clients(state, config))
    local_models = {cid: local_train(state.params, config.model, shards[cid - 1], config.local_epochs,
                                     config.batch_size, eta, substream(state.seed, "shuffle", t, cid))
                    for cid in active}

    contrastives: dict[int, float | None] = {}
    try:
        if align or fair:
            embeddings = {cid: client_embedding(local_models[cid], config.model, shards[cid - 1])
                          for cid in active}
            z_global = global_embedding([embeddings[cid] for cid in active])
            similarities = {cid: cosine(embeddings[cid], z_global) for cid in active}
            if align:
                similarities, contrastives = build_alignment_records(
                    embeddings, similarities, z_global, config.beta, config.tau_c)

        if fair:
            gradients = {cid: pseudo_gradient(state.params, local_models[cid], eta)
                         for cid in active}
            assignment, merged = assemble_round(state.ledger, active, gradients, similarities,
                                                t, config.gamma, config.k)
            new_params = aggregate(state.params, assignment.weights, merged, eta)
        else:
            # The ledger still records the round so participation accounting
            # stays comparable across algorithms; nothing reads a cache here.
            state.ledger.record_round(t, active)
            sizes = {cid: len(shards[cid - 1].train) for cid in active}
            new_params = fedavg_aggregate(local_models, sizes)
        if not np.isfinite(new_params).all():
            bad = [cid for cid in active if not np.isfinite(local_models[cid]).all()]
            raise NumericalError(f"client {bad[0]}: local model is not finite" if bad
                                 else "aggregated model is not finite: the aggregation overflowed")
        mean_accuracy, accuracies = evaluate_accuracy(new_params, config.model, plan)
    except NumericalError as exc:
        raise NumericalError(f"round {t}: {exc}") from None

    d_cos_mean, d_man_mean = fairness_summary(local_models, new_params)
    report = RoundReport(
        round=t,
        mean_accuracy=mean_accuracy,
        client_ids=plan.client_ids,
        accuracies=accuracies,
        d_cosine_mean=d_cos_mean,
        d_manhattan_mean=d_man_mean,
        contrastive_losses=contrastives,
        learning_rate=eta,
        online=frozenset(active),
    )
    return RunState(round=t, params=new_params, ledger=state.ledger, seed=state.seed), report


@dataclass
class SimulationResult:
    reports: list[RoundReport]
    final_params: np.ndarray


def run_simulation(config: ExperimentConfig, shards: list[Shard] | None = None,
                   checkpoint_dir=None) -> SimulationResult:
    """Run the full experiment, checkpointing into ``checkpoint_dir`` (when given)
    every ``checkpoint_interval`` rounds (when positive).

    ``shards`` may be injected (a sweep's one build for all its algorithms,
    tests); by default they are derived from the config seed. Injected
    shards are taken in client-id order and checked once here, so nothing
    further in needs to: ids 1..``config.clients`` once each, data that
    fits the model, training rows in every shard. Built or injected, some
    shard must hold a test row; the evaluation plan is built once from
    them. Each rule raises ConfigError before the first round trains.

    After each round the ledger releases every cached gradient that no
    later round can reuse (``window_bound``). When checkpoints are written,
    one that no checkpoint holds yet stays in memory until the next does.
    """
    if shards is None:
        shards = build_shards(config)
    else:
        shards = sorted(shards, key=lambda shard: shard.client_id)
        ids, expected = [shard.client_id for shard in shards], range(1, config.clients + 1)
        bad = set(expected).symmetric_difference(ids) | {a for a, b in zip(ids, ids[1:]) if a == b}
        if bad:  # name the lowest id that is missing, repeated or extra
            cid = min(bad)
            kind = "missing" if cid not in ids else "repeated" if cid in expected else "extra"
            raise ConfigError(f"injected shards need client ids 1..{config.clients} once each: "
                              f"client {cid} is {kind}")
        for shard in shards:
            _check_fits(config.model, shard.train, f"client {shard.client_id} train")
            _check_fits(config.model, shard.test, f"client {shard.client_id} test")
            if not len(shard.train):
                raise ConfigError(f"client {shard.client_id} has no training data")
    if not any(len(shard.test) for shard in shards):
        raise ConfigError("no shard has a non-empty test slice")
    plan = evaluation_plan(config.model, shards)
    state = RunState(0, initial_params(config), ParticipationLedger(), config.seed)
    reports: list[RoundReport] = []
    checkpointing = checkpoint_dir is not None and config.checkpoint_interval > 0
    reach = window_bound(config.clients, config.resolved_online())
    for _ in range(config.rounds):
        state, report = run_round(state, config, shards, plan)
        reports.append(report)
        if checkpointing and state.round % config.checkpoint_interval == 0:
            _write_checkpoint(Path(checkpoint_dir), state)
        state.ledger.release(state.round - reach, keep_unsaved=checkpointing)
    return SimulationResult(reports=reports, final_params=state.params)


def _write_checkpoint(root: Path, state: RunState) -> None:
    round_dir = root / f"round_{state.round}"
    round_dir.mkdir(parents=True, exist_ok=True)
    write_vector(round_dir / "global.bin", state.params)
    save_ledger(state.ledger, round_dir / "ledger.json", round_dir / "gradients.bin")

"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload cut to a few rounds in both modes and checks that each
metric ``BENCHMARK.json`` names is emitted with its unit and that the run
passes its own checks. Then shows that the tracer leaves no wrapper behind
and that the digest gate counts a failure when one byte of a copied result
is flipped.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run

ROUNDS = {"desk": 3, "wide": 2, "crowd": 10}  # crowd: one checkpoint interval


def check_metrics(bench, spec) -> None:
    expected = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in bench.WORKLOADS:
        for trace in (False, True):
            result = bench.measure(name, seed=0, seconds=0, trace=trace, rounds=ROUNDS[name])
            emitted = {metric: unit for metric, (_, unit) in result.metrics.items()}
            assert emitted == expected[trace], (
                f"{name} trace={trace}: missing {sorted(set(expected[trace]) - set(emitted))}, "
                f"unexpected {sorted(set(emitted) - set(expected[trace]))}, "
                f"units {[(k, emitted[k]) for k in emitted if emitted[k] != expected[trace].get(k)]}")
            assert result.correct and result.failed == 0 and result.attempted >= 1, result.notes
            assert all(math.isfinite(v) for v, _ in result.metrics.values()), result.metrics
            print(f"ok   {name} trace={int(trace)}: {len(emitted)} metrics, "
                  f"{result.attempted} runs checked")


def check_probes_and_gate(bench, tracer) -> None:
    from corefed.config import config_hash

    workload = bench.WORKLOADS["crowd"]
    work_dir = bench.OUT_ROOT / "selftest"
    shutil.rmtree(work_dir, ignore_errors=True)
    config = bench.write_config(workload, 0, ROUNDS["crowd"], work_dir)
    _, cfg = config
    gate = bench.OutputGate(workload)

    spy = tracer.Tracer()
    with tracer.RoundClock() as clock:
        assert tracer.untraced_problems() == []
        bench.run_unit(workload, config, work_dir / "untraced", clock, gate, "untraced")
    assert spy.spans == [] and not spy.counts, "an untraced run reached a tracer wrapper"
    with tracer.RoundClock() as clock, spy:
        assert tracer.untraced_problems(), "tracer installed no wrappers"
        bench.run_unit(workload, config, work_dir / "traced", clock, gate, "traced")
    assert spy.spans and tracer.untraced_problems() == [], "tracer left wrappers behind"
    assert gate.failed == 0 and gate.attempted == 2, gate.problems
    print("ok   untraced runs call corefed's own functions; the tracer restores them")

    flipped = work_dir / "flipped"
    shutil.copytree(work_dir / "traced" / f"seed{cfg.seed}", flipped)
    target = flipped / f"round_{cfg.checkpoint_interval}" / "global.bin"
    payload = bytearray(target.read_bytes())
    payload[len(payload) // 2] ^= 0x01
    target.write_bytes(bytes(payload))
    assert not gate.check(cfg, flipped, 0, "flipped") and gate.failed == 1, gate.problems
    reference = {config_hash(cfg): gate.digests[config_hash(cfg)]}
    fresh = bench.OutputGate(workload, references=reference)
    assert not fresh.check(cfg, flipped, 0, "flipped") and fresh.failed == 1, fresh.problems
    shutil.rmtree(work_dir)
    print("ok   one flipped checkpoint byte fails the gate, against a repeat and a reference")


def main() -> int:
    run.configure()
    import bench
    import tracer

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_probes_and_gate(bench, tracer)
    check_metrics(bench, spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

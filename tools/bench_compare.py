"""Paired A/B run of the corefed benchmark on two source trees, written as a BENCH file.

    python3 tools/bench_compare.py --base <rev|dir> [--head <rev|dir>] [--workloads desk,crowd]
        [--pairs 10] [--seconds 50] [--bytes-change] [--markdown]

Each side is the directory of a git checkout, or a git revision checked out
in a temporary ``git worktree`` that is removed afterwards; ``--head``
defaults to the current directory. Pair i runs benchmark seed i of every
workload through each tree's own ``perfbench/run.py`` with the command of
``BENCHMARK.json``, the base first in odd pairs and the head first in even
ones. A side whose result is
not ``correct`` or counts a failed run, or a seed whose output digests differ
between the sides (unless ``--bytes-change``), fails the comparison.

The result goes to ``BENCH_<head-short-sha>.json`` at the root of this
checkout: the head's ``# env`` line, every run's metrics and digests, and per
workload and end-to-end metric both sides' median and quartiles, the change
of the median, the head's wins and a verdict (see ``verdict``). Without
``--base`` the head alone runs and the file is a one-sided baseline.
``--markdown`` prints the summary as a table. The exit status is 1 when the
comparison fails or any metric reads ``regression`` or ``unresolved``.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def source_tree(spec: str):
    """``spec`` as a directory: itself, or the git revision it names checked out in a
    temporary worktree, removed on exit. Yields the directory and its commit, and whether
    the directory's benchmarked sources differ from that commit."""
    if Path(spec).is_dir():
        path = Path(spec).resolve()
        commit = git("rev-parse", "HEAD", cwd=path)
        # the benchmark runs what src/ and perfbench/ hold, committed or not
        modified = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src", "perfbench"],
                                  cwd=path).returncode != 0
        yield path, {"spec": spec, "commit": commit, "modified": modified}
        return
    commit = git("rev-parse", "--verify", f"{spec}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="bench_compare_") as scratch:
        path = Path(scratch) / commit[:12]
        git("worktree", "add", "--detach", str(path), commit)
        try:
            yield path, {"spec": spec, "commit": commit, "modified": False}
        finally:
            git("worktree", "remove", "--force", str(path))


def parse_run(stdout: str) -> dict:
    """One ``perfbench/run.py`` output: its result line, ``# env`` line and digests."""
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    env, digests = None, {}
    for line in lines[:-1]:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
        elif line.startswith("# digest "):
            digest, _, config_sha1 = line.split()[2:5]
            digests[config_sha1] = digest
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "env": env, "digests": digests,
            "metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}


def run_benchmark(tree: Path, command: list[str], workload: str, seed: int,
                  seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_compare: {' '.join(argv)} in {tree} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def wins(base: list[float], head: list[float], better: str) -> int:
    """Pairs in which the head reads better than the base; a tie counts for neither."""
    return sum(y < x if better == "lower" else y > x for x, y in zip(base, head))


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    """The verdict on one metric from paired runs, ``base[i]`` against ``head[i]``.

    ``regression``: the head's median is worse than the base's by more than
    ``bound``, a share of the base median. ``unresolved``: either side's
    quartile spread is wider than that bound, unless every head run reads
    better than every base run. ``gain``: the head wins at least nine tenths
    of the pairs and its median is better by more than the base's quartile
    spread. Otherwise ``unchanged``.
    """
    b, h = quartiles(base), quartiles(head)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (h["median"] - b["median"])  # negative when the head is better
    if worse_by > bound * b["median"]:
        return "regression"
    spread = max(b["q3"] - b["q1"], h["q3"] - h["q1"])
    every_run_better = (max(head) < min(base)) if better == "lower" else (min(head) > max(base))
    if spread > bound * b["median"] and not every_run_better:
        return "unresolved"
    if 10 * wins(base, head, better) >= 9 * len(base) and -worse_by > b["q3"] - b["q1"]:
        return "gain"
    return "unchanged"


def summarize(runs: list[dict], metrics: list[dict], paired: bool) -> dict:
    """Per workload and end-to-end metric: each side's quartiles, and for a
    paired run the change of the median, the head's wins and the verdict."""
    summary = {run["workload"]: {} for run in runs}
    for workload, table in summary.items():
        rows = [r for r in runs if r["workload"] == workload]
        for metric in metrics:
            name = metric["name"]
            head = [r["head"]["metrics"][name] for r in rows]
            entry = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], "head": quartiles(head)}
            if paired:
                base = [r["base"]["metrics"][name] for r in rows]
                entry["base"] = quartiles(base)
                entry["delta_median"] = entry["head"]["median"] - entry["base"]["median"]
                entry["delta_ratio"] = entry["delta_median"] / entry["base"]["median"]
                entry["wins"] = wins(base, head, metric["better"])
                entry["pairs"] = len(rows)
                entry["verdict"] = verdict(base, head, metric["better"], metric["bound"])
            table[name] = entry
    return summary


def markdown(summary: dict, paired: bool) -> str:
    def cell(q):
        return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"
    if not paired:
        lines = ["| workload | metric | median [q1, q3] |", "|---|---|---|"]
        lines += [f"| {w} | {m} ({e['unit']}) | {cell(e['head'])} |"
                  for w, table in summary.items() for m, e in table.items()]
        return "\n".join(lines)
    lines = ["| workload | metric | base median [q1, q3] | head median [q1, q3] | Δ median "
             "| head wins | verdict |", "|---|---|---|---|---|---|---|"]
    lines += [f"| {w} | {m} ({e['unit']}) | {cell(e['base'])} | {cell(e['head'])} "
              f"| {e['delta_ratio']:+.1%} | {e['wins']}/{e['pairs']} | {e['verdict']} |"
              for w, table in summary.items() for m, e in table.items()]
    return "\n".join(lines)


def outcome(problems: list[str], summary: dict) -> str:
    if problems:
        return "failed"
    verdicts = {e.get("verdict") for table in summary.values() for e in table.values()}
    return next((v for v in ("regression", "unresolved") if v in verdicts), "pass")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision or directory; omitted, a one-sided baseline")
    parser.add_argument("--head", default=".", help="git revision or directory (default: .)")
    parser.add_argument("--workloads", default="desk,crowd")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--bytes-change", action="store_true",
                        help="the head changes output bytes: digests may differ")
    parser.add_argument("--markdown", action="store_true", help="print the summary table")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workloads.split(",")
    paired = args.base is not None
    runs, problems = [], []
    with contextlib.ExitStack() as stack:
        head_tree, head = stack.enter_context(source_tree(args.head))
        trees = {"head": head_tree}
        if paired:
            trees["base"], base = stack.enter_context(source_tree(args.base))
        for seed in range(args.pairs):
            order = (["base", "head"] if seed % 2 else ["head", "base"]) if paired else ["head"]
            for workload in workloads:
                run = {"pair": seed, "seed": seed, "workload": workload, "order": order}
                for side in order:
                    result = run[side] = run_benchmark(trees[side], benchmark["command"],
                                                       workload, seed, seconds)
                    if not result["correct"] or result["failed"]:
                        problems.append(f"{workload} seed {seed}: {side} not correct "
                                        f"({result['failed']} of {result['attempted']} runs failed)")
                    print(f"seed {seed} {workload} {side}: " + ", ".join(
                        f"{m['name']} {result['metrics'][m['name']]:.4g}"
                        for m in benchmark["end_to_end"]), file=sys.stderr)
                if paired:
                    run["digests_equal"] = run["base"]["digests"] == run["head"]["digests"]
                    if not run["digests_equal"] and not args.bytes_change:
                        problems.append(f"{workload} seed {seed}: output digests differ")
                runs.append(run)
    summary = summarize(runs, benchmark["end_to_end"], paired)
    env = runs[0]["head"]["env"]
    for run in runs:
        for side in trees:
            del run[side]["env"]
    document = {"base": base if paired else None, "head": head,
                "settings": {"workloads": workloads, "pairs": args.pairs, "seconds": seconds,
                             "bytes_change": args.bytes_change, "command": benchmark["command"]},
                "env": env, "outcome": outcome(problems, summary), "problems": problems,
                "summary": summary, "runs": runs}
    out = ROOT / f"BENCH_{head['commit'][:7]}.json"
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    if args.markdown:
        print(markdown(summary, paired))
    print(f"bench_compare: {document['outcome']}, written to {out}", file=sys.stderr)
    for problem in problems:
        print(f"bench_compare: {problem}", file=sys.stderr)
    return 0 if document["outcome"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())

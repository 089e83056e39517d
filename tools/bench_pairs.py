"""Paired before/after runs of the training benchmark on two source trees.

Usage, from anywhere:

    python3 tools/bench_pairs.py OLD_TREE NEW_TREE --workload posterior_pg \
        --workload posterior_pg:5303 --pairs 10 --seed 4211 --seconds 25 --out BENCH_22.json

OLD_TREE and NEW_TREE are checkouts of this repository.  For each workload
(``--workload`` may be given more than once; ``NAME:SEED`` runs that
workload at SEED instead of ``--seed``) the script makes ``--pairs``
pairs of runs of each tree's own ``perfbench/run.py --trace 0``, the old tree
first in even pairs and the new tree first in odd ones, so that a drift of
host speed falls on both sides alike.  From each run it reads the last
stdout line (the result JSON) and the eval curves' sha256.

The output JSON names each side's tree by its own identity (``trees``): a
sha256 over its ``src/`` files in sorted path order (bytecode caches
aside), and, when the tree is the top of a git repository, its HEAD and
whether ``git status --porcelain -- src`` is empty.  So a working tree
with uncommitted changes is not filed under its parent's commit.  Per
workload argument it holds the seed, each side's eval curve digests and
git commits, the environment the benchmark printed, and
per end-to-end metric each side's values, median and quartiles and the
number of pairs in which the new tree did better (by the metric's
direction in NEW_TREE's ``BENCHMARK.json``).  Each metric also gets three verdicts, printed as well:

- ``meets_claim_rule``: the new tree did better in at least 9 of every 10
  pairs (ties count for neither side), and its median is better than the
  old tree's by more than the distance between the old tree's quartiles;
- ``worse_than_bound``: the new tree's median is worse than the old
  tree's by more than the metric's ``bound`` in ``BENCHMARK.json``, taken
  as a fraction of the old tree's median;
- ``unresolved``: the old tree's own runs spread wider than that bound
  (the distance between their quartiles exceeds ``bound`` times the
  magnitude of their median), so the pairs cannot tell a change within
  the bound from noise, unless every run of the new tree is better than
  every run of the old one.

It is written in every case.  The exit status is 1 if any run failed or
reported ``correct: false``, or if the two trees' eval curves differ, and
0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

DIGEST = re.compile(r"eval curves sha256 ([0-9a-f]{64})")
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run of ``tree``'s benchmark: its result JSON, digest and environment."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each tree imports its own src/
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=10 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    run = {"exit": proc.returncode, "correct": False, "metrics": {}, "digest": None, "env": {}}
    if proc.returncode != 0 or not lines:
        run["error"] = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return run
    result = json.loads(lines[-1])
    run["correct"] = bool(result["correct"])
    run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        if match := DIGEST.search(line):
            run["digest"] = match.group(1)
        if line.startswith("env "):
            run["env"] = json.loads(line[4:])
    return run


def tree_identity(tree: Path) -> dict:
    """The sha256 of ``tree``'s ``src/`` files and, for the top of a git repository, HEAD and a clean flag."""
    src = tree / "src"
    files = sorted(
        (path.relative_to(tree).as_posix(), path)
        for path in src.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    digest = hashlib.sha256()
    for name, path in files:
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    identity = {"src_sha256": digest.hexdigest(), "head": None, "src_clean": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)

    top = git("rev-parse", "--show-toplevel")
    if top.returncode == 0 and Path(top.stdout.strip()).resolve() == tree.resolve():
        identity["head"] = git("rev-parse", "HEAD").stdout.strip() or None
        identity["src_clean"] = git("status", "--porcelain", "--", "src").stdout == ""
    return identity


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(runs: dict, spec: dict) -> dict:
    """Per metric: each side's summary, the pairs in which the change did better, and the three verdicts."""
    out = {}
    for name, (direction, bound) in spec.items():
        pairs = [
            (a["metrics"][name], b["metrics"][name])
            for a, b in zip(runs["parent"], runs["change"])
            if name in a["metrics"] and name in b["metrics"]
        ]
        if not pairs:
            continue
        old, new = map(list, zip(*pairs))
        wins = sum((n < o) if direction == "lower" else (n > o) for o, n in pairs)
        parent, change = summary(old), summary(new)
        # how much better the change's median is than the parent's (negative: worse)
        gain = (parent["median"] - change["median"]) * (1 if direction == "lower" else -1)
        beats_every_run = max(new) < min(old) if direction == "lower" else min(new) > max(old)
        out[name] = {
            "better": direction,
            "bound": bound,
            "parent": parent,
            "change": change,
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
            "meets_claim_rule": 10 * wins >= 9 * len(pairs) and gain > parent["q3"] - parent["q1"],
            "worse_than_bound": -gain > bound * abs(parent["median"]),
            "unresolved": parent["q3"] - parent["q1"] > bound * abs(parent["median"]) and not beats_every_run,
        }
    return out


def verdict_lines(workload: str, metrics: dict) -> list[str]:
    """One line per metric: both sides' medians, the parent's quartiles, the pairs won and the three verdicts."""
    lines = []
    for name, m in metrics.items():
        parent, change = m["parent"], m["change"]
        lines.append(
            f"{workload} {name}: parent {parent['median']:.4g} [{parent['q1']:.4g}, {parent['q3']:.4g}] "
            f"-> change {change['median']:.4g}, better in {m['change_better_pairs']}/{m['pairs']} pairs; "
            f"claim rule {'met' if m['meets_claim_rule'] else 'not met'}; "
            f"{'WORSE' if m['worse_than_bound'] else 'not worse'} than the parent by more than {m['bound']:g}; "
            f"{'UNRESOLVED (parent spread wider than the bound)' if m['unresolved'] else 'resolved'}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    entries = []
    for entry in args.workload:
        workload, _, seed = entry.partition(":")
        if seed and not seed.isdigit():
            parser.error(f"--workload {entry}: the seed after ':' must be a nonnegative integer")
        entries.append((entry, workload, int(seed) if seed else args.seed))
    trees = {"parent": args.old_tree.resolve(), "change": args.new_tree.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    problems = []
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "trees": {side: tree_identity(trees[side]) for side in SIDES},
        "workloads": {},
    }
    for entry, workload, seed in entries:
        runs = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                run = run_once(trees[side], workload, seed, args.seconds)
                runs[side].append(run)
                print(f"{entry} pair {pair} {side}: correct {run['correct']}, "
                      f"wall_s {run['metrics'].get('wall_s')}", file=sys.stderr)
                if not run["correct"]:
                    problems.append(f"{entry} {side} pair {pair}: not correct ({run.get('error', 'correct: false')})")
        digests = {side: sorted({r["digest"] for r in runs[side]} - {None}) for side in SIDES}
        if digests["parent"] != digests["change"] or len(digests["parent"]) != 1:
            problems.append(f"{entry}: eval curve digests differ: {digests}")
        report["workloads"][entry] = {
            "seed": seed,
            "digests": digests,
            "git_commits": {side: sorted({str(r["env"].get("git_commit")) for r in runs[side]}) for side in SIDES},
            "env": {k: v for k, v in runs["change"][0]["env"].items() if k != "git_commit"},
            "metrics": compare(runs, end_to_end),
        }
        for line in verdict_lines(entry, report["workloads"][entry]["metrics"]):
            print(line)
    report["problems"] = problems
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

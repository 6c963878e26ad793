"""A/B runs of the benchmark: a parent commit against a change.

    python3 tools/ab.py --parent REF [--change REF] [--seed N]
        --out BENCH_name.json [WORKLOAD[=PAIRS] ...]

Each commit is unpacked with ``git archive`` into its own tree in a
temporary directory.  For each workload (all of ``BENCHMARK.json`` by
default) it runs ``bench/run.py --trace 0`` for the benchmark's
``run_seconds`` on both trees in PAIRS pairs (10 by default): pair ``p``
uses seed ``N + p`` on both sides, and the side that runs first
alternates, the parent first in even pairs.  ``N`` defaults to a number
read from the change's commit hash, so each change is measured on its
own inputs.  The runs are one at a
time.  The output file holds both commits, the command line, every
end-to-end metric of every run, the failed and attempted operations of
each side, and per metric the medians and quartiles of each side, the
ratio of the medians, the pairs the change won (ties count for neither
side), whether the change's median is within the metric's
``BENCHMARK.json`` bound, and whether it is a gain: at least ten pairs,
no larger share of failed operations than the parent's, and a change
median that is better, wins at least nine tenths of the pairs and
differs from the parent's by more than the parent's interquartile
range.  After the runs it prints one line per workload to stderr,
naming each metric outside its bound and each gain.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
MIN_GAIN_PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def unpack(commit: str, trees: Path) -> Path:
    """The source tree of ``commit``, from ``git archive``."""
    tree = trees / commit[:12]
    if not tree.exists():
        tree.mkdir(parents=True)
        archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait():
            raise SystemExit(f"git archive {commit} failed")
    return tree


def bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The last line of one ``bench/run.py`` run: metrics and op counts."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{tree}: {shlex.join(argv[1:])} exited with "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    run = {name: m["value"] for name, m in out["metrics"].items()}
    run.update(correct=out["correct"], attempted=out["attempted"], failed=out["failed"])
    return run


def spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3}


def failed_share(runs: list[dict], side: str) -> float:
    attempted = sum(run[side]["attempted"] for run in runs)
    return sum(run[side]["failed"] for run in runs) / attempted if attempted else 0.0


def summary(metric: dict, runs: list[dict]) -> dict:
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    parent = [run["parent"][name] for run in runs]
    change = [run["change"][name] for run in runs]
    p, c = spread(parent), spread(change)
    won = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
    better = c["median"] > p["median"] if higher else c["median"] < p["median"]
    limit = p["median"] * (1 - bound if higher else 1 + bound)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": bound,
        "parent": p,
        "change": c,
        "ratio": c["median"] / p["median"] if p["median"] else None,
        "pairs_won": won,
        "pairs": len(runs),
        "within_bound": c["median"] >= limit if higher else c["median"] <= limit,
        "gain": len(runs) >= MIN_GAIN_PAIRS and better and won >= 0.9 * len(runs)
        and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
        and failed_share(runs, "change") <= failed_share(runs, "parent"),
    }


def verdict(workload: str, metrics: dict) -> str:
    """One line naming each metric outside its bound and each gain, with
    its ratio of the medians and the pairs the change won."""
    def item(name: str, m: dict) -> str:
        ratio = "n/a" if m["ratio"] is None else f"{m['ratio']:.3f}x"
        return f"{name} {ratio} ({m['pairs_won']} of {m['pairs']} pairs won)"
    out = [f"outside bound: {item(n, m)}" for n, m in metrics.items() if not m["within_bound"]]
    out += [f"gain: {item(n, m)}" for n, m in metrics.items() if m["gain"]]
    return f"{workload}: {'; '.join(out) or 'every metric within its bound, no gain'}"


def main(argv: list[str] | None = None) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD[=PAIRS]",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--change", default="HEAD", help="git ref of the change (HEAD)")
    parser.add_argument("--seed", type=int,
                        help="seed of the first pair (read from the change's commit hash)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    names = {w["name"] for w in spec["workloads"]}
    plan = []
    for item in args.workloads:
        name, _, pairs = item.partition("=")
        if name not in names:
            parser.error(f"unknown workload {name!r}")
        plan.append((name, int(pairs) if pairs else 10))
    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
               for side, ref in (("parent", args.parent), ("change", args.change))}
    base_seed = int(commits["change"][:6], 16) if args.seed is None else args.seed
    same_bench = not subprocess.run(
        ["git", "diff", "--quiet", commits["parent"], commits["change"], "--",
         "bench", "BENCHMARK.json"], cwd=ROOT).returncode

    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: unpack(commit, Path(scratch)) for side, commit in commits.items()}
        workloads = {}
        for name, pairs in plan:
            runs = []
            for p in range(pairs):
                seed = base_seed + p
                order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = bench(trees[side], name, seed, seconds)
                    print(f"{name} seed {seed} {side}: "
                          f"{ {k: round(v, 3) for k, v in run[side].items()} }", file=sys.stderr)
                runs.append(run)
            workloads[name] = {
                "metrics": {m["name"]: summary(m, runs) for m in spec["end_to_end"]},
                "failed": {side: [sum(r[side]["failed"] for r in runs),
                                  sum(r[side]["attempted"] for r in runs)]
                           for side in ("parent", "change")},
                "runs": runs,
            }

    result = {
        "parent": {"ref": args.parent, "commit": commits["parent"]},
        "change": {"ref": args.change, "commit": commits["change"]},
        "command": shlex.join(["python3", "tools/ab.py", *(argv if argv is not None else sys.argv[1:])]),
        "bench_command": "python3 bench/run.py --workload W --seed S "
                         f"--seconds {seconds} --trace 0",
        "first_seed": base_seed,
        "same_benchmark": same_bench,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}",
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name, workload in workloads.items():
        print(verdict(name, workload["metrics"]), file=sys.stderr)


if __name__ == "__main__":
    main()

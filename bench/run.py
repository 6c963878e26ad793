"""Benchmark of surfword: four workloads, checked outputs, end-to-end
metrics, and a traced run that adds per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and never from an installed copy.  The work runs in child
processes, one at a time, while this process waits: a ``surfword batch
--json`` child on ``batch-corpus``, a fresh ``bench/worker.py`` per
round on the library workloads.  Rounds repeat until ``--seconds`` have
passed.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it carries the per-layer metrics instead, from rounds
that alternate tracing on and off and from the layer sweep of
``bench/layers.py``.  The line before it gives the run's context (a
reference loop, a bare interpreter start, the load average), which is
not a metric.  Each run also leaves a record, and a traced run its
spans, under ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median, quantiles

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("batch-corpus", "long-normalize", "trace-replay", "orbit-closure")

SETUP_STARTS = 15
CONTEXT_STARTS = 7
REFERENCE_REPEATS = 5
SWEEP_CORPUS_WORDS = 2000
CLI_STARTS = 9


class BenchError(RuntimeError):
    """The benchmark cannot run here, or a child failed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Children write bytecode caches, as an installed package has them;
    # otherwise every timed start would compile the package afresh.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], stdout_path: Path | None = None) -> tuple[float, bytes]:
    """Run ``argv`` to its end; return wall seconds and standard output
    (empty when it went to ``stdout_path``)."""
    start = time.perf_counter()
    if stdout_path:
        with open(stdout_path, "wb") as sink:
            proc = subprocess.run(argv, stdout=sink, env=child_env(), cwd=ROOT)
    else:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited with {proc.returncode}")
    return seconds, proc.stdout or b""


def median_start(argv: list[str], starts: int) -> float:
    """Median wall seconds of ``starts`` runs, after one untimed run that
    writes the bytecode caches."""
    run_child(argv)
    return median(run_child(argv)[0] for _ in range(starts))


def reference_loop_ms() -> float:
    """A fixed pure-Python loop: its time shows how fast the machine is now."""
    samples = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(time.perf_counter() - start)
    return 1e3 * median(samples)


def run_worker(job: Path) -> dict:
    """Run ``bench/worker.py`` on a job file; return its output, after
    checking that it measured the package under ``src/``."""
    result = json.loads(run_child([sys.executable, str(BENCH / "worker.py"), str(job)])[1])
    if Path(result["module"]).resolve().parent != SRC / "surfword":
        raise BenchError(f"worker imported surfword from {result['module']}")
    return result


def load_surfword():
    if not (SRC / "surfword" / "__init__.py").is_file():
        raise BenchError(f"no surfword package under {SRC.relative_to(ROOT)}/")
    sys.path.insert(0, str(SRC))
    import surfword

    if Path(surfword.__file__).resolve().parent != SRC / "surfword":
        raise BenchError(f"imported surfword from {surfword.__file__}")
    return surfword


class Workload:
    """Inputs of one workload and how to run one round of them."""

    def __init__(self, surfword, name: str, seed: int, tag: str):
        self.name = name
        self.tag = tag
        self.files: list[Path] = []
        self.errors: list[str] = []
        self.failed: list[str] = []
        self.rss: list[float] = []
        self.steps: dict | None = None
        self.origin = time.perf_counter()
        py = sys.executable
        if name == "batch-corpus":
            self.words = inputs.corpus(seed)
            self.corpus = self.scratch_file("corpus.txt", "\n".join(self.words) + "\n")
            self.empty = self.scratch_file("empty.txt", "")
            self.batch_out = self.scratch_file("batch.jsonl", "")
            self.batch_peak = self.scratch_file("batch-peak.txt", "")
            self.letters = sum(len(w.split()) for w in self.words)
            self.oracle = [checks.form_tuple(surfword.classify_by_invariants(surfword.parse(w)))
                           for w in self.words]
            self.setup_argv = [py, "-m", "surfword", "batch", "--json", str(self.empty)]
        else:
            if name == "long-normalize":
                items = inputs.long_words(seed)
            elif name == "trace-replay":
                items = inputs.trace_words(seed)
            else:
                labels, items = inputs.orbit_starts(seed)
                by_program = {surfword.Word.parse(inputs.render(w)).canonical_key()
                              for w in inputs.every_word(labels)}
                self.check(checks.check_class_count(
                    len(by_program), len(inputs.representatives(labels))))
            self.jobs = {
                flag: self.scratch_file(f"job-{int(flag)}.json", json.dumps(
                    {"kind": "round", "workload": name, "trace": flag, "items": items}))
                for flag in (False, True)
            }
            self.setup_argv = [py, "-c", "import surfword"]

    def scratch_file(self, name: str, text: str) -> Path:
        """Write a file of this run under ``.bench_out/``, removed by cleanup."""
        path = OUT / f"{self.tag}-{name}"
        path.write_text(text)
        self.files.append(path)
        return path

    def check(self, error: str | None) -> None:
        if error is not None:
            self.errors.append(error)

    def round(self, traced: bool, round_id: int, spans: list) -> list[tuple]:
        """Run one round; return its operations as (seconds, words, letters)."""
        if self.name == "batch-corpus":
            argv = [sys.executable, str(BENCH / "peak.py"), str(self.batch_peak),
                    "batch", "--json", str(self.corpus)]
            start = time.perf_counter() - self.origin
            seconds, _ = run_child(argv, self.batch_out)
            if traced:
                spans.append({"round": round_id, "name": "cli.batch", "start": start,
                              "end": start + seconds, "parent": -1, "op": 0})
            self.rss.append(float(self.batch_peak.read_text()))
            lines = [json.loads(line) for line in self.batch_out.read_text().splitlines()]
            self.check(checks.check_batch(self.words, self.oracle, lines))
            return [(seconds, len(self.words), self.letters)]
        result = run_worker(self.jobs[traced])
        self.rss.append(result["peak_rss_mb"])
        self.failed += result["failed"]
        self.errors += result["errors"]
        if traced:
            if self.steps is None:
                self.steps = result["steps"]
            spans += [{"round": round_id, "name": s[0], "start": s[1], "end": s[2],
                       "parent": s[3], "op": s[4]} for s in result["spans"]]
        return [tuple(op) for op in result["ops"]]

    def cleanup(self) -> None:
        for path in self.files:
            path.unlink(missing_ok=True)


def end_to_end(work: Workload, ops: list[tuple], setup_s: float) -> dict:
    seconds = sum(op[0] for op in ops)
    return {
        "words_per_s": sum(op[1] for op in ops) / seconds,
        "letters_per_s": sum(op[2] for op in ops) / seconds,
        "latency_p50_ms": 1e3 * median(op[0] for op in ops),
        "peak_rss_mb": max(work.rss),
        "setup_s": setup_s,
    }


def cli_layer(work: Workload, seed: int) -> dict:
    """cli.* metrics: import time, an empty batch, and the time per word of
    a batch over a fixed corpus beyond the empty call."""
    py = sys.executable
    probe = ("import time; t = time.perf_counter(); import surfword.cli; "
             "print(time.perf_counter() - t)")
    run_child([py, "-c", probe])
    import_s = median(float(run_child([py, "-c", probe])[1]) for _ in range(CLI_STARTS))
    empty = work.scratch_file("cli-empty.txt", "")
    words = inputs.corpus(seed)[:SWEEP_CORPUS_WORDS]
    corpus = work.scratch_file("cli-corpus.txt", "\n".join(words) + "\n")
    sink = work.scratch_file("cli-out.jsonl", "")
    empty_s = median_start([py, "-m", "surfword", "batch", "--json", str(empty)], CLI_STARTS)
    batch_s = median(run_child([py, "-m", "surfword", "batch", "--json", str(corpus)], sink)[0]
                     for _ in range(3))
    return {
        "cli.import_ms": 1e3 * import_s,
        "cli.empty_batch_ms": 1e3 * empty_s,
        "cli.batch_us_per_word": 1e6 * (batch_s - empty_s) / len(words),
    }


def step_counts(work: Workload) -> dict:
    """rewrite.steps*: rule counts over the traces of one round."""
    if work.name == "batch-corpus":
        from surfword import normalize, parse

        steps = Counter()
        for word in work.words:
            steps.update(step.rule for step in normalize(parse(word))[1])
    else:
        steps = Counter(work.steps)
    out = {"rewrite.steps": sum(steps.values())}
    for rule in ("fold_concord", "hive_crosscap", "interleave_to_handle", "hive_handle",
                 "glue_singles", "cancel", "hive_hole"):
        out[f"rewrite.steps.{rule}"] = steps[rule]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    broken = checks.self_test()
    if broken:
        raise BenchError(f"checks that do not reject a wrong form: {', '.join(broken)}")
    surfword = load_surfword()
    OUT.mkdir(exist_ok=True)
    py = sys.executable
    context = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                   f"Python {platform.python_version()}",
        "reference_loop_ms": reference_loop_ms(),
        "bare_start_ms": 1e3 * median_start([py, "-c", "pass"], CONTEXT_STARTS),
        "loadavg_1m": os.getloadavg()[0],
    }
    work = Workload(surfword, args.workload, args.seed,
                    tag=f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    spans: list[dict] = []
    try:
        setup_s = median_start(work.setup_argv, SETUP_STARTS)
        rounds: dict[bool, list[list[tuple]]] = {False: [], True: []}
        start = time.perf_counter()
        while not rounds[False] or time.perf_counter() - start < args.seconds:
            if args.trace:
                # alternate which side goes first, so drift hits both alike
                order = (False, True) if len(rounds[True]) % 2 == 0 else (True, False)
            else:
                order = (False,)
            for traced in order:
                round_id = len(rounds[False]) + len(rounds[True])
                rounds[traced].append(work.round(traced, round_id, spans))
        ops = [op for r in rounds[False] for op in r]
        if args.trace:
            busy = {flag: median(sum(op[0] for op in r) for r in rs) for flag, rs in rounds.items()}
            values = {"trace.overhead_pct": 100 * (busy[True] / busy[False] - 1)}
            sweep = work.scratch_file("sweep.json", json.dumps({"kind": "layers",
                                                                 "seed": args.seed}))
            values.update(run_worker(sweep)["metrics"])
            values.update(cli_layer(work, args.seed))
            values.update(step_counts(work))
            declared = spec["per_layer"]
        else:
            values = end_to_end(work, ops, setup_s)
            declared = spec["end_to_end"]
        mismatch = {m["name"] for m in declared} ^ set(values)
        if mismatch:
            raise BenchError(f"metrics not matching BENCHMARK.json: {sorted(mismatch)}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
        attempted = sum(len(r) for flag in rounds for r in rounds[flag]) + len(work.failed)
        if len(ops) >= 100:
            context["latency_p90_ms"] = 1e3 * quantiles([op[0] for op in ops], n=10)[-1]
        context.update({"rounds": {str(k): len(v) for k, v in rounds.items()}, "ops": len(ops),
                        "setup_s": setup_s, "errors": work.errors[:5], "failed": work.failed[:5]})
    finally:
        work.cleanup()
    result = {"correct": not work.errors, "attempted": attempted, "failed": len(work.failed),
              "metrics": metrics}
    record = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "context": context}, indent=1))
    if spans:
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)

"""Child process of the benchmark.

``python3 bench/worker.py JOB`` reads the JSON job file JOB, runs one
round of a library workload (or the layer sweep, see ``layers.py``) in
this fresh interpreter, checks every output, and prints one JSON
document: the time and size of each operation, the operations that
raised, the failed checks, and with tracing on the spans and the rule
counts of the traces.  A fresh process per round keeps the
``canonical_key`` cache and the peak memory of one round from leaking
into the next.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

import surfword
from surfword import Trace, bfs_orbit, classify_by_invariants, normalize, parse, replay

import checks
from peak import peak_rss_mb
from tracing import Tracer

ORBIT_MAX_STATES = 50_000


def _residual(word, trace) -> int:
    final = trace.final_word() if len(trace) else word
    return len(final)


class Round:
    """One pass over a workload's inputs: timed operations, then untimed checks."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.ops: list[tuple[float, int, int]] = []
        self.failed: list[str] = []
        self.errors: list[str] = []
        self.steps: Counter = Counter()

    def run(self, op_id: int, op, *args):
        """Time ``op(*args)``; return its result, or None when it raised."""
        self.tracer.op = op_id
        start = perf_counter()
        try:
            result = self.tracer.call("op", op, *args)
        except Exception as exc:  # an operation that raises counts as failed
            self.failed.append(f"op {op_id}: {type(exc).__name__}: {exc}")
            return None
        self.ops.append((perf_counter() - start,) + result[0])
        return result[1]

    def oracle(self, word) -> tuple:
        form = self.tracer.call("invariants.classify_by_invariants", classify_by_invariants, word)
        return checks.form_tuple(form)

    def count(self, trace) -> None:
        if self.tracer.enabled:
            self.steps.update(step.rule for step in trace)

    def check(self, error: str | None) -> None:
        if error is not None:
            self.errors.append(error)


def long_normalize(rnd: Round, items: list[dict]) -> None:
    call = rnd.tracer.call

    def op(word):
        return (1, len(word)), call("normalform.normalize", normalize, word)

    for i, item in enumerate(items):
        word = parse(item["word"])
        out = rnd.run(i, op, word)
        if out is None:
            continue
        form, trace = out
        rnd.count(trace)
        closed = tuple(item["closed"]) if item["closed"] else None
        rnd.check(checks.check_normalized(item["word"], checks.form_tuple(form), rnd.oracle(word),
                                          closed, _residual(word, trace)))


def trace_replay(rnd: Round, items: list[str]) -> None:
    call = rnd.tracer.call

    def op(word):
        form, trace = call("normalform.normalize", normalize, word)
        text = call("rewrite.Trace.to_json", trace.to_json)
        revived = call("rewrite.Trace.from_json", Trace.from_json, text)
        final = call("rewrite.replay", replay, word, revived)
        return (1, len(word)), (form, trace, revived, final)

    for i, text in enumerate(items):
        word = parse(text)
        out = rnd.run(i, op, word)
        if out is None:
            continue
        form, trace, revived, final = out
        rnd.count(trace)
        reached = final == (trace.final_word() if len(trace) else word)
        rnd.check(checks.check_round_trip(
            text, checks.form_tuple(form), rnd.oracle(word), revived == trace, reached,
            [step.rule for step in revived], len(final)))


def orbit_closure(rnd: Round, items: list[dict]) -> None:
    call = rnd.tracer.call

    def op(word, max_length):
        orbit = call("invariants.bfs_orbit", bfs_orbit, word, max_length, ORBIT_MAX_STATES)
        results = [call("normalform.normalize", normalize, member) for member in orbit]
        return (len(orbit), sum(len(member) for member in orbit)), (orbit, results)

    for i, item in enumerate(items):
        word = parse(item["word"])
        out = rnd.run(i, op, word, item["max_length"])
        if out is None:
            continue
        orbit, results = out
        for _, trace in results:
            rnd.count(trace)
        forms = [checks.form_tuple(form) for form, _ in results]
        rnd.check(checks.check_orbit(item["word"], orbit.truncated, forms, rnd.oracle(word)))


WORKLOADS = {
    "long-normalize": long_normalize,
    "trace-replay": trace_replay,
    "orbit-closure": orbit_closure,
}


def main(job_path: str) -> dict:
    with open(job_path) as fh:
        job = json.load(fh)
    if job["kind"] == "layers":
        import layers

        return {"module": surfword.__file__, "metrics": layers.sweep(job["seed"])}
    tracer = Tracer(job["trace"])
    rnd = Round(tracer)
    WORKLOADS[job["workload"]](rnd, job["items"])
    out = {
        "module": surfword.__file__,
        "ops": rnd.ops,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer.enabled:
        out["steps"] = dict(rnd.steps)
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))

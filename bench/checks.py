"""Correctness checks of the benchmark, and their self-test.

Every check takes plain values (a form is a ``(kind, genus, boundary)``
tuple) and returns ``None`` when the output is right, or a message
saying what is wrong.  None of them compares against output the
program gave before: the references are the invariant oracle, the
closed forms of the word families, replay of the trace, and the
benchmark's own count of the enumeration's classes.

Run ``python3 bench/checks.py`` to see each check reject a wrong form;
``bench/run.py`` runs the same self-test before it measures anything.
"""

from __future__ import annotations

from collections import Counter

Form = tuple[str, int, int]


def form_tuple(form) -> Form:
    """A program ``NormalForm`` as the plain tuple the checks compare."""
    return (form.kind, form.genus, form.boundary)


def form_from_counts(crosscaps: int, handles: int, holes: int) -> Form:
    """The classification named by hived crosscaps, handles and holes.

    A handle next to a crosscap is worth two crosscaps.
    """
    if crosscaps:
        return ("nonorientable", crosscaps + 2 * handles, holes)
    if handles:
        return ("orientable", handles, holes)
    return ("sphere", 0, holes)


def form_from_trace(rules: list[str], residual_letters: int) -> Form:
    """Rebuild the form from a trace alone: the ``hive_*`` steps plus the
    residual letter, which stands for the last hole."""
    count = Counter(rules)
    return form_from_counts(
        count["hive_crosscap"], count["hive_handle"], count["hive_hole"] + residual_letters
    )


def check_batch(words: list[str], oracle: list[Form], lines: list[dict]) -> str | None:
    """One output line per input word, each naming the oracle's form."""
    if len(lines) != len(words):
        return f"batch printed {len(lines)} lines for {len(words)} words"
    for word, expected, line in zip(words, oracle, lines):
        if line.get("word") != word:
            return f"batch line for {word!r} names {line.get('word')!r}"
        got = line.get("normal_form", {})
        form = (got.get("kind"), got.get("genus"), got.get("boundary"))
        if form != expected:
            return f"batch gave {form} for {word!r}, the oracle {expected}"
    return None


def check_normalized(word: str, form: Form, oracle: Form, closed: Form | None,
                     residual_letters: int) -> str | None:
    """The form agrees with the oracle and the family's closed form, and
    at most one letter is left over."""
    if form != oracle:
        return f"normalize gave {form} for {word[:40]!r}..., the oracle {oracle}"
    if closed is not None and form != closed:
        return f"normalize gave {form} for {word[:40]!r}..., the closed form is {closed}"
    if residual_letters > 1:
        return f"normalize left {residual_letters} letters of {word[:40]!r}..."
    return None


def check_round_trip(word: str, form: Form, oracle: Form, same_trace: bool, replay_reached: bool,
                     rules: list[str], residual_letters: int) -> str | None:
    """The revived trace equals the original, replay reaches its final
    word, and the form rebuilt from the trace agrees with both."""
    if not same_trace:
        return f"the trace of {word[:40]!r}... changed through JSON"
    if not replay_reached:
        return f"replay of {word[:40]!r}... did not reach the final word"
    rebuilt = form_from_trace(rules, residual_letters)
    if not form == rebuilt == oracle:
        return f"{word[:40]!r}...: normalize {form}, trace {rebuilt}, oracle {oracle}"
    return None


def check_orbit(word: str, truncated: bool, member_forms: list[Form], oracle: Form) -> str | None:
    """An untruncated orbit whose every member has the start word's form."""
    if truncated:
        return f"the orbit of {word!r} was truncated"
    for form in member_forms:
        if form != oracle:
            return f"the orbit of {word!r} holds a word of form {form}, the oracle says {oracle}"
    return None


def check_class_count(by_program: int, by_benchmark: int) -> str | None:
    """``canonical_key`` splits the enumeration into as many classes as
    the benchmark's own rotation and inversion minimum."""
    if by_program != by_benchmark:
        return f"canonical_key finds {by_program} classes, the benchmark {by_benchmark}"
    return None


def self_test() -> list[str]:
    """Feed every check one right and one wrong output; return the checks
    that accepted the wrong one or rejected the right one."""
    torus: Form = ("orientable", 1, 0)
    wrong: Form = ("orientable", 2, 0)
    line = {"word": "a b a' b'", "normal_form": dict(zip(("kind", "genus", "boundary"), torus))}
    bad_line = {"word": "a b a' b'", "normal_form": dict(zip(("kind", "genus", "boundary"), wrong))}
    steps = ["interleave_to_handle", "hive_handle"]
    cases = {
        "check_batch": (
            check_batch(["a b a' b'"], [torus], [line]),
            check_batch(["a b a' b'"], [torus], [bad_line]),
        ),
        "check_normalized/oracle": (
            check_normalized("a b a' b'", torus, torus, None, 0),
            check_normalized("a b a' b'", wrong, torus, None, 0),
        ),
        "check_normalized/closed": (
            check_normalized("a b a' b'", torus, torus, torus, 0),
            check_normalized("a b a' b'", torus, torus, wrong, 0),
        ),
        "check_round_trip": (
            check_round_trip("a b a' b'", torus, torus, True, True, steps, 0),
            check_round_trip("a b a' b'", wrong, torus, True, True, steps, 0),
        ),
        "check_round_trip/trace": (
            check_round_trip("a b a' b'", torus, torus, True, True, steps, 0),
            check_round_trip("a b a' b'", torus, torus, True, True, steps + ["hive_handle"], 0),
        ),
        "check_orbit": (
            check_orbit("a b a' b'", False, [torus, torus], torus),
            check_orbit("a b a' b'", False, [torus, wrong], torus),
        ),
        "check_class_count": (check_class_count(949, 949), check_class_count(948, 949)),
    }
    return [name for name, (right, bad) in cases.items() if right is not None or bad is None]


if __name__ == "__main__":
    failures = self_test()
    for name in failures:
        print(f"FAIL  {name}")
    print("self-test:", "failed" if failures else "every check rejects a wrong form")
    raise SystemExit(1 if failures else 0)

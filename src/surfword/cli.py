"""Command line front end.

Subcommands: classify, equiv, trace, invariants, gen, batch.  Words are
passed as single quoted arguments in the word grammar (apostrophes mark
inverses, so shell quoting is required).  Exit codes: 0 success, 1
invalid word, 2 usage error, 3 reported by ``equiv`` for inequivalent
words.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .invariants import invariants_summary, random_word
from .normalform import NormalForm, normalize
from .rewrite import Trace
from .words import MultiplicityError, Word, WordSyntaxError

_WORD_ERRORS = (WordSyntaxError, MultiplicityError)


def _form_line(form: NormalForm) -> str:
    return f"kind={form.kind} genus={form.genus} boundary={form.boundary} chi={form.chi}"


def _invariants_line(summary: dict) -> str:
    parts = []
    for key, value in summary.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _emit_json(document: dict) -> None:
    print(json.dumps(document, indent=2))


def _trace_json(trace: Trace) -> list[dict]:
    return [step.to_dict() for step in trace]


def _cmd_classify(args: argparse.Namespace) -> int:
    word = Word.parse(args.word)
    form, trace = normalize(word)
    if args.json:
        document = {"word": word.render(), "normal_form": form.to_dict()}
        if args.trace:
            document["trace"] = _trace_json(trace)
        _emit_json(document)
    else:
        print(_form_line(form))
        if args.trace:
            for step in trace:
                print(step.describe())
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    first = Word.parse(args.first)
    second = Word.parse(args.second)
    form_a, _ = normalize(first)
    form_b, _ = normalize(second)
    same = form_a == form_b
    if args.json:
        _emit_json(
            {
                "equivalent": same,
                "normal_forms": [form_a.to_dict(), form_b.to_dict()],
            }
        )
    else:
        print("equivalent" if same else "not equivalent")
    return 0 if same else 3


def _cmd_trace(args: argparse.Namespace) -> int:
    word = Word.parse(args.word)
    form, trace = normalize(word)
    if args.json:
        _emit_json(
            {
                "word": word.render(),
                "normal_form": form.to_dict(),
                "trace": _trace_json(trace),
            }
        )
    else:
        for step in trace:
            print(step.describe())
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    word = Word.parse(args.word)
    summary = invariants_summary(word)
    if args.json:
        _emit_json({"word": word.render(), "invariants": summary})
    else:
        print(_invariants_line(summary))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    word = random_word(args.pairs, args.singles, args.seed)
    if args.json:
        _emit_json({"word": word.render()})
    else:
        print(word.render())
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.file).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    any_failed = False
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            word = Word.parse(stripped)
        except _WORD_ERRORS as exc:
            any_failed = True
            if args.json:
                print(json.dumps({"word": stripped, "error": str(exc)}))
            else:
                print(f"{stripped}: error: {exc}")
            continue
        form, _ = normalize(word)
        if args.json:
            print(json.dumps({"word": word.render(), "normal_form": form.to_dict()}))
        else:
            print(f"{word.render()}: {_form_line(form)}")
    return 1 if any_failed else 0


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfword",
        description="Classify compact surfaces presented as polygon edge words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="classify one word")
    classify.add_argument("word", help="edge word, e.g. \"a b a' b'\"")
    classify.add_argument("--json", action="store_true", help="emit a JSON document")
    classify.add_argument("--trace", action="store_true", help="include the rewrite trace")
    classify.set_defaults(handler=_cmd_classify)

    equiv = sub.add_parser("equiv", help="decide whether two words present the same surface")
    equiv.add_argument("first")
    equiv.add_argument("second")
    equiv.add_argument("--json", action="store_true", help="emit a JSON document")
    equiv.set_defaults(handler=_cmd_equiv)

    trace = sub.add_parser("trace", help="print the normalization trace of a word")
    trace.add_argument("word")
    trace.add_argument("--json", action="store_true", help="emit a JSON document")
    trace.set_defaults(handler=_cmd_trace)

    invariants = sub.add_parser("invariants", help="print independently computed invariants")
    invariants.add_argument("word")
    invariants.add_argument("--json", action="store_true", help="emit a JSON document")
    invariants.set_defaults(handler=_cmd_invariants)

    gen = sub.add_parser("gen", help="generate a reproducible random word")
    gen.add_argument("--pairs", type=_nonnegative, default=3, help="paired labels (default 3)")
    gen.add_argument("--singles", type=_nonnegative, default=0, help="single letters (default 0)")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    gen.add_argument("--json", action="store_true", help="emit a JSON document")
    gen.set_defaults(handler=_cmd_gen)

    batch = sub.add_parser("batch", help="classify every word in a file, one per line")
    batch.add_argument("file", help="input path, or - for stdin; # starts a comment line")
    batch.add_argument("--json", action="store_true", help="emit one JSON document per line")
    batch.set_defaults(handler=_cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _WORD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

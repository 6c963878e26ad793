"""Command line front end.

Subcommands: classify, equiv, trace, invariants, gen, batch.  Words are
passed as single quoted arguments in the word grammar (apostrophes mark
inverses, so shell quoting is required), and read as letter codes; only
the trace and the invariants decode them to a ``Word``, and ``batch``
builds no word and no trace.  ``batch`` reads a file, or ``-`` for
stdin, as UTF-8: a line with undecodable bytes is reported as an
invalid word, and unreadable input (a missing file, a closed stdin) is
a usage error.  Exit codes: 0 success, 1 invalid word or closed output
pipe, 2 usage error, 3 reported by ``equiv`` for inequivalent words.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable

from .invariants import invariants_summary, random_word
from .normalform import NormalForm, _stages, normalize
from .rewrite import _Coded, _step_line
from .words import MultiplicityError, WordSyntaxError, _tokenize

_WORD_ERRORS = (WordSyntaxError, MultiplicityError)


def _read_word(text: str) -> tuple[str, _Coded]:
    """The word in ``text`` as :meth:`Word.render` writes it, and coded;
    raises the errors of :meth:`Word.parse`."""
    tokens = _tokenize(text)
    return " ".join(tokens), _Coded.parse(tokens)


def _form_line(form: NormalForm) -> str:
    return f"kind={form.kind} genus={form.genus} boundary={form.boundary} chi={form.chi}"


def _invariants_line(summary: dict) -> str:
    # JSON spelling for the booleans
    return " ".join(f"{key}={json.dumps(value)}" for key, value in summary.items())


def _emit(args: argparse.Namespace, document: dict, *lines: str) -> None:
    """Print ``document`` as indented JSON under ``--json``, and otherwise
    each of ``lines`` and then one line per step of the document's trace."""
    steps = map(_step_line, document.get("trace", ()))  # lazy: formatted only for text
    for line in [json.dumps(document, indent=2)] if args.json else [*lines, *steps]:
        print(line)


def _cmd_classify(args: argparse.Namespace) -> int:
    # also serves ``trace``, which is ``classify --trace`` without the form line
    text, coded = _read_word(args.word)
    form, trace = normalize(coded.decode()) if args.trace else (_stages(coded)[0], None)
    document = {"word": text, "normal_form": form.to_dict()}
    if args.trace:
        document["trace"] = trace.to_list()
    _emit(args, document, *([_form_line(form)] if args.command == "classify" else []))
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    first, second = _read_word(args.first)[1], _read_word(args.second)[1]
    form_a, form_b = _stages(first)[0], _stages(second)[0]
    same = form_a == form_b
    _emit(
        args,
        {
            "equivalent": same,
            "normal_forms": [form_a.to_dict(), form_b.to_dict()],
        },
        "equivalent" if same else "not equivalent",
    )
    return 0 if same else 3


def _cmd_invariants(args: argparse.Namespace) -> int:
    text, coded = _read_word(args.word)
    summary = invariants_summary(coded.decode())
    _emit(args, {"word": text, "invariants": summary}, _invariants_line(summary))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    word = random_word(args.pairs, args.singles, args.seed).render()
    _emit(args, {"word": word}, word)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    source = 0 if args.file == "-" else args.file  # stdin is file descriptor 0, left open
    try:
        lines = open(source, encoding="utf-8", errors="surrogateescape", closefd=source != 0)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # undecodable bytes become lone surrogates, so such a line is reported
    # as an invalid word, and its echo writes the same bytes back; a text
    # stream with no encoding (io.StringIO) takes surrogates as they are
    out = sys.stdout
    errors = out.errors if hasattr(out, "reconfigure") else None
    try:
        if errors:
            out.reconfigure(errors="surrogateescape")
        with lines:
            return _batch(lines, args.json)
    finally:
        if errors:  # the caller's stdout as it was
            out.reconfigure(errors=errors)


def _batch(lines: Iterable[str], as_json: bool) -> int:
    any_failed = False
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            text, coded = _read_word(stripped)
        except _WORD_ERRORS as exc:
            any_failed = True
            if as_json:
                print(json.dumps({"word": stripped, "error": str(exc)}))
            else:
                print(f"{stripped}: error: {exc}")
            continue
        form, _ = _stages(coded)
        if as_json:
            print(json.dumps({"word": text, "normal_form": form.to_dict()}))
        else:
            print(f"{text}: {_form_line(form)}")
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
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit JSON (batch: one per line)")

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[json_flag], help=help)

    classify = command("classify", "classify one word")
    classify.add_argument("word", help="edge word, e.g. \"a b a' b'\"")
    classify.add_argument("--trace", action="store_true", help="include the rewrite trace")
    classify.set_defaults(handler=_cmd_classify)

    equiv = command("equiv", "decide whether two words present the same surface")
    equiv.add_argument("first")
    equiv.add_argument("second")
    equiv.set_defaults(handler=_cmd_equiv)

    trace = command("trace", "print the normalization trace of a word")
    trace.add_argument("word")
    trace.set_defaults(handler=_cmd_classify, trace=True)

    invariants = command("invariants", "print independently computed invariants")
    invariants.add_argument("word")
    invariants.set_defaults(handler=_cmd_invariants)

    gen = command("gen", "generate a reproducible random word")
    gen.add_argument("--pairs", type=_nonnegative, default=3, help="paired labels (default 3)")
    gen.add_argument("--singles", type=_nonnegative, default=0, help="single letters (default 0)")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    gen.set_defaults(handler=_cmd_gen)

    batch = command("batch", "classify every word in a file, one per line")
    batch.add_argument("file", help="input path, or - for stdin; # starts a comment line")
    batch.set_defaults(handler=_cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # meet a closed pipe here, not at exit
        return code
    except _WORD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader has gone: the flush at exit writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

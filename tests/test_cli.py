"""Command line behavior: output formats and exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surfword import (
    MultiplicityError,
    Trace,
    Word,
    WordSyntaxError,
    normalize,
    parse,
    random_word,
    replay,
)
from surfword.cli import _batch, _form_line, main

from conftest import words


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_text_line(self, capsys):
        code, out, err = run(capsys, "classify", "a a b b")
        assert code == 0
        assert out == "kind=nonorientable genus=2 boundary=0 chi=0\n"
        assert err == ""

    def test_bounded_surface(self, capsys):
        code, out, _ = run(capsys, "classify", "a b a' b' x")
        assert code == 0
        assert out == "kind=orientable genus=1 boundary=1 chi=-1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--json", "a a b b")
        assert code == 0
        document = json.loads(out)
        assert document == {
            "word": "a a b b",
            "normal_form": {"kind": "nonorientable", "genus": 2, "boundary": 0, "chi": 0},
        }

    def test_json_with_trace_replays(self, capsys):
        code, out, _ = run(capsys, "classify", "--json", "--trace", "a b a' b")
        assert code == 0
        document = json.loads(out)
        trace = Trace.from_json(json.dumps(document["trace"]))
        assert replay(parse("a b a' b"), trace) == parse("")

    def test_text_with_trace(self, capsys):
        code, out, _ = run(capsys, "classify", "--trace", "a b a' b")
        lines = out.splitlines()
        assert lines[0] == "kind=nonorientable genus=2 boundary=0 chi=0"
        assert len(lines) == 4
        assert lines[1].startswith("fold_concord")


class TestEquiv:
    def test_equivalent_exits_0(self, capsys):
        code, out, _ = run(capsys, "equiv", "a a b c b' c'", "a a b b c c")
        assert code == 0
        assert out == "equivalent\n"

    def test_not_equivalent_exits_3(self, capsys):
        code, out, _ = run(capsys, "equiv", "a a", "a b a' b'")
        assert code == 3
        assert out == "not equivalent\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "equiv", "--json", "a a'", "")
        assert code == 0
        document = json.loads(out)
        assert document["equivalent"] is True
        assert document["normal_forms"][0]["kind"] == "sphere"


class TestTrace:
    def test_arrow_lines(self, capsys):
        code, out, _ = run(capsys, "trace", "a b a' b")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert "->" in lines[0]

    def test_already_normal_word_has_an_empty_trace(self, capsys):
        code, out, _ = run(capsys, "trace", "x")
        assert code == 0
        assert out == ""

    @pytest.mark.parametrize("command", [["trace"], ["classify", "--trace"]])
    def test_text_trace_bytes(self, capsys, command):
        classify = command[0] == "classify"
        _, out, _ = run(capsys, *command, "a x a' y b b'")
        assert out == ("kind=sphere genus=0 boundary=2 chi=0\n" if classify else "") + (
            "hive_hole(label=a): \"a x a' y b b'\" -> \"y b b'\"\n"
            "cancel(pos=1): \"y b b'\" -> 'y'\n"
        )
        # an empty trace prints no line at all
        _, out, _ = run(capsys, *command, "x")
        assert out == ("kind=sphere genus=0 boundary=1 chi=1\n" if classify else "")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "trace", "--json", "a x a' y")
        document = json.loads(out)
        assert document["word"] == "a x a' y"
        assert document["normal_form"]["boundary"] == 2
        assert [step["rule"] for step in document["trace"]] == ["hive_hole"]


class TestInvariants:
    def test_text_line(self, capsys):
        code, out, _ = run(capsys, "invariants", "a a b b")
        assert code == 0
        assert out == "chi=0 orientable=false boundary=0 vertices=1 edges=2\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "invariants", "--json", "a b a' b' x")
        document = json.loads(out)
        assert document["word"] == "a b a' b' x"
        assert document["invariants"] == {
            "chi": -1,
            "orientable": True,
            "boundary": 1,
            "vertices": 1,
            "edges": 3,
        }


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "a a a"],
        ["equiv", "a a", "b b b"],
        ["trace", "a b!"],
        ["invariants", "--json", "A"],
    ],
    ids=["classify", "equiv", "trace", "invariants"],
)
def test_invalid_word_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


class TestGen:
    def test_reproducible(self, capsys):
        code, first, _ = run(capsys, "gen", "--pairs", "2", "--singles", "1", "--seed", "5")
        assert code == 0
        code, second, _ = run(capsys, "gen", "--pairs", "2", "--singles", "1", "--seed", "5")
        assert first == second
        parse(first.strip())

    def test_defaults(self, capsys):
        code, out, _ = run(capsys, "gen")
        assert code == 0
        assert len(parse(out.strip())) == 6

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gen", "--seed", "3", "--json")
        assert "word" in json.loads(out)

    def test_negative_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--pairs", "-1"])
        assert info.value.code == 2


class TestBatch:
    CONTENT = "# comment\na a b b\n\nx\nnot a word!\na b a' b'\n"

    def test_text_lines_and_exit_code(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text(self.CONTENT)
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0] == "a a b b: kind=nonorientable genus=2 boundary=0 chi=0"
        assert lines[1] == "x: kind=sphere genus=0 boundary=1 chi=1"
        assert "error" in lines[2]
        assert lines[3].startswith("a b a' b':")

    def test_all_good_exits_0(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("a a\nx y\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_jsonl(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text(self.CONTENT)
        code, out, _ = run(capsys, "batch", "--json", str(path))
        assert code == 1
        documents = [json.loads(line) for line in out.splitlines()]
        assert len(documents) == 4
        assert documents[0]["normal_form"]["kind"] == "nonorientable"
        assert "error" in documents[2]

    def test_undecodable_line_is_an_invalid_word(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"a a\n\xff\xfe b b\nx\n")
        code, out, _ = run(capsys, "batch", "--json", str(path))
        assert code == 1
        documents = [json.loads(line) for line in out.splitlines()]
        assert [sorted(document) for document in documents] == [
            ["normal_form", "word"],
            ["error", "word"],
            ["normal_form", "word"],
        ]

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "batch", "/no/such/file")
        assert code == 2
        assert "error" in err


# strict UTF-8 stdio, as under a UTF-8 locale; the C locale would let
# Python's stdio pass undecodable bytes through as surrogates
STRICT_STDIO = {**os.environ, "PYTHONIOENCODING": "utf-8:strict"}


class TestBatchInput:
    """``python -m surfword batch`` reads stdin as it reads a file."""

    CONTENT = b"a a\nb \xff b\nc c'\n"

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("source", ["stdin", "file"])
    def test_an_undecodable_line_is_an_invalid_word(self, tmp_path, source, as_json):
        path = tmp_path / "words.txt"
        path.write_bytes(self.CONTENT)
        argv = [sys.executable, "-m", "surfword", "batch", *(["--json"] if as_json else []),
                "-" if source == "stdin" else str(path)]
        stdin = self.CONTENT if source == "stdin" else b""
        result = subprocess.run(argv, input=stdin, capture_output=True, env=STRICT_STDIO)
        lines = self.CONTENT.decode("utf-8", "surrogateescape").splitlines(keepends=True)
        code, out = _captured(_batch, lines, as_json)
        assert (result.returncode, result.stdout, result.stderr) == (
            code, out.encode("utf-8", "surrogateescape"), b""
        )
        assert code == 1 and len(out.splitlines()) == 3
        assert "error" in out.splitlines()[1]

    @pytest.mark.parametrize("stream", ["string", "strict file"])
    def test_in_process_batch_leaves_stdout_as_it_was(self, tmp_path, stream):
        path = tmp_path / "words.txt"
        path.write_bytes(self.CONTENT)
        lines = self.CONTENT.decode("utf-8", "surrogateescape").splitlines(keepends=True)
        expected = _captured(_batch, lines, False)
        buffer = io.BytesIO()
        out = io.StringIO() if stream == "string" else io.TextIOWrapper(buffer, encoding="utf-8")
        with contextlib.redirect_stdout(out):
            code = main(["batch", str(path)])
        out.flush()
        text = out.getvalue() if stream == "string" else buffer.getvalue().decode(
            "utf-8", "surrogateescape")
        assert (code, text) == expected
        assert stream == "string" or out.errors == "strict"

    def test_a_closed_stdin_is_a_usage_error(self):
        argv = ["sh", "-c", 'exec "$0" -m surfword batch - <&-', sys.executable]
        result = subprocess.run(argv, capture_output=True, env=STRICT_STDIO)
        assert result.returncode == 2
        assert result.stderr.startswith(b"error: ")
        assert b"Traceback" not in result.stderr


class TestUsage:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["classify", "--format", "xml", "a a"])
        assert info.value.code == 2


_SPHERE = {"kind": "sphere", "genus": 0, "boundary": 0, "chi": 2}


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (
            ["classify", "--json", "a b a' b' x"],
            0,
            {
                "word": "a b a' b' x",
                "normal_form": {"kind": "orientable", "genus": 1, "boundary": 1, "chi": -1},
            },
        ),
        (
            ["classify", "--json", "--trace", "a b a' b"],
            0,
            {
                "word": "a b a' b",
                "normal_form": {"kind": "nonorientable", "genus": 2, "boundary": 0, "chi": 0},
                "trace": [
                    {"rule": "fold_concord", "params": {"label": "b"}, "before": "a b a' b",
                     "after": "a a b b"},
                    {"rule": "hive_crosscap", "params": {"pos": 2}, "before": "a a b b",
                     "after": "a a"},
                    {"rule": "hive_crosscap", "params": {"pos": 0}, "before": "a a", "after": ""},
                ],
            },
        ),
        (
            ["classify", "--json", "--trace", "x"],
            0,
            {
                "word": "x",
                "normal_form": {"kind": "sphere", "genus": 0, "boundary": 1, "chi": 1},
                "trace": [],
            },
        ),
        (
            ["trace", "--json", "a x a' y"],
            0,
            {
                "word": "a x a' y",
                "normal_form": {"kind": "sphere", "genus": 0, "boundary": 2, "chi": 0},
                "trace": [
                    {"rule": "hive_hole", "params": {"label": "a"}, "before": "a x a' y",
                     "after": "y"},
                ],
            },
        ),
        (
            ["equiv", "--json", "a a'", ""],
            0,
            {"equivalent": True, "normal_forms": [_SPHERE, _SPHERE]},
        ),
        (
            ["equiv", "--json", "a a", "a b a' b'"],
            3,
            {
                "equivalent": False,
                "normal_forms": [
                    {"kind": "nonorientable", "genus": 1, "boundary": 0, "chi": 1},
                    {"kind": "orientable", "genus": 1, "boundary": 0, "chi": 0},
                ],
            },
        ),
        (
            ["invariants", "--json", "a b a' b' x"],
            0,
            {
                "word": "a b a' b' x",
                "invariants": {
                    "chi": -1, "orientable": True, "boundary": 1, "vertices": 1, "edges": 3,
                },
            },
        ),
        (["gen", "--seed", "3", "--json"], 0, {"word": "a' c' b' a b c"}),
    ],
    ids=["classify", "classify-trace", "classify-empty-trace", "trace", "equiv", "equiv-3",
         "invariants", "gen"],
)
def test_json_output_bytes(capsys, argv, code, expected):
    # the exact bytes, so that a change of indentation or key order fails
    assert run(capsys, *argv) == (code, json.dumps(expected, indent=2) + "\n", "")


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "surfword", "classify", "a b a' b'"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "kind=orientable genus=1 boundary=0 chi=0\n"


def test_importing_the_cli_loads_no_introspection_module():
    # ``dataclasses`` would bring ``inspect``, ``ast``, ``dis`` and ``tokenize``
    # into every process, ``random`` (for ``random_word`` alone) brings
    # ``math``, and the handle stage reads its stack's bottom, so needs no
    # ``bisect``; -S keeps site's own imports out of the reading
    unwanted = ["dataclasses", "inspect", "ast", "dis", "tokenize", "random", "math", "string",
                "bisect"]
    script = f"import sys, surfword.cli; print(sorted(set({unwanted}) & set(sys.modules)))"
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _reference_batch(lines, as_json):
    """The batch loop as it was before it read letter codes: parse each
    line to a Word, normalize it with its trace and render it."""
    any_failed = False
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            word = Word.parse(stripped)
        except (WordSyntaxError, MultiplicityError) as exc:
            any_failed = True
            if as_json:
                print(json.dumps({"word": stripped, "error": str(exc)}))
            else:
                print(f"{stripped}: error: {exc}")
            continue
        form, _ = normalize(word)
        if as_json:
            print(json.dumps({"word": word.render(), "normal_form": form.to_dict()}))
        else:
            print(f"{word.render()}: {_form_line(form)}")
    return 1 if any_failed else 0


def _captured(batch, lines, as_json):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = batch(lines, as_json)
    return code, out.getvalue()


# str.isspace is true for each; str.split splits at each
SEPARATORS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u2028",
              "\u3000"]
BAD_TOKENS = ["A", "a''", "'", "1a", "a-", "aA", "ab1", "\udcff", "a\udcff"]


@st.composite
def batch_lines(draw):
    """A batch line: a valid word, spaced or compact, perhaps with a bad
    token or a label used three times, odd whitespace, a comment or blank."""
    tokens = [letter.token() for letter in draw(words())]
    kind = draw(st.sampled_from(["valid", "bad token", "thrice", "comment"]))
    if kind == "bad token":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(BAD_TOKENS)))
    elif kind == "thrice" and tokens:
        token = draw(st.sampled_from(tokens))
        tokens += [token, token]
    if draw(st.booleans()):
        text = "".join(tokens)  # compact; every label of words() is one character
    else:
        separator = st.text(st.sampled_from(SEPARATORS), min_size=1, max_size=3)
        text = "".join(token + draw(separator) for token in tokens)
    edge = st.text(st.sampled_from(SEPARATORS), max_size=2)
    text = draw(edge) + text + draw(edge)
    return "#" + text if kind == "comment" else text


class TestBatchReference:
    @given(st.lists(batch_lines(), max_size=12), st.booleans())
    def test_same_output_and_exit_code_as_the_word_loop(self, lines, as_json):
        lines = [line + "\n" for line in lines]
        assert _captured(_batch, lines, as_json) == _captured(_reference_batch, lines, as_json)

    def test_module_batch_matches_the_reference_and_meets_a_closed_pipe_quietly(self, tmp_path):
        # long words, so that the output is more than the pipe and the
        # writer's buffer hold, and the writer meets the closed pipe
        lines = [random_word(120, k % 4, k).render() for k in range(200)]
        lines[::17] = ["a b A c'"] * len(lines[::17])
        lines[5::23] = ["b a b a b"] * len(lines[5::23])
        path = tmp_path / "words.txt"
        path.write_text("".join(line + "\n" for line in lines))
        argv = [sys.executable, "-m", "surfword", "batch", "--json", str(path)]
        result = subprocess.run(argv, capture_output=True)
        code, out = _captured(_reference_batch, lines, True)
        assert len(out) > 2 * 65536
        assert (result.returncode, result.stdout, result.stderr) == (code, out.encode(), b"")

        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert json.loads(proc.stdout.readline())["word"] == lines[0]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

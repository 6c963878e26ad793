"""Command line behavior: output formats and exit codes."""

import json
import subprocess
import sys

import pytest

from surfword import Trace, parse, replay
from surfword.cli import main


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

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "batch", "/no/such/file")
        assert code == 2
        assert "error" in err


class TestUsage:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["classify", "--format", "xml", "a a"])
        assert info.value.code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "surfword", "classify", "a b a' b'"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "kind=orientable genus=1 boundary=0 chi=0\n"

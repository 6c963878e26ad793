"""Rewrite rules, recorded steps, traces, and replay."""

import itertools
import json
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from surfword import (
    CONCORD,
    DISCORD,
    NotApplicable,
    ReplayMismatch,
    RewriteStep,
    SignedLetter,
    Trace,
    Word,
    apply_step,
    block_at,
    cancel,
    fold_concord,
    fresh_label,
    glue_singles,
    hive_crosscap,
    hive_handle,
    hive_hole,
    interleave_to_handle,
    normalize,
    parse,
    replay,
    slide_block,
    transpose_discord,
)

from surfword.rewrite import _Coded
from surfword.words import _tokenize

from conftest import REWRITE_RULES, applicable_instance, relabeled, words


def _identity_chain(*texts):
    """Trace JSON of ``rotate`` by 0 steps through the word texts given."""
    return json.dumps(
        [
            {"rule": "rotate", "params": {"k": 0}, "before": before, "after": after}
            for before, after in zip(texts, texts[1:])
        ]
    )


class TestCancel:
    def test_adjacent_inverse_pair(self):
        assert cancel(parse("a a'"), 0) == parse("")
        assert cancel(parse("x a a' y"), 1) == parse("x y")
        assert cancel(parse("x a' a y"), 1) == parse("x y")

    def test_wraps_around(self):
        assert cancel(parse("a' x y a"), 3) == parse("x y")

    @pytest.mark.parametrize(
        "text, pos",
        [("a a", 0), ("a b", 0), ("a a'", 2), ("a a'", -1), ("a", 0), ("", 0)],
    )
    def test_not_applicable(self, text, pos):
        with pytest.raises(NotApplicable):
            cancel(parse(text), pos)


class TestTransposeDiscord:
    def test_swaps_the_enclosed_halves(self):
        assert transpose_discord(parse("a x y a'"), "a", 2) == parse("a y x a'")

    def test_split_at_either_end_is_the_identity(self):
        word = parse("a x y a'")
        assert transpose_discord(word, "a", 1) == word
        assert transpose_discord(word, "a", 3) == word

    def test_reads_from_the_positive_occurrence(self):
        # the enclosed run is the one following the positive occurrence,
        # here wrapping around the seam of the stored sequence
        assert transpose_discord(parse("b a x y a' c"), "a", 3) == parse("b a y x a' c")
        assert transpose_discord(parse("y x a' z a"), "a", 1) == parse("x y a' z a")

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            transpose_discord(parse("a x a"), "a", 1)
        with pytest.raises(NotApplicable):
            transpose_discord(parse("a x a'"), "a", 0)
        with pytest.raises(NotApplicable):
            transpose_discord(parse("a x a'"), "x", 1)
        with pytest.raises(NotApplicable):
            transpose_discord(parse("a x a'"), "z", 1)

    @given(st.integers(0, 2**32 - 1))
    def test_preserves_letters_as_a_multiset(self, seed):
        word, params = applicable_instance("transpose_discord", random.Random(seed))
        out = transpose_discord(word, **params)
        assert sorted(l.token() for l in out) == sorted(l.token() for l in word)


class TestFoldConcord:
    def test_reverses_and_flips_the_enclosed_run(self):
        assert fold_concord(parse("a b a' b"), "b") == parse("a a b b")

    def test_fold_on_the_stored_segment(self):
        assert fold_concord(parse("a b a b"), "a") == parse("b' a a b")

    def test_inverted_pair_comes_out_upright(self):
        assert fold_concord(parse("a' b a' c"), "a") == parse("b' a a c")

    def test_adjacent_pair_is_fixed(self):
        word = parse("x a a y")
        assert fold_concord(word, "a") == word

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            fold_concord(parse("a x a'"), "a")
        with pytest.raises(NotApplicable):
            fold_concord(parse("a x a"), "x")
        with pytest.raises(NotApplicable):
            fold_concord(parse("a a"), "q")


class TestSlideBlock:
    def test_slides_a_crosscap_block(self):
        assert slide_block(parse("a a c d"), 0, 3) == parse("c a a d")

    def test_slides_a_handle_block(self):
        assert slide_block(parse("a b a' b' x y"), 0, 5) == parse("x a b a' b' y")

    def test_wrapping_block(self):
        # the block may straddle the seam of the stored sequence
        assert slide_block(parse("a x y a"), 3, 1) == parse("a a x y")

    def test_slide_to_the_following_letter_is_the_identity(self):
        word = parse("a a c d")
        assert slide_block(word, 0, 2) == word

    def test_block_detection(self):
        assert block_at(parse("a a x"), 0) == (2, tuple(parse("a a")))
        assert block_at(parse("a' a' x"), 0) == (2, tuple(parse("a' a'")))
        assert block_at(parse("a b a' b' x"), 0) == (4, tuple(parse("a b a' b'")))
        assert block_at(parse("a b a' b' x"), 1) is None
        assert block_at(parse("a a' x"), 0) is None
        assert block_at(parse("a b a b"), 0) is None

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            slide_block(parse("a a' x"), 0, 2)
        with pytest.raises(NotApplicable):
            slide_block(parse("a a x"), 0, 1)
        with pytest.raises(NotApplicable):
            slide_block(parse("a a"), 0, 0)


class TestInterleaveToHandle:
    def test_collects_a_handle_block(self):
        word = parse("a c b a' c' b'")
        assert interleave_to_handle(word, "a", "b") == parse("a b a' b' c' c")

    def test_preserves_every_flag(self):
        word = parse("a b' a' x b")
        out = interleave_to_handle(word, "a", "b")
        assert out == parse("a b' a' b x")
        assert out.pairing().character("b") == word.pairing().character("b")

    def test_not_applicable_without_interleaving(self):
        with pytest.raises(NotApplicable):
            interleave_to_handle(parse("a a' b b'"), "a", "b")
        with pytest.raises(NotApplicable):
            interleave_to_handle(parse("a b a' b'"), "a", "a")
        with pytest.raises(NotApplicable):
            interleave_to_handle(parse("a b a b'"), "a", "b")
        with pytest.raises(NotApplicable):
            interleave_to_handle(parse("a x a' y"), "a", "x")


class TestBoundaryRules:
    def test_glue_singles(self):
        assert glue_singles(parse("x y"), 0) == parse("a")
        assert glue_singles(parse("x a a' y"), 3) == parse("a a' b")

    def test_glue_rejects_paired_letters(self):
        with pytest.raises(NotApplicable):
            glue_singles(parse("a a x"), 0)
        with pytest.raises(NotApplicable):
            glue_singles(parse("x"), 0)

    def test_hive_hole(self):
        assert hive_hole(parse("a x a'"), "a") == parse("")
        assert hive_hole(parse("a x a' y"), "a") == parse("y")
        assert hive_hole(parse("a b b' a' x"), "a") == parse("b b'")

    def test_hive_hole_rejects_other_shapes(self):
        with pytest.raises(NotApplicable):
            hive_hole(parse("a x y a'"), "a")
        with pytest.raises(NotApplicable):
            hive_hole(parse("a x a"), "a")
        with pytest.raises(NotApplicable):
            hive_hole(parse("a b a' b' x"), "a")

    def test_hive_crosscap(self):
        assert hive_crosscap(parse("a a b"), 0) == parse("b")
        assert hive_crosscap(parse("a' a' b"), 0) == parse("b")
        assert hive_crosscap(parse("a x x"), 1) == parse("a")

    def test_hive_crosscap_rejects_discord(self):
        with pytest.raises(NotApplicable):
            hive_crosscap(parse("a a' b"), 0)

    def test_hive_handle(self):
        assert hive_handle(parse("a b a' b' x"), 0) == parse("x")
        assert hive_handle(parse("b' x a b a'"), 2) == parse("x")

    def test_a_rotated_handle_block_is_still_a_handle_block(self):
        assert hive_handle(parse("a b a' b'"), 1) == parse("")

    def test_hive_handle_rejects_other_shapes(self):
        with pytest.raises(NotApplicable):
            hive_handle(parse("a b a' b' x"), 1)
        with pytest.raises(NotApplicable):
            hive_handle(parse("a a b b"), 0)


class TestApplyStep:
    def test_dispatches_every_rule(self):
        assert apply_step(parse("a a'"), "cancel", {"pos": 0}) == parse("")
        assert apply_step(parse("a b"), "rotate", {"k": 1}) == parse("b a")
        assert apply_step(parse("a b"), "invert", {}) == parse("b' a'")

    def test_unknown_rule(self):
        with pytest.raises(NotApplicable):
            apply_step(parse("a a'"), "shrink", {})

    @pytest.mark.parametrize("rule", [{"x": 1}, ["cancel"]])
    def test_unhashable_rule_is_unknown(self, rule):
        with pytest.raises(NotApplicable, match="^unknown rule"):
            apply_step(parse("a a'"), rule, {"pos": 0})


def _parse_outcome(parse_word, text):
    try:
        return parse_word(text)
    except ValueError as exc:
        return type(exc), str(exc)


class TestCodedParse:
    @given(words(), st.booleans())
    def test_codes_are_those_of_the_parsed_word(self, word, compact):
        text = ("" if compact else " ").join(letter.token() for letter in word)
        coded, expected = _Coded.parse(_tokenize(text)), _Coded.encode(word)
        assert (coded.codes, coded.names) == (expected.codes, expected.names)
        assert coded.decode() == word

    @pytest.mark.parametrize(
        "text",
        ["", "a", "aba'b'", " a1\tb'  a1 ", "a A", "a''", "a a a", "b b b a a' a", "aaa"]
        + ["a1 a1'a1", "a1 a1' a1"],
    )
    def test_errors_are_those_of_word_parse(self, text):
        def coded(text):
            return _Coded.parse(_tokenize(text)).decode()

        assert _parse_outcome(coded, text) == _parse_outcome(parse, text)


def _reference_from_json(text):
    """The step-by-step reader: every word parsed on its own, and the
    steps chained as words by ``Trace``."""
    return Trace(RewriteStep.from_dict(item) for item in json.loads(text))


def _reference_replay(word, trace):
    """Replay that builds every step and recomputes each ``after`` from
    its ``before``."""
    current = word
    for idx, step in enumerate(trace):
        if current != step.before:
            raise ReplayMismatch(
                f"step {idx}: expected word {step.before.render()!r}, have {current.render()!r}"
            )
        try:
            result = apply_step(current, step.rule, step.params)
        except NotApplicable as exc:
            raise ReplayMismatch(f"step {idx}: {step.rule} not applicable: {exc}") from exc
        if result != step.after:
            raise ReplayMismatch(
                f"step {idx}: {step.rule} produced {result.render()!r}, "
                f"recorded {step.after.render()!r}"
            )
        current = step.after
    return current


def _outcome(function, *args):
    """The result of ``function``, or the type and message of what it raised."""
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


_PARAM_VALUES = st.one_of(
    st.integers(-3, 12), st.sampled_from(["a", "b", "c", "z9", "1"]), st.none(), st.booleans(),
    st.floats(allow_nan=False), st.lists(st.integers(), max_size=1),
)


@st.composite
def trace_texts(draw):
    """A start word and the JSON of its ``normalize`` trace, as written or
    with one change: a tampered ``after``, doubled spaces, a compact first
    word, drawn params, another rule name, a ``before`` that does not
    chain, or a step of another shape."""
    word = draw(words())
    data = json.loads(normalize(word)[1].to_json())
    start = draw(st.sampled_from([word, parse("a b a' b'")]))
    changes = ["none", "after", "spaces", "compact", "params", "rule", "before", "shape"]
    change = draw(st.sampled_from(changes))
    if not data:
        return start, "[]"
    step = data[draw(st.integers(0, len(data) - 1))]
    if change == "after":
        step["after"] = (step["after"] + " z9").strip()
    elif change == "spaces":
        key = draw(st.sampled_from(["before", "after"]))
        step[key] = step[key].replace(" ", "  ")
    elif change == "compact":
        data[0]["before"] = data[0]["before"].replace(" ", "")
    elif change == "params":
        keys = st.sampled_from(["pos", "label", "split", "k", "a", "b", "block_start", "dest"])
        step["params"] = draw(st.dictionaries(keys, _PARAM_VALUES, max_size=3))
    elif change == "rule":
        step["rule"] = draw(st.sampled_from([*REWRITE_RULES, "rotate", "invert", "shrink"]))
    elif change == "before":
        step["before"] = draw(st.sampled_from([step["after"], "a b a' b'", ""]))
    elif change == "shape":
        key = draw(st.sampled_from(["x", "params", "after", "rule"]))
        step[key] = draw(st.sampled_from([7, []]))
    return start, json.dumps(data)


def _one_text_changed(k, key, change, text="c a b a' c x b"):
    """A start word and the JSON of its ``normalize`` trace, with the
    ``key`` text of step ``k`` alone changed by ``change``."""
    word = parse(text)
    data = json.loads(normalize(word)[1].to_json())
    data[k][key] = change(data[k][key])
    return word, json.dumps(data)


@given(trace_texts())
# the last step's words, which the walk reaches last, and a first word read as spaced
@example(_one_text_changed(-1, "after", lambda text: (text + " z9").strip()))
@example(_one_text_changed(-1, "before", lambda text: (text + " z9").strip()))
@example(_one_text_changed(0, "before", lambda text: text.replace(" ", "  ")))
@settings(max_examples=300, deadline=None)
def test_from_json_and_replay_match_the_step_by_step_references(case):
    start, text = case
    read = _outcome(Trace.from_json, text)
    reference = _outcome(_reference_from_json, text)
    if isinstance(reference, Trace):
        # replay first, on a trace whose steps nothing has read yet
        assert _outcome(replay, start, read) == _outcome(_reference_replay, start, reference)
    assert read == reference


@pytest.mark.parametrize("k", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize(
    "move",
    [("cancel", {"pos": 99}), ("fold_concord", {"label": "zz"}), ("rotate", {}), ("shrink", {})],
    ids=["cancel", "fold_concord", "rotate", "unknown"],
)
def test_a_move_that_does_not_apply_is_named_alike_on_both_kinds_of_trace(move, k):
    word = parse("c a b a' c x b")
    _, trace = normalize(word)
    data = json.loads(trace.to_json())
    data[k]["rule"], data[k]["params"] = move
    # one doubled space, which no walk writes, so the trace is read word by word
    data[0]["after"] = data[1]["before"] = data[1]["before"].replace(" ", "  ", 1)
    by_words = Trace.from_json(json.dumps(data))
    moves = [(step["rule"], step["params"]) for step in data]
    by_moves = Trace.from_moves(word, moves, trace.final_word())
    assert by_words._steps is not None and by_moves._steps is None
    outcome = _outcome(replay, word, by_moves)
    assert outcome[0] is ReplayMismatch
    assert outcome[1].startswith(f"step {k % len(data)}: {move[0]} not applicable: ")
    assert outcome == _outcome(replay, word, by_words)


class TestTraceAndReplay:
    def _sample_trace(self):
        w0 = parse("a b a' b")
        w1 = parse("a a b b")
        w2 = parse("a a")
        return Trace(
            [
                RewriteStep("fold_concord", {"label": "b"}, w0, w1),
                RewriteStep("hive_crosscap", {"pos": 2}, w1, w2),
            ]
        )

    def test_steps_must_chain(self):
        w0, w1 = parse("a a'"), parse("")
        good = RewriteStep("cancel", {"pos": 0}, w0, w1)
        with pytest.raises(ValueError):
            Trace([good, RewriteStep("rotate", {"k": 1}, parse("x y"), parse("y x"))])

    def test_json_round_trip(self):
        trace = self._sample_trace()
        assert Trace.from_json(trace.to_json()) == trace
        data = json.loads(trace.to_json())
        assert data[0] == {
            "rule": "fold_concord",
            "params": {"label": "b"},
            "before": "a b a' b",
            "after": "a a b b",
        }

    def test_replay_returns_the_final_word(self):
        trace = self._sample_trace()
        assert replay(parse("a b a' b"), trace) == parse("a a")
        assert replay(parse("x"), Trace()) == parse("x")

    def test_replay_rejects_a_wrong_start(self):
        with pytest.raises(ReplayMismatch):
            replay(parse("a b a' b'"), self._sample_trace())

    def test_replay_rejects_a_tampered_step(self):
        trace = self._sample_trace()
        bad = RewriteStep("fold_concord", {"label": "b"}, trace[0].before, parse("a a b' b'"))
        with pytest.raises(ReplayMismatch):
            replay(parse("a b a' b"), Trace([bad]))

    def test_replay_rejects_an_inapplicable_step(self):
        step = RewriteStep("cancel", {"pos": 0}, parse("a a"), parse(""))
        with pytest.raises(ReplayMismatch):
            replay(parse("a a"), Trace([step]))

    def test_replay_rejects_an_unhashable_rule(self):
        step = RewriteStep(["cancel"], {"pos": 0}, parse("a a'"), parse(""))
        with pytest.raises(ReplayMismatch, match="unknown rule"):
            replay(parse("a a'"), Trace([step]))

    @pytest.mark.parametrize("params", [{"pos": "x"}, {}, {"pos": None}, {"pos": 1e400}])
    def test_replay_rejects_bad_params(self, params):
        step = RewriteStep("cancel", params, parse("a a'"), parse(""))
        with pytest.raises(ReplayMismatch):
            replay(parse("a a'"), Trace([step]))

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            '{"a": 1}',
            "[1]",
            '[{"rule": "cancel"}]',
            '[{"rule": "cancel", "params": {"pos": 0}, "before": "a a\'", "after": 7}]',
            '[{"rule": "cancel", "params": [], "before": "a a\'", "after": ""}]',
            '[{"rule": "cancel", "params": {}, "before": "a", "after": "", "x": 0}]',
            "[" * 100_000,
        ],
        ids=[
            "object",
            "foreign-object",
            "int-step",
            "missing-keys",
            "int-word",
            "list-params",
            "extra-key",
            "deep-nesting",
        ],
    )
    def test_from_json_rejects_a_malformed_trace(self, text):
        with pytest.raises(ValueError):
            Trace.from_json(text)

    def test_from_dict_takes_the_step_object_alone(self):
        data = {"rule": "cancel", "params": {"pos": 0}, "before": "a a'", "after": ""}
        step = RewriteStep.from_dict(data)
        assert step == RewriteStep("cancel", {"pos": 0}, parse("a a'"), parse(""))
        assert step.to_dict() == data
        with pytest.raises(TypeError):
            RewriteStep.from_dict(data, {})

    @pytest.mark.parametrize(
        "text", ["aba'b'", "a\tb  a'\tb'", " a1 b' ", "a", "a'", "", "a a b' c a1' a1"]
    )
    def test_from_json_reads_words_as_word_parse_does(self, text):
        trace = Trace.from_json(_identity_chain("a b' c", text, text))
        assert trace[0].before == parse("a b' c")
        assert [step.after for step in trace] == [parse(text), parse(text)]
        # one letter object per distinct token, a compact word's tokens included
        step_words = [word for step in trace for word in (step.before, step.after)]
        letters = {id(letter) for word in step_words for letter in word}
        tokens = {token for word in ("a b' c", text) for token in parse(word).render().split()}
        assert len(letters) == len(tokens)

    @pytest.mark.parametrize(
        "text",
        ["a A", "A", "a b'' c", "a a a", "a a' b a", "aaa", "a1 b a1' b a1"]
        # every token known when the word is read; known tokens beside a bad one
        + ["a a' a", "b b b", "a b B"],
    )
    def test_from_json_rejects_bad_words_as_word_parse_does(self, text):
        with pytest.raises(ValueError) as expected:
            parse(text)
        message = f"^{re.escape(str(expected.value))}$"
        with pytest.raises(type(expected.value), match=message) as caught:
            # the words before ``text`` make the tokens a, a', b and b' known
            Trace.from_json(_identity_chain("a b' c", "a a' b", text))
        assert type(caught.value) is type(expected.value)

    @given(words(), st.integers(min_value=0))
    def test_replay_names_the_step_whose_recorded_word_was_changed(self, word, k):
        _, trace = normalize(word)
        assume(len(trace) > 0)
        k %= len(trace)
        data = json.loads(trace.to_json())
        # a label no normalize trace of these words uses
        tampered = (data[k]["after"] + " z9").strip()
        data[k]["after"] = tampered
        if k + 1 < len(data):
            data[k + 1]["before"] = tampered
        with pytest.raises(ReplayMismatch, match=f"^step {k}:"):
            replay(word, Trace.from_json(json.dumps(data)))

    def test_trace_from_moves_builds_its_steps_when_read(self):
        moves = [("fold_concord", {"label": "b"}), ("hive_crosscap", {"pos": 2})]
        trace = Trace.from_moves(parse("a b a' b"), moves, parse("a a"))
        assert len(trace) == 2
        assert trace == self._sample_trace()
        assert Trace.from_json(trace.to_json()) == trace

    def test_trace_from_moves_checks_the_final_word(self):
        trace = Trace.from_moves(parse("a a' x"), [("cancel", {"pos": 0})], parse("y"))
        assert trace.final_word() == parse("y")
        with pytest.raises(AssertionError):
            list(trace)

    @pytest.mark.parametrize("write", [Trace.to_json, Trace.describe])
    def test_trace_from_moves_checks_the_final_word_when_written(self, write):
        trace = Trace.from_moves(parse("a a' x"), [("cancel", {"pos": 0})], parse("y"))
        with pytest.raises(AssertionError, match="not the final word"):
            write(trace)

    @given(st.builds(relabeled, words(max_pairs=4, max_singles=4), st.integers(0, 8)))
    @example(parse("x y z w"))
    def test_lazy_and_built_traces_write_the_same(self, word):
        # labels past ``a`` make glue_singles name labels the word never had
        _, trace = normalize(word)
        text, lines = trace.to_json(), trace.describe()
        built = Trace(list(trace))
        assert text == built.to_json() and lines == built.describe()
        assert Trace.from_json(text) == trace

    @pytest.mark.parametrize("text", ["c a b a' c x b", "x y z w", "a b c a d b' e c' d"])
    def test_from_json_of_a_normalize_trace_reads_its_moves_only(self, text):
        word = parse(text)
        _, trace = normalize(word)
        revived = Trace.from_json(trace.to_json())
        assert revived._steps is None
        assert replay(word, revived) == trace.final_word()
        assert revived._steps is None
        # once read, the words of its steps share one letter per distinct token
        step_words = [word for step in revived for word in (step.before, step.after)]
        assert step_words == [word for step in trace for word in (step.before, step.after)]
        letters = {id(letter) for word in step_words for letter in word}
        assert len(letters) == len({letter.token() for word in step_words for letter in word})

    @pytest.mark.parametrize(
        "move, final", [(("cancel", {"pos": 0}), "y"), (("cancel", {"pos": 5}), "x")]
    )
    def test_replay_checks_the_start_before_it_walks_the_moves(self, move, final):
        # the move misses the final word or does not apply, and the start is wrong:
        # both kinds of trace name the start, as the reference does on the built form
        first, final = parse("a a' x"), parse(final)
        built = Trace([RewriteStep(*move, first, final)])
        expected = _outcome(_reference_replay, parse("b"), built)
        assert expected[0] is ReplayMismatch and expected[1].startswith("step 0: expected word ")
        for trace in (Trace.from_moves(first, [move], final), built):
            assert _outcome(replay, parse("b"), trace) == expected

    def test_replay_of_moves_names_the_step_at_fault(self):
        word = parse("a b a' b'")
        bad = [("rotate", {"k": 1}), ("cancel", {"pos": 9})]
        trace = Trace.from_moves(word, bad, word)
        with pytest.raises(ReplayMismatch, match="^step 1: cancel not applicable: no adjacent pair"):
            replay(word, trace)
        # moves that apply but miss the final word name the last step
        missed = Trace.from_moves(word, [("rotate", {"k": 1}), ("rotate", {"k": 1})], word)
        with pytest.raises(ReplayMismatch, match="^step 1: moves reach .* not the final word"):
            replay(word, missed)

    def test_trace_slicing_and_accessors(self):
        trace = self._sample_trace()
        assert len(trace) == 2
        assert trace.initial_word() == parse("a b a' b")
        assert trace.final_word() == parse("a a")
        assert isinstance(trace[:1], Trace)
        assert trace[0].rule == "fold_concord"
        assert "fold_concord" in trace.describe()


@pytest.mark.parametrize("rule", REWRITE_RULES)
def test_constructed_instances_are_applicable(rule):
    """The generators behind the conservation checks really do produce
    applicable sites."""
    rng = random.Random(hash(rule) & 0xFFFF)
    for _ in range(50):
        word, params = applicable_instance(rule, rng)
        apply_step(word, rule, params)


@pytest.mark.parametrize("rule", ["cancel", "transpose_discord", "fold_concord"])
def test_rules_never_partially_rewrite(rule):
    """A failed application leaves no trace: the same Word object is
    still intact and equal to a fresh parse."""
    word = parse("a x b a' y")
    try:
        apply_step(word, rule, {"pos": 0, "label": "x", "split": 0})
    except NotApplicable:
        pass
    assert word == parse("a x b a' y")


@pytest.mark.parametrize(
    "rule, text, message",
    [
        (cancel, "a", "no adjacent pair at position 0"),
        (cancel, "a a", "letters at 0,1 are not an adjacent inverse pair"),
        (hive_crosscap, "a", "no block at position 0"),
        (hive_crosscap, "a a'", "letters at 0,1 are not an adjacent concord pair"),
    ],
)
def test_adjacent_pair_rules_name_what_is_missing(rule, text, message):
    with pytest.raises(NotApplicable, match=f"^{message}$"):
        rule(parse(text), 0)


# The rules as they were written on Word values before each became one
# check and one edit on letter codes: the reference the coded rules must
# reproduce, word for word and message for message.


def _reference_delete(word, positions):
    return Word(tuple(l for i, l in enumerate(word.letters) if i not in positions))


def _reference_pair_positions(word, label, character):
    where = [k for k, letter in enumerate(word.letters) if letter.label == label]
    if len(where) == 2:
        i, j = where
        if (word[i].inverted == word[j].inverted) == (character == CONCORD):
            return i, j
    raise NotApplicable(f"{label!r} is not a {character} pair")


def _reference_occurs_once(word, label):
    return sum(letter.label == label for letter in word.letters) == 1


def _reference_cyclic_between(n, start, stop):
    out = []
    i = (start + 1) % n
    while i != stop:
        out.append(i)
        i = (i + 1) % n
    return out


def _reference_delete_adjacent_pair(word, pos, same_flags, site, shape):
    n = len(word)
    if n < 2 or not 0 <= pos < n:
        raise NotApplicable(f"no {site} at position {pos}")
    j = (pos + 1) % n
    a, b = word[pos], word[j]
    if a.label != b.label or (a.inverted == b.inverted) != same_flags:
        raise NotApplicable(f"letters at {pos},{j} are not an adjacent {shape} pair")
    return _reference_delete(word, {pos, j})


def _reference_cancel(word, pos):
    return _reference_delete_adjacent_pair(word, pos, False, "adjacent pair", "inverse")


def _reference_transpose_discord(word, label, split):
    i, j = _reference_pair_positions(word, label, DISCORD)
    if word[i].inverted:
        i, j = j, i
    n = len(word)
    between = _reference_cyclic_between(n, i, j)
    offset = (split - (i + 1)) % n
    if offset > len(between):
        raise NotApplicable(f"split {split} is not between the occurrences of {label!r}")
    run = [word[k] for k in between]
    moved = run[offset:] + run[:offset]
    out = list(word.letters)
    for k, letter in zip(between, moved):
        out[k] = letter
    return Word(tuple(out))


def _reference_fold_concord(word, label):
    i, j = _reference_pair_positions(word, label, CONCORD)
    mid = word.letters[i + 1 : j]
    upright = SignedLetter(label)
    inverted = tuple(l.inverse() for l in reversed(mid))
    return Word(word.letters[:i] + inverted + (upright, upright) + word.letters[j + 1 :])


def _reference_block_at(word, pos):
    letters = word.letters
    n = len(letters)
    if n < 2:
        return None
    a, b = letters[pos], letters[(pos + 1) % n]
    if a.label == b.label and a.inverted == b.inverted:
        return 2, (a, b)
    if n >= 4 and a.label != b.label:
        c, d = letters[(pos + 2) % n], letters[(pos + 3) % n]
        if c == a.inverse() and d == b.inverse():
            return 4, (a, b, c, d)
    return None


def _reference_slide_block(word, block_start, dest):
    n = len(word)
    if not 0 <= block_start < n:
        raise NotApplicable(f"no block at position {block_start}")
    found = _reference_block_at(word, block_start)
    if found is None:
        raise NotApplicable(f"no crosscap or handle block at position {block_start}")
    size, block = found
    occupied = {(block_start + k) % n for k in range(size)}
    if not 0 <= dest < n or dest in occupied:
        raise NotApplicable(f"destination {dest} is not outside the block")
    out = []
    for idx in range(n):
        if idx == dest:
            out.extend(block)
        if idx not in occupied:
            out.append(word[idx])
    return Word(tuple(out))


def _reference_interleave_to_handle(word, a, b):
    if a == b:
        raise NotApplicable("need two distinct labels")
    a1, a2 = _reference_pair_positions(word, a, DISCORD)
    b1, b2 = _reference_pair_positions(word, b, DISCORD)
    n = len(word)
    marks = {a2: "A", b1: "B", b2: "B"}
    segments = [[]]
    seen = []
    i = (a1 + 1) % n
    while i != a1:
        if i in marks:
            seen.append(i)
            segments.append([])
        else:
            segments[-1].append(word[i])
        i = (i + 1) % n
    if [marks[p] for p in seen] != ["B", "A", "B"]:
        raise NotApplicable(f"pairs {a!r} and {b!r} are not interleaved")
    beta, gamma, delta, tail = segments
    x = word[a1]
    y = word[seen[0]]
    out = (x, y, x.inverse(), y.inverse())
    return Word(out + tuple(tail) + tuple(delta) + tuple(gamma) + tuple(beta))


def _reference_rotate(word, k):
    n = len(word.letters)
    if n == 0:
        return word
    k %= n
    return Word(word.letters[k:] + word.letters[:k])


def _reference_invert(word):
    return Word(tuple(letter.inverse() for letter in reversed(word.letters)))


def _reference_glue_singles(word, pos):
    n = len(word)
    if n < 2 or not 0 <= pos < n:
        raise NotApplicable(f"no adjacent singles at position {pos}")
    j = (pos + 1) % n
    if not all(_reference_occurs_once(word, word[k].label) for k in (pos, j)):
        raise NotApplicable(f"letters at {pos},{j} are not both single")
    merged = SignedLetter(fresh_label(word))
    return Word(tuple(merged if k == pos else word[k] for k in range(n) if k != j))


def _reference_hive_hole(word, label):
    i, j = _reference_pair_positions(word, label, DISCORD)
    n = len(word)
    for first, second in ((i, j), (j, i)):
        arc = _reference_cyclic_between(n, first, second)
        if len(arc) == 1 and _reference_occurs_once(word, word[arc[0]].label):
            return _reference_delete(word, {first, second, arc[0]})
    raise NotApplicable(f"pair {label!r} does not frame one single letter")


def _reference_hive_crosscap(word, pos):
    return _reference_delete_adjacent_pair(word, pos, True, "block", "concord")


def _reference_hive_handle(word, pos):
    n = len(word)
    if n < 4 or not 0 <= pos < n:
        raise NotApplicable(f"no block at position {pos}")
    found = _reference_block_at(word, pos)
    if found is None or found[0] != 4:
        raise NotApplicable(f"no handle block at position {pos}")
    return _reference_delete(word, {(pos + k) % n for k in range(4)})


# rule -> (reference, public function or None, parameter names)
_REFERENCE_RULES = {
    "cancel": (_reference_cancel, cancel, ("pos",)),
    "transpose_discord": (_reference_transpose_discord, transpose_discord, ("label", "split")),
    "fold_concord": (_reference_fold_concord, fold_concord, ("label",)),
    "slide_block": (_reference_slide_block, slide_block, ("block_start", "dest")),
    "interleave_to_handle": (_reference_interleave_to_handle, interleave_to_handle, ("a", "b")),
    "rotate": (_reference_rotate, None, ("k",)),
    "invert": (_reference_invert, None, ()),
    "glue_singles": (_reference_glue_singles, glue_singles, ("pos",)),
    "hive_hole": (_reference_hive_hole, hive_hole, ("label",)),
    "hive_crosscap": (_reference_hive_crosscap, hive_crosscap, ("pos",)),
    "hive_handle": (_reference_hive_handle, hive_handle, ("pos",)),
}


def _outcome(rule, *args):
    try:
        return rule(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _sites(word, names):
    """Every site of a rule on ``word``: each position, one out of range
    on either side, and each label plus one absent from the word."""
    n = len(word)
    values = {
        "label": [*word.labels(), "z9"],
        "a": [*word.labels(), "z9"],
        "b": [*word.labels(), "z9"],
        "pos": range(-1, n + 1),
        "split": range(-1, n + 1),
        "block_start": range(-1, n + 1),
        "dest": range(-1, n + 1),
        "k": range(-n - 1, n + 2),
    }
    return itertools.product(*(values[name] for name in names))


@st.composite
def _rule_words(draw):
    """Random words, some with a handle block, a crosscap block or a
    framed hole inserted, so that every rule meets sites where it
    applies."""
    word = draw(words(max_pairs=4, max_singles=3))
    block = parse(draw(st.sampled_from(["", "v9 w9 v9' w9'", "w9' w9'", "v9 x9 v9'"])))
    at = draw(st.integers(0, len(word)))
    return Word(word.letters[:at] + block.letters + word.letters[at:])


@pytest.mark.parametrize("rule", sorted(_REFERENCE_RULES))
@given(_rule_words())
@settings(max_examples=80, deadline=None)
def test_rules_match_their_word_references(rule, word):
    reference, public, names = _REFERENCE_RULES[rule]
    for args in _sites(word, names):
        expected = _outcome(reference, word, *args)
        got = _outcome(apply_step, word, rule, dict(zip(names, args)))
        assert got == expected, (rule, word.render(), args)
        if public is not None:
            assert _outcome(public, word, *args) == expected, (rule, word.render(), args)
    if rule == "slide_block":
        for pos in range(len(word)):
            assert block_at(word, pos) == _reference_block_at(word, pos)


@pytest.mark.parametrize(
    "rule, params, message",
    [
        ("cancel", {}, "cancel: missing parameter 'pos'"),
        ("cancel", {"pos": None}, "cancel: parameter 'pos' is not an integer: None"),
        ("slide_block", {"block_start": 0}, "slide_block: missing parameter 'dest'"),
        ("interleave_to_handle", {"a": "a"}, "interleave_to_handle: missing parameter 'b'"),
        ("rotate", {"k": "zz"}, "rotate: parameter 'k' is not an integer: 'zz'"),
        (
            "transpose_discord",
            {"label": "a", "split": [1]},
            "transpose_discord: parameter 'split' is not an integer: [1]",
        ),
        ("hive_handle", {"pos": 1e400}, "hive_handle: parameter 'pos' is not an integer: inf"),
        ("cancel", [0], "cancel: parameters must be an object, not list"),
        # the rule's own message is kept
        ("cancel", {"pos": 7}, "no adjacent pair at position 7"),
        ("hive_hole", {"label": None}, "None is not a discord pair"),
        # only the rule's own parameters are read, in order
        (
            "slide_block",
            {"block_start": 0, "dest": "x", "pos": "bad"},
            "slide_block: parameter 'dest' is not an integer: 'x'",
        ),
        ("rotate", {"k": "z", "split": None}, "rotate: parameter 'k' is not an integer: 'z'"),
    ],
)
def test_bad_params_are_not_applicable(rule, params, message):
    with pytest.raises(NotApplicable, match=f"^{re.escape(message)}$"):
        apply_step(parse("a b a' b'"), rule, params)


def test_a_rule_without_parameters_reads_no_params():
    assert apply_step(parse("a b"), "invert", [1]) == parse("b' a'")


@pytest.mark.parametrize("rule", sorted(_REFERENCE_RULES))
@given(_rule_words(), st.data())
@settings(max_examples=60, deadline=None)
def test_bad_params_give_a_word_or_not_applicable(rule, word, data):
    """With parameters dropped or replaced by None, a list or a string,
    a rule returns a word or raises NotApplicable, nothing else."""
    names = _REFERENCE_RULES[rule][2]
    good = dict(zip(names, data.draw(st.sampled_from(list(_sites(word, names))))))
    params = {}
    for name in names:
        change = data.draw(st.sampled_from(["keep", "drop", "none", "list", "text"]))
        if change == "keep":
            params[name] = good[name]
        elif change != "drop":
            params[name] = data.draw(
                {
                    "none": st.none(),
                    "list": st.lists(st.integers(-2, 2), max_size=2),
                    "text": st.text(max_size=3),
                }[change]
            )
    try:
        assert isinstance(apply_step(word, rule, params), Word)
    except NotApplicable:
        pass


def _pairing_block_at(word, pos):
    """``block_at`` read from the pairing table: a concord pair at the
    cyclic positions ``pos`` and ``pos + 1``, or discord pairs at ``pos``,
    ``pos + 2`` and at ``pos + 1``, ``pos + 3``."""
    n = len(word)
    if n < 2:
        return None
    table = word.pairing()
    at = [(pos + k) % n for k in range(4)]

    def paired(i, j, character):
        entry = table[word[i].label]
        return entry.character == character and set(entry.positions) == {i, j}

    if paired(at[0], at[1], CONCORD):
        return 2, (word[at[0]], word[at[1]])
    if n >= 4 and paired(at[0], at[2], DISCORD) and paired(at[1], at[3], DISCORD):
        return 4, tuple(word[k] for k in at)
    return None


@given(words(max_pairs=5, max_singles=3))
@example(parse("a b a' b' x"))
@example(parse("b' y a' b a"))
@example(parse("a' b a b'"))
@example(parse("a x a"))
@example(parse("a a"))
@settings(max_examples=150, deadline=None)
def test_block_at_matches_the_pairing_table(word):
    n = len(word)
    for pos in range(n):
        assert block_at(word, pos) == _pairing_block_at(word, pos), (word.render(), pos)
        # a negative position counts from the end, as in indexing
        assert block_at(word, pos - n) == block_at(word, pos)
    if n < 2:
        assert block_at(word, n) is None
    else:
        with pytest.raises(IndexError):
            block_at(word, n)
        with pytest.raises(IndexError):
            block_at(word, -n - 1)

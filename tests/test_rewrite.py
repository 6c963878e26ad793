"""Rewrite rules, recorded steps, traces, and replay."""

import json
import random
import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from surfword import (
    NotApplicable,
    ReplayMismatch,
    RewriteStep,
    Trace,
    apply_step,
    block_at,
    cancel,
    fold_concord,
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

from conftest import REWRITE_RULES, applicable_instance, words


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

    @pytest.mark.parametrize(
        "text", ["aba'b'", "a\tb  a'\tb'", " a1 b' ", "a", "a'", "", "a a b' c a1' a1"]
    )
    def test_from_json_reads_words_as_word_parse_does(self, text):
        trace = Trace.from_json(_identity_chain("a b' c", text, text))
        assert trace[0].before == parse("a b' c")
        assert [step.after for step in trace] == [parse(text), parse(text)]

    @pytest.mark.parametrize(
        "text", ["a A", "A", "a b'' c", "a a a", "a a' b a", "aaa", "a1 b a1' b a1"]
    )
    def test_from_json_rejects_bad_words_as_word_parse_does(self, text):
        with pytest.raises(ValueError) as expected:
            parse(text)
        message = f"^{re.escape(str(expected.value))}$"
        with pytest.raises(type(expected.value), match=message) as caught:
            Trace.from_json(_identity_chain("a b' c", text))
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

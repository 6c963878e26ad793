"""Normalization traces: auditable, serializable, replayable.

normalize() returns the normal form together with the full chain of
rewrite steps.  The chain serializes to JSON.  Trace.from_json() reads
it back in one walk of its moves from the first word, comparing the
text of each word with the recorded one.  replay() checks the starting
word first, then walks the moves once, each with its rule's checks.  A
recorded word that does not match is read as written, and replay()
names the first step whose move does not make it.
"""

import json

from surfword import ReplayMismatch, RewriteStep, Trace, normalize, parse, replay


def main() -> None:
    word = parse("c a b a' c x b")
    form, trace = normalize(word)
    print(f"word: {word}")
    print(f"form: {form}")
    print()
    print("trace:")
    for step in trace:
        print(f"  {step.describe()}")

    print()
    final = replay(word, trace)
    print(f"replay result: {final.render()!r} (residual word of the last hole)")

    text = trace.to_json(indent=2)
    revived = Trace.from_json(text)
    print(f"JSON round trip intact: {revived == trace}")

    # tamper with one recorded output and watch replay object
    first = trace[0]
    forged = RewriteStep(first.rule, first.params, first.before, first.before)
    try:
        replay(word, Trace([forged]))
    except ReplayMismatch as exc:
        print(f"tampering detected: {exc}")

    # the same in the JSON text: the forged word is read, and replay names its step
    steps = json.loads(text)
    steps[0]["after"] = steps[1]["before"] = steps[0]["before"]
    try:
        replay(word, Trace.from_json(json.dumps(steps)))
    except ReplayMismatch as exc:
        print(f"tampering in JSON detected: {exc}")


if __name__ == "__main__":
    main()

"""Classifying without rewriting: the invariant oracle.

The corner complex counts vertices after gluing (union-find over
polygon corners), edges, and the single face; joining the two corners
of each free edge in the same union-find then leaves one class per
boundary component.  Together with orientability (no concord pair)
these determine the surface, giving an independent cross-check on the
normalizer.
"""

from surfword import (
    classify,
    classify_by_invariants,
    corner_complex,
    invariants_summary,
    parse,
    random_word,
)

WORDS = ["a a", "a b a' b'", "a b a' b", "a x a", "a b a' b' x", "c a b a' c x b"]


def main() -> None:
    for text in WORDS:
        word = parse(text)
        cells = corner_complex(word)
        summary = invariants_summary(word)
        print(f"word {text!r}")
        print(f"  V={cells.vertices} E={cells.edges} F={cells.faces}  chi={cells.chi}")
        print(f"  orientable={summary['orientable']}  boundary={summary['boundary']}")
        print(f"  oracle: {classify_by_invariants(word)}")
        print()

    print("Cross-check on 2,000 random words:")
    agreements = 0
    for seed in range(2_000):
        word = random_word(seed % 9, seed % 4, seed)
        agreements += classify(word) == classify_by_invariants(word)
    print(f"  normalizer and oracle agree on {agreements}/2000")


if __name__ == "__main__":
    main()

"""The seeded command list of the ``cli-session`` workload.

One session is 120 ``pipedream`` commands.  The mix is fixed so that every
seed does the same amount of work by kind and size; the seed chooses the
words, the popular words and the order:

    nu 42, coeff 24 (12 recursive, 12 --mode ie), poly 12,
    enumerate 18 (BPD 6, bpd 4, mBPD 4, BPD_K 4), render --format svg 12,
    verify <grid check> --n 5 12 (each of six checks twice).

Word sizes cycle through 3..6 within each kind.  For sizes 5 and 6 every
other ``nu`` word is one of three seeded "popular" words of that size, used
in turn, so the json-lines cache is read back as a user re-asking about the
same words would.  Only ``nu`` repeats words, so every seed has the same
number of cache hits whatever the order.  The three README examples
(nu 1243, coeff 1243, poly 132) are always part of the session.
"""

from __future__ import annotations

import random

SIZES = (3, 4, 5, 6)
POPULAR_PER_SIZE = 3
GRID_CHECKS = ("bijection-roundtrip", "reduced-restriction", "weight-preservation",
               "nonreduced-pattern", "vexillary-K", "bk-order")
VERIFY_N = 5

# (argv, literal expected stdout) from the README's command-line section
README_PINS = (
    (("nu", "--perm", "1243"), "b^2+3b+3\n"),
    (("coeff", "--perm", "1243"), "b^2+b\n"),
    (("poly", "--perm", "132"), "x1+x2+b*x1*x2\n"),
)

# kind -> (number of seeded commands, argv maker from a word)
_WORD_COMMANDS = (
    ("nu", 41, lambda w, k: ("nu", "--perm", w)),
    ("coeff", 11, lambda w, k: ("coeff", "--perm", w)),
    ("coeff-ie", 12, lambda w, k: ("coeff", "--perm", w, "--mode", "ie")),
    ("poly", 11, lambda w, k: ("poly", "--perm", w)),
    ("enumerate", 18, lambda w, k: ("enumerate", "--perm", w, "--kind",
                                    ("BPD", "bpd", "mBPD", "BPD_K")[k // 4 % 4])),
    ("render", 12, lambda w, k: ("render", "--perm", w, "--index", "0",
                                 "--format", "svg")),
)


def _word(rng: random.Random, size: int) -> str:
    return "".join(str(v) for v in rng.sample(range(1, size + 1), size))


def session_commands(seed: int) -> list[tuple[str, ...]]:
    """The session for one seed: a list of argv tuples for ``pipedream``."""
    rng = random.Random(seed)
    popular = {size: [_word(rng, size) for _ in range(POPULAR_PER_SIZE)]
               for size in (5, 6)}
    commands = [argv for argv, _ in README_PINS]
    for kind, count, build in _WORD_COMMANDS:
        for k in range(count):
            size = SIZES[k % len(SIZES)]
            if kind == "nu" and size in popular and (k // len(SIZES)) % 2 == 0:
                word = popular[size][k // (2 * len(SIZES)) % POPULAR_PER_SIZE]
            else:
                word = _word(rng, size)
            commands.append(build(word, k))
    for check in GRID_CHECKS * 2:
        commands.append(("verify", check, "--n", str(VERIFY_N)))
    rng.shuffle(commands)
    return commands

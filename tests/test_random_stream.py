"""The facts about CPython's ``random.Random`` that ``SamplingPlan.draw_many``
decodes its pools by, checked against the generator itself.

``draw_many`` relies on three of them: a ``randrange``/``randint`` attempt
for a bound below 2**32 is the top bits of one word, ``random()`` is built
from two words, and rewinding with ``setstate`` then skipping words
restores the stream. Bounds of 2**32 or more, which take several words per
attempt, and pools holding a value the space rejects go through the scalar
``draw`` instead; the wider bounds stay in ``BOUNDS`` so that a change in
how ``randrange`` reads them still shows here.

Standard library only, so it runs on interpreters without numpy or pytest:
``python tests/test_random_stream.py``.
"""

import random
import sys
from random import Random

SEEDS = range(50)
BOUNDS = (1, 2, 3, 6, 7, 8, 13, 1000, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 1, 2**64 + 3)


def words(rng, n):
    """The next n 32-bit outputs, one ``getrandbits(32)`` at a time."""
    return [rng.getrandbits(32) for _ in range(n)]


def below(rng, n):
    """``randrange(n)`` from words: one ``getrandbits(k)`` per attempt,
    k = n.bit_length(), reading ceil(k / 32) words least significant first
    and keeping the top bits of the last, until an attempt is below n."""
    k = n.bit_length()
    per_attempt = (k + 31) // 32
    while True:
        limbs = words(rng, per_attempt)
        limbs[-1] >>= 32 * per_attempt - k
        value = sum(limb << (32 * j) for j, limb in enumerate(limbs))
        if value < n:
            return value


def unit(rng):
    """``random()`` from two words."""
    a, b = words(rng, 2)
    return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)


def test_block_read_is_least_significant_word_first():
    for seed in SEEDS:
        for n in (1, 2, 5, 64):
            block, scalar = Random(seed), Random(seed)
            value = block.getrandbits(32 * n)
            assert value == sum(w << (32 * j) for j, w in enumerate(words(scalar, n)))
            assert value.to_bytes(4 * n, "little") == b"".join(
                w.to_bytes(4, "little") for w in words(Random(seed), n)
            )
            assert block.getstate() == scalar.getstate()


def test_randrange_and_randint_read_one_attempt_of_words_at_a_time():
    for seed in SEEDS:
        for n in BOUNDS:
            drawn, decoded = Random(seed), Random(seed)
            assert [drawn.randrange(n) for _ in range(20)] == [below(decoded, n) for _ in range(20)]
            assert drawn.getstate() == decoded.getstate()
            lower = -7 * seed
            assert [drawn.randint(lower, lower + n - 1) for _ in range(20)] == [
                lower + below(decoded, n) for _ in range(20)
            ]
            assert drawn.getstate() == decoded.getstate()


def test_random_reads_two_words():
    for seed in SEEDS:
        drawn, decoded = Random(seed), Random(seed)
        assert [drawn.random() for _ in range(50)] == [unit(decoded) for _ in range(50)]
        assert drawn.getstate() == decoded.getstate()


def test_uniform_scales_one_random():
    for seed in SEEDS:
        for a, b in ((0.0, 1.0), (-5.0, 3.25), (-9.210340371976182, 2.302585092994046), (2, 1e6)):
            drawn, decoded = Random(seed), Random(seed)
            assert [drawn.uniform(a, b) for _ in range(50)] == [
                a + (b - a) * unit(decoded) for _ in range(50)
            ]
            assert drawn.getstate() == decoded.getstate()


def test_rewinding_and_skipping_words_restores_the_stream():
    # draw_many reads ahead, rewinds with setstate and skips the words used
    rng, reference = Random(11), Random(11)
    state = rng.getstate()
    rng.getrandbits(32 * 500)
    rng.setstate(state)
    rng.getrandbits(32 * 123)
    words(reference, 123)
    assert rng.getstate() == reference.getstate()
    assert rng.random() == reference.random()


if __name__ == "__main__":
    for name, test in sorted(vars().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
    print(f"random stream facts hold on Python {sys.version.split()[0]} ({random.__file__})")

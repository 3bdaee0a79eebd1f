"""Run enumeration: engines vs the definition oracle, stats, rendering."""

import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from runexp import runs as runs_module
from runexp.families import run_rich_word
from runexp.runs import (
    BRUTE_FORCE_CAP,
    SMALL_ENGINE_LIMIT,
    Run,
    RunSet,
    RunStats,
    find_runs,
    find_runs_bruteforce,
    fraction_to_decimal,
    run_stats,
    validate_run,
    validate_runs,
)
from runexp.words import word_from_text

from oracles import _lyndon_lengths, as_triples, assert_order_rule, is_cubic


def w(text, alphabet="abc"):
    return word_from_text(text, alphabet)


ENGINES = {"python": runs_module._runs_python, "arrays": lambda data: runs_module._runs_arrays(data)[0]}


def engine_runs(engine, word):
    """The runs of ``word`` from one engine, whatever its length."""
    starts, ends, periods = ENGINES[engine](word.data)
    return RunSet(starts + 1, ends + 1, periods)


class TestExamples:
    def test_no_repetition(self):
        assert as_triples(find_runs(w("abc"))) == []

    def test_unary_word(self):
        assert as_triples(find_runs(w("aaaa"))) == [(1, 4, 1)]

    def test_square(self):
        assert as_triples(find_runs(w("abab"))) == [(1, 4, 2)]

    def test_overlapping_runs(self):
        assert as_triples(find_runs(w("aabaabaa"))) == [
            (1, 2, 1),
            (1, 8, 3),
            (4, 5, 1),
            (7, 8, 1),
        ]

    def test_empty_and_single(self):
        assert len(find_runs(w(""))) == 0
        assert len(find_runs(w("a"))) == 0

    def test_bruteforce_same_examples(self):
        for text in ("abc", "aaaa", "abab", "aabaabaa", ""):
            assert find_runs_bruteforce(w(text)) == find_runs(w(text))

    def test_bruteforce_cap(self):
        with pytest.raises(ValueError, match="cap"):
            find_runs_bruteforce(w("a" * (BRUTE_FORCE_CAP + 1)))


class TestRunType:
    def test_exponent(self):
        r = Run(1, 8, 3)
        assert r.length == 8
        assert r.exponent == Fraction(8, 3)
        assert not is_cubic(r)
        assert is_cubic(Run(1, 9, 3))

    def test_runset_access(self):
        rs = find_runs(w("aabaabaa"))
        assert len(rs) == 4
        assert rs[1] == Run(1, 8, 3)
        assert list(rs)[0] == Run(1, 2, 1)
        assert rs == RunSet.from_runs([(4, 5, 1), (1, 2, 1), (7, 8, 1), (1, 8, 3)])


class TestEngineAgreement:
    def test_exhaustive_binary_up_to_12(self):
        for length in range(2, 13):
            for bits in itertools.product("ab", repeat=length - 1):
                word = w("a" + "".join(bits), "ab")
                expected = as_triples(find_runs_bruteforce(word))
                assert as_triples(engine_runs("python", word)) == expected
                assert as_triples(engine_runs("arrays", word)) == expected

    def test_unary_and_one_letter_changed_up_to_300(self):
        rng = random.Random(5)
        for length in range(2, 301):
            pos = rng.randrange(length)
            changed = "b" * pos + "ac"[length % 2] + "b" * (length - pos - 1)
            for text in ("b" * length, changed):
                word = w(text)
                expected = as_triples(find_runs_bruteforce(word))
                assert as_triples(engine_runs("python", word)) == expected, text
                assert as_triples(engine_runs("arrays", word)) == expected, text

    @settings(max_examples=250, deadline=None)
    @given(st.text(alphabet="abc", min_size=2, max_size=260))
    def test_random_ternary(self, text):
        word = w(text)
        expected = as_triples(find_runs_bruteforce(word))
        assert as_triples(engine_runs("python", word)) == expected
        assert as_triples(engine_runs("arrays", word)) == expected

    @settings(max_examples=120, deadline=None)
    @given(st.text(alphabet="0123", min_size=2, max_size=120))
    def test_random_quaternary(self, text):
        word = w(text, "0123")
        assert as_triples(find_runs(word)) == as_triples(find_runs_bruteforce(word))

    @settings(max_examples=80, deadline=None)
    @given(st.text(alphabet="ab", min_size=SMALL_ENGINE_LIMIT, max_size=SMALL_ENGINE_LIMIT + 140))
    def test_arrays_path_is_the_default_above_the_cutoff(self, text):
        word = w(text, "ab")
        runs, isa = runs_module._runs_and_ranks(word)
        assert isinstance(isa, np.ndarray)  # the arrays engine's ranks
        assert as_triples(runs) == as_triples(find_runs_bruteforce(word))


def fibonacci_word(n):
    """The first n letters of the Fibonacci word over a, b."""
    u, v = b"a", b"ab"
    while len(v) < n:
        u, v = v, v + u
    return v[:n]


def planted_square(letters, period, n):
    """A seeded random word of n letters with a square of the given period in it."""
    rng = random.Random(period * letters)
    data = bytearray(rng.choices(b"abcd"[:letters], k=n))
    at = rng.randrange(n - 2 * period)
    data[at + period : at + 2 * period] = data[at : at + period]
    return bytes(data)


class TestExtensionQueries:
    """The arrays engine's extension queries, both directions, against the letters."""

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abcd", min_size=2, max_size=64))
    @example("a" * 40)  # unary: every extension reaches an end of the word
    @example("dcba")  # all letters distinct: no two positions share a rank at any level
    @example("abaababaabaababaababa")
    def test_against_slicing(self, text):
        data = w(text, "abcd").data
        n = len(data)
        levels = list(runs_module._prefix_doubling(data))
        x, y = (np.array(c, dtype=np.int32) for c in zip(*itertools.combinations(range(n + 1), 2)))
        inside = y < n  # a common prefix needs a letter at y
        right = runs_module._lce(levels, x[inside], y[inside])
        left = runs_module._lce(levels, x, y, left=True)
        for k, (i, j) in enumerate(zip(x[inside].tolist(), y[inside].tolist())):
            lcp = 0
            while j + lcp < n and data[i + lcp] == data[j + lcp]:
                lcp += 1
            assert right[k] == lcp, (text, i, j)
        for k, (i, j) in enumerate(zip(x.tolist(), y.tolist())):
            lcs = 0
            while lcs < i and data[i - 1 - lcs] == data[j - 1 - lcs]:
                lcs += 1
            assert left[k] == lcs, (text, i, j)

    @staticmethod
    def letter_extensions(codes, p):
        """Common extensions of every pair (x, x + p), counted from letter matches.

        ``right[x]`` counts the matches data[x + i] == data[x + p + i] from
        i = 0 on, for x + p < n; ``left[x]`` counts those before x, for x + p <= n.
        """
        x = np.arange(codes.size - p + 1)
        match = np.append(codes[: x.size - 1] == codes[p:], False)
        first_miss = np.minimum.accumulate(np.where(match, x.size, x)[::-1])[::-1]
        last_miss = np.maximum.accumulate(np.where(match, -1, x))
        return (first_miss - x)[:-1], x - 1 - np.append(-1, last_miss[:-1])

    SQUARE_PERIODS = [*range(1, 100), 150, 299, 300, 301, 600]

    @pytest.mark.parametrize("data, periods, split", [
        pytest.param(b"a" * 5000, range(1, 5000, 7), True, id="unary"),
        pytest.param(fibonacci_word(6765), [*range(1, 100), 144, 233, 377, 610, 987, 1597, 2584, 4181], True,
                     id="fibonacci"),
        pytest.param(run_rich_word(6).data, [*range(1, 100), 461, 1751, 6647, 12000], True, id="member6"),
        pytest.param(planted_square(3, 300, 5000), SQUARE_PERIODS, True, id="square-ternary"),
        pytest.param(planted_square(2, 300, 4000), SQUARE_PERIODS, True, id="square-binary"),
        pytest.param(bytes(random.Random(5).choices(b"abcd", k=600)), range(1, 600), False, id="few-levels"),
        # Exactly _SPLIT + 1 and _SPLIT + 2 levels: the last level is the split
        # level, or the first above it.
        pytest.param(planted_square(4, 20, 1000), SQUARE_PERIODS, False, id="split-levels-plus-1"),
        pytest.param(planted_square(4, 40, 1000), SQUARE_PERIODS, True, id="split-levels-plus-2"),
    ])
    def test_long_words_against_letters(self, data, periods, split):
        # Words with more than _SPLIT + 1 levels take both sides of the split:
        # pairs whose 2^_SPLIT-letter blocks differ and pairs lifted past them.
        # A word with fewer levels splits at its last level, where no pair agrees.
        codes = np.frombuffer(data, dtype=np.uint8)
        levels = list(runs_module._prefix_doubling(data))
        assert (len(levels) > runs_module._SPLIT + 1) == split
        long_pairs = 0
        for p in periods:
            x = np.arange(codes.size - p + 1, dtype=np.int32)
            right, left = self.letter_extensions(codes, p)
            assert np.array_equal(runs_module._lce(levels, x[:-1], x[:-1] + p), right), p
            assert np.array_equal(runs_module._lce(levels, x, x + p, left=True), left), p
            long_pairs += int((right >= 1 << runs_module._SPLIT).sum())
        assert (long_pairs > 0) == split


def sorted_levels(codes):
    """Prefix doubling by stable sorts of the packed keys: the reference ranks,
    from the dense ranks of the letters."""
    n = codes.size
    rank = np.full(n + 1, -1, dtype=np.int64)
    rank[:n] = np.unique(codes, return_inverse=True)[1]
    k, levels = 1, [rank]
    while True:
        key = rank[:n] * (int(rank.max()) + 2)
        key[: n - k] += rank[k:n] + 1
        order = np.argsort(key, kind="stable")
        bump = np.concatenate([[0], np.diff(key[order]) != 0])
        rank = np.full(n + 1, -1, dtype=np.int64)
        rank[order] = np.cumsum(bump)
        levels.append(rank)
        if rank.max() == n - 1:
            return levels
        k <<= 1


# The int64 key budget of the doubling rounds as shipped, and cut to one bit per sort digit.
BUDGETS = ["int64", "one-bit digits"]


def doubling_levels(data, budget):
    """The levels of ``_prefix_doubling(data)`` under a key budget. Each sorted round
    must take one packed sort per digit of its key bound (top + 2)^2 - 1, each digit
    within the budget: one digit below 2^21 letters as shipped, and at least two
    with one-bit digits."""
    bits = len(data).bit_length()
    key_bits = 63 if budget == "int64" else bits + 1
    sorts = []
    packed_sort = runs_module._packed_sort

    def counted_sort(packed, bits):
        # Every digit fits the budget left above the position bits.
        assert packed.size == 0 or 0 <= packed.min() <= packed.max() < 1 << (key_bits - bits)
        sorts.append(bits)
        return packed_sort(packed, bits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runs_module, "_KEY_BITS", key_bits)
        mp.setattr(runs_module, "_packed_sort", counted_sort)
        levels = list(runs_module._prefix_doubling(data))
    kinds = round_kinds(levels, len(data))
    bounds = [(int(lv.max()) + 2) ** 2 - 1 for lv, kind in zip(levels, kinds) if kind == "sorted"]
    digits = [-(-bound.bit_length() // (key_bits - bits)) for bound in bounds]
    assert len(sorts) == sum(digits), (len(sorts), digits)
    assert all(d == 1 if budget == "int64" else d >= 2 for d in digits), digits
    return levels


class TestPrefixDoubling:
    """Every level, sort-free or sorted, int16 or int32, under each key budget,
    against stable-sort ranks."""

    def check(self, data):
        codes = np.frombuffer(data, dtype=np.uint8)
        expected = sorted_levels(codes)
        for budget in BUDGETS:
            levels = doubling_levels(data, budget)
            assert len(levels) == len(expected), budget
            for level, ranks in zip(levels, expected):
                assert np.array_equal(level, ranks), budget
                assert level.dtype == (np.int16 if level is not levels[-1] and ranks.max() < 0x7FFF else np.int32)
        return levels

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="abcd", min_size=1, max_size=3000))
    def test_random_words(self, text):
        self.check(text.encode())

    @pytest.mark.parametrize("index", [5, 6, 7])
    def test_family_members(self, index):
        self.check(run_rich_word(index).data)

    def test_level_past_int16(self):
        # 70,000 random binary letters: 16-letter blocks take about 43,000
        # ranks, more than int16 holds, and are not yet all distinct.
        data = bytes(random.Random(3).choices(b"ab", k=70_000))
        levels = self.check(data)
        assert any(lv.dtype == np.int32 and 0x7FFF < lv.max() < len(data) - 1 for lv in levels)

    def test_all_letters_distinct(self):
        levels = self.check(bytes(range(0x7E, 0x20, -1)))
        assert len(levels) == 2

    def test_every_byte_value(self):
        # Level 0 ranks the letters through a 256-byte table: ranks 0 to 255.
        self.check(bytes(range(256)) * 3 + bytes(range(255, -1, -1)))


def ternary_word(n):
    return bytes(random.Random(n).choices(b"abc", k=n))


def round_kinds(levels, n):
    """Per round, whether it sorts: the packed pair keys of level k span (top + 2)^2
    values, and a table of at most 2n entries ranks them without a sort."""
    return ["sorted" if (int(lv.max()) + 2) ** 2 > 2 * n else "table" for lv in levels[:-1]]


class TestDoublingLevelsAgainstBlocks:
    """Every doubling level against the bytes of the blocks it ranks.

    Level k holds the dense rank of each position's 2^k-letter slice of the
    word among all such slices, sorted as bytes: a block cut off by the end
    of the word is a shorter slice, so it ranks below its extensions and is
    unique. The last level is the first after level 0 whose ranks all differ.
    """

    @pytest.mark.parametrize("data", [
        pytest.param(ternary_word(n), id=f"abc-{n}") for n in (1000, 1420, 1733, 2000)
    ] + [
        pytest.param(b"a" * n, id=f"unary-{n}") for n in (1, 2, 3, 64, 1000, 5000)
    ] + [
        pytest.param(run_rich_word(6).data, id="member6"),
        pytest.param(bytes(random.Random(9).choices(b"ab", k=3000)), id="binary-3000"),
    ])
    def test_levels_rank_the_blocks(self, data):
        n = len(data)
        for budget in BUDGETS:
            levels = doubling_levels(data, budget)
            for k, level in enumerate(levels):
                blocks = [data[i : i + (1 << k)] for i in range(n)]
                dense = {block: r for r, block in enumerate(sorted(set(blocks)))}
                assert level.tolist() == [dense[block] for block in blocks] + [-1], (budget, k)
                top = len(dense) - 1
                assert (k > 0 and top == n - 1) == (level is levels[-1]), (budget, k)
                assert level.dtype == (np.int32 if level is levels[-1] or top >= 0x7FFF else np.int16), (budget, k)

    @pytest.mark.parametrize("n", [16, 1000, 1420, 1733, 2000])
    def test_no_table_round_follows_a_sorted_one(self, n):
        # The ranks only grow from the dense letter ranks of level 0, so the
        # rounds fit a table first, even on 16 letters, and sort after.
        data = ternary_word(n)
        kinds = round_kinds(list(runs_module._prefix_doubling(data)), n)
        assert kinds[0] == "table" and kinds[-1] == "sorted", kinds
        assert kinds == sorted(kinds, key=["table", "sorted"].index), kinds


def binary_words(max_length):
    for length in range(1, max_length + 1):
        for bits in itertools.product(b"ab", repeat=length):
            yield bytes(bits)


def sorted_suffix_ranks(data):
    """The rank of each suffix among all suffixes compared as bytes."""
    isa = [0] * len(data)
    for r, i in enumerate(sorted(range(len(data)), key=lambda i: data[i:])):
        isa[i] = r
    return isa


LONG_DESCENTS = [b"a" + b"b" * 5000, b"b" * 5000 + b"a", b"a" * 5000]


class TestLyndonLengths:
    """The pointer-jumping oracle against the definition: the distance to the
    next suffix smaller as bytes (the end of the word ranks lowest) or, over
    the reversed ranks, to the next greater one; the end of the word if none."""

    @staticmethod
    def check(data):
        n = len(data)
        isa = np.array(sorted_suffix_ranks(data))
        for order, (rank, beyond) in enumerate(((isa, np.less), ((n - 1) - isa, np.greater))):
            expected = []
            for i in range(n):
                later = np.flatnonzero(beyond(isa[i + 1 :], isa[i]))
                expected.append(int(later[0]) + 1 if later.size else n - i)
            assert _lyndon_lengths(rank.tolist()) == expected, data[:40]
            assert_order_rule(data, expected, order)

    def test_every_binary_word_up_to_10(self):
        for data in binary_words(10):
            self.check(data)

    @pytest.mark.parametrize("data", LONG_DESCENTS, ids=["a-b5000", "b5000-a", "a5000"])
    def test_long_descents(self, data):
        self.check(data)


class TestLyndonPass:
    """The Python engine's suffix-comparison pass against the pointer-jumping
    oracle over sorted-suffix ranks, n - 1 - rank for order 1."""

    @staticmethod
    def check(data):
        n = len(data)
        isa = runs_module._suffix_ranks_small(data)
        suf = [data[i:] for i in range(n)]
        for order, rank in enumerate((isa, [n - 1 - r for r in isa])):
            nxt = runs_module._lyndon_pass(data, suf, order, [])
            lam = [j - i for i, j in enumerate(nxt)]
            assert lam == _lyndon_lengths(rank), (order, data[:40])
            assert_order_rule(data, lam, order)

    def test_every_binary_word_up_to_12(self):
        for data in binary_words(12):
            self.check(data)

    def test_seeded_words(self):
        # 1 to 4 letters in turn (unary words among them), ending in a random,
        # the least or the greatest letter in turn, up to the engine switch.
        rng = random.Random(25)
        for k in range(200):
            alphabet = b"abcd"[: 1 + k % 4]
            n = SMALL_ENGINE_LIMIT - 1 if k < 6 else rng.randint(1, SMALL_ENGINE_LIMIT - 1)
            tail = (b"", alphabet[:1], alphabet[-1:])[k % 3]
            self.check(bytes(rng.choices(alphabet, k=n - len(tail))) + tail)


class TestNextSmaller:
    """The tree search of the arrays engine against the pointer-jumping pass, in both orders."""

    @staticmethod
    def check(data):
        n = len(data)
        isa = list(runs_module._prefix_doubling(data))[-1][:n]
        for order, rank in enumerate((isa, (n - 1) - isa)):
            got = runs_module._next_smaller(rank)
            assert got.dtype == np.int32
            assert got.tolist() == _lyndon_lengths(rank.tolist()), data[:40]
            assert_order_rule(data, got, order)

    def test_every_binary_word_up_to_12(self):
        for data in binary_words(12):
            self.check(data)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.text(alphabet="abcd"[:k], min_size=1, max_size=3000)))
    def test_random_words(self, text):
        self.check(text.encode())

    @pytest.mark.parametrize("data", LONG_DESCENTS)
    def test_long_descents(self, data):
        # In a+b^k every b's next greater suffix is the end of the word.
        self.check(data)

    @pytest.mark.parametrize("data", [
        pytest.param(ternary_word(runs_module._BLOCK + d), id=f"abc-block{d:+d}") for d in (-1, 0, 1)
    ] + [
        # Every b searches past the block of positions it is in, up to the end of the word.
        pytest.param(b"a" + b"b" * 70_000, id="a-b70000"),
        pytest.param(b"b" * 70_000 + b"a", id="b70000-a"),
    ])
    def test_blocks_of_positions(self, data):
        self.check(data)

    @pytest.mark.parametrize("index", range(1, 8))
    def test_family_members(self, index):
        self.check(run_rich_word(index).data)

    def test_arrays_engine_takes_no_stack_pass(self, monkeypatch):
        """The arrays engine never calls the Python engine."""

        def forbidden(data):
            raise AssertionError("the arrays engine called _runs_python")

        word = run_rich_word(5)
        assert len(word) >= SMALL_ENGINE_LIMIT
        expected = find_runs(word)
        monkeypatch.setattr(runs_module, "_runs_python", forbidden)
        assert find_runs(word) == expected
        with pytest.raises(AssertionError, match="_runs_python"):
            find_runs(run_rich_word(3))  # the patch is in force


class TestInverseSuffixArray:
    """The ranks ``_runs_and_ranks`` hands to the handle suite with each engine,
    against sorted suffixes."""

    @staticmethod
    def check(word, engine):
        # Force the engine through the length switch that picks it.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runs_module, "SMALL_ENGINE_LIMIT", len(word) + 1 if engine == "python" else 0)
            runs, isa = runs_module._runs_and_ranks(word)
        assert isinstance(isa, list) == (engine == "python")
        assert np.asarray(isa).tolist() == sorted_suffix_ranks(word.data), word.text[:40]
        assert runs == engine_runs(engine, word)

    @pytest.mark.parametrize("engine", ["python", "arrays"])
    def test_seeded_words(self, engine):
        rng = random.Random(17)
        for length in [2, 3, 255, 256, 257, 600] + [rng.randint(2, 600) for _ in range(30)]:
            alphabet = "abcd"[: rng.randint(1, 4)]
            self.check(w("".join(rng.choices(alphabet, k=length)), "abcd"), engine)

    @pytest.mark.parametrize("engine", ["python", "arrays"])
    @pytest.mark.parametrize("index", [3, 4])
    def test_family_members(self, index, engine):
        self.check(run_rich_word(index), engine)

    def test_find_runs_sorts_no_suffixes(self, monkeypatch):
        """Only the handle suite's ranks sort the suffixes of a short word."""

        def forbidden(data):
            raise AssertionError("find_runs called _suffix_ranks_small")

        word = run_rich_word(3)
        assert len(word) < SMALL_ENGINE_LIMIT
        expected = find_runs(word)
        monkeypatch.setattr(runs_module, "_suffix_ranks_small", forbidden)
        assert find_runs(word) == expected
        with pytest.raises(AssertionError, match="_suffix_ranks_small"):
            runs_module._runs_and_ranks(word)  # the patch is in force


class TestDuplicateCheck:
    @pytest.mark.parametrize("engine", ["python", "arrays"])
    def test_repeated_interval_raises(self, monkeypatch, engine):
        sort = runs_module._sorted_runs

        def doubled(n, starts, ends, periods):
            return sort(n, *(np.concatenate([c, c]) for c in (starts, ends, periods)))

        monkeypatch.setattr(runs_module, "_sorted_runs", doubled)
        with pytest.raises(RuntimeError, match="twice"):
            engine_runs(engine, w("aabaabaa"))


class TestAboveOracleCap:
    """Metamorphic checks on family member 7 (n = 95,567), far above the oracle cap."""

    @pytest.fixture(scope="class")
    def member(self):
        word = run_rich_word(7)
        return word, find_runs(word)

    def test_reversal_mirrors_runs(self, member):
        word, runs = member
        n = len(word)
        mirrored = find_runs(word_from_text(word.text[::-1], word.alphabet))
        assert mirrored == RunSet.from_runs((n + 1 - j, n + 1 - i, p) for i, j, p in runs)

    def test_letter_swap_keeps_runs(self, member):
        # Swapping the two letters swaps the two Lyndon orders.
        word, runs = member
        assert word.alphabet == {"0", "1"}
        swapped = word_from_text(word.text.translate(str.maketrans("01", "10")), word.alphabet)
        assert find_runs(swapped) == runs

    def test_seeded_sample_validates(self, member):
        word, runs = member
        for k in random.Random(7).sample(range(len(runs)), 500):
            validate_run(word, runs[k])

    def test_every_run_validates_in_one_batch(self, member):
        word, runs = member
        assert len(runs) == 88_425
        validate_runs(word, runs)

    def test_peak_traced_memory(self, member):
        # Fixed bound: the peak of the engine that built a second suffix
        # array and two LCP arrays (Python 3.11, numpy 2.4). Do not raise it.
        word, _ = member
        tracemalloc.start()
        try:
            find_runs(word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12_801_875

    def test_iteration_peak_traced_memory(self, member):
        # Runs are made one at a time: copying the columns to lists peaked at 7.8 MB.
        _, runs = member
        tracemalloc.start()
        try:
            for _ in runs:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_engines_agree_on_long_random_words(self):
        rng = random.Random(11)
        for _ in range(12):
            alphabet = "abcd"[: rng.randint(1, 4)]
            word = w("".join(rng.choices(alphabet, k=rng.randint(256, 3000))), "abcd")
            assert engine_runs("python", word) == engine_runs("arrays", word)


def runset_digest(runs):
    cols = [np.asarray(c, dtype="<i8") for c in (runs.starts, runs.ends, runs.periods)]
    return hashlib.sha256(np.stack(cols).tobytes()).hexdigest()


class TestPinnedDigests:
    """Bit-identical output above the oracle cap: SHA-256 of (starts, ends, periods)."""

    @pytest.mark.parametrize("index, digest, engines", [
        (3, "67fa0d4e1edf7e351d3862bd5d397a6d2096a191e573d900f1558d55fd2f1aca", ("python", "arrays")),
        (4, "5b0e9637667bc593c7b55df3f75f683e00ad4e9608466a6374df94336e551911", ("python", "arrays")),
        (7, "0f024bf52c60b1c8249c0cb9f88a3a3dbd9b7956d413de87d685c01ee2459d10", ("arrays",)),
        (8, "0a4abb989224b82b580dd8b665d3049fff9387970a7d9aab92650fd6d21c448d", ("arrays",)),
    ])
    def test_family_member(self, index, digest, engines):
        word = run_rich_word(index)
        for engine in engines:
            assert runset_digest(engine_runs(engine, word)) == digest, engine


class TestRunSetInvariants:
    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="ab", min_size=2, max_size=200))
    def test_sorted_unique_intervals_and_valid(self, text):
        word = w(text, "ab")
        rs = find_runs(word)
        triples = as_triples(rs)
        assert triples == sorted(triples)
        assert len({(i, j) for i, j, _ in triples}) == len(triples)
        for run in rs:
            validate_run(word, run)

    def test_validate_accepts_exactly_the_definition(self):
        # Every (i, j, p) with 2p <= length on binary words of up to 8 letters
        # and ternary words of up to 6: 38,970 triples.
        for alphabet, longest in (("ab", 8), ("abc", 6)):
            for length in range(1, longest + 1):
                for letters in itertools.product(alphabet, repeat=length):
                    word = w("".join(letters), alphabet)
                    runs = set(find_runs_bruteforce(word))
                    for i, j in itertools.combinations_with_replacement(range(1, length + 1), 2):
                        for p in range(1, (j - i + 1) // 2 + 1):
                            try:
                                validate_run(word, Run(i, j, p))
                            except ValueError:
                                assert (i, j, p) not in runs, (word.text, i, j, p)
                            else:
                                assert (i, j, p) in runs, (word.text, i, j, p)

    def test_validate_rejects_wrong_period(self):
        word = w("aabaabaa")
        with pytest.raises(ValueError, match="period 3"):
            validate_run(word, Run(1, 8, 4))

    def test_validate_rejects_non_maximal(self):
        word = w("aaaa")
        with pytest.raises(ValueError, match="maximal"):
            validate_run(word, Run(1, 3, 1))
        with pytest.raises(ValueError, match="maximal"):
            validate_run(word, Run(2, 4, 1))

    def test_validate_rejects_low_exponent(self):
        with pytest.raises(ValueError, match="2p"):
            validate_run(w("abcabd", "abcd"), Run(1, 5, 3))

    def test_validate_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="range"):
            validate_run(w("abab"), Run(1, 9, 2))


class TestStats:
    def test_overlapping_runs_stats(self):
        word = w("aabaabaa")
        st_ = run_stats(word, find_runs(word))
        assert (st_.n, st_.rho) == (8, 4)
        assert st_.sigma == Fraction(26, 3)
        assert (st_.rho_cubic, st_.sigma_cubic) == (0, 0)

    def test_unary_stats(self):
        word = w("aaaa")
        st_ = run_stats(word, find_runs(word))
        assert (st_.rho, st_.sigma) == (1, 4)
        assert (st_.rho_cubic, st_.sigma_cubic) == (1, 4)

    def test_empty_stats(self):
        word = w("ab")
        st_ = run_stats(word, find_runs(word))
        assert (st_.rho, st_.sigma, st_.rho_cubic, st_.sigma_cubic) == (0, 0, 0, 0)

    @staticmethod
    def check_against_exponents(word):
        runs = find_runs(word)
        cubic = [r for r in runs if is_cubic(r)]
        assert run_stats(word, runs) == RunStats(
            n=len(word),
            rho=len(runs),
            sigma=sum((r.exponent for r in runs), Fraction(0)),
            rho_cubic=len(cubic),
            sigma_cubic=sum((r.exponent for r in cubic), Fraction(0)),
        )

    def test_every_binary_word_up_to_12(self):
        self.check_against_exponents(w("", "ab"))
        for data in binary_words(12):
            self.check_against_exponents(w(data.decode(), "ab"))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.text(alphabet="abcd"[:k], max_size=1500)))
    def test_random_words(self, text):
        self.check_against_exponents(w(text, "abcd"))

    @pytest.mark.parametrize("index", range(1, 8))
    def test_family_members_against_exponents(self, index):
        self.check_against_exponents(run_rich_word(index))

    def test_two_hundred_periods(self):
        # (a^k b)^2 for k = 1..200 has a run of period k + 1 for every k: the
        # common denominator of the sums is the lcm of about 200 periods.
        word = w("".join(("a" * k + "b") * 2 for k in range(1, 201)), "ab")
        assert len(set(find_runs(word).periods.tolist())) >= 200
        self.check_against_exponents(word)

    def test_empty_runset(self):
        stats = run_stats(w("abc"), RunSet.from_runs([]))
        assert stats == RunStats(n=3, rho=0, sigma=Fraction(0), rho_cubic=0, sigma_cubic=Fraction(0))

    # str(sigma) and str(sigma_cubic), exact, of the built-in members.
    PINNED_SUMS = {
        1: ("471/10", "18/5"),
        2: ("29558383/132990", "89/5"),
        3: ("6053770451/6640200", "303371/3410"),
        4: ("59842572996485407545761/16936527138308177400", "2621870653/7580430"),
        5: ("580322177038566330996620790491/42992553560484465605795400",
             "13000574159/9877530"),
        6: ("7391145406880142283096561431559932209312009"
             "/144177039436663823194350730605381730200",
             "446353024174/89375715"),
        7: ("94353299994510628179896293763399692112906936453081185919"
             "/485181019319042433163015040715571464556216190445150",
             "54092645918783182/2856537227115"),
        8: ("122875505565389502625699245332681789040323597338515897404214620887398564928733354183"
             "/166635007017850324528668203712578293395122273225209336188961780606253534402400",
             "801662091870250747523/11166204020792535"),
    }

    @pytest.mark.parametrize("index", sorted(PINNED_SUMS))
    def test_pinned_family_sums(self, index):
        word = run_rich_word(index)
        stats = run_stats(word, find_runs(word))
        assert (str(stats.sigma), str(stats.sigma_cubic)) == self.PINNED_SUMS[index]

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="ab", min_size=0, max_size=200))
    def test_stats_invariants(self, text):
        word = w(text, "ab")
        runs = find_runs(word)
        st_ = run_stats(word, runs)
        assert st_.sigma >= 2 * st_.rho
        assert st_.sigma_cubic >= 3 * st_.rho_cubic
        assert st_.rho_cubic <= st_.rho
        assert st_.sigma_cubic <= st_.sigma
        assert st_.sigma == sum((r.exponent for r in runs), Fraction(0))
        assert st_.rho_cubic == sum(map(is_cubic, runs))


class TestDecimalRendering:
    @pytest.mark.parametrize(
        "frac,digits,expected",
        [
            (Fraction(26, 3), 2, "8.67"),
            (Fraction(4), 2, "4.00"),
            (Fraction(1, 8), 2, "0.13"),
            (Fraction(1, 200), 2, "0.01"),
            (Fraction(-26, 3), 2, "-8.67"),
            (Fraction(5, 2), 0, "3"),
            (Fraction(471, 10), 2, "47.10"),
        ],
    )
    def test_half_up(self, frac, digits, expected):
        assert fraction_to_decimal(frac, digits) == expected

    @pytest.mark.parametrize(
        "frac,digits,expected",
        [
            (Fraction(26, 3), 2, "8.66"),
            (Fraction(1, 8), 2, "0.12"),
            (Fraction(1, 200), 2, "0.00"),
            (Fraction(5, 2), 0, "2"),
        ],
    )
    def test_truncate(self, frac, digits, expected):
        assert fraction_to_decimal(frac, digits, rounding="truncate") == expected

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            fraction_to_decimal(Fraction(1), -1)
        with pytest.raises(ValueError):
            fraction_to_decimal(Fraction(1), 2, rounding="banker")

    def test_sigma_as_decimal(self):
        word = w("aabaabaa")
        assert fraction_to_decimal(run_stats(word, find_runs(word)).sigma, 2) == "8.67"

    @given(st.fractions(), st.integers(0, 6))
    def test_half_up_error_is_at_most_half_ulp(self, frac, digits):
        rendered = Fraction(fraction_to_decimal(frac, digits))
        assert abs(rendered - frac) <= Fraction(1, 2 * 10**digits)

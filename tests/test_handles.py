"""Handle construction against the batch suite's slots, plus the property suite."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from runexp import handles, runs as runs_module
from runexp.families import run_rich_word
from runexp.handles import HandleSet, handles_of_run, verify_handle_properties
from runexp.periods import rotation_extremes
from runexp.runs import Run, RunSet, find_runs, validate_run, validate_runs
from runexp.words import word_from_text

from oracles import enumerate_as


def w(text, alphabet="abc"):
    return word_from_text(text, alphabet)


def lyndon_roots(word):
    """The runs of ``word`` and the 0-based Lyndon roots lo, hi the batch suite starts from."""
    runs, isa = runs_module._runs_and_ranks(word)
    lo, hi = handles._lyndon_roots(np.asarray(isa, dtype=np.int32), runs.starts - 1, runs.periods)
    return runs, lo.tolist(), hi.tolist()


def assert_slots_match_batch(word):
    """handles_of_run gives each run the slots the batch suite assigns it:
    x + m*p for m >= 1 with x + m*p + p <= j, x in {lo, hi}."""
    for v, x, y in zip(*lyndon_roots(word)):
        slots = {r + m * v.p for r in (x, y) for m in range(1, (v.j - r) // v.p)}
        assert handles_of_run(word, v).positions == tuple(sorted(slots)), (word.text[:60], v)


def per_run_report(word, runs):
    """The batch report's verdict fields, assembled from one handles_of_run call per run."""
    handles = [handles_of_run(word, v) for v in runs]
    seen = set()
    for h in handles:
        seen.update(h.positions)
    sizes = [h.size for h in handles]
    return {
        "handle_sizes": sizes,
        "A": sum(h.size for h in handles if h.owner.p == 1),
        "B": sum(h.size for h in handles if h.owner.p != 1),
        "disjoint": len(seen) == sum(sizes),
        "size_bound_failures": tuple(
            h.owner
            for h in handles
            if not (
                h.size + 1 == h.owner.length
                if h.owner.p == 1
                else 2 * -(-h.owner.length // h.owner.p) <= h.size + 6
                and h.size >= 2 * (h.owner.length // h.owner.p - 2)
            )
        ),
        "case_a_iff_p1": all((h.case == "a") == (h.owner.p == 1) for h in handles),
    }


def assert_batch_matches_per_run(word):
    """The batch suite agrees with handles_of_run on every verdict, and the
    Lyndon roots it starts from are the rotation extremes of each period block."""
    rep = verify_handle_properties(word)
    expected = per_run_report(word, rep.runs)
    got = {key: getattr(rep, key) for key in expected} | {"handle_sizes": rep.handle_sizes.tolist()}
    assert got == expected, word.text[:60]
    for v, x, y in zip(*lyndon_roots(word)):
        ext = rotation_extremes(word.factor(v.i, v.i + v.p - 1))
        assert (x - v.i + 1, y - v.i + 1) == (ext.min_offset, ext.max_offset), (word.text[:60], v)
    return rep


class TestExamples:
    def test_unary_run_takes_every_slot(self):
        h = handles_of_run(w("aaaa"), Run(1, 4, 1))
        assert h.positions == (1, 2, 3)
        assert h.case == "a"

    def test_alternating_word(self):
        h = handles_of_run(w("abababab"), Run(1, 8, 2))
        assert h.positions == (2, 3, 4, 5, 6)
        assert h.case == "b"

    def test_empty_handle(self):
        # both extreme rotations of "abba" occur just once inside the run
        h = handles_of_run(w("abbaabba"), Run(1, 8, 4))
        assert h.positions == ()
        assert h.case == "b"

    def test_period_three_run(self):
        h = handles_of_run(w("aabaabaa"), Run(1, 8, 3))
        assert h.positions == (3, 5)
        assert h.case == "b"

    def test_invalid_run_rejected(self):
        with pytest.raises(ValueError):
            handles_of_run(w("aabaabaa"), Run(1, 8, 4))

    def test_positions_must_stay_inside_the_run(self):
        with pytest.raises(ValueError):
            HandleSet(owner=Run(2, 5, 1), positions=(5,), case="a")
        with pytest.raises(ValueError):
            HandleSet(owner=Run(2, 5, 1), positions=(3, 3), case="a")


class TestAgainstOracle:
    """handles_of_run, which compares rotations letter by letter, against the
    slots the batch suite derives from its Lyndon roots."""

    def test_exhaustive_binary_up_to_11(self):
        for length in range(2, 12):
            for bits in itertools.product("ab", repeat=length - 1):
                assert_slots_match_batch(w("a" + "".join(bits), "ab"))

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abc", min_size=2, max_size=150))
    def test_random_ternary(self, text):
        assert_slots_match_batch(w(text))


class TestPropertySuite:
    def test_report_on_unary_word(self):
        rep = verify_handle_properties(w("aaaa"))
        assert (rep.A, rep.B) == (3, 0)
        assert rep.all_ok

    def test_report_fields(self):
        rep = verify_handle_properties(w("aabaabaa"))
        assert (rep.n, rep.rho, rep.A, rep.B) == (8, 4, 3, 2)
        assert rep.disjoint and rep.case_a_iff_p1 and rep.sum_bound_ok
        assert rep.size_bound_failures == ()
        assert rep.handle_sizes.tolist() == [1, 2, 1, 1]
        assert rep.handle_sizes.dtype == np.int64 and not rep.handle_sizes.flags.writeable
        assert rep.all_ok

    def test_json_export_shape(self):
        d = verify_handle_properties(w("aabaabaa")).as_json_dict()
        assert set(d) == {"n", "rho", "A", "B", "disjoint", "lemma1_failures", "case_a_iff_p1"}
        assert d["lemma1_failures"] == []
        assert (d["A"], d["B"]) == (3, 2)

    def test_empty_word(self):
        rep = verify_handle_properties(w(""))
        assert rep.rho == 0 and rep.all_ok

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab", min_size=2, max_size=120))
    def test_all_checks_hold_binary(self, text):
        rep = verify_handle_properties(w(text, "ab"))
        assert rep.all_ok

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abc", min_size=2, max_size=150))
    def test_all_checks_hold_ternary(self, text):
        rep = verify_handle_properties(w(text))
        assert rep.all_ok

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="ab", min_size=2, max_size=100))
    def test_disjointness_rechecked_pairwise(self, text):
        word = w(text, "ab")
        handles = [handles_of_run(word, run) for run in find_runs(word)]
        for a, b in itertools.combinations(handles, 2):
            assert not set(a.positions) & set(b.positions)

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="ab", min_size=2, max_size=100))
    def test_size_bounds_restated(self, text):
        # restate both branch inequalities directly from run data
        word = w(text, "ab")
        for run in find_runs(word):
            size = handles_of_run(word, run).size
            if run.p == 1:
                assert run.exponent == size + 1
            else:
                e = run.exponent
                ceil_e = -(-run.length // run.p)
                floor_e = run.length // run.p
                assert ceil_e <= size / 2 + 3
                assert size >= 2 * (floor_e - 2)
                assert floor_e <= e < floor_e + 1


class TestBatchMatchesPerRun:
    def test_every_binary_word_up_to_12(self):
        for length in range(2, 13):
            for bits in itertools.product("ab", repeat=length):
                assert_batch_matches_per_run(w("".join(bits), "ab"))

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abc", min_size=2, max_size=150))
    def test_random_ternary(self, text):
        assert_batch_matches_per_run(w(text))

    def test_long_random_words_take_the_arrays_branch(self):
        rng = random.Random(13)
        for _ in range(12):
            alphabet = "abcd"[: rng.randint(1, 4)]
            text = "".join(rng.choices(alphabet, k=rng.randint(150, 3000)))
            assert_batch_matches_per_run(w(text, "abcd"))

    def test_member_6(self):
        assert assert_batch_matches_per_run(run_rich_word(6)).all_ok


class TestBadRuns:
    BAD = [
        ("aabaabaa", Run(1, 8, 4), "claims period 4"),
        ("aaabaa", Run(2, 3, 1), "not left-maximal"),
        ("abababab", Run(1, 8, 4), "period 2"),
        ("a" * 12, Run(1, 12, 6), "period 1"),
    ]

    @pytest.mark.parametrize("text, run, message", BAD)
    def test_every_entry_point_rejects(self, monkeypatch, text, run, message):
        word = w(text)
        runs = RunSet.from_runs(list(find_runs(word)) + [run])
        enumerate_as(monkeypatch, runs)
        with pytest.raises(ValueError, match=message):
            verify_handle_properties(word)
        with pytest.raises(ValueError, match=message):
            validate_runs(word, runs)
        with pytest.raises(ValueError, match=message):
            validate_run(word, run)

    def test_run_listed_twice_is_not_disjoint(self, monkeypatch):
        # aaaa with its run listed three times has handle mass 9, more than its n - 1 = 3 slots.
        for text, extra in (("aabaabaa", [Run(1, 8, 3)]), ("aaaa", [Run(1, 4, 1)] * 2)):
            word = w(text)
            runs = RunSet.from_runs(list(find_runs(word)) + extra)
            with monkeypatch.context() as patch:
                enumerate_as(patch, runs)
                rep = verify_handle_properties(word)
            assert rep.disjoint is False
            assert not rep.all_ok


class TestAtScale:
    @pytest.mark.parametrize("member, a_mass, b_mass", [(7, 21_783, 56_999), (8, 82_587, 216_118)])
    def test_family_member(self, member, a_mass, b_mass):
        rep = verify_handle_properties(run_rich_word(member))
        assert (rep.A, rep.B) == (a_mass, b_mass)
        assert rep.all_ok

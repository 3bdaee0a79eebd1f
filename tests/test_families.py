"""Family generation: built-in members, length prediction, spec files."""

import pytest
from hypothesis import given, settings, strategies as st

from runexp.families import (
    FamilySpec,
    builtin_family,
    generate_member,
    load_family,
    predicted_length,
    run_rich_word,
)
from runexp.reference import MAIN_FAMILY_REFERENCE
from runexp.words import Morphism, word_from_text


class TestBuiltinFamily:
    def test_spec_is_well_formed(self):
        fam = builtin_family()
        assert fam.inner.is_endomorphism()
        assert fam.outer.source_alphabet == fam.inner.source_alphabet
        assert fam.seed.text == "a"

    def test_first_member(self):
        word = run_rich_word(1)
        assert len(word) == 31
        assert word.alphabet == frozenset("01")

    @pytest.mark.parametrize("ref", MAIN_FAMILY_REFERENCE[:6], ids=lambda r: str(r.index))
    def test_lengths_match_published_values(self, ref):
        assert len(run_rich_word(ref.index)) == ref.n

    @pytest.mark.parametrize("ref", MAIN_FAMILY_REFERENCE, ids=lambda r: str(r.index))
    def test_predicted_lengths_match_published_values(self, ref):
        # cheap check covering all ten indices without generating megabytes
        assert predicted_length(builtin_family(), ref.index) == ref.n

    def test_index_bounds(self):
        # one index rule for every family: i >= 0, member 0 is the coded seed
        assert run_rich_word(0).text == "01011"
        with pytest.raises(ValueError, match=">= 0"):
            run_rich_word(-1)

    def test_member_past_sys_maxsize_refused(self):
        # the inner word passes sys.maxsize letters after about 33 steps
        with pytest.raises(ValueError, match="run-rich:100000 has more than"):
            predicted_length(builtin_family(), 100_000)


class TestFamilySpecValidation:
    def test_inner_must_be_endomorphism(self):
        with pytest.raises(ValueError, match="endomorphism"):
            FamilySpec(
                name="bad",
                inner=Morphism({"a": "ab"}),
                outer=Morphism({"a": "0"}),
                seed=word_from_text("a", "a"),
            )

    def test_outer_alphabet_must_match(self):
        with pytest.raises(ValueError, match="outer"):
            FamilySpec(
                name="bad",
                inner=Morphism({"a": "aa"}),
                outer=Morphism({"b": "0"}),
                seed=word_from_text("a", "a"),
            )

    def test_seed_must_fit_inner_alphabet(self):
        with pytest.raises(ValueError, match="seed"):
            FamilySpec(
                name="bad",
                inner=Morphism({"a": "aa"}),
                outer=Morphism({"a": "0"}),
                seed=word_from_text("x", "x"),
            )

    def test_generate_rejects_negative_index(self):
        with pytest.raises(ValueError):
            generate_member(builtin_family(), -1)


simple_rules = st.dictionaries(
    keys=st.sampled_from("ab"),
    values=st.text(alphabet="ab", min_size=1, max_size=3),
    min_size=2,
    max_size=2,
)


@settings(max_examples=150, deadline=None)
@given(simple_rules, st.text(alphabet="ab", min_size=1, max_size=3), st.integers(0, 6))
def test_predicted_length_matches_generation(rules, seed_text, i):
    spec = FamilySpec(
        name="random",
        inner=Morphism(rules),
        outer=Morphism({"a": "xy", "b": "z"}),
        seed=word_from_text(seed_text, "ab"),
    )
    assert len(generate_member(spec, i)) == predicted_length(spec, i)


class TestFamilyFiles:
    def test_fibonacci_example(self, tmp_path):
        path = tmp_path / "fib.fam"
        path.write_text("seed = a\n[inner]\na -> ab\nb -> a\n")
        spec = load_family(path)
        assert spec.name == "fib"
        # omitted [outer] means the identity coding
        assert spec.outer.image_of("a") == "a"
        assert generate_member(spec, 5).text == "abaababaabaab"

    def test_file_matching_builtin_generates_the_same_words(self, tmp_path):
        path = tmp_path / "main.fam"
        path.write_text(
            "name = main\n"
            "seed = a\n"
            "[inner]\n"
            "a -> baaba\n"
            "b -> ca\n"
            "c -> bca\n"
            "[outer]\n"
            "a -> 01011\n"
            "b -> 01001011\n"
            "c -> 01001011\n"
        )
        spec = load_family(path)
        for i in (1, 2, 3):
            assert generate_member(spec, i) == run_rich_word(i)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "f.fam"
        path.write_text("# header\n\nseed = ab\n[inner]\n# rules\na -> ab\nb -> a\n")
        assert load_family(path).seed.text == "ab"

    @pytest.mark.parametrize(
        "content,message",
        [
            ("seed = a\n[oops]\na -> b\n", "unknown section"),
            ("seed = a\na -> b\n", "outside any section"),
            ("seed = a\n[inner]\na -> ab\na -> b\n", "duplicate rule"),
            ("[inner]\na -> a\n", "missing seed"),
            ("seed = a\n", "missing \\[inner\\]"),
            ("seed = a\nseed = b\n[inner]\na -> a\n", "duplicate seed"),
            ("seed =\n[inner]\na -> a\n", "empty seed"),
            ("mode = fast\nseed = a\n[inner]\na -> a\n", "unknown key"),
            ("seed = a\n[inner]\nab -> a\n", "single symbol"),
            ("seed = ax\n[inner]\na -> a\n", "position 2"),
            ("seed = a\n[inner]\na -> a\n[outer]\na -> 0 1\n", "non-printable letter ' '"),
        ],
    )
    def test_malformed_files(self, tmp_path, content, message):
        path = tmp_path / "bad.fam"
        path.write_text(content)
        with pytest.raises(ValueError, match=message):
            load_family(path)

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.fam"
        path.write_text("seed = a\n[inner]\na -> ab\nbroken line\n")
        with pytest.raises(ValueError, match=":4:"):
            load_family(path)

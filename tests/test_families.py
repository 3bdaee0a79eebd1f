"""Family generation: built-in members, the squaring builder, length prediction, spec files."""

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
from runexp.words import Morphism, apply_morphism, word_from_text


def stepwise_member(spec, i):
    """Test oracle: the inner morphism applied i times, one step at a time,
    then the outer coding."""
    w = spec.seed
    for _ in range(i):
        w = apply_morphism(spec.inner, w)
    return apply_morphism(spec.outer, w)


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

    @pytest.mark.parametrize("index", range(10))
    def test_member_equals_stepwise_iteration(self, index):
        assert run_rich_word(index) == stepwise_member(builtin_family(), index)

    @pytest.mark.parametrize("index", range(11))
    def test_predicted_length_is_the_generated_length(self, index):
        assert predicted_length(builtin_family(), index) == len(run_rich_word(index))

    def test_member_past_sys_maxsize_refused(self):
        # the inner word passes sys.maxsize letters after about 33 steps
        with pytest.raises(ValueError, match="run-rich:100000 has more than"):
            predicted_length(builtin_family(), 100_000)

    @pytest.mark.parametrize("index, shown", [
        (10**4298, "run-rich:[4,299 digits] has more than"),
        (-(10**4298), "must be >= 0, got -[4,299 digits]"),
    ])
    def test_huge_index_named_by_its_digit_count(self, index, shown):
        with pytest.raises(ValueError) as refusal:
            predicted_length(builtin_family(), index)
        assert shown in str(refusal.value)
        assert len(str(refusal.value)) < 300


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


seed_texts = st.text(alphabet="ab", min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(simple_rules, seed_texts, st.integers(0, 6))
def test_predicted_length_matches_generation(rules, seed_text, i):
    spec = FamilySpec(
        name="random",
        inner=Morphism(rules),
        outer=Morphism({"a": "xy", "b": "z"}),
        seed=word_from_text(seed_text, "ab"),
    )
    assert len(generate_member(spec, i)) == predicted_length(spec, i)


def spec_family(inner, outer, seed):
    return FamilySpec(name="spec", inner=Morphism(inner), outer=Morphism(outer),
                      seed=word_from_text(seed, "ab"))


IDENTITY = {"a": "a", "b": "b"}


class TestSquaringBuilder:
    """generate_member squares a table of inner images instead of stepping i times."""

    @settings(max_examples=150, deadline=None)
    @given(simple_rules, seed_texts, st.integers(0, 8))
    def test_equals_stepwise_iteration(self, rules, seed_text, i):
        spec = spec_family(rules, {"a": "xy", "b": "z"}, seed_text)
        assert generate_member(spec, i) == stepwise_member(spec, i)

    @settings(max_examples=150, deadline=None)
    @given(simple_rules, seed_texts, st.integers(0, 4), st.integers(0, 4))
    def test_iteration_composes(self, rules, seed_text, j, k):
        # member j, taken as the seed and built k more steps, is member j + k
        spec = spec_family(rules, IDENTITY, seed_text)
        later = FamilySpec(name="later", inner=spec.inner, outer=spec.outer,
                           seed=generate_member(spec, j))
        assert generate_member(later, k) == generate_member(spec, j + k)

    @pytest.mark.parametrize("i, text", [
        (0, "a"),
        (1, "baaba"),
        (2, "cabaababaabacabaaba"),  # image(b) image(a) image(a) image(b) image(a)
    ], ids=["zero_iterations", "single_iteration", "two_iterations"])
    def test_builtin_inner_by_hand(self, i, text):
        spec = FamilySpec(name="inner", inner=builtin_family().inner,
                          outer=Morphism({"a": "a", "b": "b", "c": "c"}),
                          seed=word_from_text("a", "abc"))
        assert generate_member(spec, i).text == text

    @pytest.mark.parametrize("i, text", [(10**6, "a"), (10**8 + 1, "b")])
    def test_length_preserving_at_huge_indexes(self, i, text):
        assert generate_member(spec_family({"a": "b", "b": "a"}, IDENTITY, "a"), i).text == text

    def test_image_longer_than_the_member_is_never_built(self):
        # b's image under inner^(2^6) would have 2^64 letters, but no b occurs
        spec = spec_family({"a": "a", "b": "bb"}, IDENTITY, "a")
        assert generate_member(spec, 64).text == "a"

    def test_linear_growth(self):
        spec = spec_family({"a": "ab", "b": "b"}, IDENTITY, "a")
        assert generate_member(spec, 10**5).text == "a" + "b" * 10**5


class TestPredictedLength:
    """The letter-count matrix power against generation, over 60 steps."""

    def test_growing(self):
        # Fibonacci: the inner word after i steps has F(i + 2) letters.
        spec = spec_family({"a": "ab", "b": "a"}, {"a": "a", "b": "b"}, "a")
        fib = [1, 2]
        for i in range(61):
            assert predicted_length(spec, i) == fib[i]
            if fib[i] <= 10**5:
                assert len(generate_member(spec, i)) == fib[i]
            fib.append(fib[-1] + fib[-2])

    @pytest.mark.parametrize("inner, outer, seed", [
        ({"a": "ab", "b": "b"}, {"a": "xyz", "b": "w"}, "a"),  # linear: i + 1 inner letters
        ({"a": "b", "b": "a"}, {"a": "xy", "b": "z"}, "aab"),  # length-preserving
    ])
    def test_not_growing_exponentially(self, inner, outer, seed):
        spec = spec_family(inner, outer, seed)
        for i in range(61):
            assert predicted_length(spec, i) == len(generate_member(spec, i))

    def test_refused_at_the_first_index_past_sys_maxsize(self):
        # doubling: 2^62 inner letters fit, 2^63 do not
        spec = spec_family({"a": "aa", "b": "b"}, {"a": "a", "b": "b"}, "a")
        assert predicted_length(spec, 62) == 2**62
        with pytest.raises(ValueError, match="spec:63 has more than"):
            predicted_length(spec, 63)


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
            ("seed = ax\n[inner]\na -> a\n", ":1: letter 'x' at position 2"),
            ("# seed on line 3\n\nseed = ax\n[inner]\na -> a\n", ":3: letter 'x' at position 2"),
            ("seed = a\n[inner]\na -> a\n[outer]\na -> 0 1\n", ":5: rule for 'a' contains ' ', outside the letters"),
            ("seed = a\n[inner]\na -> a b\n", ":3: rule for 'a' contains ' '"),
            ("seed = a\n[inner]\n\x7f -> a\n", ":3: rule source must be a single symbol"),
            ("name = x\nseed = a\nname = y\n[inner]\na -> a\n", ":3: duplicate name line"),
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

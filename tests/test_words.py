"""Word and morphism core: construction, application, iteration, file I/O."""

import pytest
from hypothesis import given, strategies as st

from runexp.families import FamilySpec, generate_member
from runexp.words import (
    Morphism,
    Word,
    apply_morphism,
    parse_rule_line,
    power,
    read_word_file,
    word_from_text,
    write_word_file,
)

INNER = Morphism({"a": "baaba", "b": "ca", "c": "bca"})
OUTER = Morphism({"a": "01011", "b": "01001011", "c": "01001011"})


class TestWord:
    def test_basic_construction(self):
        w = word_from_text("abaab", "ab")
        assert len(w) == 5
        assert w.text == "abaab"

    def test_empty_word(self):
        w = word_from_text("", "ab")
        assert len(w) == 0
        assert w.text == ""

    def test_rejects_letter_outside_alphabet(self):
        with pytest.raises(ValueError, match="position 3"):
            word_from_text("abc", "ab")

    def test_factor_is_one_based_inclusive(self):
        w = word_from_text("abcde", "abcde")
        assert w.factor(2, 4).text == "bcd"
        assert w.factor(1, 5).text == "abcde"
        assert w.factor(3, 2).text == ""

    def test_factor_out_of_range(self):
        w = word_from_text("abc", "abc")
        with pytest.raises(ValueError):
            w.factor(0, 2)
        with pytest.raises(ValueError):
            w.factor(1, 4)

    def test_immutable(self):
        w = word_from_text("ab", "ab")
        with pytest.raises(AttributeError):
            w.data = b"xy"

    def test_equality_and_hash(self):
        a = word_from_text("aba", "ab")
        b = word_from_text("aba", "ab")
        assert a == b
        assert hash(a) == hash(b)
        assert a != word_from_text("aba", "abc")


class TestMorphism:
    def test_images(self):
        assert INNER.image_of("a") == "baaba"
        assert OUTER.image_of("b") == "01001011"

    def test_missing_rule(self):
        with pytest.raises(ValueError, match="'z'"):
            INNER.image_of("z")

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            Morphism({"a": ""})

    def test_endomorphism_detection(self):
        assert INNER.is_endomorphism()
        assert not OUTER.is_endomorphism()

    def test_apply(self):
        assert apply_morphism(INNER, word_from_text("a", "abc")).text == "baaba"
        assert apply_morphism(OUTER, word_from_text("b", "abc")).text == "01001011"

    def test_apply_to_empty_word(self):
        assert apply_morphism(INNER, word_from_text("", "abc")).text == ""

    def test_apply_missing_letter(self):
        with pytest.raises(ValueError, match="'d'"):
            apply_morphism(INNER, word_from_text("ad", "ad"))


class TestIteration:
    """Iterating a morphism is done by generate_member; its refusals stay."""

    IDENTITY = Morphism({"a": "a", "b": "b", "c": "c"})

    def test_negative_count_rejected(self):
        spec = FamilySpec(name="inner", inner=INNER, outer=self.IDENTITY,
                          seed=word_from_text("a", "abc"))
        with pytest.raises(ValueError):
            generate_member(spec, -1)

    def test_non_endomorphism_rejected(self):
        with pytest.raises(ValueError, match="endomorphism"):
            FamilySpec(name="outer", inner=OUTER, outer=Morphism({"0": "0", "1": "1"}),
                       seed=word_from_text("a", "abc"))

    def test_seed_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            FamilySpec(name="inner", inner=INNER, outer=self.IDENTITY,
                       seed=word_from_text("x", "x"))


class TestPower:
    def test_examples(self):
        assert power(word_from_text("ab", "ab"), 3).text == "ababab"
        assert power(word_from_text("aba", "ab"), 2).text == "abaaba"

    def test_identity(self):
        w = word_from_text("abc", "abc")
        assert power(w, 1) == w

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            power(word_from_text("ab", "ab"), 0)


word_texts = st.text(alphabet="abc", max_size=40)


@given(word_texts, word_texts)
def test_morphism_distributes_over_concatenation(u, v):
    wu = word_from_text(u, "abc")
    wv = word_from_text(v, "abc")
    joined = apply_morphism(INNER, word_from_text(u + v, "abc"))
    assert joined.data == apply_morphism(INNER, wu).data + apply_morphism(INNER, wv).data
    assert len(joined) == len(apply_morphism(INNER, wu)) + len(apply_morphism(INNER, wv))


class TestWordFiles:
    def test_roundtrip(self, tmp_path):
        w = word_from_text("abbab", "ab")
        path = tmp_path / "w.txt"
        write_word_file(w, path)
        back = read_word_file(path)
        assert back.data == w.data

    def test_trailing_newline_ignored(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_bytes(b"abab\n")
        assert read_word_file(path).text == "abab"

    def test_no_trailing_newline(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_bytes(b"abab")
        assert read_word_file(path).text == "abab"

    def test_interior_whitespace_rejected(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_bytes(b"ab ab\n")
        with pytest.raises(ValueError, match="position 3"):
            read_word_file(path)

    @pytest.mark.parametrize("pos", [1, 5000, 10_000])
    @pytest.mark.parametrize("bad", [b"\t", b"\x7f", b"\xff"])
    def test_bad_byte_named_with_its_position(self, tmp_path, pos, bad):
        raw = bytearray(b"ab" * 5000)
        raw[pos - 1 : pos] = bad
        path = tmp_path / "w.txt"
        path.write_bytes(bytes(raw) + b"\n")
        expected = f"{path}: byte {bad[0]:#04x} at position {pos} is not allowed in a word file"
        with pytest.raises(ValueError) as err:
            read_word_file(path)
        assert str(err.value) == expected


class TestMorphismFiles:
    def test_rule_line(self):
        assert parse_rule_line("a -> baaba") == ("a", "baaba")

    def test_rule_line_errors(self):
        with pytest.raises(ValueError):
            parse_rule_line("a = baaba")
        with pytest.raises(ValueError):
            parse_rule_line("ab -> x")
        with pytest.raises(ValueError):
            parse_rule_line("a -> ")

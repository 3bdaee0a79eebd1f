"""Words over explicit alphabets, morphisms, and their file formats.

Words and morphisms are immutable values: they can be shared freely
between threads or processes. Positions in diagnostics are 1-based.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
    "Word",
    "Morphism",
    "word_from_text",
    "apply_morphism",
    "power",
    "read_word_file",
    "write_word_file",
]

# Symbols are single printable ASCII characters other than space (0x21..0x7E),
# the letters a word file may hold.
_FILE_BYTES = frozenset(range(0x21, 0x7F))
_PRINTABLE = frozenset(map(chr, _FILE_BYTES))


def letters_of(data: bytes) -> bytes:
    """The distinct bytes of ``data`` in increasing order, by two ``bytes.translate`` deletions."""
    every = bytes(range(256))
    return every.translate(None, every.translate(None, data))


def _as_alphabet(symbols: Iterable[str]) -> frozenset[str]:
    alpha = frozenset(symbols)
    for sym in alpha:
        if len(sym) != 1 or sym not in _PRINTABLE:
            raise ValueError(
                f"alphabet symbols must be single printable ASCII characters, got {sym!r}"
            )
    return alpha


class Word:
    """An immutable word over an explicit alphabet.

    The letter sequence is stored as ASCII bytes. Equality and hashing
    consider both the letters and the alphabet.
    """

    __slots__ = ("data", "alphabet")

    data: bytes
    alphabet: frozenset[str]

    def __init__(self, data: bytes | str, alphabet: Iterable[str]):
        alpha = _as_alphabet(alphabet)
        if isinstance(data, str):
            data = data.encode("ascii")
        allowed = "".join(alpha).encode("ascii")
        if data.translate(None, allowed):
            # Locate the first offender only on the failure path.
            for pos, byte in enumerate(data, start=1):
                if byte not in allowed:
                    raise ValueError(
                        f"letter {chr(byte)!r} at position {pos} is not in the alphabet "
                        f"{{{', '.join(sorted(alpha))}}}"
                    )
        object.__setattr__(self, "data", bytes(data))
        object.__setattr__(self, "alphabet", alpha)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def text(self) -> str:
        return self.data.decode("ascii")

    def factor(self, i: int, j: int) -> "Word":
        """Return the factor at 1-based inclusive positions ``i..j``."""
        if not (1 <= i and j <= len(self.data) and i <= j + 1):
            raise ValueError(f"factor positions [{i}..{j}] out of range for length {len(self.data)}")
        return Word(self.data[i - 1 : j], self.alphabet)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.data == other.data and self.alphabet == other.alphabet

    def __hash__(self) -> int:
        return hash((self.data, self.alphabet))

    def __repr__(self) -> str:
        shown = self.text if len(self.data) <= 40 else self.text[:37] + "..."
        return f"Word({shown!r}, n={len(self.data)})"


def _check_rule(sym: str, image: str) -> None:
    """Refuse a rule whose source is not one letter or whose image is empty or
    holds a character other than a letter (ASCII 0x21..0x7E)."""
    if len(sym) != 1 or sym not in _PRINTABLE:
        raise ValueError(f"rule source must be a single symbol in ASCII 0x21..0x7E, got {sym!r}")
    if not image:
        raise ValueError(f"rule for {sym!r} has an empty image")
    for ch in image:
        if ch not in _PRINTABLE:
            raise ValueError(f"rule for {sym!r} contains {ch!r}, outside the letters 0x21..0x7E")


class Morphism:
    """A letter-to-word substitution map, extended to words by concatenation.

    Every source symbol has exactly one rule and every image is nonempty.
    """

    __slots__ = ("rules", "source_alphabet", "target_alphabet", "_table")

    def __init__(self, rules: Mapping[str, str]):
        if not rules:
            raise ValueError("a morphism needs at least one rule")
        clean: dict[str, str] = {}
        target: set[str] = set()
        for sym, image in rules.items():
            _check_rule(sym, image)
            clean[sym] = image
            target.update(image)
        table: list[bytes | None] = [None] * 256
        for sym, image in clean.items():
            table[ord(sym)] = image.encode("ascii")
        object.__setattr__(self, "rules", dict(clean))
        object.__setattr__(self, "source_alphabet", frozenset(clean))
        object.__setattr__(self, "target_alphabet", frozenset(target))
        object.__setattr__(self, "_table", table)

    def __setattr__(self, name, value):
        raise AttributeError("Morphism is immutable")

    def image_of(self, sym: str) -> str:
        try:
            return self.rules[sym]
        except KeyError:
            raise ValueError(f"no rule for letter {sym!r}") from None

    def is_endomorphism(self) -> bool:
        """True when every image stays inside the source alphabet."""
        return self.target_alphabet <= self.source_alphabet

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return self.rules == other.rules

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.rules.items())))

    def __repr__(self) -> str:
        rules = ", ".join(f"{s}->{img}" for s, img in sorted(self.rules.items()))
        return f"Morphism({rules})"


def word_from_text(text: str, alphabet: Iterable[str]) -> Word:
    """Build a Word from ``text``, rejecting letters outside ``alphabet``.

    >>> len(word_from_text("abaab", {"a", "b"}))
    5
    """
    return Word(text, alphabet)


def apply_morphism(m: Morphism, w: Word) -> Word:
    """Apply ``m`` letterwise and concatenate the images."""
    missing = w.data.translate(None, "".join(m.source_alphabet).encode("ascii"))
    if missing:
        sym = chr(min(missing))
        raise ValueError(f"no rule for letter {sym!r}")
    table = m._table
    data = b"".join(map(table.__getitem__, w.data))
    return Word(data, m.target_alphabet)


def power(w: Word, k: int) -> Word:
    """Concatenate ``k`` copies of ``w``; ``k`` must be at least 1."""
    if k < 1:
        raise ValueError(f"power exponent must be >= 1, got {k}")
    return Word(w.data * k, w.alphabet)


def read_word_file(path) -> Word:
    """Read a word from a plain-text file.

    A single trailing newline is ignored; any other whitespace is an
    error. The alphabet is the set of letters the file holds.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw.endswith(b"\n"):
        raw = raw[:-1]
    distinct = letters_of(raw)
    if not _FILE_BYTES.issuperset(distinct):
        # Locate the first offender only on the failure path.
        pos, byte = next((pos, b) for pos, b in enumerate(raw, start=1) if b not in _FILE_BYTES)
        raise ValueError(f"{path}: byte {byte:#04x} at position {pos} is not allowed in a word file")
    return Word(raw, distinct.decode("ascii"))


def write_word_file(w: Word, path) -> None:
    with open(path, "wb") as f:
        f.write(w.data)
        f.write(b"\n")


def parse_rule_line(line: str) -> tuple[str, str]:
    """Parse one ``X -> image`` rule line, checked as :class:`Morphism` checks rules."""
    if "->" not in line:
        raise ValueError(f"expected 'X -> image', got {line!r}")
    left, right = line.split("->", 1)
    sym, image = left.strip(), right.strip()
    _check_rule(sym, image)
    return sym, image

"""Words over explicit alphabets, morphisms, and their file formats.

Words and morphisms are frozen dataclasses: immutable values that pickle
and deep-copy, so they can be shared freely between threads or sent to
worker processes. Positions in diagnostics are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
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


@dataclass(frozen=True, slots=True, repr=False)
class Word:
    """An immutable word over an explicit alphabet.

    The letter sequence is stored as ASCII bytes (``data`` may be given as
    a str). Equality and hashing consider both the letters and the alphabet.
    """

    data: bytes
    alphabet: frozenset[str]

    def __post_init__(self):
        alpha = _as_alphabet(self.alphabet)
        data = self.data.encode("ascii") if isinstance(self.data, str) else self.data
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


@dataclass(frozen=True, slots=True, repr=False)
class Morphism:
    """A letter-to-word substitution map, extended to words by concatenation.

    Every source symbol has exactly one rule and every image is nonempty.
    ``images`` maps each source letter's byte to its image as bytes. Both
    tables are read-only views.
    """

    rules: Mapping[str, str]
    source_alphabet: frozenset[str] = field(init=False)
    target_alphabet: frozenset[str] = field(init=False)
    images: Mapping[int, bytes] = field(init=False)

    def __post_init__(self):
        if not self.rules:
            raise ValueError("a morphism needs at least one rule")
        rules = dict(self.rules)
        for sym, image in rules.items():
            _check_rule(sym, image)
        object.__setattr__(self, "rules", MappingProxyType(rules))
        object.__setattr__(self, "source_alphabet", frozenset(rules))
        object.__setattr__(self, "target_alphabet", frozenset("".join(rules.values())))
        images = {ord(a): image.encode("ascii") for a, image in rules.items()}
        object.__setattr__(self, "images", MappingProxyType(images))

    def __reduce__(self):
        # Read-only views do not pickle: copies are rebuilt from the rules.
        return (Morphism, (dict(self.rules),))

    def image_of(self, sym: str) -> str:
        try:
            return self.rules[sym]
        except KeyError:
            raise ValueError(f"no rule for letter {sym!r}") from None

    def is_endomorphism(self) -> bool:
        """True when every image stays inside the source alphabet."""
        return self.target_alphabet <= self.source_alphabet

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
    missing = w.data.translate(None, bytes(m.images))
    if missing:
        raise ValueError(f"no rule for letter {chr(min(missing))!r}")
    return Word(b"".join(map(m.images.__getitem__, w.data)), m.target_alphabet)


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

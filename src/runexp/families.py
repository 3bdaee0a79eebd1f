"""Morphism-generated word families.

A family is an inner endomorphism iterated on a seed, followed by one
application of an outer coding. The built-in "run-rich" family (inner
a -> baaba, b -> ca, c -> bca; outer a -> 01011, b -> c -> 01001011;
seed "a") produces binary words whose exponent-sum density climbs with
the index. External families load from small spec files so other
constructions can be analyzed without code changes.

Member i takes O(log i) squarings, not i steps: a table of inner images
is squared once per bit of i, and the seed takes each power whose bit is
set, in any order, since powers of one morphism commute. An image longer
than the member is dropped unbuilt (generate_member says why).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cache
from typing import Mapping

from .words import Morphism, Word, parse_rule_line, word_from_text

__all__ = [
    "FamilySpec",
    "builtin_family",
    "run_rich_word",
    "generate_member",
    "predicted_length",
    "load_family",
]

_INNER_RULES = {"a": "baaba", "b": "ca", "c": "bca"}
_OUTER_RULES = {"a": "01011", "b": "01001011", "c": "01001011"}


@dataclass(frozen=True)
class FamilySpec:
    """Inner endomorphism + outer coding + seed."""

    name: str
    inner: Morphism
    outer: Morphism
    seed: Word

    def __post_init__(self):
        if not self.inner.is_endomorphism():
            extra = "".join(sorted(self.inner.target_alphabet - self.inner.source_alphabet))
            raise ValueError(f"inner morphism is not an endomorphism: letters {extra!r} lack rules")
        if self.outer.source_alphabet != self.inner.source_alphabet:
            raise ValueError("outer morphism must cover exactly the inner alphabet")
        if not self.seed.alphabet <= self.inner.source_alphabet:
            raise ValueError("seed uses letters outside the inner alphabet")


@cache
def builtin_family() -> FamilySpec:
    return FamilySpec(
        name="run-rich",
        inner=Morphism(_INNER_RULES),
        outer=Morphism(_OUTER_RULES),
        seed=word_from_text("a", "abc"),
    )


def run_rich_word(i: int) -> Word:
    """Member i of the built-in family, a binary word; lengths grow
    roughly 3.8x per index."""
    return generate_member(builtin_family(), i)


def count_text(value: int, grouping: str = ",") -> str:
    """``value`` in digits (``grouping`` "," adds thousands separators), or,
    past 30 digits, its digit count, so that a message stays one short line
    however large its numbers."""
    size = abs(value)
    if size < 10**30:
        return format(value, grouping)
    digits = int((size.bit_length() - 1) * math.log10(2)) + 1
    while size >= 10**digits:
        digits += 1
    while size < 10 ** (digits - 1):
        digits -= 1
    return f"{'-' if value < 0 else ''}[{digits:,} digits]"


def predicted_length(spec: FamilySpec, i: int) -> int:
    """Length of member i from letter counts alone, no word materialized.

    The seed's letter counts times the i-th power of the inner rules'
    letter-count matrix (entry [a][b]: the b's in the image of a), by
    repeated squaring in O(log i * alphabet^3), weighed by outer image
    lengths. Entries are capped at sys.maxsize + 1; all are >= 0, so a
    capped product is exact below the cap. Images are nonempty, so the
    inner word never shrinks: once it passes sys.maxsize letters after
    some of the i steps, no bytes object can hold the member and the index
    is refused.
    """
    index = count_text(i, grouping="")
    if i < 0:
        raise ValueError(f"family index must be >= 0, got {index}")
    cap = sys.maxsize + 1
    letters = sorted(spec.inner.source_alphabet)

    def product(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
        return [[min(cap, sum(a * b for a, b in zip(row, col))) for col in zip(*y)] for row in x]

    counts = [[spec.seed.text.count(a) for a in letters]]
    step = [[spec.inner.image_of(a).count(b) for b in letters] for a in letters]
    for bit in reversed(bin(i)[2:]):
        if bit == "1":
            counts = product(counts, step)
            if sum(counts[0]) > sys.maxsize:  # the inner word after at most i steps
                raise ValueError(f"{spec.name}:{index} has more than {sys.maxsize:,} letters")
        step = product(step, step)
    return sum(c * len(spec.outer.image_of(a)) for a, c in zip(letters, counts[0]))


def _squared(table: Mapping[int, bytes | None], limit: int) -> dict[int, bytes | None]:
    """The images of the squared morphism; None for those longer than ``limit``."""
    sizes = {a: limit + 1 if image is None else len(image) for a, image in table.items()}
    return {
        a: b"".join(map(table.__getitem__, image))
        if image is not None and sum(image.count(b) * size for b, size in sizes.items()) <= limit
        else None
        for a, image in table.items()
    }


def generate_member(spec: FamilySpec, i: int) -> Word:
    """inner^i on the seed, then the outer coding once.

    inner^i is inner^(2^k) for each bit k set in i, the table of those
    images squared once per bit; powers of one morphism commute, so their
    order does not matter. Images never shrink, so a squared image longer
    than the member's predicted length cannot occur in a word the power
    is applied to: it is dropped unbuilt, and so is every image holding
    it. A length other than the prediction aborts (mistyped rules).
    """
    predicted = predicted_length(spec, i)
    table = spec.inner.images
    expanded = spec.seed.data
    for k, bit in enumerate(reversed(bin(i)[2:])):
        if k:
            table = _squared(table, predicted)
        if bit == "1":
            expanded = b"".join(map(table.__getitem__, expanded))
    member = Word(b"".join(map(spec.outer.images.__getitem__, expanded)), spec.outer.target_alphabet)
    if len(member) != predicted:
        raise RuntimeError(
            f"internal error: family {spec.name!r} member {i} has length "
            f"{len(member)}, predicted {predicted}"
        )
    return member


def load_family(path) -> FamilySpec:
    """Parse a family spec file.

    The format is line-oriented: `[inner]` and `[outer]` sections hold
    `X -> image` rules, `seed = <word>` and an optional `name = <label>`
    may appear anywhere, blank lines and `#` comments are skipped. A
    missing or empty [outer] section means the identity coding.
    """
    label = os.fspath(path)
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    rules: dict[str, dict[str, str]] = {"inner": {}, "outer": {}}
    current: str | None = None
    values: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in rules:
                raise ValueError(f"{label}:{lineno}: unknown section [{section}]")
            current = section
            continue
        if "=" in line and "->" not in line:
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in ("seed", "name"):
                raise ValueError(f"{label}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{label}:{lineno}: duplicate {key} line")
            if key == "seed" and not value:
                raise ValueError(f"{label}:{lineno}: empty seed")
            values[key] = value, lineno
            continue
        if current is None:
            raise ValueError(f"{label}:{lineno}: rule line outside any section")
        try:
            sym, image = parse_rule_line(line)
        except ValueError as exc:
            raise ValueError(f"{label}:{lineno}: {exc}") from None
        if sym in rules[current]:
            raise ValueError(f"{label}:{lineno}: duplicate rule for {sym!r} in [{current}]")
        rules[current][sym] = image
    if not rules["inner"]:
        raise ValueError(f"{label}: missing [inner] section")
    if "seed" not in values:
        raise ValueError(f"{label}: missing seed line")
    seed_text, seed_line = values["seed"]
    inner = Morphism(rules["inner"])
    outer = Morphism(rules["outer"]) if rules["outer"] else Morphism(
        {s: s for s in sorted(inner.source_alphabet)}
    )
    try:
        seed = word_from_text(seed_text, inner.source_alphabet)
    except ValueError as exc:
        raise ValueError(f"{label}:{seed_line}: {exc}") from None
    name, _ = values.get("name", ("", 0))
    base = os.path.splitext(os.path.basename(label))[0]
    try:
        return FamilySpec(name=name or base, inner=inner, outer=outer, seed=seed)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None

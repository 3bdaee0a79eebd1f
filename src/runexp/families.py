"""Morphism-generated word families.

A family is an inner endomorphism iterated on a seed, followed by one
application of an outer coding. The built-in "run-rich" family (inner
a -> baaba, b -> ca, c -> bca; outer a -> 01011, b -> c -> 01001011;
seed "a") produces binary words whose exponent-sum density climbs with
the index. External families load from small spec files so other
constructions can be analyzed without code changes.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache

from .words import Morphism, Word, apply_morphism, iterate_morphism, parse_rule_line, word_from_text

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


def predicted_length(spec: FamilySpec, i: int) -> int:
    """Length of member i from letter counts alone.

    Evolves the seed's letter counts through the inner rules i times,
    then weighs by outer image lengths; O(i * alphabet^2) with exact
    integers, no word is materialized. Images are nonempty, so the inner
    word never shrinks and the member is at least as long: once the inner
    word passes sys.maxsize letters no bytes object can hold the member,
    and the index is refused there instead of growing the counts further.
    """
    if i < 0:
        raise ValueError(f"family index must be >= 0, got {i}")
    counts = Counter(spec.seed.text)
    for _ in range(i):
        step: Counter[str] = Counter()
        for sym, c in counts.items():
            for target in spec.inner.image_of(sym):
                step[target] += c
        counts = step
        if counts.total() > sys.maxsize:
            raise ValueError(f"{spec.name}:{i} has more than {sys.maxsize:,} letters")
    return sum(c * len(spec.outer.image_of(sym)) for sym, c in counts.items())


def generate_member(spec: FamilySpec, i: int) -> Word:
    """inner^i on the seed, then the outer coding once.

    The length is predicted up front from letter counts; a mismatch
    with the generated word aborts, catching mistyped rules before any
    analysis runs on megabytes of garbage.
    """
    if i < 0:
        raise ValueError(f"family index must be >= 0, got {i}")
    predicted = predicted_length(spec, i)
    expanded = iterate_morphism(spec.inner, spec.seed, i)
    member = apply_morphism(spec.outer, expanded)
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
    seed_text: str | None = None
    name: str | None = None
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
            key = key.strip()
            value = value.strip()
            if key == "seed":
                if seed_text is not None:
                    raise ValueError(f"{label}:{lineno}: duplicate seed line")
                if not value:
                    raise ValueError(f"{label}:{lineno}: empty seed")
                seed_text = value
            elif key == "name":
                name = value
            else:
                raise ValueError(f"{label}:{lineno}: unknown key {key!r}")
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
    if seed_text is None:
        raise ValueError(f"{label}: missing seed line")
    inner = Morphism(rules["inner"])
    outer = Morphism(rules["outer"]) if rules["outer"] else Morphism(
        {s: s for s in sorted(inner.source_alphabet)}
    )
    base = os.path.splitext(os.path.basename(label))[0]
    try:
        seed = word_from_text(seed_text, inner.source_alphabet)
        return FamilySpec(name=name or base, inner=inner, outer=outer, seed=seed)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None

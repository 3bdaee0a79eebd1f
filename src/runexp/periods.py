"""Period and cyclic-rotation primitives.

Pure functions on immutable words; lexicographic order is the byte
order of the ASCII encoding. Rotation extremes are taken by definition,
as a test oracle; periods come from the linear-time prefix function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word

__all__ = [
    "RotationExtremes",
    "border_table",
    "shortest_period",
    "rotation_extremes",
]


def _prefix_function(data: bytes) -> list[int]:
    # entry k = longest proper border of data[:k+1]
    n = len(data)
    table = [0] * n
    k = 0
    for q in range(1, n):
        c = data[q]
        while k > 0 and data[k] != c:
            k = table[k - 1]
        if data[k] == c:
            k += 1
        table[q] = k
    return table


@dataclass(frozen=True)
class RotationExtremes:
    """Lexicographically minimal and maximal rotations of a word."""

    minimal: Word
    maximal: Word
    min_offset: int
    max_offset: int


def border_table(w: Word) -> list[int]:
    """Longest proper border of every prefix; entry ``i`` covers ``w[1..i+1]``.

    >>> border_table(Word("aaaa", {"a"}))
    [0, 1, 2, 3]
    """
    if len(w) == 0:
        raise ValueError("border table of the empty word is undefined")
    return _prefix_function(w.data)


def shortest_period(w: Word) -> int:
    """The smallest ``p`` with ``w[i] == w[i+p]`` for all valid ``i``."""
    if len(w) == 0:
        raise ValueError("the empty word has no period")
    return len(w) - _prefix_function(w.data)[-1]


def rotation_extremes(w: Word) -> RotationExtremes:
    """Minimal and maximal rotations of ``w``, found by comparing every rotation.

    Quadratic in ``len(w)``: a test oracle with no library or CLI caller.
    Ties (only in non-primitive words) resolve to the smallest offset.
    """
    if len(w) == 0:
        raise ValueError("the empty word has no rotations")

    def rotation(k: int) -> bytes:
        return w.data[k:] + w.data[:k]

    lo = min(range(len(w)), key=rotation)
    hi = max(range(len(w)), key=rotation)
    return RotationExtremes(
        minimal=Word(rotation(lo), w.alphabet),
        maximal=Word(rotation(hi), w.alphabet),
        min_offset=lo,
        max_offset=hi,
    )

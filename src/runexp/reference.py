"""Published reference measurements used as comparison fixtures.

Values are stored as the exact strings that were published; comparing
code parses them alongside exact computed rationals so no floating
point enters a verdict. The built-in family rows drive the table
reproduction command. The "x" (indices 1..9) and "y" (indices 4, 8,
..., 40) rows describe externally constructed families this package
cannot generate; they activate only when the corresponding words are
supplied as files.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "ReferenceRow",
    "MAIN_FAMILY_REFERENCE",
    "EXTERNAL_FAMILY_REFERENCE",
]


class ReferenceRow(NamedTuple):
    """One published row; rho_over_n is None where no count was published."""

    index: int
    n: int
    rho_over_n: str | None
    sigma: str
    sigma_over_n: str


MAIN_FAMILY_REFERENCE: tuple[ReferenceRow, ...] = (
    ReferenceRow(1, 31, None, "47.10", "1.5194"),
    ReferenceRow(2, 119, None, "222.26", "1.8677"),
    ReferenceRow(3, 461, None, "911.68", "1.9776"),
    ReferenceRow(4, 1751, None, "3533.34", "2.0179"),
    ReferenceRow(5, 6647, None, "13498.20", "2.0307"),
    ReferenceRow(6, 25205, None, "51264.37", "2.0339"),
    ReferenceRow(7, 95567, None, "194470.30", "2.0349"),
    ReferenceRow(8, 362327, None, "737393.11", "2.0352"),
    ReferenceRow(9, 1373693, None, "2795792.39", "2.0352"),
    ReferenceRow(10, 5208071, None, "10599765.15", "2.0353"),
)

EXTERNAL_FAMILY_REFERENCE: dict[str, tuple[ReferenceRow, ...]] = {
    "x": (
        ReferenceRow(1, 6, "0.3333", "4.00", "0.6667"),
        ReferenceRow(2, 27, "0.7037", "39.18", "1.4510"),
        ReferenceRow(3, 116, "0.8534", "209.70", "1.8078"),
        ReferenceRow(4, 493, "0.9047", "954.27", "1.9356"),
        ReferenceRow(5, 2090, "0.9206", "4130.66", "1.9764"),
        ReferenceRow(6, 8855, "0.9252", "17608.48", "1.9885"),
        ReferenceRow(7, 37512, "0.9266", "74723.85", "1.9920"),
        ReferenceRow(8, 158905, "0.9269", "316690.85", "1.9930"),
        ReferenceRow(9, 673134, "0.9270", "1341701.95", "1.9932"),
    ),
    "y": (
        ReferenceRow(4, 37, "0.7568", "57.98", "1.5671"),
        ReferenceRow(8, 125, "0.8640", "225.75", "1.8060"),
        ReferenceRow(12, 380, "0.9079", "726.66", "1.9123"),
        ReferenceRow(16, 1172, "0.9309", "2303.21", "1.9652"),
        ReferenceRow(20, 3609, "0.9396", "7165.93", "1.9856"),
        ReferenceRow(24, 11114, "0.9427", "22148.78", "1.9929"),
        ReferenceRow(28, 34227, "0.9439", "68307.62", "1.9957"),
        ReferenceRow(32, 105405, "0.9443", "210467.18", "1.9967"),
        ReferenceRow(36, 324605, "0.9445", "648270.74", "1.9971"),
        ReferenceRow(40, 999652, "0.9445", "1996544.30", "1.9972"),
    ),
}

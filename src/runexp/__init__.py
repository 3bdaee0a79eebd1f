"""Runs (maximal repetitions) enumeration with exact exponent sums.

Core pieces: immutable words and morphisms, a near-linear run
enumerator with a brute-force oracle, exact rational run statistics,
the handle construction with its property checks, and morphism-driven
word families. The ``runexp`` command line fronts all of it.
"""

from .families import FamilySpec, builtin_family, generate_member, load_family, run_rich_word
from .handles import HandleReport, verify_handle_properties
from .periods import border_table, shortest_period
from .runs import (
    Run,
    RunSet,
    RunStats,
    find_runs,
    find_runs_bruteforce,
    fraction_to_decimal,
    run_stats,
    validate_runs,
)
from .words import (
    Morphism,
    Word,
    apply_morphism,
    power,
    read_word_file,
    word_from_text,
    write_word_file,
)

__version__ = "0.1.0"

__all__ = [
    "FamilySpec",
    "HandleReport",
    "Morphism",
    "Run",
    "RunSet",
    "RunStats",
    "Word",
    "apply_morphism",
    "border_table",
    "builtin_family",
    "find_runs",
    "find_runs_bruteforce",
    "fraction_to_decimal",
    "generate_member",
    "load_family",
    "power",
    "read_word_file",
    "run_rich_word",
    "run_stats",
    "shortest_period",
    "validate_runs",
    "verify_handle_properties",
    "word_from_text",
    "write_word_file",
    "__version__",
]

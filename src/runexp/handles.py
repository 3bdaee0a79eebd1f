"""Handle sets: disjoint inter-position certificates attached to runs.

Each run v = [i..j] with period p owns a set H(v) of inter-positions
(slot k sits between letters k and k+1): the slot just before every
occurrence inside v, except the first, of the minimal and of the
maximal rotation of the leading block u[i..i+p-1]. When the two
coincide (single-letter block) that is every inter-position inside v.
Distinct runs get disjoint handle sets, so handle mass is capped by the
n-1 available slots; the report checks that cap, the per-run size
bounds, and the case dichotomy.

The suite starts from each run's Lyndon roots lo and hi, the 0-based starts
of the two rotations in its first period. Suffixes starting there keep more
than p letters of the run and rotations of a primitive block differ within p
letters, so lo and hi are the argmin and argmax of the inverse suffix array
over the first period. For a word the arrays engine enumerates, that inverse
suffix array is the one its enumeration built; a short word, whose Python
engine sorts no suffixes, is ranked by ``_suffix_ranks_small``. Either way
each verified word is suffix-sorted once. By Fine-Wilf
the rotations recur in the run only every p letters: H(v) is x + m*p, m >= 1,
for x in {lo, hi}, while inside the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import runs as _runs
from .periods import rotation_extremes
from .runs import Run, RunSet, validate_run, validate_runs
from .words import Word

__all__ = ["HandleSet", "HandleReport", "handles_of_run", "verify_handle_properties"]


@dataclass(frozen=True)
class HandleSet:
    """Inter-positions assigned to one run; case is "a" or "b"."""

    owner: Run
    positions: tuple[int, ...]
    case: str

    def __post_init__(self):
        v = self.owner
        if any(not (v.i <= k <= v.j - 1) for k in self.positions):
            raise ValueError(f"handle positions escape the run interval [{v.i}..{v.j}]")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("handle positions must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class HandleReport:
    """Aggregate verdicts of the handle checks for one word.

    A sums handle sizes over period-1 runs, B over the rest. The
    per-run size bounds are: p = 1 forces exponent = size + 1 exactly;
    p >= 2 forces ceil(exponent) <= size/2 + 3 and
    size >= 2*(floor(exponent) - 2). ``size_bound_failures`` holds the
    runs that break them. ``handle_sizes`` is a read-only int64 array,
    one size per run; reports compare without it, as an array does not
    compare as a bool.
    """

    n: int
    runs: RunSet
    handle_sizes: np.ndarray = field(compare=False)
    A: int
    B: int
    disjoint: bool
    size_bound_failures: tuple[Run, ...]
    case_a_iff_p1: bool

    @property
    def rho(self) -> int:
        return len(self.runs)

    @property
    def sum_bound_ok(self) -> bool:
        """A + B <= n - 1: disjoint subsets of the n - 1 slots."""
        return self.A + self.B <= max(self.n - 1, 0)

    @property
    def all_ok(self) -> bool:
        return (
            self.disjoint
            and self.case_a_iff_p1
            and self.sum_bound_ok
            and not self.size_bound_failures
        )

    def as_json_dict(self) -> dict:
        return {
            "n": self.n,
            "rho": self.rho,
            "A": self.A,
            "B": self.B,
            "disjoint": self.disjoint,
            "lemma1_failures": [[v.i, v.j, v.p] for v in self.size_bound_failures],
            "case_a_iff_p1": self.case_a_iff_p1,
        }


def handles_of_run(w: Word, v: Run) -> HandleSet:
    """Build H(v) from the rotation extremes of the run's leading block.

    Occurrences come from comparing the rotation at every start in the run,
    then are checked to sit exactly p apart: any rotation of the primitive
    block occurs only aligned inside the run, so an uneven gap means a bug.
    """
    validate_run(w, v)
    i, j, p = v
    data = w.data
    ext = rotation_extremes(w.factor(i, i + p - 1))
    if ext.minimal.data == ext.maximal.data:
        return HandleSet(owner=v, positions=tuple(range(i, j)), case="a")
    slots: set[int] = set()
    for rotation in (ext.minimal.data, ext.maximal.data):
        starts = [k for k in range(i - 1, j - p + 1) if data[k : k + p] == rotation]
        for s0, s1 in zip(starts, starts[1:]):
            if s1 - s0 != p:
                raise RuntimeError(
                    "internal error: adjacent occurrences of a block rotation "
                    f"inside run [{i}..{j}] are {s1 - s0} apart, expected {p}"
                )
            slots.add(s0 + p)
    return HandleSet(owner=v, positions=tuple(sorted(slots)), case="b")


def _lyndon_roots(isa: np.ndarray, a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based starts of the least and greatest suffixes starting in each [a, a+p)."""
    sa = np.empty_like(isa)
    sa[isa] = np.arange(isa.size, dtype=isa.dtype)
    # One reduction over each [a, a+p), the stretches between them dropped: the
    # work is about the sum of the periods (15.5 n on member 9).
    bounds = np.stack([a, a + p], axis=1).ravel()
    return tuple(sa[extreme.reduceat(isa, bounds)[::2]] for extreme in (np.minimum, np.maximum))


def verify_handle_properties(w: Word) -> HandleReport:
    """Check every proved handle property on one word.

    ``w`` is enumerated once: its runs are validated against the
    definition first (raising on a bad run), and the same enumeration's
    ranks give every handle. Verdicts are collected, not raised:
    disjointness of all handle sets, case (a) exactly for period-1 runs,
    the per-run size bounds, and A + B <= n - 1.
    """
    runs, isa = _runs._runs_and_ranks(w)
    validate_runs(w, runs)
    n = len(w)
    a, e, p = runs.starts - 1, runs.ends, runs.periods
    lo, hi = _lyndon_roots(np.asarray(isa, dtype=np.int32), a, p)
    case_a, unary = lo == hi, p == 1
    # Root x gets the slots x + m*p, m >= 1, with x + m*p + p <= e; case (a) has one root.
    counts = np.concatenate([(e - lo) // p - 1, np.where(case_a, 0, (e - hi) // p - 1)])
    sizes = counts[: p.size] + counts[p.size :]
    sizes.flags.writeable = False
    # Count each slot's owners: every slot lies in 1..n-1, so more than n - 1 slots collide.
    owner = np.repeat(np.arange(counts.size), counts)
    m = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner] + 1
    slots = np.concatenate([lo, hi])[owner] + m * p[owner % p.size]
    disjoint = bool((np.bincount(slots) <= 1).all())
    del owner, m, slots  # about 3 x 8 bytes per handle slot, freed before the size bounds
    length = e - a
    bounds_ok = np.where(unary, length == sizes + 1,
                         (2 * -(-length // p) <= sizes + 6) & (sizes >= 2 * (length // p - 2)))
    return HandleReport(
        n=n,
        runs=runs,
        handle_sizes=sizes,
        A=int(sizes[unary].sum()),
        B=int(sizes[~unary].sum()),
        disjoint=disjoint,
        size_bound_failures=tuple(runs[k] for k in np.flatnonzero(~bounds_ok).tolist()),
        case_a_iff_p1=bool((case_a == unary).all()),
    )

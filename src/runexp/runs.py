"""Enumerate all runs (maximal repetitions) of a word and sum their exponents.

A run is an interval whose factor has shortest period p with 2p <= length
and that cannot be extended in either direction without breaking the
period. The fast engine follows the Runs Theorem (Bannai et al., SIAM J.
Comput. 2017, Lemma 3.3): a run's Lyndon roots, in the letter order in
which the letter right after the run is smaller than the one p places
before it, are longest-Lyndon prefixes. Order 0 is the given letter
order with the end of the word lowest, and also serves runs that end
the word; order 1 is the reversed letter order with the end of the word
highest, which reverses every suffix comparison. One suffix array suffices:
both Lyndon arrays come from it, as next-smaller-rank searches in one loop
over a list of block-minimum levels, and the ranks of its prefix-doubling
rounds (the dense rank of every 2^k-letter block; table rounds, then packed
sorts) answer the extension queries by binary lifting, which lifts only the
few pairs whose short blocks agree through the long levels. One candidate
pass takes both orders; no Python loop runs over positions. Each run is
reported exactly once, from its leftmost root (left extension < p), so no
dedup pass is needed; a repeated interval is an internal error. The
brute-force engine applies the definition to every interval and serves as an
independent oracle.

The Lyndon array decides each run's order, so no stage checks it. In order l,
the suffix at q = a + lam[a] is l-smaller than the one at a; the two agree up
to e = q + LCE(a, q), where data[e] against data[e - p], or suffix q ending at
e = n, orders them. So order 0 gives e = n or data[e] < data[e - p]; order 1,
where the end of the word ranks highest, gives e < n and data[e] > data[e - p].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import periods as _periods
from .words import Word, letters_of

__all__ = [
    "Run",
    "RunSet",
    "RunStats",
    "find_runs",
    "find_runs_bruteforce",
    "run_stats",
    "fraction_to_decimal",
    "validate_run",
    "validate_runs",
]

# Inputs shorter than this are processed with plain-Python primitives;
# the quadratic worst case is harmless at this size and the per-call
# numpy overhead dominates otherwise. Both paths run the same algorithm.
# On random words over 1-4 letters, taken in equal shares, the arrays
# engine is faster from about 800 letters (binary words from about 600,
# 3 and 4 letters from about 750, unary words not up to 1,300).
SMALL_ENGINE_LIMIT = 800

# Positions per step of the arrays engine's extension queries.
_BLOCK = 1 << 16
_KEY_BITS = 63  # bits of a non-negative int64, for a sort digit packed above a position

BRUTE_FORCE_CAP = 2000


class Run(NamedTuple):
    """One run: 1-based inclusive interval [i..j] with shortest period p."""

    i: int
    j: int
    p: int

    @property
    def length(self) -> int:
        return self.j - self.i + 1

    @property
    def exponent(self) -> Fraction:
        """length / p, reduced; at least 2 for a run."""
        return Fraction(self.length, self.p)


class RunSet:
    """All runs of one word, sorted by (i, j), positions 1-based.

    Backed by parallel integer arrays so that multi-million-run results
    stay compact; iterating yields :class:`Run` values.
    """

    __slots__ = ("starts", "ends", "periods")

    def __init__(self, starts, ends, periods):
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        periods = np.asarray(periods, dtype=np.int64)
        if not (starts.shape == ends.shape == periods.shape) or starts.ndim != 1:
            raise ValueError("starts, ends and periods must be parallel 1-d arrays")
        for arr in (starts, ends, periods):
            arr.flags.writeable = False
        self.starts = starts
        self.ends = ends
        self.periods = periods

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[int, int, int]]) -> "RunSet":
        cols = np.array(sorted((r[0], r[1], r[2]) for r in runs), dtype=np.int64).reshape(-1, 3)
        return cls(*map(np.ascontiguousarray, cols.T))

    def __len__(self) -> int:
        return int(self.starts.size)

    def __iter__(self) -> Iterator[Run]:
        # Memoryviews yield one int at a time: three tolist() copies would be
        # the largest allocation of a run listing.
        for i, j, p in zip(memoryview(self.starts), memoryview(self.ends), memoryview(self.periods)):
            yield Run(i, j, p)

    def __getitem__(self, k: int) -> Run:
        return Run(int(self.starts[k]), int(self.ends[k]), int(self.periods[k]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunSet):
            return NotImplemented
        return (
            self.starts.size == other.starts.size
            and bool(np.array_equal(self.starts, other.starts))
            and bool(np.array_equal(self.ends, other.ends))
            and bool(np.array_equal(self.periods, other.periods))
        )

    def __reduce__(self):
        # Copies and unpickled values come through __init__, so their columns stay read-only.
        return (RunSet, (self.starts, self.ends, self.periods))

    def __repr__(self) -> str:
        return f"RunSet({len(self)} runs)"


@dataclass(frozen=True)
class RunStats:
    """Run counts and exact exponent sums for one word."""

    n: int
    rho: int
    sigma: Fraction
    rho_cubic: int
    sigma_cubic: Fraction


# ---------------------------------------------------------------------------
# suffix-array plumbing (numpy path)
# ---------------------------------------------------------------------------

def _prefix_doubling(data: bytes) -> Iterator[np.ndarray]:
    """Yield the rank of every position's 2^k-letter block, k = 0, 1, ...

    Each rank array has n + 1 entries, the last a -1 sentinel, and holds
    dense ranks from 0: level 0 ranks the letters present, in letter order.
    A block cut off by the end of the word ranks below every extension of
    it and shares its rank with no other position, so two distinct positions
    share a level-k rank only if both full 2^k-letter blocks are equal.
    The rounds stop once all ranks differ: the last array is the inverse
    suffix array.

    Each round ranks the pairs (rank, r), r the rank k places on (-1 past
    the end), by their keys rank * (top + 2) + r + 1 < (top + 2)^2: while
    these fit a table of 2n entries, as a prefix sum over the keys present;
    later by counting the changes between neighbours once the positions are
    sorted by key. That sort is an LSD radix, one stable packed sort per digit
    of ``_KEY_BITS`` - n.bit_length() bits; below 2^21 letters a key is one
    digit, sorted in place. No order is kept between rounds.
    A level is int16 while its ranks fit (the extension queries only
    compare them); the last level, the inverse suffix array, is int32.
    """
    n = len(data)
    bits = n.bit_length()
    present = letters_of(data)
    top = len(present) - 1
    rank = np.full(n + 1, -1, dtype=np.int16)
    # Each letter's rank through a 256-byte table: no 8-byte index per letter.
    rank[:n] = np.frombuffer(data.translate(bytes.maketrans(present, bytes(range(top + 1)))), np.uint8)
    k = 1
    while True:
        yield rank
        span = top + 2
        key = rank[:n].astype(np.int64)
        key *= span
        key[: n - k] += rank[k:n] + 1
        if span * span <= 2 * n:
            seen = np.zeros(span * span, dtype=np.int32)
            seen[key] = 1
            np.cumsum(seen, out=seen)
            top = int(seen[-1]) - 1
            dense = seen[key]
            dense -= 1
            del seen, key
        else:
            width = _KEY_BITS - bits
            rest = range(width, (span * span - 1).bit_length(), width)  # shifts of the digits above the first
            order = _packed_sort(key & ((1 << width) - 1) if rest else key, bits)
            for shift in rest:  # each digit in place, freed before the next gather
                digit = key[order]
                digit >>= shift
                digit &= (1 << width) - 1
                idx = _packed_sort(digit, bits)
                del digit
                order = order[idx]
            key = key[order] if rest else key  # the single-digit sort sorted the keys in place
            bump = np.zeros(n, dtype=np.int32)
            np.not_equal(key[1:], key[:-1], out=bump[1:])
            np.cumsum(bump, out=bump)
            top = int(bump[-1])
            dense = np.empty(n, dtype=np.int32)
            dense[order] = bump
            del key, bump, order
        done = top == n - 1
        rank = np.full(n + 1, -1, dtype=np.int32 if done or top >= 0x7FFF else np.int16)
        rank[:n] = dense
        del dense
        if done:
            yield rank
            return
        k <<= 1


def _packed_sort(packed: np.ndarray, bits: int) -> np.ndarray:
    """Sort int64 ``packed`` (all >= 0) in place, ties by index; return that order as int32."""
    packed <<= bits
    packed |= np.arange(packed.size, dtype=np.int32)
    packed.sort()
    idx = np.empty(packed.size, dtype=np.int32)
    np.bitwise_and(packed, (1 << bits) - 1, out=idx, casting="unsafe")
    packed >>= bits
    return idx


# Only pairs whose 2^_SPLIT-letter blocks agree (1-5% on the family) take the
# levels above _SPLIT; 4 to 7 measured the same on members 7 to 9.
_SPLIT = 5


def _lce(levels: list[np.ndarray], x: np.ndarray, y: np.ndarray, left: bool = False) -> np.ndarray:
    """Longest common extension of positions x < y: of data[x:] and data[y:] or,
    with ``left``, of data[:x] and data[:y]. Binary lifting adds 2^k for each
    level k, longest first, whose blocks next to the part matched so far agree;
    no extension is as long as the last level's blocks. Only the pairs whose
    blocks agree at level split = min(top, _SPLIT) take the levels above it,
    then every pair takes the levels below. At split = top no two distinct
    positions share a rank, so a word with few levels lifts no pair there."""

    def lift(x, y, h, ks):
        for k in ks:
            rank, step = levels[k], h.dtype.type(1 << k)
            if left:
                s = x - h - step
                t = np.maximum(s, 0)
                h += ((s >= 0) & (rank[t] == rank[t + (y - x)])) * step
            else:
                h += (rank[x + h] == rank[y + h]) * step
        return h

    top = len(levels) - 1
    split = min(top, _SPLIT)
    h = np.zeros_like(x)
    far = np.flatnonzero(lift(x, y, h, [split]))
    h[far] = lift(x[far], y[far], h[far], range(top - 1, split - 1, -1))
    return lift(x, y, h, range(split - 1, -1, -1))


def _lyndon_lengths(rank) -> list[int]:
    """Distance from each position to the next suffix that ranks lower.

    Over the inverse suffix array (end of word lowest) this is the
    length of the longest Lyndon prefix at each position in letter
    order 0. Over the reversed ranks, n - 1 - rank, it is the next
    *greater* suffix, which gives order 1: reversed letters with the end
    of the word highest. There the value is the longest Lyndon prefix
    wherever the comparison is settled before the end of the word, which
    holds at the roots of every run that order is asked for. One pass
    over one list, right to left: the search from i starts at i + 1 and
    jumps from each j that ranks higher to nxt[j]; a position jumped from
    is never reached again, so the work is O(n). The Python engine's pass,
    and the test oracle of :func:`_next_smaller`, which the arrays engine uses.
    """
    n = len(rank)
    nxt = [n] * n
    for i in range(n - 2, -1, -1):
        ri = rank[i]
        j = i + 1
        while j < n and rank[j] > ri:
            j = nxt[j]
        nxt[i] = j
    return [j - i for i, j in enumerate(nxt)]


def _next_smaller(rank: np.ndarray) -> np.ndarray:
    """:func:`_lyndon_lengths` over numpy ranks, with no Python loop per position.

    ``mins`` holds one int32 array per level, about 2n in all: level 0 is
    the ranks and a -1 sentinel, each level above the pairwise minimum of
    the level below padded with -1 to an even length, so entry b of level j
    is the least rank of the 2^j positions from b * 2^j, -1 for the block
    of position n. The search from position i starts at block i + 1 of
    level 0, ``_BLOCK`` positions at a time, in one loop over the levels:
    where the block's minimum is below the rank of i, it stops and descends
    through the levels below, taking the left child while that child's
    minimum is below the rank; every other position moves to the parent of
    the next block, which starts where its block ended.
    """
    n = int(rank.size)
    mins = [np.concatenate((rank, [-1]), dtype=np.int32)]
    while mins[-1].size > 2:
        below = mins[-1]
        if below.size % 2:
            below = np.concatenate((below, [-1]), dtype=np.int32)
        mins.append(np.minimum(below[0::2], below[1::2]))
    lam = np.empty(n, dtype=np.int32)
    for lo in range(0, n, _BLOCK):
        pos = np.arange(lo, min(lo + _BLOCK, n))
        v, b = mins[0][pos], pos + 1
        for j, level in enumerate(mins):
            stop = level[b] < v
            if stop.any():
                c, u, at = b[stop], v[stop], pos[stop]
                for lower in reversed(mins[:j]):
                    c <<= 1
                    c += lower[c] >= u
                lam[at] = c - at
                go = ~stop
                pos, v, b = pos[go], v[go], b[go]
            b += 1
            b >>= 1
    return lam


def _sorted_runs(n: int, starts: np.ndarray, ends: np.ndarray, periods: np.ndarray):
    """Sort 0-based run columns by (start, end) in place; raise if an interval repeats."""
    key = starts * (n + 1) + ends
    order = np.argsort(key)
    key = key[order]
    if bool((key[1:] == key[:-1]).any()):
        raise RuntimeError("internal error: one interval reported twice")
    for col in (starts, ends, periods):
        col[:] = col[order]
    return starts, ends, periods


def _runs_arrays(data: bytes):
    """All runs of ``data`` as sorted 0-based (start, end, period) columns, and the
    inverse suffix array.

    Each block of ``_BLOCK`` positions takes both Lyndon arrays in one pass, to bound
    the memory of the extension queries. A root a of length p, q = a + p, is kept if:
    data[q] == data[a], without which a left extension below p cannot reach 2p (it
    spares most positions the queries; the sentinel repeats no letter); the left
    extension is below p (the run's leftmost root, so each run once); it reaches 2p.
    """
    n = len(data)
    levels = list(_prefix_doubling(data))
    codes, isa = levels[0], levels[-1][:n]  # the letters' ranks, with -1 past the end
    lams = [_next_smaller(isa), _next_smaller((n - 1) - isa)]
    cols = []
    for lo in range(0, n, _BLOCK):
        a = np.arange(lo, min(lo + _BLOCK, n), dtype=np.int32)
        a = np.concatenate((a, a))
        p = np.concatenate([lam[lo : lo + _BLOCK] for lam in lams])
        q = a + p
        sel = codes[a] == codes[q]
        a, p, q = a[sel], p[sel], q[sel]
        e = q + _lce(levels, a, q)
        l_ext = _lce(levels, a, q, left=True)
        keep = (l_ext < p) & (l_ext + e - a >= 2 * p)
        cols.append((a[keep] - l_ext[keep], e[keep] - 1, p[keep]))
    # A copy, not a view: a view would keep the last level's buffer alive on the heap.
    isa = isa.copy()
    del levels, lams, codes  # the largest arrays of the call: free them before the sort
    # The RunSet keeps these columns, sorted and made 1-based in place: made first
    # in the freed memory, they leave the rest of it in one piece for what follows.
    return _sorted_runs(n, *(np.concatenate(c, dtype=np.int64) for c in zip(*cols))), isa


# ---------------------------------------------------------------------------
# plain-Python path for short words
# ---------------------------------------------------------------------------

def _suffix_ranks_small(data: bytes) -> list[int]:
    n = len(data)
    order = sorted(range(n), key=lambda i: data[i:])
    isa = [0] * n
    for r, i in enumerate(order):
        isa[i] = r
    return isa


def _runs_python(data: bytes):
    """Same rule as the arrays engine, with direct letter comparisons.

    The same three filters in the same order. The two bounded by p letters run before
    the unbounded right extension is scanned: scanning it first made every position of
    a unary word walk to the end of the word.
    """
    n = len(data)
    isa = _suffix_ranks_small(data)
    found: list[tuple[int, int, int]] = []
    for lam in (_lyndon_lengths(isa), _lyndon_lengths([n - 1 - r for r in isa])):
        for i in range(n):
            p = lam[i]
            q = i + p
            if q >= n or data[i] != data[q]:
                continue
            l = 0
            while l < i and l < p and data[i - 1 - l] == data[q - 1 - l]:
                l += 1
            if l == p:
                continue
            r = 1
            while q + r < n and data[i + r] == data[q + r]:
                r += 1
            if l + r >= p:
                found.append((i - l, q + r - 1, p))
    cols = np.array(found, dtype=np.int64).reshape(len(found), 3).T
    # Arrays of their own, as the RunSet keeps them: views would keep the table too.
    return _sorted_runs(n, *map(np.ascontiguousarray, cols)), isa


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def find_runs(w: Word) -> RunSet:
    """All runs of ``w``, each reported once, sorted by (i, j).

    Words shorter than ``SMALL_ENGINE_LIMIT`` letters take the plain-Python
    engine, longer ones the numpy arrays engine; both apply the same rule.
    """
    return _runs_and_ranks(w)[0]


def _runs_and_ranks(w: Word):
    """:func:`find_runs`, and the inverse suffix array (end of word lowest)
    that its engine built: a list from the Python engine, an int32 array
    from the arrays engine. The engine follows from the length alone."""
    data = w.data
    engine = _runs_python if len(data) < SMALL_ENGINE_LIMIT else _runs_arrays
    (starts, ends, periods), isa = engine(data)
    starts += 1
    ends += 1
    return RunSet(starts, ends, periods), isa


def find_runs_bruteforce(w: Word) -> RunSet:
    """Literal definition scan: test every interval of ``w``.

    For each interval the shortest period comes from the border table of
    the factor; the interval is a run when 2p <= length and neither side
    can be extended. Refuses words longer than BRUTE_FORCE_CAP.
    """
    n = len(w)
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"word length {n} exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    data = w.data
    found: list[tuple[int, int, int]] = []
    for b in range(n):
        # Entry q of the border table of data[b:] gives the shortest period of data[b:b+q+1].
        for q, border in enumerate(_periods._prefix_function(data[b:])):
            length = q + 1
            p = length - border
            if 2 * p <= length:
                e = b + q
                if (b == 0 or data[b - 1] != data[b + p - 1]) and (
                    e == n - 1 or data[e - p + 1] != data[e + 1]
                ):
                    found.append((b, e, p))
    return RunSet.from_runs((b + 1, e + 1, p) for b, e, p in found)


def validate_runs(w: Word, runs: RunSet) -> None:
    """Re-check the four run invariants of every run against ``w``; raise on failure.

    As 2p <= length, p is shortest iff the first length - p letters first
    recur at offset p: with period p, a match at s < p gives a prefix of
    s + p letters or more with periods s and p, so period gcd(s, p) | p
    (Fine-Wilf). The first run found breaking an invariant is named.
    """
    data, n = w.data, len(w)
    codes = np.frombuffer(data, dtype=np.uint8)
    a, e, p = runs.starts - 1, runs.ends, runs.periods

    def require(ok: np.ndarray, message) -> None:
        if not ok.all():
            k = int(np.argmin(ok))
            raise ValueError(message(int(a[k]) + 1, int(e[k]), int(p[k])))

    require((a >= 0) & (a < e) & (e <= n),
            lambda i, j, p: f"run interval [{i}..{j}] out of range for n={n}")
    require(2 * p <= e - a, lambda i, j, p: f"run [{i}..{j}] with p={p} violates 2p <= length")
    # The columns are read one int at a time through memoryviews: as lists
    # (``tolist``) they would be the largest allocation of the handle suite.
    rows = zip(memoryview(a), memoryview(e), memoryview(p))
    shortest = np.array([d >= 1 and data.find(data[x : y - d], x + 1, y) == x + d for x, y, d in rows],
                        dtype=bool)
    require(shortest, lambda i, j, p: f"run [{i}..{j}] claims period {p} but the factor "
            f"has period {_periods.shortest_period(w.factor(i, j))}")
    require((a == 0) | (codes[a - 1] != codes[a + p - 1]),
            lambda i, j, p: f"run [{i}..{j}] is not left-maximal")
    require((e == n) | (codes[np.minimum(e, n - 1)] != codes[e - p]),
            lambda i, j, p: f"run [{i}..{j}] is not right-maximal")


def validate_run(w: Word, run: Run) -> None:
    """:func:`validate_runs` for one run."""
    validate_runs(w, RunSet.from_runs([run]))


def run_stats(w: Word, runs: RunSet) -> RunStats:
    """Exact counts and exponent sums over ``runs``.

    Run lengths are summed into two int64 tables indexed by period, one over
    all runs and one over the cubic runs (length >= 3p): S_p is the total
    length of the runs of period p. Then sigma = sum of S_p / p over the
    nonzero entries, in exact rationals; no sort groups the periods.
    """
    lens = runs.ends - runs.starts + 1
    cubic = lens >= 3 * runs.periods
    tables = np.zeros((2, int(runs.periods.max(initial=0)) + 1), dtype=np.int64)
    np.add.at(tables[0], runs.periods, lens)
    np.add.at(tables[1], runs.periods[cubic], lens[cubic])
    sigma, sigma_cubic = (
        sum(map(Fraction, table[table != 0].tolist(), np.flatnonzero(table).tolist()), Fraction(0))
        for table in tables
    )
    return RunStats(n=len(w), rho=len(runs), sigma=sigma,
                    rho_cubic=int(np.count_nonzero(cubic)), sigma_cubic=sigma_cubic)


def fraction_to_decimal(value: Fraction, digits: int, *, rounding: str = "half-up") -> str:
    """Render an exact rational with ``digits`` decimals.

    >>> fraction_to_decimal(Fraction(26, 3), 2)
    '8.67'
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    num = value.numerator
    den = value.denominator
    negative = num < 0
    scale = 10 ** digits
    q, r = divmod(abs(num) * scale, den)
    if rounding == "half-up":
        if 2 * r >= den:
            q += 1
    elif rounding != "truncate":
        raise ValueError(f"unknown rounding mode {rounding!r}")
    whole, frac = divmod(q, scale)
    text = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
    return f"-{text}" if negative and q else text

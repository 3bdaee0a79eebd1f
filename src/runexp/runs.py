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
dedup pass is needed; a repeated interval is an internal error. Short words
take a plain-Python engine with the same rule, which finds both Lyndon arrays
by comparing the word's suffixes as bytes and sorts none. The brute-force
engine applies the definition to every interval and serves as an independent
oracle.

The Lyndon array decides each run's order, so no stage checks it. In order l,
the suffix at q = a + lam[a] is l-smaller than the one at a; the two agree up
to e = q + LCE(a, q), where data[e] against data[e - p], or suffix q ending at
e = n, orders them. So order 0 gives e = n or data[e] < data[e - p]; order 1,
where the end of the word ranks highest, gives e < n and data[e] > data[e - p].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
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
# engine is faster from about 1,300 letters (binary words from about 900,
# 3 letters from about 1,200, 4 from about 1,400, unary words from about
# 2,300; Python 3.11, numpy 2.4, 2-core host). The limit stays at 800: the
# tests that check the arrays engine against the definition just above it
# would grow with it. It also picks how ``validate_runs`` tests shortest
# periods: one bytes search per run below it, numpy windows from it. On the
# same words the numpy test is faster from about 1,200 letters (binary from
# about 1,000, 4 letters from about 1,300; never up to 4,000 on unary words,
# which have one run); its fixed cost is about 85 us per call.
SMALL_ENGINE_LIMIT = 800

# Positions per step of the arrays engine's extension queries, and of the
# comparisons of ``validate_runs``, which takes this many runs at a time.
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


def _next_smaller(rank: np.ndarray) -> np.ndarray:
    """Distance from each position to the next one of lower ``rank`` (n if none),
    with no Python loop per position.

    Over the inverse suffix array (end of word lowest) this is the longest
    Lyndon prefix at each position in order 0; over n - 1 - rank, the next
    greater suffix, it gives order 1.

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


def _sorted_runs(n: int, starts: np.ndarray, ends: np.ndarray, periods: np.ndarray) -> RunSet:
    """The RunSet of 1-based run columns sorted by (start, end) in place; raise if one repeats."""
    key = starts * (n + 1) + ends
    order = np.argsort(key)
    key = key[order]
    if bool((key[1:] == key[:-1]).any()):
        raise RuntimeError("internal error: one interval reported twice")
    for col in (starts, ends, periods):
        col[:] = col[order]
    return RunSet(starts, ends, periods)


def _runs_arrays(data: bytes):
    """All runs of ``data``, and both Lyndon arrays as next positions: entry i of
    order l's int32 array is the next position whose suffix is l-smaller (n if none).

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
        cols.append((a[keep] - l_ext[keep] + 1, e[keep], p[keep]))
    del levels, codes, isa  # the largest arrays of the call: free them before the sort
    for lam in lams:
        lam += np.arange(n, dtype=np.int32)
    # The RunSet keeps these columns, sorted in place: made first in the freed
    # memory, they leave the rest of it in one piece for what follows.
    return _sorted_runs(n, *(np.concatenate(c, dtype=np.int64) for c in zip(*cols))), lams


# ---------------------------------------------------------------------------
# plain-Python path for short words
# ---------------------------------------------------------------------------

def _lyndon_pass(data: bytes, suf: list[bytes], order: int, found: list) -> list[int]:
    """One order's Lyndon array of ``data``, from its suffixes ``suf`` compared as
    bytes, as next positions nxt (nxt[i] - i is the length at i); each run found is
    appended to ``found`` as 1-based (start, end, period).

    Order 0 is bytes order (a suffix below its extensions): nxt[i] is the next
    smaller suffix. Order 1 reverses every comparison: nxt[i] is the next greater
    suffix, the longest Lyndon prefix wherever the comparison is settled before the
    end of the word, as at every root that order is asked for. Right to left, the
    search from i jumps along nxt over the suffixes that do not pass suffix i; a
    position jumped from is never reached again, so O(n) comparisons, each in C.
    Each position is tested as a root once settled, by the arrays engine's three
    filters in its order; the two bounded by p letters come before the unbounded
    right extension, which would walk every position of a unary word to its end.
    """
    n = len(data)
    nxt = [n] * n
    for i in range(n - 2, -1, -1):
        s = suf[i]
        q = i + 1
        if order:
            while q < n and suf[q] < s:
                q = nxt[q]
        else:
            while q < n and suf[q] > s:
                q = nxt[q]
        nxt[i] = q
        if q == n or data[i] != data[q]:
            continue
        p = q - i
        l = 0
        while l < i and l < p and data[i - 1 - l] == data[q - 1 - l]:
            l += 1
        if l == p:
            continue
        r = 1
        while q + r < n and data[i + r] == data[q + r]:
            r += 1
        if l + r >= p:
            found.append((i - l + 1, q + r, p))
    return nxt


def _runs_python(data: bytes):
    """All runs of ``data``, and both Lyndon arrays as next positions (lists), by the
    arrays engine's rule with no suffix array: each order takes one
    :func:`_lyndon_pass` over the word's suffixes as bytes objects, n(n + 1)/2
    bytes in all (about 320 KB below ``SMALL_ENGINE_LIMIT``)."""
    n = len(data)
    suf = [data[i:] for i in range(n)]
    found: list[tuple[int, int, int]] = []
    nxt = [_lyndon_pass(data, suf, order, found) for order in (0, 1)]
    cols = np.array(found, dtype=np.int64).reshape(len(found), 3).T
    # Arrays of their own, as the RunSet keeps them: views would keep the table too.
    return _sorted_runs(n, *map(np.ascontiguousarray, cols)), nxt


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def find_runs(w: Word) -> RunSet:
    """All runs of ``w``, each reported once, sorted by (i, j).

    Words shorter than ``SMALL_ENGINE_LIMIT`` letters take the plain-Python
    engine, longer ones the numpy arrays engine; both apply the same rule.
    """
    return _enumerate(w.data)[0]


def _enumerate(data: bytes):
    """The RunSet of ``data`` from the engine its length picks, and its Lyndon arrays as next
    positions, [nxt0, nxt1]: nxt_l[i] is the next position whose suffix is smaller in order l
    (order 0 as the inverse suffix array ranks suffixes, order 1 the reverse), or n."""
    return (_runs_python if len(data) < SMALL_ENGINE_LIMIT else _runs_arrays)(data)


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


def _agrees(codes: np.ndarray, x: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Whether codes[x:y] equals codes[x + d : y + d], entry by entry; every x < y.

    Only the covered positions are gathered, one ``np.repeat`` of the starts plus an
    ``arange``, at most ``_BLOCK`` of them per step (an entry longer than that takes a
    step alone); one ``np.logical_or.reduceat`` reduces each entry's mismatches.
    """
    size = y - x
    ends = np.cumsum(size)
    same = np.empty(size.size, dtype=bool)
    lo = 0
    while lo < size.size:
        hi = max(int(np.searchsorted(ends, ends[lo] - size[lo] + _BLOCK, side="right")), lo + 1)
        s = size[lo:hi]
        off = ends[lo:hi] - s
        off -= off[0]
        pos = np.repeat(x[lo:hi] - off, s)
        pos += np.arange(pos.size)
        diff = codes[pos]
        pos += np.repeat(d[lo:hi], s)
        diff = diff != codes[pos]
        np.logical_not(np.logical_or.reduceat(diff, off), out=same[lo:hi])
        lo = hi
    return same


def _prime_factors(m: int) -> list[int]:
    """The distinct prime factors of ``m`` >= 1, by trial division."""
    found = []
    r = 2
    while r * r <= m:
        if m % r == 0:
            found.append(r)
            while m % r == 0:
                m //= r
        r += 1
    return found + [m] if m > 1 else found


def _shortest(codes: np.ndarray, a: np.ndarray, e: np.ndarray, p: np.ndarray, divisors: dict) -> np.ndarray:
    """Whether p is the shortest period of codes[a:e], run by run, for runs with 2p <= e - a;
    ``divisors`` caches p -> [p/r for each prime r of p] across calls."""
    ok = p >= 1
    run = np.flatnonzero(ok)
    ok[run] = _agrees(codes, a[run], e[run] - p[run], p[run])
    run = np.flatnonzero(ok & (p > 1))
    periods = np.sort(p[run])  # the distinct periods: np.unique took 10x as long on a block
    periods = periods[np.flatnonzero(np.diff(periods, prepend=0))]
    rows = []
    for q in periods.tolist():
        if q not in divisors:
            divisors[q] = [q // r for r in _prime_factors(q)]
        rows.append(divisors[q])
    # Column k holds p/r for each prime r of the k-th period present, then zeros.
    table = np.zeros((max(map(len, rows), default=0), len(rows)), dtype=np.int64)
    for k, ds in enumerate(rows):
        table[: len(ds), k] = ds
    d = np.take(table, np.searchsorted(periods, p[run]), axis=1).ravel()
    run = np.tile(run, len(table))[d > 0]  # one (run, d) pair per prime of the run's period
    d = d[d > 0]
    x, lim = a[run], p[run] - d
    # The first mismatch of the root with its shift by d, in windows [0, 1), [1, 3), [3, 7), ...
    hi = np.ones_like(d)
    same = codes[x] == codes[x + d]  # the first window: one letter
    while True:
        ok[run[same & (hi == lim)]] = False  # all p - d letters agree: the root is a power
        go = same & (hi < lim)
        run, x, d, lim, lo = run[go], x[go], d[go], lim[go], hi[go]
        if not run.size:
            return ok
        hi = np.minimum(lim, 2 * lo + 1)
        same = _agrees(codes, x + lo, x + hi, d)


def validate_runs(w: Word, runs: RunSet) -> None:
    """Re-check the four run invariants of every run against ``w``; raise on failure.

    Shortest period. A factor f of length L >= 2p with period p has shortest period p
    iff its root u = f[:p] is primitive, iff no p/r, r a prime factor of p, is a period
    of u. If u = v^k with k >= 2, any prime r | k gives p/r, a multiple of |v|, as a
    period of u. If a period s < p of f exists, then as s + p <= L, g = gcd(s, p) is
    a period of f (Fine and Wilf, 1965), so u = (f[:g])^(p/g) with p/g >= 2. And if
    d | p is a period of u, f has period d too, as u repeats with period p.

    Words shorter than ``SMALL_ENGINE_LIMIT`` letters test this with one bytes search
    per run: p is shortest iff the first L - p letters first recur at offset p (a match
    at s < p would be a period s). Longer words test it with no Python loop over runs,
    ``_BLOCK`` runs at a time, each comparison through :func:`_agrees`: first that
    p is a period, over [a, e - p) at shift p; then, for each pair of a run and d = p/r,
    the first mismatch of the root with its shift by d, in windows of 1, 2, 4, ...
    letters from the root's start. A pair leaves at its first window with a mismatch,
    so d is not a period of the root; a pair whose windows reach p - d letters with no
    mismatch has d as a period of the root. The windows tile [0, p - d) in order, so
    the search is exact, and a pair costs about twice the letters up to its first
    mismatch. Each step gathers at most ``_BLOCK`` positions, or one longer run.

    The first run found breaking an invariant is named.
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
    if n < SMALL_ENGINE_LIMIT:
        # The columns are read one int at a time through memoryviews.
        rows = zip(memoryview(a), memoryview(e), memoryview(p))
        shortest = np.array([d >= 1 and data.find(data[x : y - d], x + 1, y) == x + d for x, y, d in rows],
                            dtype=bool)
    else:
        shortest = np.empty(a.size, dtype=bool)
        divisors: dict[int, list[int]] = {}
        for k in range(0, a.size, _BLOCK):
            block = slice(k, k + _BLOCK)
            shortest[block] = _shortest(codes, a[block], e[block], p[block], divisors)
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
    length of the runs of period p. Then sigma = (sum of S_p * (L / p)) / L
    over the periods present, L their least common multiple: one exact
    division per sum, no sort groups the periods. The cubic runs' periods are
    among them, so both sums share L.
    """
    lens = runs.ends - runs.starts + 1
    cubic = lens >= 3 * runs.periods
    tables = np.zeros((2, int(runs.periods.max(initial=0)) + 1), dtype=np.int64)
    np.add.at(tables[0], runs.periods, lens)
    np.add.at(tables[1], runs.periods[cubic], lens[cubic])
    present = np.flatnonzero(tables[0])
    periods = present.tolist()
    lcm = math.lcm(*periods)
    shares = [lcm // p for p in periods]
    sigma, sigma_cubic = (Fraction(sum(map(mul, table[present].tolist(), shares)), lcm) for table in tables)
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

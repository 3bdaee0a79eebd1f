"""Enumerate all runs (maximal repetitions) of a word and sum their exponents.

A run is an interval whose factor has shortest period p with 2p <= length
and that cannot be extended in either direction without breaking the
period. The fast engine follows the Runs Theorem (Bannai et al., SIAM J.
Comput. 2017, Lemma 3.3): a run's Lyndon roots, in the letter order in
which the letter right after the run is smaller than the one p places
before it, are longest-Lyndon prefixes. Order 0 is the given letter
order with the end of the word lowest, and also serves runs that end
the word; order 1 is the reversed letter order with the end of the word
highest, which reverses every suffix comparison. One suffix array
suffices: both Lyndon arrays come from it, as next-smaller-rank searches
over a tree of block minima, and the ranks of its prefix-doubling rounds
(the rank of every 2^k-letter block; early rounds use a table, later ones
one packed sort) answer the extension queries by binary lifting, which
lifts only the few pairs whose short blocks agree through the long levels.
The arrays engine has no Python loop over positions. Each run is reported
exactly once, from its leftmost root (left extension < p) in its own order, so
no dedup pass is needed; a repeated interval is an internal error. The
brute-force engine applies the definition to every interval and serves
as an independent oracle.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from . import periods as _periods
from .words import Word

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
    "run_listing_lines",
    "write_run_listing",
]

# Inputs shorter than this are processed with plain-Python primitives;
# the quadratic worst case is harmless at this size and the per-call
# numpy overhead dominates otherwise. Both paths run the same algorithm.
# On random words over 1-4 letters, taken in equal shares, the arrays
# engine is faster from about 600 letters (binary words from about 450,
# unary words only from about 1,200).
SMALL_ENGINE_LIMIT = 600

# Positions per step of the arrays engine's extension queries.
_BLOCK = 1 << 16

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

    @property
    def is_cubic(self) -> bool:
        return self.length >= 3 * self.p


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
        triples = sorted((r[0], r[1], r[2]) for r in runs)
        if not triples:
            return cls(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
        cols = np.array(triples, dtype=np.int64)
        return cls(cols[:, 0].copy(), cols[:, 1].copy(), cols[:, 2].copy())

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

    def as_triples(self) -> list[tuple[int, int, int]]:
        return list(zip(self.starts.tolist(), self.ends.tolist(), self.periods.tolist()))

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

def _prefix_doubling(codes: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the rank of every position's 2^k-letter block, k = 0, 1, ...

    Each rank array has n + 1 entries, the last a -1 sentinel. A block
    cut off by the end of the word ranks below every extension of it and
    shares its rank with no other position, so two distinct positions
    share a level-k rank only if both full 2^k-letter blocks are equal.
    The rounds stop once all ranks differ: the last array is the inverse
    suffix array.

    Each round gives dense ranks to the pairs (rank, r), r the rank k places
    on (-1 past the end). While the keys rank * (top + 2) + r + 1 fit in a
    table of 2n entries, the ranks are a prefix sum over the keys present.
    Later rounds radix-sort: ``order`` (int32), the positions by rank from
    the last sorted round, lists them by r as the k positions from n - k on,
    then ``order[order >= k] - k``; one ``np.sort`` of rank << bits | index
    along that list orders the pairs, its high bits the first ranks. A table
    round drops ``order``: level 0 holds raw letter codes (``a`` is 97), so
    sorted and table rounds can alternate on short words.
    A level is int16 while its ranks fit (the extension queries only
    compare them); the last level, the inverse suffix array, is int32.
    """
    n = int(codes.size)
    bits = n.bit_length()  # rank << bits | index fits in int64 for any n < 2^31
    rank = np.full(n + 1, -1, dtype=np.int16)
    rank[:n] = codes
    top = int(codes.max(initial=0))
    order = None  # positions by rank, kept from the last sorted round
    k = 1
    while True:
        yield rank
        span = top + 2
        if span * span <= 2 * n:
            key = rank[:n].astype(np.int64)
            key *= span
            key[: n - k] += rank[k:n]
            key[: n - k] += 1
            seen = np.zeros(span * span, dtype=np.int32)
            seen[key] = 1
            np.cumsum(seen, out=seen)
            top = int(seen[-1]) - 1
            dense = seen[key]
            dense -= 1
            order = None
            del seen, key
        else:
            if order is None:
                order = _packed_sort(rank[:n].astype(np.int64), bits)
            order = np.concatenate((np.arange(n - k, n, dtype=np.int32), order[order >= k] - k))
            first = rank[order].astype(np.int64)
            order = order[_packed_sort(first, bits)]
            bump = np.zeros(n, dtype=np.int32)
            np.not_equal(first[1:], first[:-1], out=bump[1:])
            del first
            second = rank[np.minimum(order, n - k) + k]  # -1 past the end
            bump[1:] |= second[1:] != second[:-1]
            del second
            np.cumsum(bump, out=bump)
            top = int(bump[-1])
            dense = np.empty(n, dtype=np.int32)
            dense[order] = bump
            del bump
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
    no extension is as long as the last level's blocks. Past _SPLIT + 1 levels,
    only the pairs whose 2^_SPLIT-letter blocks agree take the longer levels,
    then every pair takes the shorter ones."""

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
    h = np.zeros_like(x)
    if top > _SPLIT:
        far = np.flatnonzero(lift(x, y, h, [_SPLIT]))
        h[far] = lift(x[far], y[far], h[far], range(top - 1, _SPLIT - 1, -1))
    return lift(x, y, h, range(min(top, _SPLIT) - 1, -1, -1))


def _lyndon_lengths(rank) -> array:
    """Distance from each position to the next suffix that ranks lower.

    Over the inverse suffix array (end of word lowest) this is the
    length of the longest Lyndon prefix at each position in letter
    order 0. Over the reversed ranks, n - 1 - rank, it is the next
    *greater* suffix, which gives order 1: reversed letters with the end
    of the word highest. There the value is the longest Lyndon prefix
    wherever the comparison is settled before the end of the word, which
    holds at the roots of every run that order is asked for. A stack
    pass in Python: the Python engine's, and the test oracle of
    :func:`_next_smaller`, which the arrays engine uses.
    """
    n = len(rank)
    lam = array("i", bytes(4 * n))
    idx_st: list[int] = []
    rank_st: list[int] = []
    push_i = idx_st.append
    push_r = rank_st.append
    for i in range(n - 1, -1, -1):
        ri = rank[i]
        while rank_st and rank_st[-1] > ri:
            idx_st.pop()
            rank_st.pop()
        lam[i] = (idx_st[-1] if idx_st else n) - i
        push_i(i)
        push_r(ri)
    return lam


def _next_smaller(rank: np.ndarray) -> np.ndarray:
    """:func:`_lyndon_lengths` over numpy ranks, with no Python loop per position.

    A tree of aligned-block minima holds, at level j, the least rank in
    each block of 2^j positions. The word is followed by -1, so the block
    holding position n is -1 at every level; the levels take about 2n
    int32 in all. The search from position i stands at the start of a
    block, first block i + 1 of level 0. It ascends: while the block's
    minimum is not below the rank of i, it skips the block and moves to
    the parent of the block after it; that parent starts where the
    skipped block ended. The block that stops the ascent holds the
    answer, its first position of lower rank: the search descends to it,
    taking the left child whenever that child's minimum is below the
    rank. Positions are searched ``_BLOCK`` at a time.
    """
    n = int(rank.size)
    sizes = [(n >> j) + 1 for j in range(max(n.bit_length(), 1))]
    offsets = list(accumulate(sizes, initial=0))
    tree = np.empty(offsets[-1], dtype=np.int32)
    tree[:n] = rank
    for j, (off, size) in enumerate(zip(offsets, sizes)):
        if j:
            below = tree[offsets[j - 1] : offsets[j - 1] + 2 * (size - 1)]
            np.minimum(below[0::2], below[1::2], out=tree[off : off + size - 1])
        tree[off + size - 1] = -1
    lam = np.empty(n, dtype=np.int32)
    for lo in range(0, n, _BLOCK):
        pos = np.arange(lo, min(lo + _BLOCK, n))
        v = tree[pos]
        b = pos + 1
        stopped = []  # per level that stopped some ascents: level, blocks, ranks, positions
        for j, off in enumerate(offsets[:-1]):
            stop = tree[off + b] < v
            if stop.any():
                stopped.append((j, b[stop], v[stop], pos[stop]))
                go = ~stop
                pos, v, b = pos[go], v[go], b[go]
                if not pos.size:
                    break
            b += 1
            b >>= 1
        # Descend all at once, highest stopping level first: the positions
        # still descending at level j are a prefix.
        stopped.reverse()
        c, v, pos = (np.concatenate(col) for col in list(zip(*stopped))[1:])
        ends = list(accumulate(g[1].size for g in stopped))
        g = 0
        for j in range(stopped[0][0] - 1, -1, -1):
            while g + 1 < len(stopped) and stopped[g + 1][0] > j:
                g += 1
            head = c[: ends[g]]
            head <<= 1
            head += tree[offsets[j] + head] >= v[: ends[g]]
        lam[pos] = c - pos
    return lam


def _runs_of_order(lam: np.ndarray, order: int, levels: list[np.ndarray]):
    """Runs whose leftmost Lyndon root in letter order ``order`` is found by ``lam``.

    Returns 0-based (start, end, period) columns. Positions are taken in
    blocks of ``_BLOCK`` to bound the memory of the extension queries.
    """
    codes = levels[0]  # the letters, with -1 past the end
    n = codes.size - 1
    cols = []
    for lo in range(0, n, _BLOCK):
        a = np.arange(lo, min(lo + _BLOCK, n), dtype=np.int32)
        p = lam[lo : lo + a.size]
        q = a + p
        # A root left-extended by fewer than p letters reaches 2p only if the
        # letter after it repeats its first letter (the sentinel never does).
        sel = codes[a] == codes[q]
        a, p, q = a[sel], p[sel], q[sel]
        e = q + _lce(levels, a, q)
        # The end of the word ranks lowest, so a run ending the word is order 0.
        sel = (codes[e] > codes[e - p]) == bool(order)
        a, p, e = a[sel], p[sel], e[sel]
        l_ext = _lce(levels, a, a + p, left=True)
        keep = (l_ext < p) & (l_ext + e - a >= 2 * p)
        cols.append((a[keep] - l_ext[keep], e[keep] - 1, p[keep]))
    return cols


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
    inverse suffix array."""
    n = len(data)
    levels = list(_prefix_doubling(np.frombuffer(data, dtype=np.uint8)))
    isa = levels[-1][:n]
    lams = [_next_smaller(isa), _next_smaller((n - 1) - isa)]
    cols = [c for order, lam in enumerate(lams) for c in _runs_of_order(lam, order, levels)]
    # A copy, not a view: a view would keep the last level's buffer alive on the heap.
    isa = isa.copy()
    del levels, lams  # the largest arrays of the call: free them before the sort
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

    The cheap filters run first, as in the arrays engine: the letter
    after the root must repeat its first letter, then the left extension,
    which stops at p letters, must stay below p. Only the candidates left
    scan their right extension, which is unbounded: scanning it first
    made every position of a unary word walk to the end of the word.
    """
    n = len(data)
    isa = _suffix_ranks_small(data)
    found: list[tuple[int, int, int]] = []
    for order, lam in enumerate((_lyndon_lengths(isa), _lyndon_lengths([n - 1 - r for r in isa]))):
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
            e = q + r
            if (e < n and data[e] > data[e - p]) == order and l + r >= p:
                found.append((i - l, e - 1, p))
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


def _has_period(data: bytes, a: np.ndarray, e: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether data[a:e] has period q, row by row, one bytes comparison each.

    The columns are read one int at a time through memoryviews: as lists
    (``tolist``) they would be the largest allocation of the handle suite.
    """
    rows = zip(memoryview(a), memoryview(e), memoryview(q))
    return np.array([data[x : y - d] == data[x + d : y] for x, y, d in rows], dtype=bool)


def validate_runs(w: Word, runs: RunSet) -> None:
    """Re-check the four run invariants of every run against ``w``; raise on failure.

    As 2p <= length, any shorter period divides p (Fine-Wilf), so p is
    shortest iff no p/r, r a prime factor of p, is a period of the first
    p letters. The first run found breaking an invariant is named.
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
    shortest = (p >= 1) & _has_period(data, a, e, np.maximum(p, 1))
    spf = np.arange(int(p.max(initial=1)) + 1)  # smallest prime factors: least divisor writes last
    for k in range(isqrt(spf.size - 1), 1, -1):
        spf[k * k :: k] = k
    rem, last = np.where(shortest, p, 1), 1
    while (rem > 1).any():
        r = spf[rem]  # prime factors come in non-decreasing order; spf[1] == 1
        rows = np.flatnonzero(r > last)
        shortest[rows] &= ~_has_period(data, a[rows], a[rows] + p[rows], p[rows] // r[rows])
        rem, last = rem // r, r
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


def run_listing_lines(runs: RunSet) -> Iterator[str]:
    """Tab-separated listing: i, j, p, length, reduced exponent."""
    for r in runs:
        e = r.exponent
        yield f"{r.i}\t{r.j}\t{r.p}\t{r.length}\t{e.numerator}/{e.denominator}"


def write_run_listing(runs: RunSet, stream: TextIO) -> None:
    for line in run_listing_lines(runs):
        stream.write(line)
        stream.write("\n")

"""Helpers that only the tests use: views of runs, the engines' order rule, sorted
suffixes, the pointer-jumping Lyndon array over ranks and a patched enumeration."""

import numpy as np

from runexp import runs as runs_module


def is_cubic(run):
    """Whether the period of ``run`` fits at least three times."""
    return run.length >= 3 * run.p


def as_triples(runs):
    """The runs of a RunSet as a list of (i, j, p) tuples."""
    return list(zip(runs.starts.tolist(), runs.ends.tolist(), runs.periods.tolist()))


def assert_order_rule(data, lam, order):
    """Assert the rule by which ``lam``, a Lyndon array of ``data`` in letter order
    ``order``, decides the order of each run it finds, with no check in the engines.

    Wherever q = a + lam[a] < n repeats the letter at a, e is the first position
    from q where data[e] != data[e - lam[a]], or n, found by comparing the
    letters lam[a] apart. Order 0 needs e = n or data[e] < data[e - lam[a]];
    order 1 needs e < n and data[e] > data[e - lam[a]].
    """
    codes = np.frombuffer(data, dtype=np.uint8)
    n = codes.size
    a = np.arange(n)
    p = np.asarray(lam, dtype=np.int64)
    keep = a + p < n
    a, p = a[keep], p[keep]
    keep = codes[a] == codes[a + p]
    a, p = a[keep], p[keep]
    e = np.empty_like(a)
    for d in np.unique(p).tolist():
        at = p == d
        differ = np.append(np.flatnonzero(codes[:-d] != codes[d:]), n - d)
        e[at] = differ[np.searchsorted(differ, a[at])] + d
    after, before = codes[np.minimum(e, n - 1)], codes[e - p]
    ok = (e == n) | (after < before) if order == 0 else (e < n) & (after > before)
    if not ok.all():
        k = int(np.argmin(ok))
        raise AssertionError(f"order {order}: position {a[k]}, lam {p[k]}, mismatch at {e[k]}: {data[:40]!r}")


def sorted_suffix_ranks(data):
    """The rank of each suffix among all suffixes compared as bytes."""
    isa = [0] * len(data)
    for r, i in enumerate(sorted(range(len(data)), key=lambda i: data[i:])):
        isa[i] = r
    return isa


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
    is never reached again, so the work is O(n). The oracle of the arrays
    engine's ``_next_smaller`` and of the Python engine's ``_lyndon_pass``.
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


def enumerate_as(monkeypatch, runs):
    """Make ``find_runs`` and the handle suite see ``runs`` as the enumeration of any word."""
    real = runs_module._enumerate
    monkeypatch.setattr(runs_module, "_enumerate", lambda data: (runs, real(data)[1]))

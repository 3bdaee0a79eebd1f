"""Helpers that only the tests use: views of runs, the engines' order rule and a
patched enumeration."""

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


def enumerate_as(monkeypatch, runs):
    """Make the handle suite see ``runs`` as the enumeration of the word it checks."""
    real = runs_module._runs_and_ranks
    monkeypatch.setattr(runs_module, "_runs_and_ranks", lambda word: (runs, real(word)[1]))

"""Helpers that only the tests use: views of runs and a patched enumeration."""

from runexp import runs as runs_module


def is_cubic(run):
    """Whether the period of ``run`` fits at least three times."""
    return run.length >= 3 * run.p


def as_triples(runs):
    """The runs of a RunSet as a list of (i, j, p) tuples."""
    return list(zip(runs.starts.tolist(), runs.ends.tolist(), runs.periods.tolist()))


def enumerate_as(monkeypatch, runs):
    """Make the handle suite see ``runs`` as the enumeration of the word it checks."""
    real = runs_module._runs_and_ranks
    monkeypatch.setattr(runs_module, "_runs_and_ranks", lambda word: (runs, real(word)[1]))

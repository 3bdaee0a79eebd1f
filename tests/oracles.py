"""Views of runs that only the tests read."""


def is_cubic(run):
    """Whether the period of ``run`` fits at least three times."""
    return run.length >= 3 * run.p


def as_triples(runs):
    """The runs of a RunSet as a list of (i, j, p) tuples."""
    return list(zip(runs.starts.tolist(), runs.ends.tolist(), runs.periods.tolist()))

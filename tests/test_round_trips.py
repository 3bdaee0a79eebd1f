"""Words, morphisms, family specs and run sets survive pickle and deepcopy,
so they can be sent to worker processes, and stay read-only."""

import copy
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from runexp.families import FamilySpec, builtin_family, generate_member, load_family
from runexp.runs import find_runs, run_stats
from runexp.words import Morphism, word_from_text

ROUND_TRIPS = {"pickle": lambda value: pickle.loads(pickle.dumps(value)), "deepcopy": copy.deepcopy}


def member_stats(spec, i):
    word = generate_member(spec, i)
    return run_stats(word, find_runs(word))


def morphisms_in(value):
    if isinstance(value, Morphism):
        return [value]
    return [value.inner, value.outer] if isinstance(value, FamilySpec) else []


def example_values(tmp_path):
    with_outer = tmp_path / "coded.fam"
    with_outer.write_text("name = coded\nseed = a\n[inner]\na -> ab\nb -> a\n[outer]\na -> 01\nb -> 0\n")
    identity = tmp_path / "fib.fam"
    identity.write_text("seed = a\n[inner]\na -> ab\nb -> a\n")
    return {
        "word": word_from_text("abaab", "abc"),
        "morphism": Morphism({"a": "ab", "b": "a"}),
        "builtin family": builtin_family(),
        "family file": load_family(with_outer),
        "family file, identity coding": load_family(identity),
    }


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize(
    "kind", ["word", "morphism", "builtin family", "family file", "family file, identity coding"]
)
def test_value_round_trip(tmp_path, kind, trip):
    value = example_values(tmp_path)[kind]
    copied = ROUND_TRIPS[trip](value)
    assert copied == value
    assert hash(copied) == hash(value)
    assert repr(copied) == repr(value)
    if isinstance(value, FamilySpec):
        assert generate_member(copied, 6) == generate_member(value, 6)
    # Writing to a table would change what a morphism does, or its hash, while it compares equal.
    for m in morphisms_in(value) + morphisms_in(copied):
        for table, key, image in ((m.rules, "a", "b"), (m.images, ord("a"), b"b")):
            with pytest.raises(TypeError):
                table[key] = image


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_runset_round_trip_stays_read_only(trip):
    runs = find_runs(generate_member(builtin_family(), 4))
    copied = ROUND_TRIPS[trip](runs)
    assert copied == runs
    for column in (copied.starts, copied.ends, copied.periods):
        assert not column.flags.writeable


def test_family_spec_goes_to_worker_processes():
    spec = builtin_family()
    # spawn, not fork: each worker starts from a fresh import and gets the spec only by pickle.
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        got = list(pool.map(member_stats, [spec] * 5, range(1, 6)))
    assert got == [member_stats(spec, i) for i in range(1, 6)]

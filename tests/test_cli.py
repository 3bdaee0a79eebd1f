"""CLI contract: verbs, formats, exit codes, input resolution."""

import csv
import io
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from runexp import runs as runs_module
from runexp.cli import (
    BYTES_PER_LETTER,
    PUBLISHED_BOUNDS,
    bound_checks,
    main,
    ratio_matches,
    sigma_cell_matches,
)
from runexp.families import generate_member
from runexp.runs import Run, RunSet, RunStats, find_runs
from runexp.words import word_from_text

from oracles import enumerate_as


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def projected(letters):
    return f"projected {letters * BYTES_PER_LETTER / 2**20:,.1f} MB"


@pytest.fixture
def memory_mb(monkeypatch):
    """Replace the machine's physical memory by the given number of MB."""

    def set_memory(mb):
        monkeypatch.setattr("runexp.cli.physical_memory", lambda: int(mb * 2**20))

    return set_memory


def never(*args, **kwargs):
    raise AssertionError("a refused input was built")


def parse_markdown_table(text):
    lines = [l for l in text.splitlines() if l.startswith("|")]
    rows = [[c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line[1:-1])] for line in lines]
    return [dict(zip(rows[0], r)) for r in rows[2:]]


class TestAnalyze:
    def test_literal_word_markdown(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "aabaabaa")
        assert code == 0
        cells = {r["field"]: r["value"] for r in parse_markdown_table(out)}
        assert cells["n"] == "8"
        assert cells["rho"] == "4"
        assert cells["sigma_exact"] == "26/3"
        assert cells["sigma"] == "8.67"

    def test_pipe_letter_is_escaped_in_markdown(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "a|a")
        assert code == 0
        assert r"| word | a\|a |" in out.splitlines()
        cells = {r["field"]: r["value"] for r in parse_markdown_table(out)}
        assert (cells["word"], cells["n"]) == ("a|a", "3")

    def test_no_runs_word(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "abc", "--format", "csv")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["rho"] == "0"
        assert row["sigma_exact"] == "0"

    def test_formats_carry_identical_numbers(self, capsys):
        _, md, _ = run_cli(capsys, "analyze", "aabaabaa")
        _, out_csv, _ = run_cli(capsys, "analyze", "aabaabaa", "--format", "csv")
        _, out_json, _ = run_cli(capsys, "analyze", "aabaabaa", "--format", "json")
        md_cells = {r["field"]: r["value"] for r in parse_markdown_table(md)}
        csv_cells = next(csv.DictReader(io.StringIO(out_csv)))
        json_cells = json.loads(out_json)
        for key, value in md_cells.items():
            assert csv_cells[key] == value
            # json carries plain counts as numbers, everything else as strings
            if key in {"n", "rho", "rho_cubic"}:
                assert json_cells[key] == int(value)
            else:
                assert json_cells[key] == value

    def test_run_listing_flag(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "aabaabaa", "--format", "csv", "--runs")
        assert code == 0
        assert "1\t8\t3\t8\t8/3" in out

    def test_json_runs_embedded(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "abab", "--format", "json", "--runs")
        payload = json.loads(out)
        assert payload["runs"] == [[1, 4, 2, 4, "2/1"]]

    @pytest.mark.parametrize("text", ["abab", "abc", "aabaabaa"])
    def test_json_runs_written_as_json_dump_would(self, capsys, text):
        # The rows are streamed; the bytes stay those of one json.dump of the whole payload.
        _, plain, _ = run_cli(capsys, "analyze", text, "--format", "json")
        _, out, _ = run_cli(capsys, "analyze", text, "--format", "json", "--runs")
        payload = json.loads(plain)
        payload["runs"] = [
            [r.i, r.j, r.p, r.length, f"{r.exponent.numerator}/{r.exponent.denominator}"]
            for r in find_runs(word_from_text(text, set(text)))
        ]
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_json_rows_match_the_runs_listing(self, capsys):
        _, listing, _ = run_cli(capsys, "runs", "family:5")
        _, out, _ = run_cli(capsys, "analyze", "family:5", "--runs", "--format", "json")
        rows = [line.split("\t") for line in listing.splitlines()]
        payload = json.loads(out)
        assert len(rows) == payload["rho"] > 0
        assert [list(map(str, row)) for row in payload["runs"]] == rows

    def test_word_file_input(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("abababab\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["rho"] == 1

    def test_family_member_input(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "family:5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6647
        assert payload["sigma_over_n"] == "2.0307"

    def test_missing_file_with_separator_fails(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "absent.txt"))
        assert code == 2
        assert "no such file" in err

    def test_unprintable_literal_fails(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "ab\tba")
        assert code == 2
        assert "error" in err

    def test_bad_family_reference(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "family:two")
        assert code == 2
        assert "family" in err

    def test_family_member_refused_before_it_is_built(self, capsys, monkeypatch, memory_mb):
        memory_mb(100)
        monkeypatch.setattr("runexp.cli.generate_member", never)
        code, out, err = run_cli(capsys, "analyze", "family:9")
        assert code == 2
        assert out == ""
        assert "run-rich:9 has 1,373,693 letters" in err
        assert projected(1_373_693) in err
        assert "100.0 MB of physical memory" in err

    def test_spec_family_member_refused_before_it_is_built(
        self, capsys, monkeypatch, tmp_path, memory_mb
    ):
        spec = tmp_path / "fib.fam"
        spec.write_text("name = fib\nseed = a\n[inner]\na -> ab\nb -> a\n")
        memory_mb(1)
        monkeypatch.setattr("runexp.cli.generate_member", never)
        # member 20 of the Fibonacci family has F(22) = 17,711 letters
        code, _, err = run_cli(capsys, "verify", "family:20", "--family-spec", str(spec))
        assert code == 2
        assert "fib:20 has 17,711 letters" in err
        assert projected(17_711) in err

    @pytest.mark.parametrize("verb", ["analyze", "runs", "verify"])
    @pytest.mark.parametrize("kind", ["literal", "word file"])
    def test_family_spec_refused_without_family_input(self, capsys, tmp_path, verb, kind):
        spec = tmp_path / "fib.fam"
        spec.write_text("name = fib\nseed = a\n[inner]\na -> ab\nb -> a\n")
        arg = "aab"
        if kind == "word file":
            arg = str(tmp_path / "w.txt")
            Path(arg).write_text("aab\n")
        code, out, err = run_cli(capsys, verb, arg, "--family-spec", str(spec))
        assert (code, out) == (2, "")
        assert err == f"error: --family-spec applies only to family:<index> inputs, got {arg!r}\n"

    def test_word_file_refused_before_it_is_read(self, capsys, monkeypatch, tmp_path, memory_mb):
        path = tmp_path / "w.txt"
        path.write_text("ab" * 5000 + "\n")
        memory_mb(1)
        monkeypatch.setattr("runexp.cli.read_word_file", never)
        code, _, err = run_cli(capsys, "runs", str(path))
        assert code == 2
        assert projected(10_001) in err

    @pytest.mark.parametrize("argv", [
        ("generate", "11"),
        ("analyze", "family:11"),
        ("certify-lower-bound", "--index", "11"),
    ])
    def test_member_11_refused_by_the_memory_gate_alone(self, capsys, monkeypatch, memory_mb, argv):
        memory_mb(1000)  # member 10 (745 MB projected) fits, member 11 does not
        monkeypatch.setattr("runexp.cli.generate_member", never)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "run-rich:11 has 19,745,303 letters" in err
        assert projected(19_745_303) in err

    @pytest.mark.parametrize("argv", [
        ("generate", "1000000"),
        ("analyze", "family:1000000"),
        ("analyze", "family:2000", "--family-spec", "FIB"),
        ("certify-lower-bound", "--index", "1", "--power", str(10**400)),
        ("analyze", f"family:{10**4298}"),
        # one letter more per step: about 15 GB projected at this index
        ("analyze", "family:100000000", "--family-spec", "LIN"),
    ])
    def test_huge_input_refused_quickly(self, capsys, monkeypatch, tmp_path, memory_mb, argv):
        specs = {"FIB": "a -> ab\nb -> a\n", "LIN": "a -> ab\nb -> b\n"}
        for name, rules in specs.items():
            (tmp_path / f"{name}.fam").write_text(f"seed = a\n[inner]\n{rules}")
        memory_mb(8192)
        monkeypatch.setattr("runexp.cli.generate_member", never)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *(str(tmp_path / f"{a}.fam") if a in specs else a for a in argv))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert len(err.encode()) < 300
        assert err.startswith("error: ")

    def test_input_within_memory_is_admitted(self, capsys, memory_mb):
        memory_mb(6647 * BYTES_PER_LETTER / 2**20)
        code, out, _ = run_cli(capsys, "analyze", "family:5", "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == 6647

    def test_space_is_not_a_letter(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "a b")
        assert code == 2
        assert out == ""
        assert "' '" in err

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        def exhausted(word):
            raise MemoryError

        monkeypatch.setattr("runexp.cli.find_runs", exhausted)
        code, out, err = run_cli(capsys, "analyze", "aabaabaa")
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory")


class TestGenerateAndRuns:
    def test_generate_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "1")
        assert code == 0
        assert out == "0100101101011010110100101101011\n"

    def test_generate_to_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "w2.txt"
        code, _, _ = run_cli(capsys, "generate", "2", "-o", str(path))
        assert code == 0
        assert path.read_text() == run_cli(capsys, "generate", "2")[1]
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
        assert json.loads(out)["n"] == 119

    def test_generate_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "generate", "-1")
        assert code == 2
        assert "must be >= 0" in err

    def test_generate_member_zero(self, capsys):
        # every family follows one index rule, i >= 0: member 0 is the coded seed
        code, out, _ = run_cli(capsys, "generate", "0")
        assert code == 0
        assert out == "01011\n"

    def test_runs_listing(self, capsys):
        code, out, _ = run_cli(capsys, "runs", "aabaabaa")
        assert code == 0
        assert out.splitlines() == [
            "1\t2\t1\t2\t2/1",
            "1\t8\t3\t8\t8/3",
            "4\t5\t1\t2\t2/1",
            "7\t8\t1\t2\t2/1",
        ]

    def test_runs_to_file(self, capsys, tmp_path):
        path = tmp_path / "runs.tsv"
        code, _, _ = run_cli(capsys, "runs", "abab", "-o", str(path))
        assert code == 0
        assert path.read_text() == "1\t4\t2\t4\t2/1\n"

    def test_family_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "fib.fam"
        spec.write_text("seed = a\n[inner]\na -> ab\nb -> a\n")
        code, out, _ = run_cli(capsys, "generate", "5", "--family-spec", str(spec))
        assert code == 0
        assert out.strip() == "abaababaabaab"
        code, out, _ = run_cli(
            capsys, "analyze", "family:5", "--family-spec", str(spec), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["word"] == "fib:5"

    def test_family_spec_error_names_file_and_line(self, capsys, tmp_path):
        spec = tmp_path / "bad.fam"
        spec.write_text("seed = a\n[inner]\na -> a b\n")
        code, out, err = run_cli(capsys, "generate", "3", "--family-spec", str(spec))
        assert code == 2
        assert out == ""
        assert err == f"error: {spec}:3: rule for 'a' contains ' ', outside the letters 0x21..0x7E\n"

    def test_non_growing_family_at_a_huge_index(self, capsys, tmp_path):
        # built in O(log i) squarings, not one step per index
        spec = tmp_path / "swap.fam"
        spec.write_text("seed = a\n[inner]\na -> b\nb -> a\n")
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "analyze", "family:1000000", "--family-spec", str(spec), "--format", "json"
        )
        assert time.perf_counter() - start < 1
        assert code == 0
        assert json.loads(out)["n"] == 1


class TestVerify:
    def test_pass_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "aabaabaa")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["oracle"] == {"cap": 2000, "checked": True, "match": True}
        assert report["handles"] == {
            "n": 8,
            "rho": 4,
            "A": 3,
            "B": 2,
            "disjoint": True,
            "lemma1_failures": [],
            "case_a_iff_p1": True,
        }
        assert all(entry["ok"] for entry in report["bounds"].values())

    def test_oracle_skipped_above_cap(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ab" * 1001)
        assert code == 0
        report = json.loads(out)
        assert report["oracle"] == {"cap": 2000, "checked": False, "match": None}

    def test_empty_word_passes(self, capsys, tmp_path):
        # the strict bounds speak of n >= 1; at n = 0 every count and sum is 0
        path = tmp_path / "empty.txt"
        path.write_text("")
        for word in ("", str(path)):
            code, out, _ = run_cli(capsys, "verify", word)
            assert code == 0
            report = json.loads(out)
            assert report["n"] == 0
            assert report["pass"] is True
            assert all(entry["ok"] for entry in report["bounds"].values())

    def test_family_word_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "family:3")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_run_breaking_the_definition_fails(self, capsys, monkeypatch):
        word = word_from_text("aabaabaa", "ab")
        enumerate_as(monkeypatch, RunSet.from_runs([*find_runs(word), Run(1, 8, 4)]))
        code, out, err = run_cli(capsys, "verify", "aabaabaa")
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "word": "aabaabaa",
            "n": 8,
            "invalid_run": "run [1..8] claims period 4 but the factor has period 3",
            "pass": False,
        }
        # A bad input word is still a usage error, with the patch in force.
        code, out, err = run_cli(capsys, "verify", "family:x")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad family reference")

    def test_member_7_passes_above_the_oracle_cap(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "family:7")
        assert code == 0
        report = json.loads(out)
        assert report["oracle"]["checked"] is False
        assert report["pass"] is True

    @pytest.mark.parametrize("word, sort", [
        ("family:5", "_prefix_doubling"),  # 6,647 letters: the arrays engine
        ("aabaabaa", "_suffix_ranks_small"),  # the Python engine
    ])
    def test_one_suffix_sort_per_word(self, capsys, monkeypatch, word, sort):
        # The handle suite takes its roots from the enumeration's own ranks.
        calls = []
        original = getattr(runs_module, sort)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(runs_module, sort, counted)
        code, out, _ = run_cli(capsys, "verify", word)
        assert code == 0
        assert json.loads(out)["pass"] is True
        assert len(calls) == 1

    def test_a_failed_bound_fails_verify(self, capsys, monkeypatch):
        monkeypatch.setitem(PUBLISHED_BOUNDS, "rho_le_runs_bound_n", (Fraction("0.1"), "rho"))
        code, out, _ = run_cli(capsys, "verify", "aaaa")
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["bounds"].pop("rho_le_runs_bound_n")["ok"] is False
        assert [entry["ok"] for entry in report["bounds"].values()] == [True] * 4

    def test_reported_limits_are_the_published_constants(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "aabaabaa")
        assert code == 0
        # exact fractions: 1.029, 4.1, 0.5 and 2.5
        assert {name: entry["limit"] for name, entry in json.loads(out)["bounds"].items()} == {
            "rho_le_runs_bound_n": "1029/1000",
            "sigma_lt_sigma_bound_n": "41/10",
            "rho_cubic_le_cubic_runs_bound_n": "1/2",
            "sigma_cubic_lt_sigma_cubic_bound_n": "5/2",
            "sigma_lt_3rho_plus_n": None,
        }

    @pytest.mark.parametrize("argv", [
        ("verify", "aab", "--threshold", "runs_bound=1"),
        ("certify-lower-bound", "--threshold", "lower_bound_target=2"),
    ])
    def test_threshold_option_is_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --threshold" in captured.err


class TestTable3:
    def test_small_prefix_passes(self, capsys):
        code, out, err = run_cli(capsys, "table3", "--max-i", "3")
        assert code == 0
        assert err == ""
        rows = parse_markdown_table(out)
        assert [r["n"] for r in rows] == ["31", "119", "461"]
        assert [r["sigma"] for r in rows] == ["47.10", "222.26", "911.68"]
        assert [r["sigma_over_n"] for r in rows] == ["1.5194", "1.8677", "1.9776"]

    def test_formats_identical(self, capsys):
        _, md, _ = run_cli(capsys, "table3", "--max-i", "2")
        _, out_csv, _ = run_cli(capsys, "table3", "--max-i", "2", "--format", "csv")
        _, out_json, _ = run_cli(capsys, "table3", "--max-i", "2", "--format", "json")
        md_rows = parse_markdown_table(md)
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        json_rows = json.loads(out_json)
        assert md_rows == csv_rows == json_rows

    def test_member_past_memory_refused_before_it_is_built(
        self, capsys, monkeypatch, memory_mb
    ):
        built = []

        def recording(spec, index):
            built.append(index)
            return generate_member(spec, index)

        monkeypatch.setattr("runexp.cli.generate_member", recording)
        memory_mb(0.1)  # would admit members 1..3 (461 letters); the last one is checked first
        code, out, err = run_cli(capsys, "table3", "--max-i", "9")
        assert code == 2
        assert out == ""
        assert built == []
        assert "run-rich:9 has 1,373,693 letters" in err
        assert projected(1_373_693) in err

    def test_index_zero_rejected(self, capsys):
        code, out, err = run_cli(capsys, "table3", "--max-i", "0")
        assert code == 2
        assert out == ""
        assert err == "error: --max-i must be in 1..10, got 0\n"

    def test_index_past_the_table_rejected(self, capsys):
        code, out, err = run_cli(capsys, "table3", "--max-i", "11")
        assert code == 2
        assert out == ""
        assert err == "error: --max-i must be in 1..10, got 11\n"


class TestCertify:
    def test_low_index_fails_informatively(self, capsys):
        code, out, _ = run_cli(capsys, "certify-lower-bound", "--index", "1")
        assert code == 1
        assert "verdict: FAIL" in out

    def test_index_four_is_still_below_target(self, capsys):
        code, out, _ = run_cli(capsys, "certify-lower-bound", "--index", "4")
        assert code == 1
        assert "verdict: FAIL" in out

    def test_member_8_passes(self, capsys):
        # the smallest member above 2.035
        code, out, _ = run_cli(capsys, "certify-lower-bound", "--index", "8")
        assert code == 0
        assert "verdict: PASS" in out

    def test_run_breaking_the_definition_fails(self, capsys, monkeypatch):
        # member 2 squared has 238 letters and not period 1
        real = runs_module._enumerate
        bad = Run(1, 238, 1)

        def with_bad_run(data):
            runs, isa = real(data)
            return RunSet.from_runs([*runs, bad]), isa

        monkeypatch.setattr(runs_module, "_enumerate", with_bad_run)
        code, out, err = run_cli(capsys, "certify-lower-bound", "--index", "2", "--power", "2")
        assert code == 1
        assert err == ""
        assert "runs checked against the definition" not in out
        assert out.splitlines()[-1].startswith("verdict: FAIL (run [1..238] claims period 1 but ")

    def test_runs_checked_line(self, capsys):
        code, out, _ = run_cli(capsys, "certify-lower-bound", "--index", "4")
        assert code == 1
        assert out.splitlines()[-2:] == [
            "runs checked against the definition: 1,607",
            "verdict: FAIL (exact comparison sigma/n > target)",
        ]

    def test_bad_power(self, capsys):
        code, out, err = run_cli(capsys, "certify-lower-bound", "--power", "0")
        assert code == 2
        assert out == ""
        assert err == "error: --power must be >= 1, got 0\n"

    def test_power_refused_before_it_is_built(self, capsys, monkeypatch, memory_mb):
        memory_mb(2)  # member 5 (6,647 letters) fits, its cube does not
        monkeypatch.setattr("runexp.cli.power", never)
        monkeypatch.setattr("runexp.cli.generate_member", never)
        code, out, err = run_cli(capsys, "certify-lower-bound", "--index", "5", "--power", "3")
        assert code == 2
        assert out == ""
        assert "run-rich:5 to the power 3 has 19,941 letters" in err
        assert projected(19_941) in err

    @pytest.mark.parametrize("power, shown", [
        (10**4298, "to the power [4,299 digits] has [4,300 digits] letters"),
        (-(10**4298), "--power must be >= 1, got -[4,299 digits]"),
        (10**29 + 1, "to the power 100,000,000,000,000,000,000,000,000,001 has "),
    ])
    def test_huge_power_refused_in_one_short_line(self, capsys, monkeypatch, power, shown):
        monkeypatch.setattr("runexp.cli.generate_member", never)
        code, out, err = run_cli(capsys, "certify-lower-bound", "--index", "1", "--power", str(power))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert len(err.encode()) < 300
        assert shown in err

    def test_huge_power_capped(self, capsys):
        code, _, err = run_cli(capsys, "certify-lower-bound", "--power", "1000000")
        assert code == 2
        assert "cap" in err


class TestComparisonHelpers:
    def test_sigma_cell_accepts_both_roundings(self):
        assert sigma_cell_matches(Fraction(26, 3), "8.67")
        assert sigma_cell_matches(Fraction(26, 3), "8.66")
        assert not sigma_cell_matches(Fraction(26, 3), "8.65")

    def test_ratio_tolerance(self):
        assert ratio_matches(Fraction("1.51941"), "1.5194")
        assert ratio_matches(Fraction("1.51949"), "1.5195")
        assert not ratio_matches(Fraction("1.5196"), "1.5194")

    def test_bound_checks_use_exact_arithmetic(self):
        # n = 1000, every statistic 0 but one: a count may reach its limit
        # times n, an exponent sum may not.
        zero = dict(n=1000, rho=0, sigma=Fraction(0), rho_cubic=0, sigma_cubic=Fraction(0))
        edges = [
            ("rho_le_runs_bound_n", "rho", 1029, 1030),
            ("rho_cubic_le_cubic_runs_bound_n", "rho_cubic", 500, 501),
            ("sigma_lt_sigma_bound_n", "sigma", 4100 - Fraction(1, 10**30), Fraction(4100)),
            ("sigma_cubic_lt_sigma_cubic_bound_n", "sigma_cubic", 2500 - Fraction(1, 10**30), Fraction(2500)),
        ]
        for check, field, passing, failing in edges:
            assert bound_checks(RunStats(**{**zero, field: passing}))[check]["ok"] is True
            assert bound_checks(RunStats(**{**zero, field: failing}))[check]["ok"] is False
        empty = bound_checks(RunStats(**{**zero, "n": 0}))
        assert [entry["ok"] for entry in empty.values()] == [True] * 5


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """Each ``$ runexp ...`` line of README's console blocks, with the lines shown after it."""
    examples = {}
    for block in re.findall(r"^```console\n(.*?)^```", README.read_text(), flags=re.M | re.S):
        for command in re.split(r"^\$ runexp ", block, flags=re.M)[1:]:
            argv, _, out = command.partition("\n")
            examples[argv] = out
    return examples


class TestReadmeExamples:
    """README's unabridged console examples, byte for byte, and its library example."""

    @pytest.mark.parametrize("argv", ["generate 1", "runs aabaabaa", "analyze family:2", "table3 --max-i 4"])
    def test_console_block(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert out == readme_examples()[argv]

    def test_library_block(self, capsys):
        """Each line the Python block prints is the comment on its print line."""
        (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
        exec(block, {})
        expected = [line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")]
        assert capsys.readouterr().out.splitlines() == expected

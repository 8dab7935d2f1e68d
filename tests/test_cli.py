"""End-to-end command-line behaviour: formats, schemas, exit codes, env knobs."""

import ast
import contextlib
import importlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from psl2count import arith, bhc, cli, heathbrown, invariants, oracle, search


def run(argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    saved = {}
    env = env or {}
    for k, v in env.items():
        saved[k] = os.environ.get(k)
        os.environ[k] = v
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


class TestInvariantsCommand:
    def test_table(self):
        code, out, _ = run(["invariants", "37"])
        assert code == 0
        assert "i=19 c=21 s=5 n=16" in out

    def test_csv_row(self):
        code, out, _ = run(["invariants", "53", "--format", "csv"])
        assert code == 0
        assert out.strip() == "53,4,4,0,1,0,0,17,18,6,12"

    def test_json(self):
        code, out, _ = run(["invariants", "37", "--format", "json"])
        assert json.loads(out) == {
            "p": 37, "delta": 2, "epsilon": 6, "k": 0, "l": 1, "sigma": 0,
            "alpha": 0, "i": 19, "c": 21, "s": 5, "n": 16,
        }

    def test_p3_redirects_with_notice(self):
        code, out, err = run(["invariants", "3", "--format", "csv"])
        assert code == 0
        assert out.strip() == "3,,,,,,,3,3,1,2"
        assert "brute-force" in err

    def test_composite_is_usage_error(self):
        code, _, err = run(["invariants", "4"])
        assert code == 2
        assert "prime" in err


class TestCensusCommand:
    def test_self_normalising_listing(self):
        code, out, _ = run(["census", "37"])
        assert code == 0
        assert "self-normalising: A4, D18, D19, D6, E37:C18" in out

    def test_oracle_diff_empty(self):
        code, out, _ = run(["census", "13", "--oracle"])
        assert code == 0
        assert "(empty)" in out

    def test_oracle_cap(self):
        code, _, err = run(["census", "67", "--oracle"])
        assert code == 2
        assert "capped at p <= 61" in err
        code, _, err = run(["census", "17", "--oracle", "--allow-slow-oracle"])
        assert code == 2  # the opt-in flag is gone: p <= 61 needs none
        assert "--allow-slow-oracle" in err
        for p in (2, 0, -7):
            code, out, err = run(["census", str(p), "--oracle"])
            assert (code, out) == (2, ""), p
            assert f"needs 3 <= p <= 61, got {p}" in err

    def test_oracle_label_failure_is_internal(self, monkeypatch):
        # a subgroup the catalogue cannot name is a defect of the oracle, not a usage error
        monkeypatch.setattr(oracle, "_A4_ORDERS", {})
        code, _, err = run(["census", "5", "--oracle"])
        assert code == 4
        assert err.strip().splitlines()[-1] == (
            "psl2count: internal error: AssertionError: subgroup of order 12 matches no catalogue type"
        )

    def test_p3_requires_oracle(self):
        assert run(["census", "3"])[0] == 2
        code, out, _ = run(["census", "3", "--oracle", "--format", "json"])
        assert code == 0
        assert json.loads(out)["i"] == 3

    def test_json_schema_clean_stdout(self):
        code, out, err = run(["census", "11", "--oracle", "--format", "json"])
        assert code == 0
        d = json.loads(out)  # stdout holds nothing but the schema
        assert set(d) == {"p", "entries", "i", "c", "s", "n"}
        assert "(empty)" in err

    def test_csv(self):
        code, out, _ = run(["census", "5", "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "label,order,classes,self_normalising"
        assert "A4,12,1,1" in lines


class TestVerifyTableCommand:
    def test_default_passes_with_known_issue(self):
        code, out, _ = run(["verify-table"])
        assert code == 0
        assert "16 formula rows checked" in out
        assert "known issues: 1" in out

    def test_strict_fails(self):
        assert run(["verify-table", "--strict"])[0] == 1

    def test_json(self):
        code, out, _ = run(["verify-table", "--format", "json"])
        d = json.loads(out)
        assert d["ok"] is True
        assert d["known_issues"] == [{"p": 7, "column": "c", "expected": 14, "computed": 13}]
        assert len(d["rows"]) == 17

    def test_csv(self):
        _, out, _ = run(["verify-table", "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "p,status"
        assert "7,known-issue" in lines
        assert sum(1 for l in lines[1:] if l.endswith(",ok")) == 16

    def test_oracle_rows(self):
        code, out, _ = run(["verify-table", "--oracle-rows"])
        assert code == 0


# (p, column index in a _GOLDEN row, wrong value): i at 11, delta at 23, s at 3
_CORRUPTED_CELLS = ((11, 7, 13), (23, 1, 7), (3, 9, 2))


class TestVerifyTableMismatch:
    """The real table's only odd cell is the p = 7 known issue; three wrong cells reach "mismatch"."""

    @pytest.fixture(autouse=True)
    def corrupt_table(self, monkeypatch):
        rows = [list(row) for row in invariants._GOLDEN]
        for p, col, value in _CORRUPTED_CELLS:
            next(row for row in rows if row[0] == p)[col] = value
        monkeypatch.setattr(invariants, "_GOLDEN", tuple(map(tuple, rows)))

    def test_exit_code_with_and_without_strict(self):
        assert run(["verify-table"])[0] == 1
        assert run(["verify-table", "--strict"])[0] == 1

    def test_table(self):
        code, out, _ = run(["verify-table"])
        lines = out.splitlines()
        for line in ("p=3   mismatch  (s: table 2, computed 1)",
                     "p=11  mismatch  (i: table 13, computed 12)",
                     "p=23  mismatch  (delta: table 7, computed 6)",
                     "p=7   known-issue  (c: table 14, computed 13)"):
            assert line in lines
        assert lines[-1].endswith("mismatches: 3, known issues: 1")

    def test_json(self):
        d = json.loads(run(["verify-table", "--format", "json"])[1])
        assert d["ok"] is False
        assert [(m["p"], m["column"]) for m in d["mismatches"]] == [(3, "s"), (11, "i"), (23, "delta")]
        assert d["mismatches"][1] == {"p": 11, "column": "i", "expected": 13, "computed": 12}
        assert [r["status"] for r in d["rows"] if r["p"] in (3, 7, 11, 23)] == [
            "mismatch", "known-issue", "mismatch", "mismatch"]

    def test_csv(self):
        lines = run(["verify-table", "--format", "csv"])[1].splitlines()
        for line in ("3,mismatch", "11,mismatch", "23,mismatch", "7,known-issue"):
            assert line in lines
        assert sum(1 for line in lines[1:] if line.endswith(",ok")) == 13

    def test_oracle_rows(self):
        code, out, _ = run(["verify-table", "--oracle-rows", "--format", "json"])
        d = json.loads(out)
        assert code == 1
        assert [(m["p"], m["column"]) for m in d["mismatches"]] == [
            (3, "s"), (11, "i"), (11, "oracle_i"), (23, "delta")]
        assert [(k["p"], k["column"]) for k in d["known_issues"]] == [(7, "c"), (7, "oracle_c")]
        _, out, _ = run(["verify-table", "--oracle-rows"])
        assert "p=7   known-issue  (c: table 14, computed 13)  (oracle_c: table 14, computed 13)" in out.splitlines()
        assert "p=11  mismatch  (i: table 13, computed 12)  (oracle_i: table 13, computed 12)" in out.splitlines()


class TestSearchCommand:
    def test_first_hit_in_table(self):
        code, out, _ = run(["search", "b", "--t-max", "100"])
        assert code == 0
        assert "t=3" in out and "p=43" in out

    def test_json_schema(self):
        code, out, _ = run(["search", "a", "--t-max", "1000", "--format", "json",
                            "--threads", "2", "--show-hits", "3"])
        d = json.loads(out)
        assert d["q_count"] == 13
        assert d["sigma_alpha_zero"] == 12
        assert [h["p"] for h in d["first_hits"]][:2] == [29, 173]

    def test_csv(self):
        _, out, _ = run(["search", "c", "--t-max", "1000", "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "case,t_max,q_count,sigma_alpha_zero"
        assert lines[1] == "c,1000,16,14"

    def test_env_override(self):
        code, out, _ = run(["search", "a", "--format", "json"], env={"PSL2_T_MAX": "1000"})
        assert code == 0
        assert json.loads(out)["q_count"] == 13

    def test_bad_case(self):
        assert run(["search", "e", "--t-max", "10"])[0] == 2

    def test_split_named_by_its_pair(self):
        # 3:2 is case a under its own label; 1:1's one triple, (5, 3, 2), is at t = 2
        a = json.loads(run(["search", "a", "--t-max", "1e4", "--format", "json"])[1])
        code, out, _ = run(["search", "3:2", "--t-max", "1e4", "--format", "json"])
        assert code == 0 and json.loads(out) == dict(a, case="3:2")
        code, out, _ = run(["search", "1:1", "--t-max", "100", "--format", "json"])
        assert code == 0
        d = json.loads(out)
        assert (d["case"], d["q_count"]) == ("1:1", 1)
        assert [(h["t"], h["p"], h["s"], h["r"]) for h in d["first_hits"]] == [(2, 5, 3, 2)]

    @pytest.mark.parametrize("case_id,least", [("a", 5), ("b", 5), ("c", 5), ("d", 5), ("1:1", 2), ("3:10", 7)])
    def test_table_header_shows_the_least_hit_value(self, case_id, least):
        # the next prime past the largest prime of m+ m- (1 for 1:1), below which no hit's s or r lies
        code, out, _ = run(["search", case_id, "--t-max", "100"])
        assert code == 0
        header = next(line for line in out.splitlines() if line.startswith("first "))
        assert header.endswith(f" hits (s, r both at least {least}):"), header
        hits = [re.search(r" s=(\d+) +r=(\d+) ", line) for line in out.splitlines() if line.startswith("  t=")]
        assert hits and min(int(v) for h in hits for v in h.groups()) >= least

    def test_scientific_notation(self):
        code, out, _ = run(["search", "a", "--t-max", "1e3", "--format", "json"])
        assert json.loads(out)["t_max"] == 1000

    @pytest.mark.parametrize("text,value", [
        ("9007199254740993e0", 9007199254740993),  # 2**53 + 1, where a float would give 2**53
        ("1.8446744073709551615e19", 2**64 - 1),
        ("1e23", 10**23),
        ("2.50e1", 25),
        ("-3E2", -300),
        ("0e999999999", 0),
    ])
    def test_scientific_notation_is_exact(self, text, value):
        assert cli._int_arg(text) == value

    def test_exact_value_reaches_the_command(self):
        code, _, err = run(["invariants", "9007199254740993e0"])
        assert code == 2 and "got 9007199254740993" in err

    @pytest.mark.parametrize("text", ["1.5", "inf", "nan", "1e999999999", "1e-999999999", "e5", ".",
                                      "2.5", "1.50", "1e-3", "1e400"])
    def test_non_integers_are_usage_errors(self, text):
        start = time.perf_counter()
        code, out, err = run(["search", "a", "--t-max", text])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        # only a value too long to read names the digits; a fraction is just not an integer
        want = "an integer of at most 309 digits" if text in ("1e999999999", "1e400") else "an integer"
        assert err.rstrip().endswith(f"expected {want}, got {text!r}"), err

    def test_only_shown_hits_are_built(self, monkeypatch):
        caps = []
        real_scan = search.scan

        def recording_scan(spec, t_max, **kw):
            caps.append(kw["hit_cap"])
            return real_scan(spec, t_max, **kw)

        monkeypatch.setattr(search, "scan", recording_scan)
        code, out, _ = run(["search", "a", "--t-max", "1000", "--show-hits", "3"])
        assert code == 0 and caps == [3]
        assert out.count("  t=") == 3

    def test_progress_goes_to_stderr(self):
        code, out, err = run(["search", "a", "--t-max", "1e7", "--format", "json"])
        assert code == 0
        assert json.loads(out)["q_count"] == 13037
        lines = err.splitlines()
        assert lines
        for line in lines:
            assert re.fullmatch(r"scan a: t \d+/10000000, \d\.\de\d+ t/s, ETA \d+ s", line), line
        assert lines[-1].startswith("scan a: t 10000000/10000000, ")

    def test_oversized_scan_is_a_resource_abort(self):
        # refused before any block is built: there would be 2.5e11 of them
        start = time.perf_counter()
        code, out, err = run(["search", "a", "--t-max", "1e18"])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith("psl2count: resource cap hit: ResourceLimitError")

    @pytest.mark.parametrize("case_id", search.CASES)
    def test_64_bit_bound_reads_the_case_forms(self, case_id):
        # at t = floor((2**64 - 2)/12) case d's largest value, 12t + 1, still fits in
        # 64 bits, so only its base primes pass a cap (3); 12t + 5, 12t + 7 and
        # 12t + 11 do not fit (2), and at t + 1 no case fits
        t = (2**64 - 2) // 12
        code, out, err = run(["search", case_id, "--t-max", str(t)])
        assert (code, out) == (3 if case_id == "d" else 2, "")
        assert ("resource cap hit" if case_id == "d" else "64-bit") in err
        assert run(["search", case_id, "--t-max", str(t + 1)])[0] == 2

    def test_oversized_hit_cap_is_a_resource_abort(self, monkeypatch):
        # refused before any sieving: each built hit takes about 1 KB
        def no_sieve(*args):
            raise AssertionError("sieve_forms called")

        monkeypatch.setattr(arith, "sieve_forms", no_sieve)
        code, out, err = run(["search", "a", "--t-max", "100", "--show-hits", "1000001"])
        assert code == 3
        assert out == ""
        assert err.startswith("psl2count: resource cap hit: ResourceLimitError")
        assert str(search.MAX_HITS) in err
        monkeypatch.undo()
        code, out, _ = run(["search", "a", "--t-max", "100", "--show-hits", str(search.MAX_HITS)])
        assert code == 0 and out.count("  t=") == 4  # every hit to t = 100

    def test_negative_hit_counts_are_usage_errors(self):
        assert run(["search", "a", "--t-max", "100", "--show-hits", "-1"])[0] == 2


class TestCaseNames:
    """search and bhc take a case a-d or a split M+:M-; anything else is a usage error."""

    ARGS = {"search": ["--t-max", "100"], "bhc": ["--x", "1e6", "--trunc", "1e4"]}

    @pytest.mark.parametrize("command", ["search", "bhc"])
    @pytest.mark.parametrize("name", ["e", "3:", ":3", "2:4", "0:3", "3:2:1", "x:y"])
    def test_bad_name_is_one_usage_line(self, command, name):
        code, out, err = run([command, name, *self.ARGS[command]])
        assert (code, out) == (2, ""), err
        assert len(err.splitlines()) == 1 and err.startswith("psl2count: ") and "Traceback" not in err, err

    @pytest.mark.parametrize("name", ["5:7", "1:1"])
    def test_bhc_refuses_a_split_with_a_fixed_prime(self, name):
        code, out, err = run(["bhc", name, *self.ARGS["bhc"]])
        assert (code, out) == (2, "")
        assert err == "psl2count: the family product has the fixed prime divisor 2\n"

    def test_search_refuses_a_split_past_the_sieve(self):
        # 2 m+ m- = 2 * 65535 * 65536 >= 2**32: the sieve cannot take p's form, while bhc can
        code, out, err = run(["search", "65535:65536", "--t-max", "10"])
        assert (code, out) == (2, "")
        assert err == "psl2count: case 65535:65536: the sieve needs p = a*t + b with a = 2 m+ m- < 2**32, got a = 8589803520\n"
        code, out, _ = run(["bhc", "65535:65536", "--x", "1e6", "--trunc", "1000"])
        assert code == 0 and "652.2478727" in out, out

    def test_search_takes_a_split_just_below_the_sieve_bound(self):
        assert 2 * 46340 * 46341 < 2**32
        code, out, err = run(["search", "46340:46341", "--t-max", "10"])
        assert (code, err) == (0, "") and out.startswith("case (46340:46341): t in [1, 10]\nprime triples: 0\n"), out

    def test_help_shows_both_forms(self):
        assert cli._CASE == "{" + ",".join(search.CASES) + ",M+:M-}"
        for command in ("search", "bhc"):
            code, out, _ = run([command, "--help"], env={"COLUMNS": "80"})
            assert code == 0 and "{a,b,c,d,M+:M-}" in out, out

    def test_q_file_of_a_split(self, tmp_path):
        qf = tmp_path / "q43.json"
        code, out, _ = run(["search", "4:3", "--t-max", "1e6", "--format", "json"])
        assert code == 0 and json.loads(out)["q_count"] == 1900
        qf.write_text(out)
        code, out, err = run(["bhc", "4:3", "--x", "1e6", "--trunc", "1e5", "--q-file", str(qf)])
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "Q = 1900 at t_max = 1000000, (E - Q)/Q = -0.8878%"
        code, out, err = run(["bhc", "3:4", "--x", "1e6", "--trunc", "1e5", "--q-file", str(qf)])
        assert (code, out) == (2, "")
        assert err == "psl2count: scan file is for case '4:3', estimate is for '3:4'\n"
        # a name that is no case is reported as such, before the scan file is read
        code, out, err = run(["bhc", "4:", "--x", "1e6", "--trunc", "1e5", "--q-file", str(qf)])
        assert (code, out) == (2, "") and err.startswith("psl2count: case must be one of a, b, c, d or a split M+:M-")

    def test_q_file_matches_by_split(self, tmp_path):
        # 3:2 is case a: its scan feeds bhc a as a's own does; a 3:4 scan is no 4:3 scan
        lines = {}
        for name in ("a", "3:2"):
            qf = tmp_path / f"{name.replace(':', '_')}.json"
            qf.write_text(run(["search", name, "--t-max", "1e6", "--format", "json"])[1])
            code, out, err = run(["bhc", "a", "--x", "1e6", "--trunc", "1e5", "--q-file", str(qf)])
            assert code == 0 and err == "", err
            lines[name] = out.splitlines()[-1]
        assert lines["3:2"] == lines["a"] and lines["a"].startswith("Q = 2064 at t_max = 1000000, ")
        qf = tmp_path / "q34.json"
        qf.write_text(run(["search", "3:4", "--t-max", "1e4", "--format", "json"])[1])
        code, out, err = run(["bhc", "4:3", "--x", "1e4", "--trunc", "1e4", "--q-file", str(qf)])
        assert (code, out, err) == (2, "", "psl2count: scan file is for case '3:4', estimate is for '4:3'\n")

    @pytest.mark.parametrize("case", [5, None, ["a"], {"a": 1}, "e", "3:", "2:4", ""])
    def test_q_file_whose_case_is_no_case(self, tmp_path, case):
        qf = tmp_path / "scan.json"
        qf.write_text(json.dumps({"case": case, "t_max": 10**6, "q_count": 2064}))
        code, out, err = run(["bhc", "a", "--x", "1e6", "--trunc", "1e4", "--q-file", str(qf)])
        assert (code, out) == (2, "")
        assert err.startswith("psl2count: scan file is for case ") and "Traceback" not in err, err

    @pytest.mark.parametrize("t_max", [10**6, None, 10**6 + 1, 1e9, "1000000000", True])
    def test_q_file_t_max_must_be_x(self, tmp_path, t_max):
        # Q(t_max) against E(x) only at t_max = x; a missing t_max is refused too
        qf = tmp_path / "scan.json"
        scan = {"case": "a", "q_count": 2064}
        if t_max is not None:
            scan["t_max"] = t_max
        qf.write_text(json.dumps(scan))
        code, out, err = run(["bhc", "a", "--x", "1e9", "--trunc", "1e4", "--q-file", str(qf)])
        assert (code, out) == (2, "")
        assert err == f"psl2count: scan file {qf} is for t_max = {t_max!r}, estimate is for x = 1000000000\n"


class TestBhcCommand:
    def test_json_schema(self):
        code, out, _ = run(["bhc", "a", "--x", "1e6", "--trunc", "1e4", "--format", "json"])
        assert code == 0
        d = json.loads(out)
        assert set(d) == {"family", "x", "a", "P", "C", "integral", "E", "tail_bound"}
        assert d["P"] == 10000 and d["a"] == 1
        assert 5.7 < d["C"] < 5.8

    def test_q_file_comparison(self, tmp_path):
        qf = tmp_path / "scan.json"
        qf.write_text(json.dumps({"case": "a", "t_max": 10**6, "q_count": 2064,
                                  "sigma_alpha_zero": 0, "first_hits": []}))
        code, out, _ = run(["bhc", "a", "--x", "1e6", "--trunc", "1e4", "--q-file", str(qf)])
        assert code == 0
        assert "(E - Q)/Q" in out

    def test_q_file_case_mismatch(self, tmp_path):
        qf = tmp_path / "scan.json"
        qf.write_text(json.dumps({"case": "b", "t_max": 10, "q_count": 1}))
        code, out, err = run(["bhc", "a", "--x", "1e6", "--trunc", "1e4", "--q-file", str(qf)])
        assert code == 2
        assert out == ""
        assert "case" in err

    def test_unreadable_q_file_is_a_usage_error(self, tmp_path):
        missing = tmp_path / "missing.json"
        bad = [missing]
        for i, content in enumerate([
            {"case": "a", "t_max": 10},       # no q_count
            {"case": "a", "q_count": "2064"},
            {"case": "a", "q_count": 2064.5},
            {"case": "a", "q_count": True},
            {"case": "a", "q_count": 0},
            [1, 2],
            "q_count",
        ]):
            bad.append(tmp_path / f"bad{i}.json")
            bad[-1].write_text(json.dumps(content))
        bad.append(tmp_path / "not_json.json")
        bad[-1].write_text("{q_count: 2064")
        for qf in bad:
            for fmt in ("table", "json", "csv"):
                code, out, err = run(["bhc", "a", "--x", "1e6", "--trunc", "1e4", "--q-file", str(qf),
                                      "--format", fmt])
                assert (code, out) == (2, ""), (qf.name, fmt)
                assert "scan file" in err and "Traceback" not in err

    def test_usage_errors(self):
        assert run(["bhc", "a", "--x", "0.5", "--trunc", "1e4"])[0] == 2
        assert run(["bhc", "a", "--x", "1e6", "--trunc", "10"])[0] == 2
        for x in ("inf", "nan", "1e400"):
            start = time.perf_counter()
            code, out, err = run(["bhc", "a", "--x", x, "--trunc", "1e4"])
            assert time.perf_counter() - start < 5.0, x
            assert (code, out) == (2, ""), x
            assert "Traceback" not in err

    def test_x_whose_member_values_overflow_is_a_usage_error(self, monkeypatch):
        code, out, err = run(["bhc", "a", "--x", "1e307", "--trunc", "1e4", "--format", "json"])
        assert code == 0 and err == ""
        assert json.loads(out)["integral"] > 0

        def unreachable(fam, truncation):
            raise AssertionError("hl_constant reached")

        monkeypatch.setattr(bhc, "hl_constant", unreachable)
        for x in ("1e308", "1.7e308"):  # 12 * x + 5 overflows to inf
            code, out, err = run(["bhc", "a", "--x", x, "--trunc", "1e4"])
            assert (code, out) == (2, ""), x
            assert "12*x + 5 overflows" in err and "Traceback" not in err, err

    def test_bad_x_is_refused_before_the_constant(self, monkeypatch):
        def unreachable(fam, truncation):
            raise AssertionError("hl_constant reached")

        monkeypatch.setattr(bhc, "hl_constant", unreachable)
        for x in ("inf", "nan", "0.5"):
            code, out, err = run(["bhc", "a", "--x", x, "--trunc", "1e8"])
            assert (code, out) == (2, ""), x
            assert "x must" in err, err

    def test_oversized_truncation_is_a_resource_abort(self):
        code, out, err = run(["bhc", "a", "--x", "1e9", "--trunc", "1e12"])
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("psl2count: "), err


class TestHbCommand:
    def test_csv_schema(self):
        code, out, _ = run(["hb", "--limit", "100000", "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "p,omega_minus,omega_plus,i,c,s,n"
        assert lines[1].startswith("5,2,2,")

    def test_json_bounds(self):
        code, out, _ = run(["hb", "--limit", "100000", "--format", "json"])
        d = json.loads(out)
        assert d["bounds"] == {"i": 390, "c": 454, "s": 132, "n": 384}
        assert all(
            c["i"] <= 390 and c["c"] <= 454 and c["s"] <= 132 and c["n"] <= 384
            for c in d["candidates"] if c["i"] is not None
        )

    def test_limit_floor(self):
        assert run(["hb", "--limit", "10"])[0] == 2

    def test_limit_past_the_prime_cap_is_a_resource_abort(self):
        start = time.perf_counter()
        code, out, err = run(["hb", "--limit", "1e17", "--format", "json"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("psl2count: resource cap hit: ResourceLimitError")

    @staticmethod
    def _reference(limit, fmt, show=10):
        """hb's stdout built from per-candidate rows: one dict per row and json.dumps over all."""
        found = heathbrown.scan_hb(limit)
        bounds = heathbrown.derive_upper_bounds()
        quad = invariants.counts(found.profile)
        cols = ("p", "omega_minus", "omega_plus", "i", "c", "s", "n")
        rows = list(zip(*(c.tolist() for c in (found.p, found.omega_minus, found.omega_plus, *quad))))
        if fmt == "json":
            return json.dumps({
                "limit": limit,
                "bounds": dict(zip("icsn", bounds)),
                "candidates": [dict(zip(cols, r)) for r in rows],
            }) + "\n"
        if fmt == "csv":
            return "\n".join([",".join(cols), *(",".join(map(str, r)) for r in rows)]) + "\n"
        lines = [f"primes p = 5 mod 72 with few factors around them, p <= {limit}: {len(rows)}",
                 "bounds: i<={} c<={} s<={} n<={}".format(*bounds)]
        lines += [f"  p={r[0]:<10} Omega(p-1)={r[1]} Omega(p+1)={r[2]} "
                  f"i={r[3]} c={r[4]} s={r[5]} n={r[6]}" for r in rows[:show]]
        if len(rows) > show:
            lines.append(f"  ... {len(rows) - show} more (use --show)")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("limit", [10**5, 10**6])
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_rows_equal_the_per_candidate_reference(self, limit, fmt):
        code, out, err = run(["hb", "--limit", str(limit), "--format", fmt])
        assert (code, err) == (0, "")
        assert out == self._reference(limit, fmt)

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_chunk_size_leaves_stdout_unchanged(self, chunk, fmt, monkeypatch):
        # one chunk of rows per segment of t, most of them empty at 1 and 7 t
        monkeypatch.setattr(arith, "_PRIME_SEGMENT", chunk)
        assert run(["hb", "--limit", "100000", "--format", fmt])[1] == self._reference(10**5, fmt)

    @pytest.mark.parametrize("show", [0, 3, -1, 10**6])
    def test_table_show(self, show):
        code, out, err = run(["hb", "--limit", "100000", "--show", str(show)])
        if show < 0:
            assert (code, out) == (2, "")
            assert "--show must be at least 0" in err
        else:
            assert out == self._reference(10**5, "table", show)

    def test_single_candidate(self):
        code, out, _ = run(["hb", "--limit", "77", "--format", "json"])
        assert code == 0
        assert json.loads(out)["candidates"] == [
            {"p": 5, "omega_minus": 2, "omega_plus": 2, "i": 7, "c": 7, "s": 3, "n": 4}
        ]
        assert out == self._reference(77, "json")


class TestPlumbing:
    def test_no_arguments_is_usage_error(self):
        assert run([])[0] == 2

    def test_format_env_override_and_flag_priority(self):
        _, out, _ = run(["invariants", "53"], env={"PSL2_FORMAT": "csv"})
        assert out.strip() == "53,4,4,0,1,0,0,17,18,6,12"
        _, out, _ = run(["invariants", "53", "--format", "json"], env={"PSL2_FORMAT": "csv"})
        assert json.loads(out)["p"] == 53

    def test_non_finite_integer_flags_are_usage_errors(self):
        for argv in (["search", "a", "--t-max", "1e400"], ["hb", "--limit", "inf"],
                     ["bhc", "a", "--x", "1e9", "--trunc", "nan"]):
            code, out, err = run(argv)
            assert (code, out) == (2, ""), argv
            assert "Traceback" not in err

    def test_bad_env_value_is_usage_error(self):
        code, _, _ = run(["invariants", "53"], env={"PSL2_FORMAT": "yaml"})
        assert code == 2

    def test_boolean_env_presets(self):
        # the known issue at p = 7 fails verify-table only under --strict
        for word in ("1", "true", "YES", " On "):
            assert run(["verify-table"], env={"PSL2_STRICT": word})[0] == 1, word
        for word in ("0", "false", "No", "OFF", ""):
            assert run(["verify-table"], env={"PSL2_STRICT": word})[0] == 0, word
        for word in ("ture", "2", "y"):
            code, out, err = run(["verify-table"], env={"PSL2_STRICT": word})
            assert (code, out) == (2, ""), word
            assert err.startswith(f"psl2count: PSL2_STRICT={word!r} is not one of"), err

    def test_entry_point_exists(self):
        assert callable(cli.entry)

    def test_entry_exits_with_the_status_of_main(self):
        # entry() flushes stdio and ends by os._exit; output and status stay
        # main's.  Without PYTHONUNBUFFERED, stdout to a pipe is block-buffered,
        # and --help leaves main by SystemExit before main's own flush.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), COLUMNS="80")
        cases = [["invariants", "53", "--format", "csv"], ["census", "67", "--oracle"], ["--help"],
                 ["search", "--help"], *(["hb", "--limit", "1e6", "--format", fmt] for fmt in ("json", "csv", "table"))]
        for argv in cases:
            code, out, _ = run(argv, env={"COLUMNS": "80"})
            if "--help" in argv:
                assert code == 0 and out.startswith("usage: psl2count"), argv
            for unbuffered in (True, False):
                env.pop("PYTHONUNBUFFERED", None)
                if unbuffered:
                    env["PYTHONUNBUFFERED"] = "1"
                proc = subprocess.run([sys.executable, "-c", "from psl2count.cli import entry; entry()", *argv],
                                      capture_output=True, text=True, env=env, timeout=120)
                assert (proc.returncode, proc.stdout) == (code, out), (argv, unbuffered, proc.stderr)
        assert run(["invariants", "53", "--format", "csv"])[1] == "53,4,4,0,1,0,0,17,18,6,12\n"
        assert run(["census", "67", "--oracle"])[:2] == (2, "")

    def test_profiler_still_writes_its_data(self, tmp_path):
        # under a profiler entry() ends by sys.exit, so cProfile's own exit path runs
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        stats = tmp_path / "census.prof"
        proc = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(stats), "-m", "psl2count.cli", "census", "5"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "i=" in proc.stdout and stats.stat().st_size > 0

    @pytest.mark.parametrize("traced", [True, False])
    def test_exit_handlers_run_only_under_a_tracer(self, traced):
        code = ("import atexit, os, sys\n"
                f"if {traced}: sys.settrace(lambda *args: None)\n"
                "atexit.register(os.write, 2, b'exit handler\\n')\n"
                "from psl2count.cli import entry; entry()")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code, "invariants", "53", "--format", "csv"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "53,4,4,0,1,0,0,17,18,6,12\n")
        assert proc.stderr == ("exit handler\n" if traced else "")

    def test_traced_layers_resolve(self):
        # the benchmark's traced run wraps each (module, attribute) of
        # perfbench/tracer.py's LAYERS; the file is parsed, not imported
        source = (pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
        layers = next(
            ast.literal_eval(node.value) for node in ast.parse(source).body
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
        )
        assert layers
        for module, attr in layers:
            obj = importlib.import_module(f"psl2count.{module}")
            for part in attr.split("."):
                obj = getattr(obj, part)
            assert callable(obj), (module, attr)

    def test_module_run_prints_the_census(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "psl2count.cli", "census", "13", "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == invariants.census(13).to_json_dict()

    def test_import_leaves_the_pool_unloaded(self):
        # only a scan that starts worker processes pays for concurrent.futures
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = "import sys, psl2count.cli; raise SystemExit('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_oracle_census_leaves_numpy_ma_unloaded(self):
        # numpy.ma costs about 14 ms of import, and np.unique(x) with no
        # keyword arguments loads it on numpy 2.4
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = ("import sys\n"
                "from psl2count import cli\n"
                "if cli.main(['census', '13', '--oracle', '--format', 'json']) != 0:\n"
                "    raise SystemExit('census failed')\n"
                "raise SystemExit('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["p"] == 13

    def test_internal_error_has_its_own_exit_code(self, monkeypatch):
        def broken(prof):
            raise ArithmeticError("divisibility check failed")

        monkeypatch.setattr(invariants, "counts", broken)
        code, _, err = run(["invariants", "37"])
        assert code == 4
        assert "Traceback" in err
        assert err.strip().splitlines()[-1] == (
            "psl2count: internal error: ArithmeticError: divisibility check failed"
        )

    def test_reader_closing_the_pipe_early_ends_quietly(self):
        # about 140 kB of csv and 530 kB of json, written in chunks: more than
        # a pipe holds, so the writer is still blocked on a full pipe when the
        # reader closes its end, and that write may come back short.  With
        # PYTHONUNBUFFERED set, stdout has no buffered layer of its own that
        # would write the rest and meet the closed pipe.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for unbuffered in (True, False):
            env.pop("PYTHONUNBUFFERED", None)
            if unbuffered:
                env["PYTHONUNBUFFERED"] = "1"
            for fmt, first in (("csv", b"p,"), ("json", b'{"')):
                proc = subprocess.Popen(
                    [sys.executable, "-c", "from psl2count.cli import entry; entry()",
                     "hb", "--limit", "2e6", "--format", fmt],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                )
                try:
                    assert os.read(proc.stdout.fileno(), 2) == first
                    proc.stdout.close()
                    _, err = proc.communicate(timeout=120)
                finally:
                    proc.kill()
                assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141, (fmt, unbuffered)
                assert err == b"", (fmt, unbuffered)

    def test_memory_error_is_a_resource_abort(self, monkeypatch):
        def exhausted(prof):
            raise MemoryError

        monkeypatch.setattr(invariants, "counts", exhausted)
        assert run(["invariants", "37"])[0] == 3

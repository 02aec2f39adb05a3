"""End-to-end checks of the ``chiy`` command line driver.

Everything goes through ``main(argv)`` so exit codes and stdout/stderr
separation are exercised exactly as a shell user would see them.
"""

import json

import jsonschema
import pytest

import chiy.cli
from chiy.cli import (
    EXIT_FAILED,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from chiy.solve import REPORT_SCHEMA
from chiy.fujita import SYSTEM_SCHEMA
from chiy.genus import ChiYPolynomial, chi_y_from_chern

P3_DIAMOND = "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- pn-verify ---------------------------------------------------------------


def test_pn_verify_passes(capsys):
    code, out, err = run(capsys, "pn-verify", "--max-n", "8")
    assert code == EXIT_OK
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.endswith("ok") for line in lines)


def test_pn_verify_detects_corruption(capsys, monkeypatch):
    def corrupted(m):
        chi = chi_y_from_chern(m)
        if m.n != 4:
            return chi
        return ChiYPolynomial((chi.chi_p[0] + 1,) + chi.chi_p[1:])

    monkeypatch.setattr(chiy.cli, "chi_y_from_chern", corrupted)
    code, out, err = run(capsys, "pn-verify", "--max-n", "6")
    assert code == EXIT_FAILED
    assert "verification failed at n=4" in err
    assert "FAIL" in out
    # rows other than the corrupted one still pass
    assert sum("FAIL" in line for line in out.strip().splitlines()) == 1


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_pn_verify_without_dimensions_is_usage_error(capsys, max_n):
    # a verification that checks nothing must not report success
    code, out, err = run(capsys, "pn-verify", "--max-n", max_n)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"--max-n must be at least 1, got {max_n}" in err


# -- genus ---------------------------------------------------------------------


def test_genus_from_chern_json(capsys):
    code, out, _ = run(
        capsys, "genus", "--chern", "6,15,20,15,6", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["n"] == 5
    assert payload["chi"] == ["1", "-1", "1", "-1", "1", "-1"]
    assert payload["a"] == ["6", "-15", "20", "-15", "6", "-1"]
    assert payload["A"] == ["6", "20", "6"]
    assert payload["integral"] is True
    assert payload["a1_consistent"] is True


def test_genus_surface_text(capsys):
    code, out, _ = run(capsys, "genus", "--chern", "3,3")
    assert code == EXIT_OK
    assert "chi_0=1" in out  # arithmetic genus of the projective plane
    assert "A_1=1" in out
    assert "a1 closed form: 1 (ok)" in out


def test_genus_from_hodge_file(capsys, tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_DIAMOND)
    code, out, _ = run(capsys, "genus", "--hodge", str(path), "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["chi_y"] == "1 - y + y^2 - y^3"
    assert payload["a"] == ["4", "-6", "4", "-1"]
    assert payload["A"] == ["4", "4"]
    assert "a1_closed_form" not in payload  # needs Chern data, not Hodge numbers


def test_genus_flags_nonintegral_input(capsys):
    code, out, _ = run(capsys, "genus", "--chern", "1,3", "--format", "json")
    assert code == EXIT_OK  # reporting, not judging
    payload = json.loads(out)
    assert payload["integral"] is False
    assert payload["violations"] == [0, 1, 2]


def test_genus_zero_denominator_is_usage_error(capsys):
    code, out, err = run(capsys, "genus", "--chern", "1/0,3")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("chiy: error:")


def test_genus_empty_chern_is_usage_error(capsys):
    # an empty --chern is a malformed entry, not a request for the Hodge route
    code, out, err = run(capsys, "genus", "--chern", "")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("chiy: error:")
    assert "Traceback" not in err


def test_genus_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys,
        "genus", "--chern", "6,15,20,15,6", "--format", "json",
        "--output", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["n"] == 5


def test_genus_requires_exactly_one_source(capsys):
    code, _, _ = run(capsys, "genus")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "genus", "--chern", "3,3", "--hodge", "x.txt")
    assert code == EXIT_USAGE


# -- system ---------------------------------------------------------------------


def test_system_json_is_schema_valid(capsys):
    code, out, _ = run(capsys, "system", "--n", "5", "--branch", "half")
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, SYSTEM_SCHEMA)
    assert payload["variables"] == ["c2", "c3", "c4"]
    provenances = [eq["provenance"] for eq in payload["equations"]]
    assert "A_2(M)" in provenances


def test_system_reduced_payload(capsys):
    code, out, _ = run(capsys, "system", "--n", "5", "--branch", "half", "--reduced")
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload["system"], SYSTEM_SCHEMA)
    jsonschema.validate(payload["residual"], SYSTEM_SCHEMA)
    assert payload["free_variables"] == ["c2"]
    assert payload["inconsistency"] is None
    pinned = {s["variable"] for s in payload["substitutions"]}
    assert pinned == {"c3", "c4"}


def test_system_rejects_even_half(capsys):
    code, _, err = run(capsys, "system", "--n", "4", "--branch", "half")
    assert code == EXIT_USAGE
    assert "n = 4" in err


def test_system_requires_branch(capsys):
    code, _, _ = run(capsys, "system", "--n", "5")
    assert code == EXIT_USAGE


# -- classify ----------------------------------------------------------------------


def test_classify_n5_half(capsys):
    code, out, err = run(capsys, "classify", "--n", "5", "--branch", "half")
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["verdict"] == "no_integer_solution"
    assert payload["certificate"]["kind"] == "root_free"
    assert "elapsed_ms" not in payload  # timing is stderr-only
    assert "elapsed" in err


def test_classify_expectation_codes(capsys):
    code, _, _ = run(
        capsys,
        "classify", "--n", "5", "--branch", "half",
        "--expect", "no_integer_solution",
    )
    assert code == EXIT_OK
    code, _, _ = run(
        capsys,
        "classify", "--n", "5", "--branch", "half", "--expect", "solutions",
    )
    assert code == EXIT_FAILED


def test_classify_inconclusive_exit(capsys):
    code, out, _ = run(
        capsys,
        "classify", "--n", "11", "--branch", "half", "--max-scan", "1000",
    )
    assert code == EXIT_INCONCLUSIVE
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["verdict"] == "inconclusive"


def test_classify_stdout_reproducible(capsys):
    _, first, _ = run(capsys, "classify", "--n", "5", "--branch", "half")
    _, second, _ = run(capsys, "classify", "--n", "5", "--branch", "half")
    assert first == second


def test_classify_standard_solves_without_search(capsys):
    code, out, _ = run(capsys, "classify", "--n", "5", "--branch", "standard")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert {"c2": "15", "c3": "20", "c4": "15"} in payload["solutions"]
    # found by elimination and root intersection alone; no box was searched
    assert payload["bounds"] is None


def test_classify_custom_bounds_echoed(capsys):
    code, out, _ = run(
        capsys,
        "classify", "--n", "7", "--branch", "half",
        "--bounds", "c2=0:5,c3=0:5,c4=0:5", "--max-scan", "1000",
    )
    assert code == EXIT_INCONCLUSIVE  # a tiny box proves nothing
    payload = json.loads(out)
    assert payload["bounds"] == {
        "c2": ["0", "5"], "c3": ["0", "5"], "c4": ["0", "5"]
    }
    assert payload["solutions"] == []
    # 36 driver points cost less than the residue search (9,432 residue
    # points), and the budget of 1,000 keeps it from running after the box
    assert payload["notes"] == ["box exhausted without integer solutions"]


@pytest.mark.parametrize("bounds, visited", [
    ("c2=0:1", "6"),
    ("c2=0:5,c3=0:5,c4=0:5", "0"),
])
def test_classify_empty_box_falls_through_to_the_residue_search(capsys, bounds, visited):
    # the box is cheaper than the residue search, so the scan runs first; when
    # it finds nothing the search still certifies that no solution exists
    code, out, _ = run(
        capsys, "classify", "--n", "7", "--branch", "half", "--bounds", bounds,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["verdict"] == "no_integer_solution"
    assert payload["certificate"]["kind"] == "local_obstruction"
    assert payload["certificate"]["modulus"] == 9
    assert payload["visited"] == visited
    assert payload["notes"] == []


def test_classify_n7_half_is_decided(capsys):
    code, out, _ = run(
        capsys,
        "classify", "--n", "7", "--branch", "half", "--expect", "no_integer_solution",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["certificate"]["kind"] == "local_obstruction"
    assert payload["certificate"]["modulus"] == 9
    assert payload["bounds"] is None
    assert payload["visited"] == "0"


def test_classify_malformed_bounds(capsys):
    code, _, _ = run(
        capsys, "classify", "--n", "5", "--branch", "half", "--bounds", "c2=oops"
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("option, value, message", [
    ("--max-scan", "-5", "max_scan must be at least 0"),
    ("--bounds", "c2=1:2,c2=3:4", "bounds for c2 given twice"),
], ids=["negative-max-scan", "repeated-bounds"])
def test_classify_bad_values_are_usage_errors(capsys, option, value, message):
    code, out, err = run(capsys, "classify", "--n", "7", "--branch", "standard", option, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


@pytest.mark.parametrize("branch, bounds, message", [
    ("standard", "c2=5:1", "empty bounds for c2: 5 > 1"),
    ("half", "c3=5:1", "empty bounds for c3: 5 > 1"),
], ids=["standard", "half"])
def test_classify_empty_bounds_are_usage_errors(capsys, branch, bounds, message):
    # n = 5 is decided without a search on both branches, so the empty
    # interval is caught when the configuration is made
    code, out, err = run(capsys, "classify", "--n", "5", "--branch", branch, "--bounds", bounds)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


@pytest.mark.parametrize("n, bounds, solution", [
    (7, "c5=0:1", {"c2": "28", "c3": "56", "c4": "70", "c5": "56", "c6": "28"}),
    (5, "c2=0:1", {"c2": "15", "c3": "20", "c4": "15"}),
], ids=["eliminated-c5", "root-analysis-c2"])
def test_classify_drops_solutions_outside_the_bounds(capsys, n, bounds, solution):
    # linear reduction eliminates c5 at n = 7 and root analysis decides n = 5,
    # so neither search sees the interval; the binomial vector found lies
    # outside it and is dropped
    argv = ("classify", "--n", str(n), "--branch", "standard")
    assert json.loads(run(capsys, *argv)[1])["solutions"] == [solution]
    code, out, _ = run(capsys, *argv, "--bounds", bounds)
    assert code == EXIT_INCONCLUSIVE
    report = json.loads(out)
    assert report["verdict"] == "inconclusive"
    assert report["solutions"] == []
    assert report["notes"][-1] == "dropped 1 of 1 solutions outside the bounds"


def test_classify_bounds_for_unknown_variable(capsys):
    code, out, err = run(
        capsys, "classify", "--n", "7", "--branch", "standard", "--bounds", "c9=0:5"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "unknown variables: c9" in err


# -- table -------------------------------------------------------------------------


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "9")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()]
    header, body = rows[0], rows[1:]
    assert header[0] == "n"
    by_n = {row[0]: dict(zip(header, row)) for row in body}
    assert by_n["7"]["root_standard"] == "8"
    assert by_n["7"]["root_half"] == "4"
    assert by_n["7"]["admissible"] == "true"
    assert by_n["7"]["c_top_minus_one_m"] == "56"
    assert by_n["7"]["c_top_minus_two_d"] == "49"
    assert by_n["9"]["admissible"] == "false"
    assert by_n["9"]["c_top_minus_one_m"] == ""
    assert by_n["5"]["root_half"] == "3"
    assert by_n["6"]["half_integral"] == "false"
    assert by_n["3"]["note"] != ""  # the two forced c_1(D) values collide


def test_table_json_matches_csv(capsys):
    _, csv_out, _ = run(capsys, "table", "--max-n", "12")
    _, json_out, _ = run(capsys, "table", "--max-n", "12", "--format", "json")
    csv_rows = [line.split(",") for line in csv_out.strip().splitlines()]
    header, body = csv_rows[0], csv_rows[1:]
    as_dicts = [dict(zip(header, row)) for row in body]
    assert json.loads(json_out) == as_dicts


def test_table_text_aligns(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "4", "--format", "text")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("n ")
    assert len(lines) == 4  # header + n in 2..4


def test_table_text_has_no_trailing_whitespace(capsys):
    code, out, _ = run(capsys, "table", "--format", "text")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 19  # header + n in 2..19
    assert all(line == line.rstrip() for line in lines)
    # the columns still line up: every row starts its root_half cell where the header does
    column = lines[0].index("root_half")
    assert all(line[column - 2:column] == "  " and line[column] != " " for line in lines)


@pytest.mark.parametrize("fmt, expected", [("csv", "n,"), ("text", "n  "), ("json", "[]")])
def test_table_without_rows(capsys, fmt, expected):
    code, out, err = run(capsys, "table", "--max-n", "1", "--format", fmt)
    assert code == EXIT_OK
    assert err == ""
    assert len(out.splitlines()) == 1
    assert out.startswith(expected)


# -- global behaviour -----------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == EXIT_USAGE


def test_removed_options_are_usage_errors(capsys):
    assert run(capsys, "--seed", "1", "table")[0] == EXIT_USAGE
    argv = ("system", "--n", "5", "--branch", "half", "--mode", "full")
    assert run(capsys, *argv)[0] == EXIT_USAGE
    argv = ("classify", "--n", "5", "--branch", "half", "--moduli", "2,3")
    assert run(capsys, *argv)[0] == EXIT_USAGE
    argv = ("classify", "--n", "5", "--branch", "half", "--bound-scale", "16")
    assert run(capsys, *argv)[0] == EXIT_USAGE
    argv = ("classify", "--n", "5", "--branch", "half", "--workers", "2")
    assert run(capsys, *argv)[0] == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE


def test_console_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "chiy", "table", "--max-n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("n,")

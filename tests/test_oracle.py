"""Closed-form expectations and the verification harness."""

import collections
import json
from pathlib import Path

import pytest

from pathdepth import oracle
from pathdepth.cli import run_command
from pathdepth.ideals import TABLE_MAX_N
from pathdepth.oracle import (FAMILIES, MATCH, SKIPPED, VIOLATION,
                              WITHIN_BOUNDS, Expectation, compute_row,
                              expectation, family_module, phi, verify_suite)
from pathdepth.sdepth import SdepthResult, StanleyCertificate


def test_phi_values():
    assert phi(3) == 2
    assert phi(4) == 2
    assert phi(5) == 2
    assert phi(6) == 3
    assert phi(7) == 4
    assert phi(8) == 4
    assert phi(9) == 4
    with pytest.raises(ValueError):
        phi(2)


def test_phi_case_form():
    # phi(n) = n - 2k for n divisible by four, n - 2k + 1 otherwise,
    # with k = ceil(n/4)
    for n in range(3, 1001):
        k = -(-n // 4)
        want = n - 2 * k if n % 4 == 0 else n - 2 * k + 1
        assert phi(n) == want, n


def test_expectation_interval_sanity():
    with pytest.raises(ValueError):
        Expectation(3, 2)
    e = Expectation(2, 4)
    assert not e.exact and e.contains(3) and not e.contains(5)
    assert Expectation(2, 2).exact


def test_line_expectation():
    assert expectation("line", 6, "depth", m=3) == Expectation(4, 4)
    assert expectation("line", 6, "sdepth", m=3) == Expectation(4, 4)
    with pytest.raises(ValueError):
        expectation("line", 6, "depth")
    with pytest.raises(ValueError):
        expectation("line", 6, "depth", m=7)


def test_cycle_expectations():
    assert expectation("j2", 7, "depth") == Expectation(2, 2)
    assert expectation("j2", 7, "sdepth") == Expectation(2, 3)
    assert expectation("j3", 8, "sdepth") == Expectation(4, 4)
    assert expectation("j3", 9, "depth") == Expectation(4, 5)
    assert expectation("jn1", 8, "sdepth") == Expectation(6, 6)
    assert expectation("jn2", 8, "depth") == Expectation(5, 6)
    with pytest.raises(ValueError):
        expectation("jn2", 4, "depth")


def test_special_family_expectations():
    assert expectation("prop1", 8, "sdepth") == Expectation(5, 5)
    assert expectation("max", 9, "sdepth") == Expectation(5, 5)
    with pytest.raises(ValueError):
        expectation("prop1", 8, "depth")
    with pytest.raises(ValueError):
        expectation("max", 9, "depth")
    with pytest.raises(ValueError):
        expectation("nope", 5, "depth")


def test_family_module_pairs():
    j, i = family_module("prop1", 5)
    assert j.n == 5 and len(i.gens) == 3
    j, i = family_module("max", 4)
    assert i.is_zero and len(j.gens) == 4


def test_compute_row_match_and_bounds():
    row = compute_row("j3", 4, 3, "depth", family_module("j3", 4, 3))
    assert row.status == MATCH and row.computed == 2
    row = compute_row("j3", 5, 3, "sdepth", family_module("j3", 5, 3))
    assert row.status == WITHIN_BOUNDS
    assert "exact value 2" in row.note


def test_prop1_closed_form_is_pinned():
    # the stated value, n + 1 - floor(n/4) - ceil(n/4), written out on its own
    for n in range(4, 201):
        v = n + 1 - n // 4 - -(-n // 4)
        assert expectation("prop1", n, "sdepth") == Expectation(v, v), n


@pytest.mark.parametrize("computed", [1, 4])
def test_compute_row_value_outside_bounds_is_a_violation(monkeypatch, computed):
    # j3 at n = 5 states both quantities as the bounds [2, 3]
    monkeypatch.setattr("pathdepth.oracle.depth_quotient",
                        lambda i_ideal, field_choice: computed)
    monkeypatch.setattr(
        "pathdepth.oracle.stanley_depth",
        lambda j, i, node_budget=None: SdepthResult(
            computed, StanleyCertificate([], computed), True, 1))
    for quantity in ("depth", "sdepth"):
        row = compute_row("j3", 5, 3, quantity, family_module("j3", 5, 3))
        assert (row.expected_lo, row.expected_hi) == (2, 3)
        assert (row.computed, row.status, row.note) == (computed, VIOLATION, "")


def test_compute_row_budget_skip():
    row = compute_row("max", 7, None, "sdepth", family_module("max", 7),
                      node_budget=1)
    assert row.status == SKIPPED
    # the singletons' lower bound and upper_bound, ceil(7 / 2)
    assert row.note == "budget exhausted; 1 <= sdepth <= 4"


def test_verify_suite_j3_statuses():
    report = verify_suite("j3", 4, 8)
    by_key = {(r.n, r.quantity): r.status for r in report.rows}
    assert by_key[(4, "sdepth")] == MATCH
    assert by_key[(5, "sdepth")] == WITHIN_BOUNDS
    assert by_key[(6, "sdepth")] == WITHIN_BOUNDS
    assert by_key[(7, "sdepth")] == MATCH
    assert by_key[(8, "sdepth")] == MATCH
    assert by_key[(5, "depth")] == WITHIN_BOUNDS
    assert all(by_key[(n, "depth")] == MATCH for n in (4, 6, 7, 8))
    assert not report.has_violation
    ineq = [r for r in report.rows if r.quantity == "stanley_inequality"]
    assert ineq and all(r.status == MATCH for r in ineq)
    assert all(r.computed >= 0 for r in ineq)


def test_report_formats():
    report = verify_suite("prop1", 4, 5)
    obj = report.to_json_obj()
    assert json.dumps(obj)  # serialisable
    assert {r["status"] for r in obj} == {MATCH}
    csv = report.to_csv_lines()
    assert csv[0].startswith("family,n,m,quantity")
    assert len(csv) == len(obj) + 1
    table = report.to_table_lines()
    assert len(table) == len(obj) + 1
    assert "prop1" in table[1]


def test_verify_rows_come_in_print_order():
    # computed family by family, then by n and m, each instance's depth,
    # sdepth and stanley_inequality rows in turn: the formatters print
    # report.rows as they stand
    rows = verify_suite("all", 3, 7).rows
    keys = [(r.family, r.n, -1 if r.m is None else r.m, r.quantity)
            for r in rows]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert {r.family for r in rows} == set(FAMILIES)


def test_violation_detection():
    report = verify_suite("j2", 3, 4)
    assert not report.has_violation
    report.rows[0].status = VIOLATION
    assert report.has_violation


@pytest.mark.parametrize("family, sdepth", [("jn2", 7), ("j2", 4), ("j3", 5)])
def test_default_sdepth_cap_settles_n10(family, sdepth):
    # exact values inside the stated bounds
    report = verify_suite(family, 10, 10)
    rows = [r for r in report.rows if r.quantity == "sdepth"]
    assert [(r.computed, r.status) for r in rows] == [(sdepth, WITHIN_BOUNDS)]


def test_default_depth_cap_computes_n16():
    report = verify_suite("j3", 16, 16)
    depth = [r for r in report.rows if r.quantity == "depth"]
    assert [(r.computed, r.status) for r in depth] == [(8, MATCH)]


def test_depth_rows_past_engine_cap_are_skipped():
    n = TABLE_MAX_N + 1
    report = verify_suite("j2", n, n)
    depth = [r for r in report.rows if r.quantity == "depth"]
    assert [r.status for r in depth] == [SKIPPED]
    assert f"cap {TABLE_MAX_N}" in depth[0].note


def test_sdepth_rows_past_engine_cap_are_skipped():
    n = TABLE_MAX_N + 1
    report = verify_suite("j2", n, n)
    sdepth = [r for r in report.rows if r.quantity == "sdepth"]
    assert [r.status for r in sdepth] == [SKIPPED]
    assert f"cap {TABLE_MAX_N}" in sdepth[0].note


def test_rows_past_the_engines_reach_carry_their_reason():
    # each engine refuses n = 17 itself, and its message is the note
    report = verify_suite("all", 17, 17)
    assert report.rows and not report.has_violation
    assert {r.quantity for r in report.rows} == {"depth", "sdepth"}
    assert all(r.status == SKIPPED and r.computed is None and
               r.note == f"ambient n=17 exceeds cap {TABLE_MAX_N}"
               for r in report.rows)


def test_an_engine_fault_is_not_a_skipped_row(monkeypatch):
    def broken(ideal, field):
        raise ValueError("broken engine")
    monkeypatch.setattr(oracle, "depth_quotient", broken)
    with pytest.raises(ValueError, match="broken engine"):
        verify_suite("j2", 5, 5)


def test_table_shows_bounds_and_dashes():
    # j3 at n = 5: bounds on both quantities, none on the inequality row
    lines = verify_suite("j3", 5, 5).to_table_lines()
    assert lines[0].split() == ["family", "n", "m", "quantity", "expected",
                                "computed", "status", "note"]
    assert [line.split()[:7] for line in lines[1:]] == [
        ["j3", "5", "3", "depth", "[2,3]", "2", "WITHIN_BOUNDS"],
        ["j3", "5", "3", "sdepth", "[2,3]", "2", "WITHIN_BOUNDS"],
        ["j3", "5", "3", "stanley_inequality", "-", "0", "MATCH"]]


def test_family_registry_drives_expectations_modules_and_suite(capsys):
    for name, fam in FAMILIES.items():
        for n in range(fam.suite_n_min, 10):
            report = verify_suite(name, n, n)
            assert {r.m for r in report.rows} == set(fam.suite_ms(n))
            # both quantities computed add the inequality row
            assert {r.quantity for r in report.rows} == set(fam.quantities) | (
                {"stanley_inequality"} if len(fam.quantities) == 2 else set())
            for m in fam.suite_ms(n):
                for quantity in ("depth", "sdepth", "stanley_inequality"):
                    if quantity in fam.quantities:
                        assert expectation(name, n, quantity, m=m)
                    else:
                        with pytest.raises(ValueError):
                            expectation(name, n, quantity, m=m)
                j, i = family_module(name, n, m)
                assert j.n == i.n == n
                assert all(j.contains(g) for g in i.gens)
    assert run_command(["verify", "--help"]) == 0
    assert "{" + ",".join(["all", *FAMILIES]) + "}" in capsys.readouterr().out


def test_verify_builds_each_module_once(monkeypatch):
    built = collections.Counter()

    def counted(family, n, m=None):
        built[family, n, m] += 1
        return family_module(family, n, m)

    monkeypatch.setattr(oracle, "family_module", counted)
    rows = verify_suite("all", 3, 9).to_json_obj()
    assert len(built) == sum(built.values()) == 73
    # the rows are those recorded for `verify --suite all --n-max 10`
    golden = json.loads((Path(__file__).with_name("data") /
                         "verify_all_n10.json").read_text())
    for row in rows:
        del row["elapsed"]
    assert rows == [row for row in golden if row["n"] <= 9]

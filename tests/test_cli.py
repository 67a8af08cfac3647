"""CLI behavior: schemas, exit codes, determinism, output formats."""

import csv
import hashlib
import json
import io
import warnings

import numpy as np
import pytest

from mertenskit import SequenceCache, mertens_sublinear, mobius_segment
from mertenskit import arith, cli, identities, sequences
from mertenskit.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# --- schemas ------------------------------------------------------------------

def test_verify_csv_header_pinned(capsys):
    code, out, _ = run_cli(["verify", "--id", "eq1", "--x-min", "2",
                            "--x-max", "4", "--no-timestamp"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "identity,x,j,s,mode,lhs,rhs,residual,pass"


def test_gamma_csv_header_pinned(capsys):
    code, out, _ = run_cli(["gamma", "--points", "50,100",
                            "--no-timestamp"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "x,estimate,reference,abs_error,scaled_error"
    rows = read_csv(out)
    assert [r["x"] for r in rows] == ["50", "100"]
    # %.17g floats round-trip.
    est = float(rows[0]["estimate"])
    assert "%.17g" % est == rows[0]["estimate"]


def test_induction_csv_header_pinned(capsys):
    code, out, _ = run_cli(["induction", "--x-max", "50",
                            "--no-timestamp"], capsys)
    assert code == 0
    assert out.splitlines()[0] == ("x,n,sup_M,argmax_y,sup_M_sq,argmax_y_sq,"
                                   "lhs,rhs,ratio,minimal_C,step_holds")
    rows = read_csv(out)
    assert rows[0]["x"] == "3" and rows[0]["step_holds"] == "true"


def test_sieve_window_matches_library(capsys):
    code, out, _ = run_cli(["sieve", "--lo", "95", "--hi", "105",
                            "--no-timestamp"], capsys)
    assert code == 0
    rows = read_csv(out)
    seg = mobius_segment(95, 105)
    cache = SequenceCache(105)
    for row in rows:
        k = int(row["k"])
        assert int(row["mu"]) == seg[k]
        assert int(row["mertens"]) == int(cache.mertens[k])


def test_sieve_window_across_segments_is_unchanged(capsys, monkeypatch):
    # Windows of 64 values split [100, 300] at 164, 228 and 292.  Across
    # 2^31 the window [2147483640, 2147483703] sieves an int64 product
    # where the windows before it in the same scan sieve an int32 one.
    calls = [["sieve", "--lo", lo, "--hi", hi, "--no-timestamp"]
             for lo, hi in [("100", "300"), ("2147483000", "2147484000")]]
    wholes = [run_cli(args, capsys) for args in calls]
    monkeypatch.setattr(arith, "_SEGMENT", 64)
    assert [run_cli(args, capsys) for args in calls] == wholes
    last = read_csv(wholes[1][1])[-1]
    assert int(last["mertens"]) == mertens_sublinear(2147484000) == 9552


def test_mertens_command(capsys):
    code, out, _ = run_cli(["mertens", "--x", "100000",
                            "--no-timestamp"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert rows == [{"x": "100000", "mertens": "-48"}]


def test_bench_is_not_a_command(capsys):
    # Benchmarks live in bench/run.py; the CLI has no timing probes.
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sieve"], ["mertens", "--x", "10"], ["gamma"], ["induction"],
])
def test_tolerance_is_refused_outside_verify(command, capsys):
    # Only verify reads --tolerance, so every other command refuses it.
    with pytest.raises(SystemExit) as exc:
        main(command + ["--tolerance", "1e-9"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


# --- exit codes ----------------------------------------------------------------

def test_exit_zero_on_all_pass(capsys):
    code, _, _ = run_cli(["verify", "--id", "eq17", "--x-min", "2",
                          "--x-max", "30", "--no-timestamp"], capsys)
    assert code == 0


def test_exit_two_on_bad_range(capsys):
    code, _, err = run_cli(["verify", "--x-max", "0", "--no-timestamp"],
                           capsys)
    assert code == 2 and "x-max" in err


def test_exit_two_on_unknown_identity(capsys):
    code, _, err = run_cli(["verify", "--id", "eq4", "--no-timestamp"],
                           capsys)
    assert code == 2 and "eq4" in err


def test_exit_two_on_capacity(capsys, monkeypatch):
    monkeypatch.setenv("MERTENSKIT_MEMORY_BUDGET", "1000")
    code, _, err = run_cli(["verify", "--id", "eq7", "--x-min", "2",
                            "--x-max", "500", "--no-timestamp"], capsys)
    assert code == 2 and "capacity" in err


def test_capacity_message_is_short_for_a_huge_input(capsys):
    # M(10^300) would need a base of about 5e200 bytes: the count is
    # printed in scientific notation, not as 201 digits.
    code, out, err = run_cli(["mertens", "--x", str(10 ** 300),
                              "--no-timestamp"], capsys)
    assert code == 2 and out == ""
    assert len(err) < 200
    assert "sequence cache" in err and "MERTENSKIT_MEMORY_BUDGET" in err


def test_sieve_report_is_charged_before_sieving(capsys, monkeypatch):
    # The sieve itself fits 10^7 B; its 10^5 JSON rows do not.
    def no_sieve(*args, **kwargs):
        raise AssertionError("the window was sieved before the report "
                             "was charged")

    monkeypatch.setenv("MERTENSKIT_MEMORY_BUDGET", "10000000")
    monkeypatch.setattr(arith, "mobius_segment", no_sieve)
    code, out, err = run_cli(["sieve", "--lo", "1", "--hi", "100000",
                              "--format", "json", "--no-timestamp"], capsys)
    assert code == 2 and out == ""
    assert "capacity" in err


def test_sieve_json_window_fits_a_budget_below_the_old_charge(
        capsys, monkeypatch):
    # 10^4 rows under 1100 B each: the per-row charge plus the scan's
    # windows fit, where the 1200 B per row once charged did not.
    monkeypatch.setenv("MERTENSKIT_MEMORY_BUDGET", str(1100 * 10 ** 4))
    code, out, _ = run_cli(["sieve", "--lo", "1", "--hi", "10000",
                            "--format", "json", "--no-timestamp"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["k"] for r in rows] == list(range(1, 10001))
    assert rows[-1]["mertens"] == -23


def test_verify_refuses_an_oversized_range_before_building_cases(
        capsys, monkeypatch):
    def no_case(*args, **kwargs):
        raise AssertionError("a case was built before the capacity check")

    monkeypatch.setattr(cli, "IdentityCase", no_case)
    code, out, err = run_cli(["verify", "--x-max", "100000",
                              "--no-timestamp"], capsys)
    assert code == 2 and out == ""
    assert "capacity" in err and "sequence cache" in err


def test_verify_refuses_a_bad_range_before_any_case_runs(capsys,
                                                        monkeypatch):
    # The case list refuses eq7 at x = 61 in exact mode while it is
    # built, before any verifier runs on the cases below it.
    def no_verifier(*args, **kwargs):
        raise AssertionError("a verifier ran before the range was refused")

    for ident, entry in identities.CATALOGUE.items():
        monkeypatch.setitem(identities.CATALOGUE, ident,
                            entry._replace(verify=no_verifier))
    code, out, err = run_cli(["verify", "--id", "eq7", "--mode", "exact",
                              "--x-max", "61", "--no-timestamp"], capsys)
    assert code == 2 and out == ""
    assert err == ("error: exact mode at s = 1.0 limited to x <= 60, "
                   "got x = 61\n")


@pytest.mark.parametrize("budget", ["nan", "abc", "-5", "inf", "1e400"])
def test_exit_two_on_malformed_memory_budget(budget, capsys, monkeypatch):
    monkeypatch.setenv("MERTENSKIT_MEMORY_BUDGET", budget)
    code, out, err = run_cli(["verify", "--id", "eq1", "--x-max", "4",
                              "--no-timestamp"], capsys)
    assert code == 2 and out == ""
    assert "MERTENSKIT_MEMORY_BUDGET" in err


def test_exit_two_on_bad_points(capsys):
    code, _, _ = run_cli(["gamma", "--points", "50,xx"], capsys)
    assert code == 2
    code, _, _ = run_cli(["gamma", "--points", "1,50"], capsys)
    assert code == 2


def test_gamma_refuses_point_past_cap_before_any_table(monkeypatch, capsys):
    # A cache to 3001^2 would sieve 9 * 10^6 values only to be refused.
    def no_cache(*args, **kwargs):
        raise AssertionError("a SequenceCache was built")

    monkeypatch.setattr(sequences, "SequenceCache", no_cache)
    code, out, err = run_cli(["gamma", "--points", "3001", "--no-timestamp"],
                             capsys)
    assert code == 2 and out == ""
    assert "capped at x <= 3000" in err


@pytest.mark.parametrize("points", ["", ","])
def test_exit_two_on_empty_points(points, capsys):
    code, out, err = run_cli(["gamma", "--points", points, "--no-timestamp"],
                             capsys)
    assert code == 2 and out == ""
    assert "at least one point" in err


@pytest.mark.parametrize("points, message", [
    ("50,,100", "blank item"),
    ("50,", "blank item"),
    (" 50 , 100,100", "repeated: 100"),
])
def test_exit_two_on_blank_or_repeated_points(points, message, capsys):
    # Every requested point gets a row or the request is refused.
    code, out, err = run_cli(["gamma", "--points", points, "--no-timestamp"],
                             capsys)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("option", [
    "--tolerance=nan", "--tolerance=inf", "--tolerance=-0.5", "--s=nan",
    "--s=inf",
])
def test_exit_two_on_bad_verify_number(option, capsys):
    # Bad input is refused, not reported as a failed identity.
    code, out, err = run_cli(["verify", "--id", "eq1", "--x-max", "3",
                              "--mode", "float", option, "--no-timestamp"],
                             capsys)
    assert code == 2 and out == ""
    assert option.split("=")[0] in err


@pytest.mark.parametrize("n, message", [
    ("0", "n must be >= 1"),
    ("2000", "n = 2000 overflows the chain factor"),
    ("464", "overflows"),
])
def test_exit_two_on_induction_n_out_of_range(n, message, capsys):
    code, out, err = run_cli(["induction", "--x-max", "10", "--n", n,
                              "--no-timestamp"], capsys)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("args, name", [
    (["mertens", "--x", str(10 ** 400)], "--x"),
    (["sieve", "--lo", str(10 ** 400), "--hi", str(10 ** 400)], "--lo"),
    (["induction", "--x-max", str(10 ** 200)], "x_max"),
], ids=["mertens", "sieve", "induction"])
def test_exit_two_on_integer_past_float_range(args, name, capsys,
                                              monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built for an input past float "
                             "range")

    for module, attr in ((sequences, "_mertens_segments"),
                         (cli, "_mertens_segments"),
                         (arith, "_mobius_windows")):
        monkeypatch.setattr(module, attr, no_table)
    code, out, err = run_cli(args + ["--no-timestamp"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} has ") and "float range" in err


def test_unopenable_output_is_refused_before_the_run(tmp_path, capsys,
                                                     monkeypatch):
    def no_sieve(*args, **kwargs):
        raise AssertionError("the window was sieved before -o was opened")

    monkeypatch.setattr(cli, "_mertens_segments", no_sieve)
    target = tmp_path / "missing" / "r.csv"
    code, out, err = run_cli(["sieve", "--hi", "2000000", "-o", str(target)],
                             capsys)
    assert code == 2 and out == ""
    assert "No such file or directory" in err


def test_failed_run_leaves_the_output_path_as_it_was(tmp_path, capsys):
    target = tmp_path / "report.csv"
    target.write_text("k,mu,mertens\n1,1,1\n")
    code, _, err = run_cli(["sieve", "--lo", "0", "-o", str(target)], capsys)
    assert code == 2 and "lo <= hi" in err
    assert target.read_text() == "k,mu,mertens\n1,1,1\n"
    fresh = tmp_path / "fresh.csv"
    code, _, _ = run_cli(["sieve", "--lo", "0", "-o", str(fresh)], capsys)
    assert code == 2 and not fresh.exists()


def test_exit_one_on_induction_violation(tmp_path, capsys):
    # Synthetic mu = +1 everywhere collapses the sqrt bound.
    mu_file = tmp_path / "mu.txt"
    mu_file.write_text("\n".join(["1"] * 2500) + "\n")
    code, out, _ = run_cli(["induction", "--x-max", "50", "--mu-file",
                            str(mu_file), "--no-timestamp"], capsys)
    assert code == 1
    rows = read_csv(out)
    assert any(r["step_holds"] == "false" for r in rows)


def test_exit_two_on_bad_mu_file_value(tmp_path, capsys):
    mu_file = tmp_path / "mu.txt"
    mu_file.write_text("\n".join(["1"] * 99 + ["2"] + ["0"] * 2400) + "\n")
    code, out, err = run_cli(["induction", "--x-max", "50", "--mu-file",
                              str(mu_file), "--no-timestamp"], capsys)
    assert code == 2 and out == ""
    assert "mu-file" in err and "entry 100 is 2" in err


def test_exit_two_on_short_mu_file(tmp_path, capsys):
    mu_file = tmp_path / "mu.txt"
    mu_file.write_text("\n".join(["1"] * 2499) + "\n")
    code, out, err = run_cli(["induction", "--x-max", "50", "--mu-file",
                              str(mu_file), "--no-timestamp"], capsys)
    assert code == 2 and out == ""
    assert "2500" in err


@pytest.mark.parametrize("text", ["", " \n\t\n"], ids=["empty", "blank"])
def test_exit_two_on_mu_file_with_no_values(text, tmp_path, capsys):
    # The length check refuses the file; numpy's empty-input warning
    # stays out of stderr.
    mu_file = tmp_path / "mu.txt"
    mu_file.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["induction", "--x-max", "3", "--mu-file",
                                  str(mu_file), "--no-timestamp"], capsys)
    assert code == 2 and out == ""
    assert err == "error: mu_values must cover 1..9, got 0 entries\n"


def test_exit_two_on_vanishing_mertens_sum(tmp_path, capsys):
    # mu = 1, -1, 0, 0, ... makes M_y = 0 for every y >= 2: the step
    # ratio and minimal C are undefined from x = 3 on.
    mu_file = tmp_path / "mu.txt"
    mu_file.write_text("\n".join(["1", "-1"] + ["0"] * 2498) + "\n")
    code, out, err = run_cli(["induction", "--x-max", "50", "--mu-file",
                              str(mu_file), "--no-timestamp"], capsys)
    assert code == 2 and out == ""
    assert "[3, 3] is 0" in err


def test_mu_file_reads_values_in_file_order(tmp_path, capsys):
    # --mu-file holds whitespace-separated values, any number per line.
    mu = SequenceCache(2500).mu[1:].tolist()
    one = tmp_path / "one.txt"
    one.write_text("\n".join(map(str, mu)) + "\n")
    two = tmp_path / "two.txt"
    two.write_text("".join(f"{a} {b}\n" for a, b in zip(mu[::2], mu[1::2])))
    reports = [run_cli(["induction", "--x-max", "50", "--mu-file", str(f),
                        "--no-timestamp"], capsys) for f in (one, two)]
    assert reports[0][0] == 0
    assert reports[1] == reports[0]


def test_verify_runs_tail_sums_past_sixty(capsys):
    # eq3/eq13 run at every requested x: each gets a row, and the
    # summary accounts for every case with no skip record.
    code, out, _ = run_cli(["verify", "--id", "eq3", "--id", "eq13",
                            "--x-min", "61", "--x-max", "62", "--format",
                            "json", "--no-timestamp"], capsys)
    assert code == 0
    report = json.loads(out)
    assert [(r["identity"], r["x"], r["pass"]) for r in report["rows"]] == [
        ("eq3", 61, True), ("eq3", 62, True),
        ("eq13", 61, True), ("eq13", 62, True)]
    assert report["summary"]["cases"] == 4
    assert "skipped" not in report["summary"]


def test_exit_one_on_verify_failure(tmp_path, capsys):
    # An absurd tolerance turns rounding noise into failures.
    code, out, _ = run_cli(["verify", "--id", "eq7", "--x-min", "61",
                            "--x-max", "80", "--mode", "float",
                            "--tolerance", "1e-30", "--no-timestamp"], capsys)
    rows = read_csv(out)
    assert any(r["pass"] == "false" for r in rows)
    assert code == 1


# --- formats and determinism ------------------------------------------------------

def test_json_format_structure(capsys):
    code, out, _ = run_cli(["verify", "--id", "eq18", "--x-min", "2",
                            "--x-max", "12", "--format", "json",
                            "--no-timestamp"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify"
    assert doc["summary"]["failures"] == 0
    row = doc["rows"][0]
    assert row["identity"] == "eq18" and isinstance(row["x"], int)
    assert isinstance(row["pass"], bool)
    assert "generated" not in doc


def test_json_timestamp_toggle(capsys):
    _, out, _ = run_cli(["gamma", "--points", "50", "--format", "json"],
                        capsys)
    assert "generated" in json.loads(out)


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(["verify", "--id", "eq6", "--x-min", "2",
                            "--x-max", "10", "-o", str(target),
                            "--no-timestamp"], capsys)
    assert code == 0 and out == ""
    rows = read_csv(target.read_text())
    assert len(rows) == 9 and all(r["pass"] == "true" for r in rows)


def test_reports_identical_across_thread_counts(tmp_path):
    texts = {}
    for t in (1, 4, 8):
        target = tmp_path / f"v{t}.csv"
        code = main(["verify", "--id", "eq7", "--id", "eq13", "--x-min", "2",
                     "--x-max", "40", "--threads", str(t), "-o", str(target),
                     "--no-timestamp"])
        assert code == 0
        texts[t] = target.read_bytes()
    assert texts[1] == texts[4] == texts[8]


def test_repeat_runs_are_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert main(["induction", "--x-max", "100", "--format", "json",
                     "-o", str(target), "--no-timestamp"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fraction_cells_render_exactly(capsys):
    code, out, _ = run_cli(["verify", "--id", "eq16", "--x-min", "2",
                            "--x-max", "8", "--no-timestamp"], capsys)
    assert code == 0
    rows = read_csv(out)
    # Exact-mode lhs at x=3 is m_9 = 1/6 - 1/7 ... a true fraction string.
    assert all(r["mode"] == "exact" for r in rows)
    assert any("/" in r["lhs"] for r in rows)
    assert all(r["residual"] == "0" for r in rows)


# --- --threads and the work a run does --------------------------------------

@pytest.mark.parametrize("threads", ["0", "-3"])
def test_exit_two_on_nonpositive_threads(threads, capsys):
    code, out, err = run_cli(["verify", "--id", "eq1", "--x-max", "4",
                              "--threads", threads, "--no-timestamp"], capsys)
    assert code == 2 and out == ""
    assert "--threads" in err and threads in err


def test_all_exact_verify_builds_no_float_table(monkeypatch, capsys):
    built = []
    prefix = SequenceCache._float_prefix

    def counting_prefix(self, kind, s):
        built.append((kind, s))
        return prefix(self, kind, s)

    monkeypatch.setattr(SequenceCache, "_float_prefix", counting_prefix)
    code, out, _ = run_cli(["verify", "--mode", "exact", "--id", "eq17",
                            "--x-max", "30", "--no-timestamp"], capsys)
    assert code == 0 and len(read_csv(out)) == 29
    assert built == []


# --- golden reports ----------------------------------------------------------

# sha256 of `--no-timestamp` reports of the commands other than verify
# (whose goldens live in test_catalogue.py), computed before the second
# evaluators of the induction constant and of the double sum were deleted
# (x86-64 Linux, CPython 3.11, numpy 2.4).  Float cells go through the
# platform's libm, so another platform may differ in a last digit.
GOLDEN = {
    ("gamma", "--format", "json"):
        "20c58c6d297c7d6e87c587ca6945358150ccbae7087d8e4b53af1b2da1b90013",
    ("induction", "--x-max", "300", "--grid", "all", "--format", "json"):
        "d0d58472f121e8bb3956b94573077cab0e0c048fa4a42f7a81d7c4977b229f86",
    ("sieve", "--lo", "999990", "--hi", "1000010"):
        "40a2d917cfe38b1731c03dd9ecca14e774018b78f19770b665e378c075a6fc73",
    ("mertens", "--x", "1000000000", "--format", "json"):
        "00ca1a61ab616cdc9ee81cfaa10b7639d3fb6b4dd5b77ab5fd5bb63d58d07dd3",
}


@pytest.mark.parametrize("args", list(GOLDEN), ids=" ".join)
def test_golden_reports(args, tmp_path):
    target = tmp_path / "report"
    assert main([*args, "--no-timestamp", "-o", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[args]

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thermoshift import LocallyConstantPotential, build_additive_table, partition_sum
from thermoshift import cli
from thermoshift.cli import main
from thermoshift.numerics import log_fraction
from thermoshift.shiftcore import Sft

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fpath(name):
    return str(FIXTURES / name)


def run(tmp_path, *argv):
    out = tmp_path / ("out_%d.json" % len(list(tmp_path.iterdir())))
    code = main(list(argv) + ["--out", str(out)])
    return code, (out.read_bytes() if out.exists() else b"")


def test_pressure_collapse(tmp_path):
    code, raw = run(tmp_path, "pressure", "--factor", fpath("factor_collapse.json"),
                    "--depth", "8")
    assert code == 0
    doc = json.loads(raw)
    assert doc["pressure"]["exact_base"] == "3"


def test_pressure_plain_sft(tmp_path):
    code, raw = run(tmp_path, "pressure", "--sft", fpath("sft_goldenmean.json"),
                    "--depth", "12")
    assert code == 0
    doc = json.loads(raw)
    assert abs(doc["pressure"]["extrapolated"] - 0.4812118250596034) < 1e-9


def test_fit_h_collapse(tmp_path):
    code, raw = run(tmp_path, "fit-h", "--factor", fpath("factor_collapse.json"),
                    "--depth", "8", "--nfit", "5")
    assert code == 0
    doc = json.loads(raw)
    assert doc["fit"]["tstar_exact"] == "0"
    assert doc["verdict"]["verdict"] == "CERTIFIED"


def test_verdict_with_candidate(tmp_path):
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"range": 1, "values": {"a": 0.0, "b": 0.0}}))
    code, raw = run(tmp_path, "verdict", "--factor", fpath("factor_collapse.json"),
                    "--depth", "8", "--candidate", str(cand))
    assert code == 0
    doc = json.loads(raw)
    assert doc["verdict"]["verdict"] == "REFUTED"


def test_verdict_fitted_range2_h_is_not_refuted(tmp_path):
    # g_n(y) = 2^n on every image word: h = log 2 is a compensation
    # function.  The range-2 fit at n_fit = n alone is not unique (the
    # boundary gauge is free); the rows at n_fit - 1 pin it to h = log 2.
    for depth in ("6", "8", "10"):
        code, raw = run(tmp_path, "verdict", "--factor", fpath("factor_amalgamation.json"),
                        "--depth", depth, "--range", "2")
        assert code == 0
        assert json.loads(raw)["verdict"]["verdict"] == "CERTIFIED"


def test_verdict_full4_certifies_past_the_simplex_cap(tmp_path):
    # 1,2 -> a, 3 -> b, 4 -> c on the full 4-shift: g_n(y) = 2^{#a in y}.
    # The fit at n_fit = 8 has 3^8 = 6561 rows, past the exact simplex cap;
    # t* = 0 is decided by interpolation, which has no cap.
    for depth in ("8", "10"):
        code, raw = run(tmp_path, "verdict", "--factor", fpath("factor_full4_abc.json"),
                        "--depth", depth)
        assert code == 0
        doc = json.loads(raw)["verdict"]
        assert doc["verdict"] == "CERTIFIED"
        assert doc["h"]["solver"] == "exact-simplex" and doc["h"]["tstar_exact"] == "0"
        assert doc["h"]["values"] == {"a": math.log(2), "b": 0.0, "c": 0.0}


def test_verdict_phase_blocked(tmp_path):
    code, raw = run(tmp_path, "verdict", "--factor", fpath("factor_phase_blocked.json"),
                    "--depth", "14")
    assert code == 0
    assert json.loads(raw)["verdict"]["verdict"] == "REFUTED"


def test_weak_gibbs(tmp_path):
    code, raw = run(tmp_path, "weak-gibbs", "--factor", fpath("factor_collapse.json"),
                    "--measure", fpath("measure_uniform3.json"), "--depth", "8")
    assert code == 0
    doc = json.loads(raw)
    assert doc["sandwich"]["ok"] and doc["sandwich"]["exact"]
    assert doc["mu_constants"]["verdict"] == "GIBBS"
    assert doc["transfer"]["lam_exact"] == "3"


def _counting(monkeypatch, module, name):
    """Wrap module.name so the calls are counted; returns the list of calls."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_weak_gibbs_runs_log_perron_once(tmp_path, monkeypatch):
    """pressure_estimate and transfer_pressure share the potential's Perron
    data: one eigen-solve per weak-gibbs command."""
    from thermoshift import seqtable
    calls = _counting(monkeypatch, seqtable, "perron")
    code, _ = run(tmp_path, "weak-gibbs", "--factor", fpath("factor_collapse.json"),
                  "--measure", fpath("measure_uniform3.json"), "--depth", "6")
    assert code == 0 and len(calls) == 1


def test_fit_h_reuses_the_verdicts_last_fit(tmp_path, monkeypatch):
    from thermoshift import detect
    calls = _counting(monkeypatch, detect, "fit_depths")  # fit_h runs through it too
    # the verdict's fits, none repeated; collapse has Hankel rank 1, so its
    # verdict takes them in closed form and fit_depths never runs
    for name, fits in [("factor_identity_goldenmean.json", [[2, 3, 4, 5, 6, 7]]),
                       ("factor_collapse.json", [])]:
        calls.clear()
        code, raw = run(tmp_path, "fit-h", "--factor", fpath(name), "--depth", "7")
        assert code == 0
        assert [list(c[2]) for c in calls] == fits
        doc = json.loads(raw)
        assert doc["fit"] == doc["verdict"]["h"]
    calls.clear()  # after the REFUTED early exit the fit runs on its own
    code, raw = run(tmp_path, "fit-h", "--factor", fpath("factor_phase_blocked.json"),
                    "--depth", "12")
    assert code == 0 and [list(c[2]) for c in calls] == [[8]]
    assert json.loads(raw)["verdict"]["verdict"] == "REFUTED"


def test_depths_one_and_two_report_the_perron_pressure(tmp_path):
    for depth in ("1", "2"):
        code, raw = run(tmp_path, "pressure", "--factor", fpath("factor_collapse.json"),
                        "--depth", depth)
        assert code == 0
        est = json.loads(raw)["pressure"]
        assert est["extrapolated"] == math.log(3) and est["exact_base"] is None
        code, raw = run(tmp_path, "weak-gibbs", "--factor", fpath("factor_collapse.json"),
                        "--measure", fpath("measure_uniform3.json"), "--depth", depth)
        assert code == 0
        doc = json.loads(raw)
        assert doc["pressure_g"] == {"value": math.log(3), "source": "perron", "exact_base": None}
        assert doc["sandwich"]["ok"]


def test_weak_gibbs_vanishing_mass_is_neither(tmp_path):
    # [a] has zero mass; an exact run once certified GIBBS with C_n "1"
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps({"P": [["1/2", "1/2"], ["0", "1"]], "pi": ["0", "1"],
                                   "exact": True, "order": 1}))
    code, raw = run(tmp_path, "weak-gibbs", "--sft", fpath("sft_full2.json"),
                    "--measure", str(measure), "--depth", "4")
    assert code == 0
    constants = json.loads(raw)["mu_constants"]
    assert constants["verdict"] == "NEITHER"
    assert constants["stats"] == {"certainty": "exact", "reason": "vanishing cylinder mass"}
    assert constants["exact_cn"] is None


def test_weak_gibbs_measure_without_unique_stationary_vector(tmp_path, capsys):
    # two absorbing states: every mix of them is stationary, so pi is needed
    measure = tmp_path / "measure.json"
    for exact, rows in ((True, [["1", "0", "0"], ["0", "1", "0"], ["1/2", "1/4", "1/4"]]),
                        (False, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.25, 0.25]])):
        measure.write_text(json.dumps({"order": 1, "exact": exact, "P": rows}))
        code, raw = run(tmp_path, "weak-gibbs", "--factor", fpath("factor_collapse.json"),
                        "--measure", str(measure), "--depth", "4")
        assert code == 2 and raw == b""
        assert "no unique stationary vector; give pi" in capsys.readouterr().err


def test_profile_cnm_with_csv(tmp_path):
    csv = tmp_path / "profile.csv"
    code, raw = run(tmp_path, "profile-cnm", "--factor", fpath("factor_phase_blocked.json"),
                    "--depth", "12", "--csv", str(csv))
    assert code == 0
    doc = json.loads(raw)
    assert doc["profile"]["growth"] is True
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,m,log_c,log_d"
    assert len(lines) > 10


def test_certificate(tmp_path):
    code, raw = run(tmp_path, "certificate", "--factor", fpath("factor_collapse.json"),
                    "--depth", "8", "--word", "ab", "--jmax", "3")
    assert code == 0
    doc = json.loads(raw)
    assert doc["certificate"]["ok"] is True
    assert doc["certificate"]["verified_j"] == [1, 2, 3]


def test_exit_code_on_missing_file(tmp_path, capsys):
    assert main(["pressure", "--sft", str(tmp_path / "nope.json")]) == 2


def test_exit_code_on_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pressure", "--sft", str(bad)]) == 2


def test_exit_code_on_schema_violation(tmp_path):
    doc = tmp_path / "sft.json"
    doc.write_text(json.dumps({"alphabet": ["a", "b"], "transitions": [[1, 2], [1, 0]]}))
    assert main(["pressure", "--sft", str(doc)]) == 2


def test_exit_code_missing_factor_for_fit(tmp_path):
    assert main(["fit-h", "--sft", fpath("sft_full2.json")]) == 2


def test_exit_code_on_exact_coefficients_contradicting_the_values(tmp_path, capsys):
    # h = log 2 on a in its exact coefficients but 5.0 in its float values:
    # the exact defects would read one potential and the float ones another
    # (a coefficient past the float range contradicts every value, and a
    # zero coefficient every nonzero value, however small)
    cand = tmp_path / "c.json"
    for values, a, err in (
            ((5.0, 0.0), "1", "value 5.0 at (0,) is not its exact coefficient 1 times log 2"),
            ((5.0, 0.0), "1" + "0" * 400, "value 5.0 at (0,) is not its exact coefficient 1000"),
            ((math.log(2), 5e-13), "1", "value 5e-13 at (1,) is not its exact coefficient 0")):
        cand.write_text(json.dumps({"range": 1, "values": dict(zip("ab", values)),
                                    "exact": {"base": 2, "coeffs": {"a": a, "b": "0"}}}))
        code, raw = run(tmp_path, "verdict", "--factor", fpath("factor_collapse.json"),
                        "--depth", "8", "--candidate", str(cand))
        assert code == 2 and raw == b""
        assert err in capsys.readouterr().err


def test_exit_code_fit_range_past_the_fit_depth(tmp_path, capsys):
    # the verdict fits at depths up to min(depth, 8): none is >= the range
    for depth, r in (("4", "5"), ("12", "9")):
        for cmd in ("verdict", "fit-h"):
            code, raw = run(tmp_path, cmd, "--factor", fpath("factor_collapse.json"),
                            "--depth", depth, "--range", r)
            assert code == 2 and raw == b""
            assert capsys.readouterr().err == "error: fit range exceeds the fit depth\n"


def test_exit_code_exact_mode_nonzero_potential(tmp_path):
    assert main(["pressure", "--factor", fpath("factor_identity_goldenmean.json"),
                 "--potential", fpath("potential_weight_goldenmean.json"),
                 "--mode", "exact"]) == 2
    assert main(["pressure", "--sft", fpath("sft_full2.json"),
                 "--potential", fpath("potential_r2_full2.json"), "--mode", "exact"]) == 2


def test_exit_code_on_depth_cap(tmp_path):
    assert main(["pressure", "--sft", fpath("sft_full2.json"), "--depth", "99"]) == 3


def test_exit_code_on_cell_cap(tmp_path):
    assert main(["pressure", "--sft", fpath("sft_full2.json"), "--depth", "24",
                 "--max-cells", "1000", "--table-out", str(tmp_path / "t.json")]) == 3
    assert not (tmp_path / "t.json").exists()


def test_pressure_without_table_out_checks_only_the_depth_cap(tmp_path):
    # Z_n comes from the one-row walk over the domain: no g-table is built,
    # so the cell cap (here 3^64 image cells would be needed) does not apply
    code, raw = run(tmp_path, "pressure", "--factor", fpath("factor_collapse.json"),
                    "--depth", "64")
    assert code == 0
    doc = json.loads(raw)
    assert doc["pressure"]["exact_base"] == "3"
    assert doc["table"] == {"kind": "g", "depth": 64, "exact": True}
    assert doc["log_partition"]["64"] == log_fraction(3 ** 64)
    assert main(["pressure", "--factor", fpath("factor_collapse.json"), "--depth", "65"]) == 3
    assert main(["pressure", "--factor", fpath("factor_collapse.json"), "--depth", "0"]) == 2


def test_reports_are_deterministic(tmp_path):
    jobs = [
        ("pressure", "--factor", fpath("factor_collapse.json"), "--depth", "7"),
        ("fit-h", "--factor", fpath("factor_collapse.json"), "--depth", "7"),
        ("weak-gibbs", "--factor", fpath("factor_collapse.json"),
         "--measure", fpath("measure_uniform3.json"), "--depth", "6"),
        ("profile-cnm", "--factor", fpath("factor_phase_blocked.json"), "--depth", "9"),
        ("certificate", "--factor", fpath("factor_collapse.json"), "--depth", "7",
         "--word", "ba"),
    ]
    for job in jobs:
        _, a = run(tmp_path, *job)
        _, b = run(tmp_path, *job)
        assert a == b and a


def test_main_parses_with_one_parser_and_leaks_no_state(tmp_path, monkeypatch):
    """main builds its parser once per process.  Commands with different
    flags run in turn in one process write the bytes that fresh
    interpreters write, a replaced cmd_* (as a tracer installs) still runs,
    and a bad flag still exits 2."""
    jobs = [("profile-cnm", "--factor", fpath("factor_phase_blocked.json"), "--depth", "9",
             "--gap-cap", "1", "--slope-threshold", "0.2"),
            ("verdict", "--factor", fpath("factor_collapse.json"), "--depth", "6",
             "--range", "2", "--pmax", "3"),
            ("profile-cnm", "--factor", fpath("factor_phase_blocked.json"), "--depth", "8")]
    builds, calls = [], []
    build, verdict = cli.build_parser, cli.cmd_verdict
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "cmd_verdict", lambda args: calls.append(1) or verdict(args))
    cli._parser.cache_clear()
    try:
        with pytest.raises(SystemExit) as bad:
            main(["verdict", "--factor", fpath("factor_collapse.json"), "--no-such-flag"])
        assert bad.value.code == 2
        got = [run(tmp_path, *job) for job in jobs]
    finally:
        cli._parser.cache_clear()  # drop the parser built with the patched helper
    assert builds == [1] and calls == [1]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for job, (code, raw) in zip(jobs, got):
        out = tmp_path / "fresh.json"
        proc = subprocess.run([sys.executable, "-m", "thermoshift.cli", *job, "--out", str(out)],
                              env=env, capture_output=True, timeout=120)
        assert (code, raw) == (proc.returncode, out.read_bytes()) and code == 0


def test_thread_cap_does_not_change_output(tmp_path):
    job = ("weak-gibbs", "--factor", fpath("factor_collapse.json"),
           "--measure", fpath("measure_uniform3.json"), "--depth", "6")
    _, serial = run(tmp_path, *job)
    old = os.environ.get("THERMO_THREADS")
    os.environ["THERMO_THREADS"] = "4"
    try:
        _, parallel = run(tmp_path, *job)
    finally:
        if old is None:
            os.environ.pop("THERMO_THREADS", None)
        else:
            os.environ["THERMO_THREADS"] = old
    assert serial == parallel


def test_float_range2_verdict_ends_in_evidence(tmp_path):
    # float table (nonzero f) and a float fit of range 2: the report holds
    # Python bools and floats only, so it serializes
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"range": 2, "values": {
        "11": 0.3, "12": -0.7, "13": 0.9, "21": -0.2, "22": 0.5,
        "23": -0.9, "31": 0.1, "32": 0.8, "33": -0.4}}))
    code, raw = run(tmp_path, "verdict", "--factor", fpath("factor_collapse.json"),
                    "--potential", str(pot), "--depth", "8", "--range", "2")
    assert code == 0
    doc = json.loads(raw)
    assert doc["table"]["exact"] is False
    assert doc["verdict"]["verdict"] == "EVIDENCE"
    assert doc["verdict"]["h"]["solver"] == "dyadic-exact"
    assert isinstance(doc["verdict"]["stats"]["uniform_decays"], bool)


def test_underflowing_float_table_is_an_input_error(tmp_path, capsys):
    # e^{-800} underflows to 0 on the float path: log g_1(b) would be -inf
    factor = tmp_path / "factor.json"
    factor.write_text(json.dumps({"domain": {"alphabet": ["a", "b"],
                                             "transitions": [[1, 1], [1, 1]]},
                                  "map": {"a": "a", "b": "b"}}))
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"range": 1, "values": {"a": 0.0, "b": -800.0}}))
    code, raw = run(tmp_path, "pressure", "--factor", str(factor),
                    "--potential", str(pot), "--depth", "3")
    assert code == 2 and raw == b""
    # Z_n itself stays finite; the transfer matrix would lose the b edges
    assert "underflows" in capsys.readouterr().err
    # the same cause is named when the table is built for export
    code, raw = run(tmp_path, "pressure", "--factor", str(factor), "--potential", str(pot),
                    "--depth", "3", "--table-out", str(tmp_path / "t.json"))
    assert code == 2 and raw == b"" and not (tmp_path / "t.json").exists()
    assert "underflows" in capsys.readouterr().err
    # the additive table stays finite, but the transfer matrix would lose
    # transitions (here every cycle: its Perron root would be 0)
    pot.write_text(json.dumps({"range": 2, "values": {"aa": -800.0, "ab": 0.0, "ba": -800.0,
                                                      "bb": -800.0}}))
    code, raw = run(tmp_path, "pressure", "--sft", fpath("sft_full2.json"),
                    "--potential", str(pot), "--depth", "3")
    assert code == 2 and raw == b""
    assert "underflows" in capsys.readouterr().err


def test_sft_pressure_with_widely_spread_float_potential(tmp_path):
    # the best n-path lies 400 (n/2) below n fmax: a walk on one scale for
    # all states would underflow to Z_n = 0 from depth 5
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"range": 2, "values": {"aa": -400.0, "ab": 0.0, "ba": -400.0,
                                                      "bb": -400.0}}))
    argv = ["pressure", "--sft", fpath("sft_full2.json"), "--potential", str(pot)]
    code, raw = run(tmp_path, *argv)
    assert code == 0
    doc = json.loads(raw)
    # the additive table (per-word sups, on no common scale) is the oracle
    f = LocallyConstantPotential(Sft(["a", "b"], [[1, 1], [1, 1]]), 2, {
        (0, 0): -400.0, (0, 1): 0.0, (1, 0): -400.0, (1, 1): -400.0})
    additive = build_additive_table(f, 12)
    for n in range(1, 13):
        assert math.isclose(doc["log_partition"][str(n)], partition_sum(additive, n),
                            rel_tol=1e-12, abs_tol=1e-12)
    assert run(tmp_path, *argv, "--table-out", str(tmp_path / "t.json")) == (0, raw)
    code, raw = run(tmp_path, *argv, "--depth", "64")
    assert code == 0
    doc = json.loads(raw)
    assert all(math.isfinite(x) for x in doc["log_partition"].values())
    assert doc["pressure"]["extrapolated"] == -200.0
    assert abs(doc["pressure"]["per_n"][-1] + 200.0) < 0.1


def test_stdout_output(capsys):
    code = main(["pressure", "--sft", fpath("sft_full2.json"), "--depth", "4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "pressure"


def test_nfit_jmax_and_pmax_below_one_are_input_errors(tmp_path, capsys, monkeypatch):
    """--nfit / --jmax / --pmax below 1 exit 2 naming the flag, before any
    table is built (0 used to mean the default, and a negative --jmax or a
    --pmax below 1 checked no orbit yet could certify)."""
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "build_g_table", no_table)
    for argv, flag in [(["fit-h", "--nfit", "0"], "--nfit"), (["fit-h", "--jmax", "0"], "--jmax"),
                       (["verdict", "--jmax", "0"], "--jmax"),
                       (["verdict", "--jmax", "-1"], "--jmax"),
                       (["certificate", "--word", "ab", "--jmax", "0"], "--jmax"),
                       (["verdict", "--pmax", "0"], "--pmax"), (["fit-h", "--pmax", "-1"], "--pmax")]:
        code, raw = run(tmp_path, *argv, "--factor", fpath("factor_collapse.json"),
                        "--depth", "8")
        assert (code, raw) == (2, b""), argv
        assert capsys.readouterr().err == "error: %s must be >= 1\n" % flag
    monkeypatch.undo()
    code, raw = run(tmp_path, "verdict", "--factor", fpath("factor_collapse.json"),
                    "--depth", "8", "--jmax", "1")
    assert code == 0
    assert set(json.loads(raw)["verdict"]["coverage"]["multiples"].values()) == {1}


def test_depth_and_max_cells_below_one_are_input_errors(tmp_path, capsys):
    """--depth and --max-cells below 1 exit 2 naming the flag, with nothing
    written, in every command (they used to exit 3 as a cap exceeded, the
    cell cap as "(cap -5)"); depths past 64 and real cell overflows still
    exit 3."""
    measure = ["--measure", fpath("measure_uniform3.json")]
    commands = [["pressure"], ["pressure", "--table-out", str(tmp_path / "t.json")],
                ["fit-h"], ["verdict"], ["weak-gibbs", *measure], ["profile-cnm"],
                ["certificate", "--word", "ab"]]
    for command in commands:
        for flag, value in (("--depth", "0"), ("--depth", "-3"), ("--max-cells", "0"),
                            ("--max-cells", "-5")):
            argv = [*command, "--factor", fpath("factor_collapse.json"), "--depth", "8",
                    flag, value]
            code, raw = run(tmp_path, *argv)
            assert (code, raw) == (2, b""), argv
            assert capsys.readouterr() == ("", "error: %s must be >= 1\n" % flag), argv
    assert not (tmp_path / "t.json").exists()
    for argv in (["verdict", "--depth", "65"], ["verdict", "--depth", "8", "--max-cells", "5"]):
        code, raw = run(tmp_path, *argv, "--factor", fpath("factor_collapse.json"))
        assert (code, raw) == (3, b""), argv
        assert capsys.readouterr().err.startswith("cap exceeded: "), argv


def test_slope_threshold_and_gap_cap_are_input_errors(tmp_path, capsys):
    """--slope-threshold must be finite and > 0 and --gap-cap at least 0,
    in every command: otherwise exit 2 naming the flag, with nothing
    written.  At -1 the flat collapse profile (C_{n,m} = 1, slope 0 at
    R^2 = 1) was REFUTED, nan and inf were echoed into the inputs as bare
    NaN / Infinity, and a negative gap cap failed only in the bridge search."""
    measure = ["--measure", fpath("measure_uniform3.json")]
    cases = [(["verdict", "--slope-threshold", v], "--slope-threshold")
             for v in ("-1", "0", "nan", "inf")]
    cases += [(["weak-gibbs", *measure, "--slope-threshold", "nan"], "--slope-threshold"),
              (["certificate", "--word", "ab", "--gap-cap", "-2"], "--gap-cap")]
    for argv, flag in cases:
        code, raw = run(tmp_path, *argv, "--factor", fpath("factor_collapse.json"),
                        "--depth", "8")
        assert (code, raw) == (2, b""), argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: %s must be" % flag), argv

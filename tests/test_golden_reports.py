"""CLI reports against committed golden bytes.

Each case runs ``cli.main`` with ``--out`` from the repository root, with
repo-relative input paths so the report's ``inputs`` block is stable, and
compares the written bytes with ``tests/golden/<name>.json``.  Regenerate
the golden files (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import os
import sys
from pathlib import Path

import pytest

from thermoshift.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests") / "golden"

CASES = {
    "pressure_exact": ["pressure", "--factor", "fixtures/factor_collapse.json", "--depth", "10"],
    "pressure_float_r2": ["pressure", "--factor", "fixtures/factor_collapse.json",
                          "--potential", "tests/golden/potential_r2_full3.json", "--depth", "8"],
    "pressure_float_mode": ["pressure", "--factor", "fixtures/factor_amalgamation.json",
                            "--mode", "float", "--depth", "6"],
    "pressure_sft": ["pressure", "--sft", "fixtures/sft_full2.json",
                     "--potential", "fixtures/potential_r2_full2.json", "--depth", "8"],
    "verdict_r1": ["verdict", "--factor", "fixtures/factor_collapse.json", "--depth", "8"],
    "verdict_r2": ["verdict", "--factor", "fixtures/factor_phase_blocked.json", "--depth", "10",
                   "--range", "2"],
    "verdict_r2_exact": ["verdict", "--factor", "fixtures/factor_amalgamation.json", "--depth", "6",
                         "--range", "2"],
    "verdict_float": ["verdict", "--factor", "fixtures/factor_collapse.json",
                      "--potential", "tests/golden/potential_r2_full3.json", "--depth", "7",
                      "--range", "2"],
    "verdict_float_d13": ["verdict", "--factor", "fixtures/factor_collapse.json",
                          "--potential", "tests/golden/potential_r2_full3.json", "--depth", "13",
                          "--range", "2"],
    "verdict_float_r3": ["verdict", "--factor", "fixtures/factor_collapse.json",
                         "--potential", "tests/golden/potential_r3_full3.json", "--depth", "8",
                         "--range", "2"],
    "pressure_float_r3": ["pressure", "--factor", "fixtures/factor_collapse.json",
                          "--potential", "tests/golden/potential_r3_full3.json", "--depth", "8"],
    "verdict_float_r1": ["verdict", "--factor", "fixtures/factor_identity_goldenmean.json",
                         "--potential", "fixtures/potential_weight_goldenmean.json",
                         "--depth", "8"],
    "verdict_candidate": ["verdict", "--factor", "fixtures/factor_collapse.json", "--depth", "8",
                          "--candidate", "tests/golden/candidate_collapse.json"],
    "profile_cnm": ["profile-cnm", "--factor", "fixtures/factor_phase_blocked.json",
                    "--depth", "10"],
    "profile_cnm_collapse": ["profile-cnm", "--factor", "fixtures/factor_collapse.json",
                             "--depth", "14"],
    "profile_cnm_calkin_wilf": ["profile-cnm", "--factor", "fixtures/factor_calkin_wilf.json",
                                "--depth", "10"],
    "profile_cnm_sft": ["profile-cnm", "--sft", "fixtures/sft_goldenmean.json", "--depth", "10"],
    "profile_cnm_sft_float": ["profile-cnm", "--sft", "fixtures/sft_full2.json",
                              "--potential", "fixtures/potential_r2_full2.json", "--depth", "8"],
    "profile_cnm_d18": ["profile-cnm", "--factor", "fixtures/factor_phase_blocked.json",
                        "--depth", "18"],
    "verdict_phase_blocked_d18": ["verdict", "--factor", "fixtures/factor_phase_blocked.json",
                                  "--range", "1", "--depth", "18"],
    "verdict_phase_blocked_d28": ["verdict", "--factor", "fixtures/factor_phase_blocked.json",
                                  "--depth", "28"],
    "profile_cnm_d28": ["profile-cnm", "--factor", "fixtures/factor_phase_blocked.json",
                        "--depth", "28"],
    "verdict_collapse_d14": ["verdict", "--factor", "fixtures/factor_collapse.json",
                             "--range", "1", "--depth", "14"],
    "fit_h_exact": ["fit-h", "--factor", "fixtures/factor_amalgamation.json", "--depth", "8",
                    "--range", "2"],
    "fit_h_float": ["fit-h", "--factor", "fixtures/factor_collapse.json",
                    "--potential", "tests/golden/potential_r2_full3.json", "--depth", "7",
                    "--range", "2", "--nfit", "5"],
    "certificate": ["certificate", "--factor", "fixtures/factor_collapse.json", "--depth", "8",
                    "--word", "ab"],
    "weak_gibbs": ["weak-gibbs", "--factor", "fixtures/factor_collapse.json",
                   "--measure", "fixtures/measure_uniform3.json", "--depth", "8"],
    "weak_gibbs_float": ["weak-gibbs", "--factor", "fixtures/factor_collapse.json",
                         "--potential", "tests/golden/potential_r2_full3.json",
                         "--measure", "tests/golden/measure_order2_float.json", "--depth", "8"],
}


def _report(name: str, out: Path) -> bytes:
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        assert main(CASES[name] + ["--out", str(out)]) == 0
    finally:
        os.chdir(cwd)
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path):
    want = (ROOT / GOLDEN / ("%s.json" % name)).read_bytes()
    assert _report(name, tmp_path / "report.json") == want


if __name__ == "__main__":
    for case in sorted(CASES):
        _report(case, ROOT / GOLDEN / ("%s.json" % case))
        print("wrote", GOLDEN / ("%s.json" % case), file=sys.stderr)

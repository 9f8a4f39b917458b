"""bench/write.py at a tiny budget: one short workload and one deep point of
each kind, this checkout standing in for the parent; the file's schema."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_writer_schema(tmp_path):
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "write.py"), "--pr", "0", "--parent", str(ROOT),
         "--seed", "0", "--seconds", "1", "--pairs", "1", "--workload", "collapse-exact",
         "--depth", "4", "--deep", "6", "--deep-weak-gibbs", "4", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["pr"] == 0 and doc["seed"] == 0 and doc["pairs"] == 1 and doc["depth_cap"] == 4
    assert set(doc["workloads"]) == set(doc["summary"]) == {"collapse-exact"}
    runs = doc["workloads"]["collapse-exact"]
    assert set(runs) == {"parent", "change"}
    for [rec] in runs.values():
        assert rec["workload"] == "collapse-exact" and rec["trace"] == 0 and rec["correct"]
        assert rec["attempted"] >= 1 and rec["failed"] == 0
        assert {"solve_ref", "peak_rss_mb", "setup_s"} <= set(rec["metrics"])
        assert isinstance(rec["meta"]["src_nonblank_lines"], int)
    summary = doc["summary"]["collapse-exact"]
    assert summary["solve_ref"]["change_wins"] in (0, 1)
    assert len(summary["peak_rss_mb"]["parent"]["runs"]) == 1
    verdict, weak = doc["deep"]
    assert (verdict["depth"], weak["depth"]) == (6, 4)
    assert weak["point"].startswith("collapse weak-gibbs")
    for point in (verdict, weak):
        for side in ("parent", "change"):
            assert len(point[side]["runs"]) == 3
            assert point[side]["best_wall_s"] == min(r["wall_s"] for r in point[side]["runs"])
            assert all(r["maxrss_mib"] > 0 for r in point[side]["runs"])
    for side in ("parent", "change"):
        for r in verdict[side]["runs"]:
            assert r["verdict"] == "CERTIFIED" and r["levels_built"] == 1
        for r in weak[side]["runs"]:
            # collapse with the uniform measure: 2n joint pairs at depth n
            assert r["exit"] == 0 and r["pairs"] == 8

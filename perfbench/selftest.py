"""Self-test of the benchmark: every workload at depth 6, untraced and traced.

    python3 perfbench/selftest.py        (from the repository root; ~1 min)

Checks that each run ends with the result line the benchmark promises,
that every end-to-end and per-layer metric is produced (all the wrapped
functions exist at this version), that BENCHMARK.json names the same
metrics as run.py, and that a directory holding only the benchmark makes
run.py fail without printing a result.

At depth 6 the sofic-refute growth flag has too few points to fire, so its
oracle fails there by design; every other workload must pass its checks.  The r2-float verdict counts as failed while the program's
float-verdict crash stands (see README.md), so failures are not asserted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

DEPTH = 6
FINITE_DEPTH_ORACLES = {"sofic-refute"}


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip().splitlines()[-1]
    res = json.loads(line)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
    return res


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def check_workload(name: str) -> None:
    base = ["--workload", name, "--seed", "0", "--seconds", "1", "--depth", str(DEPTH)]
    plain = result_of(bench(base + ["--trace", "0"]))
    assert set(plain["metrics"]) == set(run.END_TO_END), plain["metrics"].keys()
    traced = result_of(bench(base + ["--trace", "1"]))
    missing = set(run.per_layer_units()) - set(traced["metrics"])
    assert not missing, sorted(missing)
    for trace, res in enumerate((plain, traced)):
        for m in res["metrics"].values():
            assert isinstance(m["value"], (int, float)) and m["unit"]
        if name not in FINITE_DEPTH_ORACLES:
            record = json.loads((run.OUT / ("%s-s0-t%d.json" % (name, trace))).read_text())
            assert res["correct"] and not record["problems"], (name, record["problems"])
    for key in run.END_TO_END:
        assert plain["metrics"][key]["value"] > 0, key


def check_refuses_without_program() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(["--workload", "collapse-exact", "--seed", "0", "--seconds", "1",
                  "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def main() -> int:
    check_benchmark_json()
    for name in workloads.WORKLOADS:
        check_workload(name)
        print("ok", name)
    check_refuses_without_program()
    print("ok refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())

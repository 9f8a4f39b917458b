"""thermoshift benchmark: time-to-report, peak memory and set-up time of
fixed CLI workloads, plus per-layer spans from a traced pass.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run it from the repository root.  One run measures one workload: a fresh
child process imports thermoshift from ``src`` and calls
``thermoshift.cli.main`` for each command of the workload, one command at
a time (a closed loop with one client, no threads).  After one untimed
warm-up pass it repeats the pass until ``--seconds`` is used up.  Every
report is checked by an oracle that does not use thermoshift.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  Per-run records and spans go to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_TIMEOUT_S = 30
CHILD_GRACE_S = 90

END_TO_END = {"solve_ref": "ref", "peak_rss_mb": "MiB", "setup_s": "s"}

# Wrapped functions whose total_s, self_s and calls are reported per layer.
LAYER_FUNCTIONS = (
    "seqtable.build_g_table", "seqtable.pressure_estimate", "seqtable.partition_sum",
    "seqtable.defect_profile", "seqtable.build_additive_table", "seqtable.check_D2",
    "detect.table_power_base", "detect.fit_h", "detect.uniform_defects_exact_all",
    "detect.uniform_defect", "detect.image_periodic_points", "detect.periodic_defect",
    "lp.chebyshev_fit_exact", "lp.chebyshev_fit_float", "potential.birkhoff_sup",
    "factor.pushforward_cylinder", "factor.ImageLanguage.blocks",
    "factor.ImageLanguage.count_blocks", "gibbs.transfer_pressure",
    "gibbs.weak_gibbs_constants", "gibbs.pushforward_sandwich", "shiftcore.Sft.blocks",
    "shiftcore.weak_spec_number", "cli.main",
)
LAYER_EXTRA = {
    "seqtable.cells": "count", "seqtable.build_g_table.cells_per_s": "1/s",
    "detect.fit_h.exact_share": "ratio", "seqtable.check_D2.pairs": "count",
    "jsonio.load.total_s": "s", "trace.overhead": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for fn in LAYER_FUNCTIONS:
        units.update({fn + ".total_s": "s", fn + ".self_s": "s", fn + ".calls": "count"})
    units.update({m + ".self_s": "s" for m in LAYERS})
    units.update(LAYER_EXTRA)
    return units


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# run metadata

def _git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _src_lines() -> int:
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        total += sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
    return total


def metadata() -> dict:
    return {"git_revision": _git_revision(), "src_nonblank_lines": _src_lines(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "nproc": os.cpu_count(),
            "loadavg_1m_start": os.getloadavg()[0]}


# ---------------------------------------------------------------------------
# statistics

def tail_percentile(values):
    """(p, value): the highest whole percentile with at least ten samples
    beyond it (nearest rank), or None when there are too few samples."""
    n = len(values)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p <= 50:
        return None
    ordered = sorted(values)
    rank = -(-p * n // 100)
    return p, ordered[rank - 1]


def summarize(values, unit) -> dict:
    out = {"value": statistics.median(values), "unit": unit, "samples": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["p%d" % tail[0]] = tail[1]
    return out


# ---------------------------------------------------------------------------
# one workload

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("THERMO_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(mode: str, spec_path: Path, timeout: float) -> float:
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), mode, str(spec_path)],
                            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s child timed out after %.0f s" % (mode, timeout)) from None
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-3:])
        raise BenchError("%s child exited %d: %s" % (mode, proc.returncode, tail))
    return elapsed


def _check_ops(name, passes, reports, depths, docs):
    """Failure counts, failure records and problems of a run.

    An op fails on an exception, a nonzero exit, or a report that fails its
    oracle.  Every report of one command must be byte-identical across
    passes, traced or not.
    """
    verdicts = {}
    problems = []
    for i, depth in enumerate(depths):
        cmd = passes[0]["ops"][i]["command"]
        digests = {p["ops"][i]["report"] for p in passes}
        if len(digests) > 1:
            problems.append("%s: reports differ between passes (traced or not)" % cmd)
        for digest in digests - {None}:
            verdicts[(i, digest)] = workloads.check_report(name, cmd, reports[digest], depth, docs)
            problems += ["%s: %s" % (cmd, x) for x in verdicts[(i, digest)]]
    failures = {}
    attempted = failed = 0
    for p in passes[1:]:            # passes[0] is the untimed warm-up
        for i, op in enumerate(p["ops"]):
            attempted += 1
            error = op["error"]
            if error is None and verdicts.get((i, op["report"])):
                error = {"type": "OutputCheck", "message": verdicts[(i, op["report"])][0]}
            if error is not None:
                failed += 1
                key = (op["command"], error["type"], error["message"])
                failures[key] = failures.get(key, 0) + 1
    records = [{"command": c, "type": t, "message": m, "count": n}
               for (c, t, m), n in sorted(failures.items())]
    return attempted, failed, records, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, depth_cap=None) -> dict:
    t0 = perf_counter()
    meta = metadata()
    workdir = OUT / ("%s-s%d" % (name, seed))
    made = workloads.make_documents(name, seed, ROOT, workdir)
    cmds = workloads.commands(name, made["paths"], depth_cap)
    depths = [depth for _, depth in cmds]
    spec = {"paths": made["paths"], "commands": [argv for argv, _ in cmds],
            "outdir": str(workdir), "trace": trace,
            "min_passes": MIN_TRACED_PASSES if trace else MIN_PASSES,
            "result_out": str(workdir / "result.json"),
            "spans_out": str(OUT / ("%s-s%d-spans.jsonl" % (name, seed)))}
    spec_path = workdir / "spec.json"
    metrics = {}
    if not trace:
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        setups = [_child("setup", spec_path, SETUP_TIMEOUT_S) for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = summarize(setups, "s")
    spec["seconds"] = max(1.0, seconds - (perf_counter() - t0))
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _child("run", spec_path, spec["seconds"] + CHILD_GRACE_S)
    res = json.loads(Path(spec["result_out"]).read_text(encoding="utf-8"))

    passes = [res["warmup"]] + res["passes"] + res["traced_passes"]
    attempted, failed, failures, problems = _check_ops(
        name, passes, res["reports"], depths, made["docs"])
    if trace:
        layer = res["layer_passes"]
        for key, unit in per_layer_units().items():
            if key != "trace.overhead" and all(key in m for m in layer):
                metrics[key] = summarize([m[key] for m in layer], unit)
        metrics["trace.overhead"] = {
            "value": statistics.median(p["ref_units"] for p in res["traced_passes"])
            / statistics.median(p["ref_units"] for p in res["passes"]) - 1.0,
            "unit": "ratio", "samples": len(res["traced_passes"])}
    else:
        metrics["solve_ref"] = summarize([p["ref_units"] for p in res["passes"]], "ref")
        metrics["solve_s"] = summarize([p["seconds"] for p in res["passes"]], "s")
        metrics["peak_rss_mb"] = {"value": res["peak_rss_kib"] / 1024.0, "unit": "MiB",
                                  "samples": 1}
    metrics["error_rate"] = {"value": failed / attempted, "unit": "ratio",
                             "samples": attempted}
    meta["loadavg_1m_end"] = os.getloadavg()[0]
    record = {"workload": name, "why": workloads.WHY[name], "seed": seed,
              "seconds": seconds, "trace": int(trace),
              "commands": ["%s@%d" % (argv[0], depth) for argv, depth in cmds],
              "meta": meta, "correct": not problems, "attempted": attempted,
              "failed": failed, "failures": failures, "problems": problems,
              "metrics": metrics,
              "absent": sorted(set(per_layer_units()) - set(metrics)) if trace else [],
              "wall_s": perf_counter() - t0}
    (OUT / ("%s-s%d-t%d.json" % (name, seed, int(trace)))).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return record


# ---------------------------------------------------------------------------
# output

def print_record(rec: dict) -> None:
    print("workload %s  seed %d  commands %s" % (
        rec["workload"], rec["seed"], " + ".join(rec["commands"])))
    print("meta %s" % json.dumps(rec["meta"], sort_keys=True))
    for key, m in sorted(rec["metrics"].items()):
        extra = "".join("  %s %.6g" % (k, v) for k, v in sorted(m.items()) if k.startswith("p"))
        print("  %-48s %14.6g %-6s n=%d%s" % (key, m["value"], m["unit"], m["samples"], extra))
    for f in rec["failures"]:
        print("  FAILED %s x%d: %s: %s" % (f["command"], f["count"], f["type"], f["message"]))
    for p in rec["problems"]:
        print("  PROBLEM %s" % p)


def result_line(correct, attempted, failed, metrics, names) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                                   for k in names if k in metrics}})


def main(argv=None) -> int:
    names = list(workloads.WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--depth", type=int, help="cap every command's depth (self-test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "thermoshift" / "__init__.py").is_file() or \
            not (ROOT / "fixtures").is_dir():
        print("error: run from a thermoshift checkout (src/thermoshift and fixtures/ "
              "not found under %s)" % ROOT, file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    keys = list(per_layer_units()) if args.trace else list(END_TO_END)
    todo = names if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.depth)
                   for w in todo]
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    for rec in records:
        print_record(rec)
    correct = all(r["correct"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        print(result_line(correct, attempted, failed, records[0]["metrics"], keys))
    else:
        columns = (["trace.overhead"] if args.trace
                   else ["solve_s"] + list(END_TO_END)) + ["error_rate"]
        print("%-16s" % "workload" + "".join("%18s" % k for k in columns))
        for r in records:
            print("%-16s" % r["workload"] + "".join(
                "%18s" % ("%.4g %s" % (r["metrics"][k]["value"], r["metrics"][k]["unit"])
                          if k in r["metrics"] else "-") for k in columns))
        merged = {"%s.%s" % (r["workload"], k): m for r in records for k, m in r["metrics"].items()}
        print(result_line(correct, attempted, failed, merged,
                          ["%s.%s" % (r["workload"], k) for r in records for k in keys]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

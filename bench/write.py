"""Write BENCH_<pr>.json: the benchmark's end-to-end records for a parent
checkout and this one, side by side, and a block of deep in-process points.

    python3 bench/write.py --pr 33 --parent DIR --seed 7 --seconds 25

Run it from anywhere; DIR is a checkout of the parent commit (a clone or a
``git worktree``).  For each workload of BENCHMARK.json (or each
``--workload``), ``perfbench/run.py --trace 0`` runs in DIR and in this
checkout, ``--pairs`` times, alternating which side runs first, and each
result record it writes (the metrics, ``attempted``, ``failed``, ``meta``
with the git revision and the ``src/`` line count) is copied as it is.
``summary`` gives per workload and metric the per-run values and their
medians, and for ``solve_ref`` the pairs the change won.

The ``deep`` block is not gated: the collapse verdict ``table_verdict(r=1)``
at each ``--deep`` depth, build included, and ``weak-gibbs`` on collapse
with the uniform measure through ``cli.main`` at each ``--deep-weak-gibbs``
depth, each timed in a fresh child process per run with the side's ``src``
first on the path, best of three per side: wall time, the child's peak RSS
(``ru_maxrss``) and ``levels.built`` for the verdict, the joint (mass row,
fiber row) pairs of the sandwich's deepest level for ``weak-gibbs`` (None
on a side whose sandwich walks the words).

Nothing here changes what ``perfbench/`` measures or gates: the runs are
its own command line, in each checkout's directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEEP_DEPTHS = (22, 40, 64)
DEEP_WEAK_GIBBS_DEPTHS = (16, 18, 20)
DEEP_RUNS = 3
TIMEOUT_S = 900

# one deep point: build the collapse g-table at depth argv[1] and run the
# fitted range-1 verdict on it; one JSON line out
DEEP_CHILD = """
import json, resource, sys, time
from thermoshift import LocallyConstantPotential, build_g_table
from thermoshift.detect import table_verdict
from thermoshift.jsonio import load_factor, read_json
pi = load_factor(read_json('fixtures/factor_collapse.json'))
start = time.perf_counter()
t = build_g_table(pi, LocallyConstantPotential.zero(pi.domain), int(sys.argv[1]))
verdict = table_verdict(t, r=1).verdict.value
wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "verdict": verdict,
                  "levels_built": getattr(getattr(t, "levels", None), "built", None),
                  "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""

# one deep weak-gibbs point: the command on collapse at depth argv[1],
# in-process; the sandwich's pairs are counted where it dedupes them
WEAK_GIBBS_CHILD = """
import json, os, resource, sys, time
from thermoshift import cli, gibbs
pairs = [None]
if hasattr(gibbs, "unique_rows"):
    def counted(a, unique=gibbs.unique_rows):
        first, inv = unique(a)
        pairs.append(len(first))
        return first, inv
    gibbs.unique_rows = counted
argv = ["weak-gibbs", "--factor", "fixtures/factor_collapse.json",
        "--measure", "fixtures/measure_uniform3.json", "--depth", sys.argv[1], "--out", os.devnull]
start = time.perf_counter()
code = cli.main(argv)
wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "exit": code, "pairs": pairs[-1],
                  "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""
DEEP_POINTS = {"verdict": ("collapse table_verdict(r=1), build included", DEEP_CHILD),
               "weak_gibbs": ("collapse weak-gibbs, uniform measure, cli.main in-process",
                              WEAK_GIBBS_CHILD)}


class WriterError(RuntimeError):
    pass


def _run(argv: list[str], cwd: Path, env: dict | None = None) -> str:
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-3:])
        raise WriterError("%s in %s exited %d: %s" % (argv[1], cwd, proc.returncode, tail))
    return proc.stdout


def bench_record(side: Path, workload: str, seed: int, seconds: float, depth) -> dict:
    """One untraced perfbench run in the checkout ``side``: the record it
    writes under its ``.perfbench-out``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    _run(argv + ([] if depth is None else ["--depth", str(depth)]), side)
    out = side / ".perfbench-out" / ("%s-s%d-t0.json" % (workload, seed))
    return json.loads(out.read_text(encoding="utf-8"))


def deep_run(side: Path, child: str, depth: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(side / "src"), PYTHONHASHSEED="0")
    line = _run([sys.executable, "-c", child, str(depth)], side, env)
    return json.loads(line.strip().splitlines()[-1])


def _sides(parent: Path, i: int) -> list[tuple[str, Path]]:
    """The two sides, the parent first on even runs."""
    both = [("parent", parent), ("change", ROOT)]
    return both if i % 2 == 0 else both[::-1]


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per end-to-end metric the values of each side's runs and their
    medians; for solve_ref also the pairs whose change run read lower."""
    out = {}
    for name in sorted(runs["parent"][0]["metrics"]):
        values = {side: [rec["metrics"][name]["value"] for rec in recs]
                  for side, recs in runs.items()}
        out[name] = {side: {"runs": v, "median": statistics.median(v)}
                     for side, v in values.items()}
        if name == "solve_ref":
            out[name]["change_wins"] = sum(c < p for p, c in zip(values["parent"],
                                                                  values["change"]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="per perfbench run")
    ap.add_argument("--pairs", type=int, default=10, help="runs per side and workload")
    ap.add_argument("--workload", action="append", help="default: every BENCHMARK.json workload")
    ap.add_argument("--depth", type=int, help="cap every command's depth (a short check)")
    ap.add_argument("--deep", type=int, nargs="*", default=list(DEEP_DEPTHS),
                    help="depths of the deep collapse verdict points")
    ap.add_argument("--deep-weak-gibbs", type=int, nargs="*", default=list(DEEP_WEAK_GIBBS_DEPTHS),
                    help="depths of the deep collapse weak-gibbs points")
    ap.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the repository root")
    args = ap.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        print("error: %s holds no perfbench/run.py" % parent, file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("error: --pairs must be >= 1", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    doc = {"pr": args.pr, "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
           "depth_cap": args.depth, "workloads": {}, "summary": {}, "deep": []}
    try:
        for name in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side, path in _sides(parent, i):
                    runs[side].append(bench_record(path, name, args.seed, args.seconds,
                                                   args.depth))
            doc["workloads"][name] = runs
            doc["summary"][name] = summarize(runs)
        for kind, depths in (("verdict", args.deep), ("weak_gibbs", args.deep_weak_gibbs)):
            point, child = DEEP_POINTS[kind]
            for depth in depths:
                runs = {"parent": [], "change": []}
                for i in range(DEEP_RUNS):
                    for side, path in _sides(parent, i):
                        runs[side].append(deep_run(path, child, depth))
                doc["deep"].append({"point": point, "depth": depth,
                                    **{side: {"best_wall_s": min(r["wall_s"] for r in rs),
                                              "runs": rs} for side, rs in runs.items()}})
    except (WriterError, subprocess.TimeoutExpired) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    out = args.out or ROOT / ("BENCH_%d.json" % args.pr)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload process: runs the CLI commands of one workload in-process.

    python3 child.py run <spec.json>     timed (and, with trace, traced) passes
    python3 child.py setup <spec.json>   import thermoshift and load the documents

The parent starts this with PYTHONPATH pointing at the checkout's ``src``,
so the peak RSS of this process is the workload's own.  ``run`` writes a
result JSON (per-pass timings, per-command status, distinct report texts,
per-layer metrics) and, when traced, the spans as JSONL.

Every command is bracketed by runs of a fixed reference loop, so each pass
also has a time in reference units: the sum over its commands of command
time / mean of the two neighbouring reference times.  A shared 2-vCPU
virtual machine speeds up and slows down by about 40% for stretches of
10-60 s, on both CPUs at once; the reference loop slows with it, so the
ratio stays put where wall time does not (see README.md).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

MAX_PASSES = 200


def reference_seconds() -> float:
    """Wall time of a fixed loop with the program's operation mix: dict
    updates under tuple keys, Fraction sums and float log/exp (~50 ms)."""
    start = perf_counter()
    counts: dict = {}
    acc = Fraction(0)
    x = 0.0
    for i in range(15000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + i
        acc += Fraction(i % 5 + 1, i % 7 + 1)
        x += math.log(1.0 + math.exp(-(i % 9)))
    return perf_counter() - start


def _load_documents(paths: dict) -> None:
    from thermoshift import jsonio

    factor = jsonio.load_factor(jsonio.read_json(paths["factor"]))
    if "potential" in paths:
        jsonio.load_potential(jsonio.read_json(paths["potential"]), factor.domain)
    if "measure" in paths:
        jsonio.load_measure(jsonio.read_json(paths["measure"]), factor.domain)


class PassRunner:
    """Runs one pass of CLI commands and keeps every distinct report text."""

    def __init__(self, commands, outdir: Path):
        import thermoshift.cli

        self.cli = thermoshift.cli
        self.commands = commands
        self.outs = [outdir / ("report-%d.json" % i) for i in range(len(commands))]
        self.texts: dict[str, str] = {}     # sha256 -> report text

    def run(self) -> dict:
        gc.collect()
        begin = perf_counter()
        refs = [reference_seconds()]
        ops = []
        for argv, out in zip(self.commands, self.outs):
            out.unlink(missing_ok=True)
            error = None
            start = perf_counter()
            try:
                rc = self.cli.main(argv + ["--out", str(out)])
            except Exception as e:  # a crashing command is a measured failure
                rc = None
                error = {"type": type(e).__name__,
                         "message": (str(e).splitlines() or [""])[0]}
            elapsed = perf_counter() - start
            refs.append(reference_seconds())
            if error is None and rc != 0:
                error = {"type": "ExitCode", "message": "exit code %r" % rc}
            digest = None
            if out.exists():
                text = out.read_text(encoding="utf-8")
                digest = hashlib.sha256(text.encode()).hexdigest()
                self.texts.setdefault(digest, text)
            ops.append({"command": argv[0], "seconds": elapsed, "error": error,
                        "report": digest})
        return {"seconds": sum(op["seconds"] for op in ops),
                "ref_units": sum(2 * op["seconds"] / (refs[i] + refs[i + 1])
                                 for i, op in enumerate(ops)),
                "wall": perf_counter() - begin, "refs": refs, "ops": ops}


def run(spec: dict) -> dict:
    deadline = perf_counter() + spec["seconds"]
    runner = PassRunner(spec["commands"], Path(spec["outdir"]))
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
    warmup = runner.run()
    plain, traced = [], []
    estimate = warmup["wall"] * (2 if tracer else 1)
    while len(plain) < MAX_PASSES:
        enough = len(plain) >= spec["min_passes"]
        if enough and perf_counter() + estimate > deadline:
            break
        plain.append(runner.run())
        if tracer is not None:
            tracer.pass_id = len(traced)
            tracer.install()
            try:
                traced.append(runner.run())
            finally:
                tracer.uninstall()
            tracer.pass_id = None
        estimate = sorted(p["wall"] for p in plain)[len(plain) // 2] * (2 if tracer else 1)
    result = {
        "warmup": warmup, "passes": plain, "traced_passes": traced,
        "reports": runner.texts,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        from tracer import pass_metrics

        names = tracer.function_names()
        result["layer_passes"] = [pass_metrics(tracer.spans, tracer.counts, i, names)
                                  for i in range(len(traced))]
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                name, start, end, parent, pass_id = s
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")
    return result


def main(argv) -> int:
    mode, spec_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if mode == "setup":
        _load_documents(spec["paths"])
        return 0
    result = run(spec)
    Path(spec["result_out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark workloads: seeded input documents, CLI commands and
output oracles.

A workload is one factor document and a list of CLI commands (one pass).
``make_documents`` writes the JSON documents the commands read, generated
from the seed; the program never sees the seed itself.  The seed permutes
the order of the domain alphabet (this changes the documents but not the
mathematics) and, for ``r2-float``, draws the potential.

The oracles below do not call thermoshift: they recompute the expected
values from the generated documents with plain Python and numpy, so a
defect in the code under test cannot hide in its own check.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

# name -> (factor fixture, extra documents, [(command, depth, extra args)]).
# Depths are sized so that a pass takes about 1-2 s on a shared 2-core host
# and a run holds ten or more (see README.md).
WORKLOADS = {
    "collapse-exact": ("factor_collapse.json", (),
                       [("pressure", 14, []), ("verdict", 14, ["--range", "1"])]),
    "r2-float": ("factor_collapse.json", ("potential",),
                 [("pressure", 13, []), ("verdict", 13, ["--range", "2"])]),
    "gibbs-exact": ("factor_collapse.json", ("measure",), [("weak-gibbs", 10, [])]),
    "sofic-refute": ("factor_phase_blocked.json", (),
                     [("profile-cnm", 18, []), ("verdict", 18, ["--range", "1"])]),
}

WHY = {
    "collapse-exact": "exact big-integer path: dense 2^n image, exact tables, "
                      "Fraction sums, exact C_nm profile and exact-simplex fits",
    "r2-float": "same table shape on the float path: sup tails, logsumexp, HiGHS "
                "fits and per-word float uniform defects via birkhoff_sup",
    "gibbs-exact": "measure layers: transfer pressure, additive table over 3^n "
                   "domain words, exact C_n scans and the pushforward sandwich",
    "sofic-refute": "strictly sofic sparse image: non-trivial subset automaton, "
                    "check_D2 bridging search and the REFUTED early exit",
}


def _fixture(root: Path, name: str) -> dict:
    with open(root / "fixtures" / name, encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def make_documents(name: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the workload's input documents into ``workdir``; return
    {"paths": {role: path}, "docs": {role: document}}."""
    rng = random.Random(seed)
    fixture, extra, _ = WORKLOADS[name]
    base = _fixture(root, fixture)
    dom = base["domain"]
    perm = rng.sample(range(len(dom["alphabet"])), len(dom["alphabet"]))
    alphabet = [dom["alphabet"][p] for p in perm]
    docs = {"factor": {"domain": {"alphabet": alphabet, "transitions": [
        [dom["transitions"][p][q] for q in perm] for p in perm]}, "map": dict(base["map"])}}
    if "potential" in extra:
        docs["potential"] = {"range": 2, "values": {
            a + b: rng.uniform(-1.0, 1.0) for a in alphabet for b in alphabet}}
    if "measure" in extra:
        mu = _fixture(root, "measure_uniform3.json")
        docs["measure"] = dict(mu, P=[[mu["P"][p][q] for q in perm] for p in perm],
                               pi=[mu["pi"][p] for p in perm])
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {role: _write(workdir / ("%s.json" % role), doc) for role, doc in docs.items()}
    return {"paths": paths, "docs": docs}


def commands(name: str, paths: dict, depth_cap: int | None = None) -> list[tuple[list[str], int]]:
    """(CLI argument list, depth) of each command of one pass, in order;
    ``depth_cap`` lowers every depth to at most that value."""
    out = []
    for cmd, depth, extra in WORKLOADS[name][2]:
        if depth_cap is not None:
            depth = min(depth, depth_cap)
        argv = [cmd, "--factor", paths["factor"], "--depth", str(depth)] + extra
        if "potential" in paths:
            argv += ["--potential", paths["potential"]]
        if "measure" in paths:
            argv += ["--measure", paths["measure"]]
        out.append((argv, depth))
    return out


# ---------------------------------------------------------------------------
# oracles: each returns a list of problems (empty when the report is right)

def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _finite_floats(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_floats(v) for v in obj)
    return True


def _check_collapse(cmd: str, rep: dict, depth: int, docs: dict) -> list[str]:
    p: list[str] = []
    if cmd == "pressure":
        _expect(p, rep["pressure"]["exact_base"] == "3", "exact_base != 3")
        for n in range(1, depth + 1):
            got = rep["log_partition"][str(n)]
            _expect(p, abs(got - n * math.log(3)) <= 1e-12 * n,
                    "log_partition[%d] = %r != n log 3" % (n, got))
        return p
    v = rep["verdict"]
    h = v["h"] or {}
    _expect(p, v["verdict"] == "CERTIFIED", "verdict %s != CERTIFIED" % v["verdict"])
    _expect(p, h.get("tstar_exact") == "0", "tstar_exact %r != 0" % h.get("tstar_exact"))
    _expect(p, h.get("values") == {"a": math.log(2), "b": 0.0},
            "h %r != (log 2, 0)" % h.get("values"))
    _expect(p, bool(v["uniform"]) and all(x == 0 for x in v["uniform"].values())
            and v["uniform_exact_zero"], "nonzero uniform defect")
    _expect(p, bool(v["periodic"]) and all(x == 0 for xs in v["periodic"].values() for x in xs)
            and v["periodic_exact_zero"], "nonzero periodic defect")
    return p


def _r2_brute_log_z(docs: dict, n: int) -> float:
    """log Z_n by enumerating every domain word of length n (full shift):
    per-cylinder sup of S_n f, the last window maximised over the free
    next symbol."""
    alphabet = docs["factor"]["domain"]["alphabet"]
    f = docs["potential"]["values"]
    tail = {a: max(f[a + b] for b in alphabet) for a in alphabet}
    terms = []
    for x in itertools.product(alphabet, repeat=n):
        s = math.fsum(f[x[i] + x[i + 1]] for i in range(n - 1)) + tail[x[-1]]
        terms.append(math.exp(s))
    return math.log(math.fsum(terms))


def _r2_spectrum(docs: dict) -> tuple[float, float]:
    """(log Perron root, |lambda_2| / lambda_1) of the 2-block weight matrix."""
    alphabet = docs["factor"]["domain"]["alphabet"]
    f = docs["potential"]["values"]
    w = np.array([[math.exp(f[a + b]) for b in alphabet] for a in alphabet])
    mods = sorted(abs(np.linalg.eigvals(w)), reverse=True)
    return math.log(mods[0]), mods[1] / mods[0]


def _check_r2(cmd: str, rep: dict, depth: int, docs: dict) -> list[str]:
    p: list[str] = []
    _expect(p, _finite_floats(rep), "non-finite value in the report")
    if cmd != "pressure":
        return p
    for n in range(1, min(depth, 8) + 1):
        got, want = rep["log_partition"][str(n)], _r2_brute_log_z(docs, n)
        _expect(p, abs(got - want) <= 1e-9,
                "log_partition[%d] = %r, enumeration gives %r" % (n, got, want))
    root, ratio = _r2_spectrum(docs)
    est = rep["pressure"]
    # Three-term Aitken removes one subdominant mode; what it leaves is of
    # order ratio^(depth-2), with a heavy tail when the second difference
    # nearly cancels (see README.md), hence the factor 100.
    tol = 1e-8 + 100 * ratio ** (depth - 2)
    _expect(p, abs(est["extrapolated"] - root) <= tol,
            "extrapolated %r vs log Perron root %r (tolerance %.3g)"
            % (est["extrapolated"], root, tol))
    _expect(p, est["fekete_upper"] >= root - 1e-12,
            "fekete_upper %r below log Perron root %r" % (est["fekete_upper"], root))
    return p


def _check_gibbs(cmd: str, rep: dict, depth: int, docs: dict) -> list[str]:
    p: list[str] = []
    mu, sw = rep["mu_constants"], rep["sandwich"]
    _expect(p, mu["verdict"] == "GIBBS", "verdict %s != GIBBS" % mu["verdict"])
    _expect(p, mu["exact"] is True, "constants not exact")
    cn = mu["exact_cn"] or {}
    _expect(p, len(cn) == depth and all(c == "1" for c in cn.values()),
            "exact_cn not all 1: %r" % cn)
    _expect(p, sw["ok"] is True and sw["exact"] is True, "sandwich not ok and exact")
    _expect(p, rep["transfer"]["lam_exact"] == "3", "lam_exact %r != 3" % rep["transfer"]["lam_exact"])
    return p


def _check_sofic(cmd: str, rep: dict, depth: int, docs: dict) -> list[str]:
    p: list[str] = []
    if cmd == "verdict":
        v = rep["verdict"]["verdict"]
        _expect(p, v == "REFUTED", "verdict %s != REFUTED" % v)
        return p
    prof = rep["profile"]
    _expect(p, prof["growth"] is True, "no growth flag")
    exact_c = prof["exact_c"] or {}
    for m in range(3, depth - 1, 2):
        c = exact_c.get("2,%d" % m)
        bound = Fraction(2 ** ((m - 1) // 2) + 2)
        _expect(p, c is not None and Fraction(c) >= bound,
                "exact_c[2,%d] = %r below %s" % (m, c, bound))
    return p


_CHECKS = {"collapse-exact": _check_collapse, "gibbs-exact": _check_gibbs,
           "sofic-refute": _check_sofic, "r2-float": _check_r2}


def check_report(name: str, cmd: str, text: str, depth: int, docs: dict) -> list[str]:
    """Problems found in one report (the CLI's JSON text) of a workload."""
    try:
        rep = json.loads(text)
        return _CHECKS[name](cmd, rep, depth, docs)
    except (ValueError, KeyError, TypeError) as e:
        return ["unreadable report: %s: %s" % (type(e).__name__, e)]

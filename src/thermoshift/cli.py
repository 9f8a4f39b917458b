"""Batch front-end: JSON specs in, machine-readable reports out.

Commands: pressure | fit-h | verdict | weak-gibbs | profile-cnm | certificate.
Exit codes: 0 success, 2 bad input document or a table the float path
cannot represent, 3 cap exceeded (the depth cap, and the cell cap where a
command builds a table: ``pressure`` builds one only for --table-out).
Reports are byte-identical across runs on identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .detect import DetectError, c2_certificate, fit_h, table_verdict
from .factor import FactorError, OneBlockFactor
from .gibbs import (GibbsError, pushforward_sandwich, transfer_pressure,
                    weak_gibbs_constants)
from .jsonio import (SchemaError, load_factor, load_measure, load_potential,
                     load_sft, read_json, split_word_key, table_doc)
from .markov import MeasureError
from .numerics import log_fraction
from .potential import LocallyConstantPotential, PotentialError
from .seqtable import (FIT_DEPTH, TableError, build_additive_table, build_g_table,
                       check_D2, defect_profile, log_perron, partition_sum,
                       partition_table, pressure_estimate)
from .shiftcore import SftError, weak_spec_number
from .verdicts import DEFAULT_SLOPE_THRESHOLD

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3

HARD_DEPTH_CAP = 64


class CapExceeded(RuntimeError):
    pass


def _load_setting(args):
    """Resolve (sft, factor-or-None, potential) from the argument paths,
    once the numeric flags are checked."""
    for flag, low in (("depth", 1), ("max_cells", 1), ("nfit", 1), ("jmax", 1), ("pmax", 1),
                      ("gap_cap", 0)):
        if getattr(args, flag, None) is not None and getattr(args, flag) < low:
            raise SchemaError("--%s must be >= %d" % (flag.replace("_", "-"), low))
    if not 0 < args.slope_threshold < math.inf:
        raise SchemaError("--slope-threshold must be finite and > 0")
    if args.factor and args.sft:
        raise SchemaError("give either --sft or --factor, not both")
    if args.factor:
        pi = load_factor(read_json(args.factor))
        sft = pi.domain
    elif args.sft:
        sft = load_sft(read_json(args.sft))
        pi = None
    else:
        raise SchemaError("need --sft or --factor")
    if args.potential:
        f = load_potential(read_json(args.potential), sft)
    else:
        f = LocallyConstantPotential.zero(sft)
    return sft, pi, f


def _check_depth(args):
    if args.depth > HARD_DEPTH_CAP:
        raise CapExceeded("depth %d outside 1..%d" % (args.depth, HARD_DEPTH_CAP))


def _check_caps(args, sft, pi):
    _check_depth(args)
    lang = pi.image if pi is not None else sft
    cells = sum(lang.block_counts(args.depth)[1:])
    if cells > args.max_cells:
        raise CapExceeded("table would hold %d cells (cap %d)" % (cells, args.max_cells))


def _build_table(args, sft, pi, f):
    if pi is not None:
        return build_g_table(pi, f, args.depth, mode=args.mode)
    if args.mode == "exact" and not f.is_zero:
        raise TableError("exact counting requires f = 0")
    return build_additive_table(f, args.depth)


def _table_setting(args, needs_factor: bool = True):
    """(sft, pi, f, table): the flags checked and the documents loaded, the
    factor map required (``needs_factor``), the caps checked, the table built."""
    sft, pi, f = _load_setting(args)
    if pi is None and needs_factor:
        raise SchemaError("%s needs a factor map" % args.command)
    _check_caps(args, sft, pi)
    return sft, pi, f, _build_table(args, sft, pi, f)


def _emit(args, report) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _input_block(args):
    keys = ("sft", "factor", "potential", "measure", "depth", "mode", "range",
            "nfit", "pmax", "jmax", "gap_cap", "slope_threshold")
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def cmd_pressure(args) -> dict:
    """Z_n from the one-row walk over the domain (``partition_table``); the
    g- or additive table is built, under the cell cap, only to export it."""
    sft, pi, f = _load_setting(args)
    # a transfer weight that underflows drops terms from Z_n: log_perron
    # names that cause before a table or the walk can only report a Z_n of 0
    log_perron(f)
    if args.table_out:
        _check_caps(args, sft, pi)
        t = _build_table(args, sft, pi, f)
    else:
        _check_depth(args)
        t = None
    # --sft tables count exactly whenever f = 0: --mode float does not apply
    mode = "auto" if pi is None and args.mode == "float" else args.mode
    z = partition_table(f, args.depth, mode)
    est = pressure_estimate(z)
    if t is not None:
        text = json.dumps(table_doc(t), indent=2, sort_keys=True) + "\n"
        with open(args.table_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return {
        "command": "pressure",
        "inputs": _input_block(args),
        "table": {"kind": "g" if pi is not None else "additive", "depth": z.depth_max,
                  "exact": z.is_exact},
        "log_partition": {str(n): partition_sum(z, n) for n in range(1, z.depth_max + 1)},
        "pressure": est.as_dict(),
    }


def cmd_fit_h(args) -> dict:
    sft, pi, f, t = _table_setting(args)
    n_fit = args.nfit or min(t.depth_max, FIT_DEPTH)
    # the verdict's last fit runs at min(depth, FIT_DEPTH); fit first where
    # it cannot serve, so fit_h's own errors come first
    served = n_fit == min(t.depth_max, FIT_DEPTH) and 1 <= args.range <= n_fit
    fit = None if served else fit_h(t, args.range, n_fit)
    report = table_verdict(t, r=args.range, P_max=args.pmax, J=args.jmax,
                           slope_threshold=args.slope_threshold)
    if fit is None:  # the REFUTED early exit fits nothing
        fit = report.h if report.h is not None else fit_h(t, args.range, n_fit)
    return {
        "command": "fit-h",
        "inputs": _input_block(args),
        "fit": fit.as_dict(pi.image.names),
        "verdict": report.as_dict(pi.image.names),
    }


def cmd_verdict(args) -> dict:
    sft, pi, f, t = _table_setting(args)
    h = None
    if args.candidate:
        h = load_potential(read_json(args.candidate), pi.image)
    report = table_verdict(t, h=h, r=args.range, P_max=args.pmax, J=args.jmax,
                           slope_threshold=args.slope_threshold)
    return {
        "command": "verdict",
        "inputs": _input_block(args),
        "table": {"kind": t.kind, "depth": t.depth_max, "exact": t.is_exact},
        "verdict": report.as_dict(pi.image.names),
    }


def cmd_weak_gibbs(args) -> dict:
    sft, pi, f = _load_setting(args)
    if pi is None:
        pi = OneBlockFactor.identity(sft)
    if not args.measure:
        raise SchemaError("weak-gibbs needs --measure")
    mu = load_measure(read_json(args.measure), sft)
    _check_caps(args, sft, pi)
    gt = build_g_table(pi, f, args.depth, mode=args.mode)
    # Z_n from the one-row walk, as in cmd_pressure (gt's own Z_n are equal)
    log_perron(f)
    est = pressure_estimate(partition_table(f, args.depth, args.mode))
    if est.exact_base is not None:
        pressure_g, source = log_fraction(est.exact_base), "exact-base"
    else:
        pressure_g, source = est.extrapolated, "perron"
    gd = transfer_pressure(sft, f)
    constants = weak_gibbs_constants(mu, f, gd.pressure, args.depth,
                                     exact_base=gd.lam_exact,
                                     slope_threshold=args.slope_threshold)
    sandwich = pushforward_sandwich(mu, pi, f, gt, pressure_g, est.exact_base,
                                    constants, args.depth)
    return {
        "command": "weak-gibbs",
        "inputs": _input_block(args),
        "transfer": {"pressure": gd.pressure, "residual": gd.residual,
                     "lam_exact": str(gd.lam_exact) if gd.lam_exact is not None else None},
        "pressure_g": {"value": pressure_g, "source": source,
                       "exact_base": str(est.exact_base) if est.exact_base is not None else None},
        "mu_constants": {**constants.as_dict(), "pressure_source": "transfer"},
        "sandwich": sandwich.as_dict(),
    }


def cmd_profile_cnm(args) -> dict:
    sft, pi, f, t = _table_setting(args, needs_factor=False)
    gap = args.gap_cap
    if gap is None:
        gap = weak_spec_number(sft) or 0
    profile = defect_profile(t, args.slope_threshold)
    d2 = check_D2(t, gap)
    profile.d_table = d2
    if args.csv:
        lines = ["n,m,log_c,log_d"]
        for (n, m) in sorted(profile.log_c):
            d = d2.log_d.get((n, m))
            lines.append("%d,%d,%r,%s" % (n, m, profile.log_c[(n, m)],
                                          "" if d is None else repr(d)))
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return {
        "command": "profile-cnm",
        "inputs": _input_block(args),
        "profile": profile.as_dict(t.language.names),
    }


def cmd_certificate(args) -> dict:
    sft, pi, f, t = _table_setting(args)
    if not args.word:
        raise SchemaError("certificate needs --word")
    u = pi.image.word_from_names(split_word_key(args.word, pi.image.alphabet))
    gap = args.gap_cap
    if gap is None:
        gap = weak_spec_number(sft)
        if gap is None:
            raise SchemaError("domain is not irreducible; give --gap-cap explicitly")
    cert = c2_certificate(t, pi, f, u, gap, args.jmax or t.depth_max)
    return {
        "command": "certificate",
        "inputs": _input_block(args),
        "certificate": cert.as_dict(domain_names=pi.domain.names, image_names=pi.image.names),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoshift",
        description="Thermodynamic formalism on shifts of finite type: "
                    "pressures, weak-Gibbs data and compensation detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--sft", help="Sft JSON document")
        p.add_argument("--factor", help="factor-map JSON document (contains its domain)")
        p.add_argument("--potential", help="potential JSON document (default f = 0)")
        p.add_argument("--depth", type=int, default=12, help="table depth cap")
        p.add_argument("--mode", choices=["auto", "exact", "float"], default="auto")
        p.add_argument("--max-cells", type=int, default=4_000_000)
        p.add_argument("--slope-threshold", type=float, default=DEFAULT_SLOPE_THRESHOLD)
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("pressure", help="partition sums and pressure estimates")
    common(p)
    p.add_argument("--table-out", help="also export the table as JSON {depth: {word: log value}}")
    p.set_defaults(fn="cmd_pressure")

    p = sub.add_parser("fit-h", help="Chebyshev fit of h plus the detector verdict")
    common(p)
    p.add_argument("--range", type=int, default=1)
    p.add_argument("--nfit", type=int)
    p.add_argument("--pmax", type=int, default=6)
    p.add_argument("--jmax", type=int)
    p.set_defaults(fn="cmd_fit_h")

    p = sub.add_parser("verdict", help="compensation-function verdict")
    common(p)
    p.add_argument("--range", type=int, default=1)
    p.add_argument("--candidate", help="candidate h JSON (on the image alphabet)")
    p.add_argument("--pmax", type=int, default=6)
    p.add_argument("--jmax", type=int)
    p.set_defaults(fn="cmd_verdict")

    p = sub.add_parser("weak-gibbs", help="weak-Gibbs constants and the pushforward sandwich")
    common(p)
    p.add_argument("--measure", help="Markov measure JSON on the domain shift")
    p.set_defaults(fn="cmd_weak_gibbs")

    p = sub.add_parser("profile-cnm", help="almost-additivity defect profile and D2 search")
    common(p)
    p.add_argument("--gap-cap", type=int)
    p.add_argument("--csv", help="also write the (n, m, log_c, log_d) table as CSV")
    p.set_defaults(fn="cmd_profile_cnm")

    p = sub.add_parser("certificate", help="periodic certificate for an image word")
    common(p)
    p.add_argument("--word", help="image word, e.g. 'ab' or 'a,b'")
    p.add_argument("--gap-cap", type=int)
    p.add_argument("--jmax", type=int)
    p.set_defaults(fn="cmd_certificate")
    return parser


_INPUT_ERRORS = (SchemaError, SftError, FactorError, PotentialError,
                MeasureError, TableError, DetectError, GibbsError)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up by name when the command runs, so a replaced cmd_* serves
        report = globals()[args.fn](args)
    except _INPUT_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as e:
        print("cap exceeded: %s" % e, file=sys.stderr)
        return EXIT_CAP
    _emit(args, report)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

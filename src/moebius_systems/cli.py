"""Command-line interface.

Every command prints a JSON report to stdout, or writes it to --out;
existence-map prints its report and writes the grid to --out.  A command
exits with 0 on success, 1 when a requested check came back negative or
inconclusive under --strict, and 2 on input errors.

main loads the system, times the command and builds and writes the
report; each cmd_* takes the parsed arguments and the loaded system
(None for existence-map) and returns (inputs, result, warnings), with
the exit code as a fourth item when it can differ from 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii as _quoted

from . import __version__
from .codec import AUTO_N_MAX, decode, encode, verify
from .errors import MoebiusError, ConfigError, ParamOutOfRange
from .existence import CoverageGrid, render_grid
from .sofic import EPS_STATE, STATE_CAP, build_automaton, sofic_verdict
from .systems import BUILTIN_NAMES, builtin, load_config
from .transforms import canon_angle, from_real, stereographic

REPORT_VERSION = 1
_ROUND_TRIP_TOL = 1e-12  # decode's round trip reads the word until rounding level


def _load_system(args):
    if args.builtin:
        return builtin(args.builtin)
    if args.system:
        return load_config(args.system)
    raise ConfigError("one of --builtin or --system is required")


def _add_system_args(parser):
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--builtin", choices=BUILTIN_NAMES,
                        help="use a bundled example system")
    source.add_argument("--system", metavar="PATH.json",
                        help="load a system definition file")
    parser.add_argument("--out", metavar="PATH", help="write the JSON report here")


def _add_word_system_args(parser):
    """The system arguments, and --unicode for a command that reports
    words through _fmt."""
    _add_system_args(parser)
    parser.add_argument("--unicode", action="store_true",
                        help="render trailing '-' in symbol names as combining macrons")


def _fmt(spec, word, args):
    return spec.alphabet.format(word, unicode_bars=args.unicode)


def _sphere_json(p):
    if p.is_infinity:
        return {"infinity": True}
    return {"re": p.value.real, "im": p.value.imag}


def cmd_classify(args, spec):
    word = spec.alphabet.word(args.word)
    f = spec.word_transform(word)
    cls = f.classify()
    kak = f.decompose()
    result = {
        "word": _fmt(spec, word, args),
        "class": cls.kind,
        "trace_squared": cls.trace_squared,
        "decomposition": {"phi1": kak.phi1, "r": kak.r, "phi2": kak.phi2},
    }
    if cls.kind == "hyperbolic":
        result["fixed_points"] = {
            "stable_angle": cls.stable,
            "unstable_angle": cls.unstable,
        }
    elif cls.kind == "parabolic":
        result["fixed_points"] = {"angle": cls.fixed}
    elif cls.kind == "elliptic":
        result["fixed_points"] = {"interior": {"re": cls.interior.real,
                                               "im": cls.interior.imag}}
    return {"word": args.word}, result, []


def cmd_verify(args, spec):
    if args.qn is not None:
        mode, options = "qn", {"n": args.qn}
    elif args.prefix_set is not None:
        mode, options = "prefix_set", {"prefix_set": [s for s in args.prefix_set.split(",") if s]}
    else:
        mode, options = "auto", {"n_max": AUTO_N_MAX if args.nmax is None else args.nmax}
    if mode != "auto" and args.nmax is not None:
        raise ConfigError(f"--nmax is the level cap of auto mode; mode {mode!r} takes none")
    verdict = verify(spec, mode=mode, **options)
    result = {"status": verdict.status, "evidence": verdict.evidence}
    return {"mode": mode}, result, verdict.warnings, int(args.strict and not verdict.verified)


def cmd_encode(args, spec):
    word = spec.alphabet.word(args.word)
    res = encode(spec, word, tol=args.tol, max_digits=args.digits)
    point = res.point
    result = {
        "word": _fmt(spec, word, args),
        "point": _sphere_json(point),
        "angle": res.angle,
        "real": _sphere_json(stereographic(point)),
        "error_radius": res.error_radius,
        "digits_consumed": res.digits_consumed,
        "converged": res.converged,
    }
    return {"word": args.word, "tol": args.tol, "digits": args.digits}, result, []


def cmd_decode(args, spec):
    if args.theta is not None:
        theta = args.theta
    elif args.real is not None:
        p = from_real(args.real)
        theta = math.atan2(p.value.imag, p.value.real)
    else:
        raise ConfigError("decode needs --theta or --real")
    word = decode(spec, theta, args.digits)
    back = encode(spec, word, tol=_ROUND_TRIP_TOL)
    result = {
        "angle": canon_angle(theta),
        "word": _fmt(spec, word, args),
        "round_trip": {
            "point": _sphere_json(back.point),
            "angle": back.angle,
            "error_radius": back.error_radius,
        },
    }
    return {"theta": args.theta, "real": args.real, "digits": args.digits}, result, []


def cmd_qn(args, spec):
    bound = spec.expansion_rate_bound(args.max_n)
    rows = [{"n": 0, "Q_n": 1.0, "nth_root": 1.0}]
    for n, q in bound.table:
        rows.append({
            "n": n,
            "Q_n": q,
            "nth_root": q ** (1.0 / n) if math.isfinite(q) else q,
        })
    result = {
        "table": rows,
        "rate_lower_bound": bound.lower_bound,
        "achieved_at_n": bound.n_achieving,
    }
    return {"max_n": args.max_n}, result, bound.warnings


def cmd_sofic(args, spec):
    automaton = build_automaton(spec, state_cap=args.cap, eps_state=args.eps)
    report = sofic_verdict(spec, automaton)
    result = {
        "verdict": report.verdict,
        "saturated": automaton.saturated,
        "states": automaton.n_states,
        "growth_per_depth": automaton.growth,
        "transition_residual": report.transition_residual,
        "transition_table": automaton.transition_table(spec.alphabet),
    }
    if report.product_states is not None:
        result["product_states"] = report.product_states
    return {"cap": args.cap, "eps": args.eps}, result, []


def cmd_existence_map(args, spec):
    try:
        w, h = (int(v) for v in args.res.lower().split("x"))
    except ValueError:
        raise ConfigError(f"--res must look like 200x200, got {args.res!r}")
    writers = {".pgm": CoverageGrid.write_pgm, ".csv": CoverageGrid.write_csv,
               ".json": CoverageGrid.write_json}
    out = (args.out or "").lower()
    suffix = next((s for s in writers if out.endswith(s)), None)
    if args.out and suffix is None:
        *rest, last = writers
        raise ConfigError(f"--out must end in {', '.join(rest)} or {last}")

    progress = None
    if w * h >= 10_000:
        marks = {max(1, h * k // 10) for k in range(1, 11)}

        def progress(done, total):
            if done in marks:
                print(f"existence-map: {done}/{total} rows", file=sys.stderr)

    grid = render_grid(w, h, depth=args.depth, n_max=args.nmax, workers=args.workers,
                       on_progress=progress)
    if args.out:
        writers[suffix](grid, args.out)
    inputs = {"res": args.res, "depth": args.depth, "nmax": args.nmax, "out": args.out}
    return inputs, grid.summary(), []


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="moebius",
        description="Moebius number systems: classify, verify, encode/decode, "
                    "soficness, and the parameter-space existence map.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="classify the map of a word")
    _add_word_system_args(p)
    p.add_argument("word", help="symbol or word over the system's alphabet")

    p = sub.add_parser("verify", help="certify that the system represents every point")
    _add_system_args(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--qn", type=int, metavar="N", help="use the level-N expansion bound")
    mode.add_argument("--prefix-set", metavar="B1,B2,...", help="use this prefix set")
    mode.add_argument("--auto", action="store_true", help="try levels 1..nmax (default)")
    p.add_argument("--nmax", type=int,
                   help=f"auto mode level cap (default {AUTO_N_MAX}); no other mode takes it")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the verdict is not verified")

    p = sub.add_parser("encode", help="digit word -> circle point with certificate")
    _add_word_system_args(p)
    p.add_argument("word")
    p.add_argument("--digits", type=int, default=None, help="consume at most this many")
    p.add_argument("--tol", type=float, default=1e-6, help="target error radius")

    p = sub.add_parser("decode", help="circle point -> digit word")
    _add_word_system_args(p)
    point = p.add_mutually_exclusive_group()
    point.add_argument("--theta", type=float, help="point as an angle in radians")
    point.add_argument("--real", type=float, help="point as an extended-real coordinate")
    p.add_argument("--digits", type=int, default=40, help="number of digits to emit")

    p = sub.add_parser("qn", help="table of level expansion bounds")
    _add_system_args(p)
    p.add_argument("--max-n", type=int, default=8, dest="max_n")

    p = sub.add_parser("sofic", help="build the pullback automaton and judge soficness")
    _add_system_args(p)
    p.add_argument("--cap", type=int, default=STATE_CAP, help="state cap")
    p.add_argument("--eps", type=float, default=EPS_STATE, help="state dedup tolerance")

    p = sub.add_parser("existence-map",
                       help="cover/inward map over the two-generator parameter square")
    p.add_argument("--res", default="200x200", help="grid resolution, WxH")
    p.add_argument("--depth", type=int, default=8, help="word depth for the cover test")
    p.add_argument("--nmax", type=int, default=8, help="strip index cap for the inward test")
    p.add_argument("--workers", type=int, default=1, help="worker processes over blocks of grid cells")
    p.add_argument("--out", metavar="FILE", help="write .pgm, .csv or .json output")

    return parser


def _json(value, margin: str = "\n") -> str:
    """The text json.dumps(value, indent=2, allow_nan=False) gives, but for
    each non-finite float, written as the string 'inf', '-inf' or 'nan'
    (JSON has no such numbers); keys are strings.  Each container is one
    join of its items' texts: json.dumps indents in pure Python, passing
    every token through one generator per level."""
    if isinstance(value, str):
        return _quoted(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else f'"{value}"'
    if isinstance(value, int) and value is not True and value is not False:
        return int.__repr__(value)
    inner = margin + "  "
    if isinstance(value, dict):
        items = [f"{_quoted(k)}: {_json(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{margin}}}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{margin}]" if items else "[]"
    return json.dumps(value)  # true, false or null; any other type raises TypeError


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_* function takes effect
    command = globals()["cmd_" + args.cmd.replace("-", "_")]
    try:
        started = time.perf_counter()
        spec = None if args.cmd == "existence-map" else _load_system(args)
        inputs, result, warnings, *code = command(args, spec)
        report = {
            "report_version": REPORT_VERSION,
            "version": __version__,
            "command": args.cmd,
            "system": None if spec is None else spec.name,
            "inputs": inputs,
            "result": result,
            "warnings": warnings,
            "timings": {"seconds": round(time.perf_counter() - started, 6)},
        }
        text = _json(report)
        if args.out and spec is not None:  # existence-map's --out is its grid file
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return code[0] if code else 0
    except (ConfigError, OSError, ParamOutOfRange, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MoebiusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Every command prints a JSON report to stdout (or --out) and exits with
0 on success, 1 when a requested check came back negative or
inconclusive under --strict, and 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .codec import decode, encode, verify
from .errors import MoebiusError, ConfigError
from .existence import render_grid
from .sofic import build_automaton, sofic_verdict
from .systems import BUILTIN_NAMES, builtin, load_config
from .transforms import canon_angle, from_real, stereographic

REPORT_VERSION = 1


def _report(command: str, system_name: str | None, inputs: dict, result: dict,
            warnings: list[str], started: float) -> dict:
    return {
        "report_version": REPORT_VERSION,
        "version": __version__,
        "command": command,
        "system": system_name,
        "inputs": inputs,
        "result": result,
        "warnings": warnings,
        "timings": {"seconds": round(time.perf_counter() - started, 6)},
    }


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_system(args):
    if args.builtin:
        return builtin(args.builtin)
    if args.system:
        return load_config(args.system)
    raise ConfigError("one of --builtin or --system is required")


def _add_system_args(parser):
    parser.add_argument("--builtin", choices=BUILTIN_NAMES,
                        help="use a bundled example system")
    parser.add_argument("--system", metavar="PATH.json",
                        help="load a system definition file")
    parser.add_argument("--out", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--unicode", action="store_true",
                        help="render trailing '-' in symbol names as combining macrons")


def _fmt(spec, word, args):
    return spec.alphabet.format(word, unicode_bars=args.unicode)


def _sphere_json(p):
    if p.is_infinity:
        return {"infinity": True}
    return {"re": p.value.real, "im": p.value.imag}


def cmd_classify(args) -> int:
    started = time.perf_counter()
    spec = _load_system(args)
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
    _emit(_report("classify", spec.name, {"word": args.word}, result, [], started), args.out)
    return 0


def cmd_verify(args) -> int:
    started = time.perf_counter()
    spec = _load_system(args)
    if args.qn is not None:
        verdict = verify(spec, mode="qn", n=args.qn)
    elif args.prefix_set:
        b = [s for s in args.prefix_set.split(",") if s]
        verdict = verify(spec, mode="prefix_set", prefix_set=b)
    else:
        verdict = verify(spec, mode="auto", n_max=args.nmax)
    result = {"status": verdict.status, "evidence": verdict.evidence}
    _emit(_report("verify", spec.name, {"mode": "qn" if args.qn is not None else
                                        ("prefix_set" if args.prefix_set else "auto")},
                  result, verdict.warnings, started), args.out)
    if args.strict and not verdict.verified:
        return 1
    return 0


def cmd_encode(args) -> int:
    started = time.perf_counter()
    spec = _load_system(args)
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
    _emit(_report("encode", spec.name,
                  {"word": args.word, "tol": args.tol, "digits": args.digits},
                  result, [], started), args.out)
    return 0


def cmd_decode(args) -> int:
    started = time.perf_counter()
    spec = _load_system(args)
    if args.theta is not None:
        theta = canon_angle(args.theta)
    elif args.real is not None:
        p = from_real(args.real)
        theta = canon_angle(math.atan2(p.value.imag, p.value.real))
    else:
        raise ConfigError("decode needs --theta or --real")
    word = decode(spec, theta, args.digits)
    back = encode(spec, word, tol=1e-12, max_digits=len(word))
    result = {
        "angle": theta,
        "word": _fmt(spec, word, args),
        "round_trip": {
            "point": _sphere_json(back.point),
            "angle": back.angle,
            "error_radius": back.error_radius,
        },
    }
    _emit(_report("decode", spec.name,
                  {"theta": args.theta, "real": args.real, "digits": args.digits},
                  result, [], started), args.out)
    return 0


def cmd_qn(args) -> int:
    started = time.perf_counter()
    spec = _load_system(args)
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
    _emit(_report("qn", spec.name, {"max_n": args.max_n}, result, bound.warnings,
                  started), args.out)
    return 0


def cmd_sofic(args) -> int:
    started = time.perf_counter()
    spec = _load_system(args)
    automaton = build_automaton(spec, state_cap=args.cap, eps_state=args.eps)
    report = sofic_verdict(spec, automaton)
    result = {
        "verdict": report.verdict,
        "saturated": report.saturated,
        "states": report.n_states,
        "growth_per_depth": report.growth,
        "transition_residual": report.transition_residual,
        "transition_table": automaton.transition_table(spec.alphabet),
        "graph": automaton.graph_description(spec.alphabet),
    }
    if report.product_states is not None:
        result["product_states"] = report.product_states
    _emit(_report("sofic", spec.name, {"cap": args.cap, "eps": args.eps}, result,
                  [], started), args.out)
    return 0


def cmd_existence_map(args) -> int:
    started = time.perf_counter()
    try:
        w, h = (int(v) for v in args.res.lower().split("x"))
    except ValueError:
        raise ConfigError(f"--res must look like 200x200, got {args.res!r}")
    if args.out and not args.out.lower().endswith((".pgm", ".csv", ".json")):
        raise ConfigError("--out must end in .pgm, .csv or .json")

    progress = None
    if w * h >= 10_000:
        marks = {max(1, h * k // 10) for k in range(1, 11)}

        def progress(done, total):
            if done in marks:
                print(f"existence-map: {done}/{total} rows", file=sys.stderr)

    grid = render_grid(w, h, depth=args.depth, n_max=args.nmax, workers=args.workers,
                       on_progress=progress)
    if args.out:
        lower = args.out.lower()
        if lower.endswith(".pgm"):
            grid.write_pgm(args.out)
        elif lower.endswith(".csv"):
            grid.write_csv(args.out)
        else:
            grid.write_json(args.out)
    report = _report("existence-map", None,
                     {"res": args.res, "depth": args.depth, "nmax": args.nmax,
                      "out": args.out},
                     grid.summary(), [], started)
    print(json.dumps(report, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moebius",
        description="Moebius number systems: classify, verify, encode/decode, "
                    "soficness, and the parameter-space existence map.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="classify the map of a word")
    _add_system_args(p)
    p.add_argument("word", help="symbol or word over the system's alphabet")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="certify that the system represents every point")
    _add_system_args(p)
    p.add_argument("--qn", type=int, metavar="N", help="use the level-N expansion bound")
    p.add_argument("--prefix-set", metavar="B1,B2,...", help="use this prefix set")
    p.add_argument("--auto", action="store_true", help="try levels 1..nmax (default)")
    p.add_argument("--nmax", type=int, default=8, help="auto mode level cap")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the verdict is not verified")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("encode", help="digit word -> circle point with certificate")
    _add_system_args(p)
    p.add_argument("word")
    p.add_argument("--digits", type=int, default=None, help="consume at most this many")
    p.add_argument("--tol", type=float, default=1e-6, help="target error radius")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="circle point -> digit word")
    _add_system_args(p)
    p.add_argument("--theta", type=float, help="point as an angle in radians")
    p.add_argument("--real", type=float, help="point as an extended-real coordinate")
    p.add_argument("--digits", type=int, default=40, help="number of digits to emit")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("qn", help="table of level expansion bounds")
    _add_system_args(p)
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.set_defaults(func=cmd_qn)

    p = sub.add_parser("sofic", help="build the pullback automaton and judge soficness")
    _add_system_args(p)
    p.add_argument("--cap", type=int, default=10_000, help="state cap")
    p.add_argument("--eps", type=float, default=1e-7, help="state dedup tolerance")
    p.set_defaults(func=cmd_sofic)

    p = sub.add_parser("existence-map",
                       help="cover/inward map over the two-generator parameter square")
    p.add_argument("--res", default="200x200", help="grid resolution, WxH")
    p.add_argument("--depth", type=int, default=8, help="word depth for the cover test")
    p.add_argument("--nmax", type=int, default=8, help="strip index cap for the inward test")
    p.add_argument("--workers", type=int, default=1, help="worker processes over blocks of grid cells")
    p.add_argument("--out", metavar="FILE", help="write .pgm, .csv or .json output")
    p.set_defaults(func=cmd_existence_map)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MoebiusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

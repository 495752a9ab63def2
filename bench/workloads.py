"""The benchmark's four workloads.

Each workload is a closed loop with one client: the next operation
starts only after the previous one returned.  A workload's operations
form a fixed stratified *design* whose concrete inputs (numerators,
angles, rotation phases, tile offsets) come from the seed, so every run
has the same mix of cheap and expensive operations; that is what makes
throughput and tail latency comparable between seeds on heavy-tailed
loads such as ``cf-stream``.  A run executes the design in several
*passes*, each in a fresh seeded order (see run.py).

The package is always reached through module attributes
(``codec.encode``, ``cli.main``, ...) so the layer tracer's wrappers and
the tests' deliberate corruptions take effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time

from moebius_systems import arcs, cli, codec, existence, systems, transforms

TAU = 2.0 * math.pi


def seeded(workload: str, seed: int, purpose: str) -> random.Random:
    """Independent deterministic random stream per workload, seed and purpose."""
    return random.Random(f"{workload}:{seed}:{purpose}")


def spread_points(rng: random.Random, n: int) -> list[float]:
    """n points of [0, 1) from a seeded start along the golden-ratio sequence.

    Evenly spread for every start, so medians and tails over the points
    vary much less between seeds than with independent uniform draws.
    """
    start = rng.random()
    step = (math.sqrt(5.0) - 1.0) / 2.0
    return [(start + k * step) % 1.0 for k in range(n)]


class Digest:
    """SHA-256 over the canonical JSON of per-operation outputs."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.items = 0

    def add(self, item) -> None:
        self._h.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
        self._h.update(b"\n")
        self.items += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def g12(x: float):
    """Float to 12 significant figures for digests (non-finite kept as text)."""
    return f"{x:.12g}" if math.isfinite(x) else str(x)


class Workload:
    """Interface: setup, pass design, one timed operation, checks, digest."""

    name = ""

    def setup(self, seed: int, workdir: str):
        """Build the workload's systems; returns the state passed to run_op."""
        raise NotImplementedError

    def design(self, state, seed: int) -> list:
        """The run's operations, cheapest first (the loop shuffles them)."""
        raise NotImplementedError

    def run_op(self, state, op):
        """The timed operation; returns its raw output."""
        raise NotImplementedError

    def summarize(self, state, op, raw) -> dict:
        """Untimed: compact record of the output, with 'ok' and 'digest'."""
        raise NotImplementedError

    def late_check(self, state, seed: int, records: list) -> None:
        """Untimed checks too costly for every pass, run on the first pass's
        records in design order; may set record['ok'] to False."""

    def extra_metrics(self, records: list, latency: list) -> dict:
        """Workload-specific end-to-end metrics, name -> (value, unit), from
        the first pass's records and each operation's latency (part name ->
        seconds at the reference speed, see run.measure)."""
        return {}


# -- cf-stream --------------------------------------------------------------


class CfStream(Workload):
    """Encode rational cf digit streams: the per-digit encode loop alone."""

    name = "cf-stream"
    # 100 denominators on a geometric ladder from 1000 down to 300, cheapest
    # first.  Digits per op are about 1.5-2e6/q; smaller q would make a pass
    # too long for each operation to be timed in a dozen passes per run
    LADDER = tuple(round(300 * (1000 / 300) ** (k / 99)) for k in range(99, -1, -1))
    TOL = 1e-6
    MAX_DIGITS = 5_000_000

    def setup(self, seed, workdir):
        return {"cf": systems.builtin("cf")}

    def design(self, state, seed):
        xs = spread_points(seeded(self.name, seed, "inputs"), len(self.LADDER))
        return [(coprime_near(min(q - 1, max(1, round(x * q))), q), q)
                for q, x in zip(self.LADDER, xs)]

    def run_op(self, state, op):
        p, q = op
        return codec.encode(state["cf"], systems.cf_digit_stream(p, q), tol=self.TOL,
                            max_digits=self.MAX_DIGITS)

    def summarize(self, state, op, raw):
        p, q = op
        target = transforms.from_real(p / q).value
        exact = transforms.canon_angle(math.atan2(target.imag, target.real))
        dist = transforms.circle_distance(raw.angle, exact)
        return {"ok": raw.converged and dist <= self.TOL,
                "digits": raw.digits_consumed,
                "digest": [p, q, raw.digits_consumed, raw.converged]}

    def extra_metrics(self, records, latency):
        digits = sum(r.get("digits", 0) for r in records)
        return {"encode_digits_per_s": (digits / sum(lat["op"] for lat in latency), "1/s")}


def coprime_near(p: int, q: int) -> int:
    """The numerator in [1, q) closest to p that is coprime to q."""
    for d in range(q):
        for c in (p + d, p - d):
            if 1 <= c < q and math.gcd(c, q) == 1:
                return c
    raise ValueError(f"no numerator coprime to {q}")


# -- roundtrip ---------------------------------------------------------------


class Roundtrip(Workload):
    """Decode then re-encode on the builtins: per-digit decode, encode set-up."""

    name = "roundtrip"
    SYSTEMS = ("parabolic3", "cf", "binary", "hyperbolic4")
    OPS = 1000
    DIGITS = 60
    TOL = 1e-8

    def setup(self, seed, workdir):
        return {"specs": [systems.builtin(n) for n in self.SYSTEMS]}

    def design(self, state, seed):
        xs = spread_points(seeded(self.name, seed, "inputs"), self.OPS)
        return [(i % len(self.SYSTEMS), TAU * x) for i, x in enumerate(xs)]

    def run_op(self, state, op):
        k, theta = op
        spec = state["specs"][k]
        perf = time.perf_counter
        t0 = perf()
        word = codec.decode(spec, theta, self.DIGITS)
        t1 = perf()
        res = codec.encode(spec, word, tol=self.TOL)
        return word, res, t1 - t0, perf() - t1

    def summarize(self, state, op, raw):
        k, theta = op
        word, res, t_dec, t_enc = raw
        spec = state["specs"][k]
        return {"ok": transforms.circle_distance(theta, res.angle) <= res.error_radius,
                "unconverged": not res.converged,
                "digits": res.digits_consumed, "decoded": len(word),
                "times": {"decode": t_dec, "encode": t_enc},
                "digest": [self.SYSTEMS[k], spec.alphabet.format(word),
                           res.digits_consumed, res.converged]}

    def extra_metrics(self, records, latency):
        return {
            "encode_digits_per_s": (sum(r.get("digits", 0) for r in records)
                                    / sum(lat.get("encode", 0.0) for lat in latency), "1/s"),
            "decode_digits_per_s": (sum(r.get("decoded", 0) for r in records)
                                    / sum(lat.get("decode", 0.0) for lat in latency), "1/s"),
            "unconverged_ops": (sum(1 for r in records if r.get("unconverged")), "count"),
        }


# -- certify -------------------------------------------------------------------


# verdicts and automaton sizes of the builtins, as the package gives them
BUILTIN_VERIFY = {"parabolic3": ("verified_Qn", 1), "cf": ("verified_Qn", 2),
                  "binary": ("verified_Qn", 4), "hyperbolic4": ("verified_Qn", 1)}
BUILTIN_SOFIC_STATES = {"parabolic3": 5, "cf": 7, "binary": 16, "hyperbolic4": 6}
CF_PREFIX_SET = "01,01-,1,1-"


def rotated_cover(spec, phi: float):
    """The same system with every cover arc turned by phi (still a cover)."""
    return systems.with_cover(spec, {
        sym: (c if c.full else arcs.ArcSet.from_arcs([(s + phi, l) for s, l in c.arcs]))
        for sym, c in zip(spec.alphabet.symbols, spec.cover)
    })


class Certify(Workload):
    """In-process CLI verify/qn/sofic: refined sets, arcs, sofic, config, CLI."""

    name = "certify"
    BUILTINS = ("parabolic3", "cf", "binary", "hyperbolic4")
    ROTATIONS = 7      # rotation angles per builtin, one per stratum of the band
    # rotations by less than ~0.2 turn stay close to the saturating builtin and
    # cost up to 200 times more (verify on hyperbolic4: 2 s against 10 ms);
    # keeping to the band makes a pass cost about the same for every seed
    BAND = (0.2, 0.8)
    SOFIC_CAP = 120
    SOFIC_EPS = 1e-7
    BUILTIN_QN_LEVELS = (6, 7)
    QN_LEVELS = (6, 7, 8, 9)

    def setup(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        rng = seeded(self.name, seed, "rotations")
        files = []
        for b in self.BUILTINS:
            base = systems.builtin(b)
            phase = rng.random()
            lo, hi = self.BAND
            for j in range(self.ROTATIONS):
                turn = lo + (hi - lo) * (j + phase) / self.ROTATIONS
                path = os.path.join(workdir, f"{b}-rot{j}.json")
                with open(path, "w") as fh:
                    json.dump(systems.serialize_config(rotated_cover(base, TAU * turn)), fh)
                files.append((b, j, path))
        return {"files": files}

    def design(self, state, seed):
        ops = []
        for b in self.BUILTINS:
            src = ["--builtin", b]
            ops.append(("verify", b, ["verify", *src, "--auto"]))
            ops.append(("sofic", b, ["sofic", *src, "--cap", str(self.SOFIC_CAP)]))
            ops += [("qn", b, ["qn", *src, "--max-n", str(n)]) for n in self.BUILTIN_QN_LEVELS]
        ops.append(("prefix", "cf", ["verify", "--builtin", "cf", "--prefix-set", CF_PREFIX_SET]))
        for b, j, path in state["files"]:
            src = ["--system", path]
            ops.append(("verify", None, ["verify", *src, "--auto"]))
            ops.append(("sofic", None, ["sofic", *src, "--cap", str(self.SOFIC_CAP)]))
            ops.append(("qn", None, ["qn", *src, "--max-n",
                                     str(self.QN_LEVELS[j % len(self.QN_LEVELS)])]))
            if b == "cf":
                ops.append(("prefix", None, ["verify", *src, "--prefix-set", CF_PREFIX_SET]))
        return ops

    def run_op(self, state, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(op[2])
        return rc, out.getvalue()

    def summarize(self, state, op, raw):
        kind, builtin_name, argv = op
        rc, text = raw
        label = builtin_name or os.path.basename(argv[2])
        if rc != 0:
            return {"ok": False, "digest": [kind, label, argv[3:], "exit", rc]}
        result = json.loads(text)["result"]
        ok = True
        if kind in ("verify", "prefix"):
            evidence = result["evidence"]
            item = [result["status"], evidence.get("n"),
                    evidence.get("compatibility_violations")]
            if builtin_name is not None:
                want = (("verified_prefix_set", None) if kind == "prefix"
                        else BUILTIN_VERIFY[builtin_name])
                ok = (result["status"], evidence.get("n")) == want
        elif kind == "qn":
            table = [row["Q_n"] for row in result["table"]]
            ok = superadditivity_defect(table) <= 1e-9
            item = [g12(q) for q in table]
        else:
            ok = result["transition_residual"] <= self.SOFIC_EPS
            if builtin_name is not None:
                ok = ok and result["saturated"] and \
                    result["states"] == BUILTIN_SOFIC_STATES[builtin_name]
            item = [result["states"], result["saturated"], result.get("product_states")]
        return {"ok": ok, "digest": [kind, label, argv[3:], item]}


def superadditivity_defect(table) -> float:
    """Worst log Q_n + log Q_m - log Q_(n+m) over finite entries (index = n)."""
    worst = 0.0
    n_max = len(table) - 1
    for n in range(1, n_max):
        for m in range(1, n_max - n + 1):
            qs = (table[n], table[m], table[n + m])
            if all(math.isfinite(q) and q > 0 for q in qs):
                worst = max(worst, math.log(qs[0]) + math.log(qs[1]) - math.log(qs[2]))
    return worst


# -- existence -------------------------------------------------------------------


class Existence(Workload):
    """render_grid tiles of the parameter square: cover search, inward test."""

    name = "existence"
    TILES = 10          # tiles per side; the design covers the whole square once
    CELLS = 6           # cells per tile side
    DEPTH = 8
    N_MAX = 8
    SAMPLES_PER_TILE = 2

    def setup(self, seed, workdir):
        return {}

    def design(self, state, seed):
        rng = seeded(self.name, seed, "inputs")
        tile = 1.0 / self.TILES
        cell = tile / self.CELLS
        # shift the whole tiling by less than half a cell so every cell
        # centre stays inside the open square
        dx, dy = (rng.uniform(-0.45, 0.45) * cell for _ in range(2))
        return [(i * tile + dx, (i + 1) * tile + dx, j * tile + dy, (j + 1) * tile + dy)
                for j in range(self.TILES) for i in range(self.TILES)]

    def run_op(self, state, op):
        return existence.render_grid(self.CELLS, self.CELLS, depth=self.DEPTH,
                                     n_max=self.N_MAX, rect=op, workers=1)

    def summarize(self, state, op, raw):
        labels = raw.labels
        return {"ok": True, "grid": raw, "cells": int(labels.size),
                "digest": [[g12(x) for x in op], labels.tobytes().hex()]}

    def late_check(self, state, seed, records):
        """Re-label sampled cells with the exhaustive reference enumerator."""
        rng = seeded(self.name, seed, "samples")
        for rec in records:
            grid = rec.pop("grid", None)
            if grid is None:
                continue
            for _ in range(self.SAMPLES_PER_TILE):
                row, col = rng.randrange(grid.height), rng.randrange(grid.width)
                qa, qb = grid.cell_params(row, col)
                got = int(grid.labels[row, col])
                want = reference_label(qa, qb, self.DEPTH, self.N_MAX)
                if got != want:
                    rec["ok"] = False
                    rec["error"] = (f"cell (q_a={qa:.12g}, q_b={qb:.12g}) labelled {got}, "
                                    f"reference {want}")

    def extra_metrics(self, records, latency):
        return {"cells_per_s": (sum(r.get("cells", 0) for r in records)
                                / sum(lat["op"] for lat in latency), "1/s")}


def reference_label(qa: float, qb: float, depth: int, n_max: int) -> int:
    fa, fb = existence.two_hyperbolic_system(qa, qb)
    if existence.cover_search_unpruned(fa, fb, depth):
        return existence.LABEL_COVER
    if existence.inward_region_test(qa, qb, n_max):
        return existence.LABEL_INWARD
    return existence.LABEL_UNKNOWN


WORKLOADS = {w.name: w for w in (CfStream(), Roundtrip(), Certify(), Existence())}

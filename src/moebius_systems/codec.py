"""Encoding symbol streams to circle points and greedy decoding back.

The encoder composes the digit maps and reports the expansion-disc
center as the point estimate; the disc radius 1/|beta| is a hard error
certificate whenever the digits stay inside the interval shift, because
the discs of successive prefixes nest down to the represented point.
It checks that they do as it goes: the prefix's refined set, pulled back
through the prefix map, is stepped by NumberSystemSpec.pull_step, whose
results the spec interns in a bounded table so that repeated states cost
a lookup.

A run of one letter a is taken in closed form once _RUN_MIN digits of it
went one by one, when a is exactly parabolic (transforms.parabolic_scale:
with M its matrix at determinant 1, M^k = k M - (k - 1) I) and the
follower state and the pullback state are both fixed by a.  The least k
whose certificate meets tol is solved for and confirmed at k - 1 and k;
the run's digits are then read in chunks that double in size, and every
one is compared with a at C speed.  A mismatch ends the jump there and
the loop goes on with that digit; max_digits still caps the count.
Neither a digit nor a jump renormalizes F (products of disc maps never
are, see transforms); a jump keeps det F as it was, so the certificate
of a run carries no rounding drift: on the cf system's rational
streams, whose tails are endless runs of a parabolic letter, the digit
count at which encode stops is the exact first crossing of tol.

The decoder walks the point backwards through inverse letter maps,
choosing at each step the first legal symbol whose closed cover arc
contains the current point without sitting at its counterclockwise end
(points are swept counterclockwise into the arc's interior, so that end
cannot start a representation).  It reads the spec's per-state rows
(NumberSystemSpec._decode_rows, built on the first decode): a row lists
the letters legal in one follower state, in letter order, each with its
next state, its closed cover arcs and the entries of its inverse map.
The digit loop walks the row with the arc tests of
ClosedArcSet.component_containing and circle_distance written inline,
and maps the point with the arithmetic of DiscMoebius.apply_angle, so it
chooses and moves bit for bit as those calls would; change apply_angle,
image and decode together.  The forced prefix is replayed through the
same entries.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from operator import index, ne

from .arcs import ClosedArcSet, EPS_ANGLE, image
from .errors import EmptyRefinedSet, IllegalPrefix, NoLegalDigit
from .interval_system import EPS_ONE, NumberSystemSpec, _least_expansion
from .subshift import Word
from .transforms import (
    EPS_ROTATION, SpherePoint, TAU, canon_angle,
)

_NEARLY_FULL = TAU - EPS_ANGLE
_NEAR_TOL = 1e-6           # relative margin far above rounding in 1/|beta| vs tol
_RUN_MIN = 16               # digits of a run taken one by one before a jump is tried
_RUN_CHUNK_MIN = 8         # digits in the first chunk a run jump reads
_RUN_CHUNK_MAX = 1 << 12   # chunk size cap: an endless run is read in bounded memory
AUTO_N_MAX = 8              # levels verify's 'auto' mode tries by default


@dataclass(frozen=True)
class EncodeResult:
    point: SpherePoint
    error_radius: float
    digits_consumed: int
    converged: bool

    @property
    def angle(self) -> float:
        z = self.point.value
        return canon_angle(cmath.phase(z))


@dataclass
class Verdict:
    status: str  # 'verified_Qn' | 'verified_prefix_set' | 'inconclusive'
    evidence: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        return self.status.startswith("verified")


def encode(spec: NumberSystemSpec, digits, tol: float, max_digits: int | None = None) -> EncodeResult:
    """Consume digits until the error certificate drops below tol.

    `digits` may be a finite word or any iterable digit stream; prefix
    legality (subshift language and nonempty refinement) is checked
    incrementally, so arbitrarily long streams run at constant cost per
    digit, and a run of one letter costs about as much as one digit (see
    the module docstring).  If the digits run out above tol the best
    estimate is still returned with converged=False.  Pass max_digits
    when feeding an infinite stream that might not reach tol (e.g. on
    unverified systems); without it the loop runs until the certificate
    is met.  A str, list or tuple is a word, read by Alphabet.word; any
    other iterable is a stream of symbol indices, checked as it is read.
    A symbol outside the alphabet, a stream digit that is no index (a
    name, a float, None) or a non-iterable raises ValueError.
    """
    if not tol > 0:  # NaN too: no radius is ever <= NaN
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_digits is not None and max_digits < 0:
        raise ValueError(f"max_digits must be >= 0, got {max_digits!r}")
    # the loop reads `stream`: the digits a run jump read past its end and
    # the loop has not taken yet (`pending`), then the rest of `base`
    is_word = isinstance(digits, (str, list, tuple)) or not isinstance(digits, Iterable)
    base = iter(spec.alphabet.word(digits) if is_word else digits)
    stream, pending = base, iter(())
    state = spec.subshift.initial
    moves = spec.subshift.transitions  # follower state x letter -> state or None
    fwd = [(f.alpha, f.beta) for f in spec.transforms]
    n_symbols = len(fwd)
    scales = spec._parabolic_scales
    eps_rotation = EPS_ROTATION
    # the pullback state is an id in the spec's table of interned pullback
    # sets (0 the full circle, 1 the empty set); on sofic systems it cycles
    # through a few of them, so nearly every step is a table lookup
    table = spec._pull_table
    rows = table.rows
    sid = 0
    fa, fb = 1.0 + 0j, 0j
    consumed = 0
    b_near = (1.0 - _NEAR_TOL) / tol  # below this |beta| the radius 1/|beta| exceeds tol
    a, prev, jump_from, run_min = 0, None, 0, _RUN_MIN  # a: the digit read last
    try:
        while stream is not None:
            digits_in, stream = stream, None
            for a in digits_in:
                if max_digits is not None and consumed >= max_digits:
                    break
                if a != prev:
                    if not 0 <= a < n_symbols:
                        raise TypeError  # the handler below names the digit
                    prev, jump_from = a, consumed + run_min
                elif (consumed >= jump_from and rows[sid][a] == sid
                        and scales[a] is not None and moves[state][a] == state):
                    # a run of a from here on: state and pullback stay put, and
                    # F A^k = k (F A) - (k - 1) F takes the run in one step
                    scale = scales[a]
                    a2, b2 = fwd[a]
                    a1 = (fa * a2 + fb * b2.conjugate()) * scale
                    b1 = (fa * b2 + fb * a2.conjugate()) * scale
                    room = math.inf if max_digits is None else max_digits - consumed
                    k = _run_crossing(fb, b1, tol, room)
                    m, rest = _read_run(digits_in, a, (room if k is None else k) - 1)
                    fa, fb = (m + 1) * a1 - m * fa, (m + 1) * b1 - m * fb
                    consumed += m + 1
                    b = abs(fb)
                    if b > eps_rotation and 1.0 / b <= tol:
                        break
                    if rest:  # the run broke: go on from the mismatching digit
                        # chain drains `pending` first, so what is left of it
                        # is exactly the read-ahead that was not read again
                        pending = iter(rest + tuple(pending))
                        stream = chain(pending, base)
                        break
                    continue
                state = moves[state][a]
                if state is None:
                    raise IllegalPrefix(f"digit {spec.alphabet.symbols[a]!r} at position "
                                        f"{consumed} leaves the language")
                nxt = rows[sid][a]
                if nxt is None:
                    table, nxt = spec._pull_edge(table, sid, a)
                    rows = table.rows
                sid = nxt
                if sid == 1:  # the empty set
                    raise IllegalPrefix(f"digit {spec.alphabet.symbols[a]!r} at position "
                                        f"{consumed} refines to the empty set")
                a2, b2 = fwd[a]
                fa, fb = fa * a2 + fb * b2.conjugate(), fa * b2 + fb * a2.conjugate()
                consumed += 1
                b = abs(fb)
                if b >= b_near and (math.inf if b <= eps_rotation else 1.0 / b) <= tol:
                    break
    except TypeError:  # raised for digit a, or by the stream when a is an index
        try:
            ok = 0 <= index(a) < n_symbols
        except TypeError:
            ok = False
        if ok:
            raise
        raise ValueError(f"digit {a!r} at position {consumed} is not a symbol "
                         f"index 0..{n_symbols - 1}") from None
    b = abs(fb)
    radius = math.inf if b <= EPS_ROTATION else 1.0 / b
    if b > EPS_ROTATION:
        z = fa / fb.conjugate()
    else:
        z = (fa * 0.5 + fb) / (fb.conjugate() * 0.5 + fa.conjugate())  # rotation prefix
    return EncodeResult(
        point=SpherePoint(z / abs(z)),
        error_radius=radius,
        digits_consumed=consumed,
        converged=radius <= tol,
    )


def _run_crossing(b0: complex, b1: complex, tol: float, cap) -> int | None:
    """Least k in 1..cap with 1/|beta_k| <= tol, or None when there is none.

    beta_k = k b1 - (k - 1) b0 is the beta entry after k digits of a
    parabolic run that starts at beta b0 and gives b1 after one.
    |beta_k|^2 is a convex quadratic in k, below 1/tol^2 at k = 0, so the
    k that meet tol are all those from the least one on.  That k is
    solved for from |beta_k| = 1/tol and then confirmed at k - 1 and k,
    galloping and bisecting when rounding put the root off by more than one.
    """
    def met(k):
        b = abs(k * b1 - (k - 1) * b0)
        return b > EPS_ROTATION and 1.0 / b <= tol

    # tol * beta_k = u + k v: the positive root of |u + k v|^2 = 1
    u, v = tol * b0, tol * (b1 - b0)
    qa = v.real * v.real + v.imag * v.imag
    qb = u.real * v.real + u.imag * v.imag
    qc = u.real * u.real + u.imag * u.imag - 1.0
    root = math.sqrt(qb * qb - qa * qc)
    guess = -qc / (qb + root) if qb > 0 else (root - qb) / qa if qa else math.inf
    if not guess < cap:
        if cap == math.inf:
            return None
        guess = cap
    hi = max(1, math.ceil(guess))
    if met(hi):
        gap = 1
        while hi - gap >= 1 and met(hi - gap):
            hi -= gap
            gap *= 2
        lo = max(hi - gap, 0)
    else:
        lo, gap = hi, 1
        while True:
            if lo >= cap:
                return None
            hi = min(lo + gap, cap)
            if met(hi):
                break
            lo, gap = hi, 2 * gap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if met(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _read_run(stream, a: int, need) -> tuple[int, tuple]:
    """Read up to `need` digits equal to `a` from the stream, in chunks that
    double in size, comparing each digit at C speed.

    Returns (m, rest): the m digits of the run that were read and the
    chunk's digits from the first mismatch on (empty when the run reached
    `need` or the stream ended).
    """
    m, size = 0, _RUN_CHUNK_MIN
    while m < need:
        asked = min(size, need - m)
        chunk = tuple(islice(stream, asked))
        if chunk.count(a) < len(chunk):
            j = next(compress(count(), map(ne, chunk, repeat(a))))
            return m + j, chunk[j:]
        m += len(chunk)
        if len(chunk) < asked:  # the stream ended
            break
        size = min(2 * size, _RUN_CHUNK_MAX)
    return m, ()


def decode(spec: NumberSystemSpec, theta: float, n_digits: int, prefix: Word = ()) -> Word:
    """Greedy expansion of the circle point at angle theta.

    Emits n_digits symbols (after the optional forced prefix, whose
    inverse maps are applied to the point first).  Each digit is chosen
    among the letters spec.subshift.transitions allows.  The caller is
    expected to have verified the system; on covers that fail
    compatibility the decoder can run out of candidates, which raises
    NoLegalDigit with the offending point attached.  The prefix is a word,
    read by Alphabet.word.  A non-finite theta, an n_digits that is no
    integer or is negative, or a prefix symbol outside the alphabet
    raises ValueError.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    try:
        n = index(n_digits)
    except TypeError:
        raise ValueError(f"n_digits must be an integer, got {n_digits!r}") from None
    if n < 0:
        raise ValueError(f"n_digits must be >= 0, got {n_digits!r}")
    x = canon_angle(theta)
    prefix = spec.alphabet.word(prefix)
    rows = spec._decode_rows
    row = rows[spec.subshift.initial]
    tau, eps, nearly_full = TAU, EPS_ANGLE, _NEARLY_FULL
    exp, phase = cmath.exp, cmath.phase
    word = []
    for forced in chain(prefix, repeat(None, n)):
        if forced is None:
            # the first entry whose closed arc holds x, as
            # ClosedArcSet.component_containing(x, EPS_ANGLE) finds it, with x
            # not within EPS_ANGLE of that arc's ccw end; else the first at it
            fallback = None
            for entry in row:
                for s, l, reach in entry[2]:
                    d = (x - s) % tau
                    if d <= reach or d >= nearly_full:
                        break
                else:
                    continue
                if l < nearly_full:
                    d = (x - (s + l)) % tau
                    if d <= eps or tau - d <= eps:
                        if fallback is None:
                            fallback = entry
                        continue
                break
            else:
                if fallback is None:
                    raise NoLegalDigit(
                        f"no cover arc admits the point at angle {x:.12g}",
                        angle=x,
                        word=tuple(word),
                        candidates=[spec.alphabet.symbols[e[0]] for e in row],
                    )
                entry = fallback
        else:
            for entry in row:
                if entry[0] == forced:
                    break
            else:
                raise IllegalPrefix("forced prefix is not in the language")
        a, nxt, _, alpha, beta, cb, ca = entry
        word.append(a)
        row = rows[nxt]
        # x moves to F_a^-1(x) with the arithmetic of DiscMoebius.apply_angle
        z = exp(1j * x)
        x = phase((alpha * z + beta) / (cb * z + ca)) % tau
        if x == tau:
            x = 0.0
    return tuple(word)


def representable_interval(spec: NumberSystemSpec, word) -> ClosedArcSet:
    """Closed set of points expressible with the given digit prefix:
    F_w(cl Z_w), which keeps the interval of a long word however narrow."""
    z, f = spec._entry(spec.alphabet.word(word))
    if z.is_empty:
        raise EmptyRefinedSet(f"no point is representable with prefix {word!r}")
    return image(f, z.closure())


def verify(spec: NumberSystemSpec, mode: str = "auto", n: int | None = None,
           prefix_set=None, n_max: int = AUTO_N_MAX) -> Verdict:
    """Decide whether the interval shift represents every circle point.

    mode 'qn' certifies through the level-n expansion bound (with the
    rotation-free check when the bound equals 1), mode 'prefix_set'
    through a supplied prefix set B, and 'auto' tries the expansion
    bounds for n = 1..n_max, then B when given (parsed only then).  All
    modes read one walk of the interval shift up to the deepest level
    they need: each level's words are checked for cover compatibility
    and give Q_n and the prefix set's language there; a compatibility
    failure is disqualifying evidence.
    """
    if mode == "qn":
        if n is None:
            raise ValueError("mode 'qn' needs the level n")
        if n < 0:
            raise ValueError(f"mode 'qn' needs a level n >= 0, got {n}")
        levels = [n]
    elif mode == "prefix_set":
        if not prefix_set:
            raise ValueError("mode 'prefix_set' needs a nonempty set B")
        levels = []
    elif mode == "auto":
        if n_max < 1:
            raise ValueError(f"mode 'auto' needs n_max >= 1, got {n_max}")
        levels = range(1, n_max + 1)
    else:
        raise ValueError(f"unknown verify mode {mode!r}")
    warnings: list[str] = []
    walk = spec.interval_shift_levels()
    walked = []  # the levels walked so far, (word, state, (Z_w, F_w)) triples
    violations = []

    def level_at(depth: int) -> list:
        """Level `depth` of the walk, walking on to it; the compatibility
        violations of each level walked on the way join `violations`."""
        while len(walked) <= depth:
            walked.append(next(walk))
            violations.extend(spec.compatibility_violations(walked[-1]))
        return walked[depth]

    q = math.inf
    for level in levels:
        entries = [entry for _, _, entry in level_at(level)]
        if violations:
            return _compat_failure(spec, violations, warnings)
        if not entries:
            warnings.append(f"no legal words of length {level}; skipped")
            continue
        q = min(_least_expansion(z, f) for z, f in entries)
        if q > 1.0 + EPS_ONE:
            return Verdict("verified_Qn", {"n": level, "Q_n": q}, warnings)
        if abs(q - 1.0) <= EPS_ONE and all(not f.is_rotation for _, f in entries):
            warnings.append(
                f"expansion bound at n={level} equals 1; certified because no "
                f"length-{level} word map is a rotation"
            )
            return Verdict("verified_Qn", {"n": level, "Q_n": q, "rotation_free": True}, warnings)
    if mode == "qn":
        return Verdict("inconclusive", {"n": n, "Q_n": q}, warnings)
    if prefix_set:
        b_words = [spec.alphabet.word(b) for b in prefix_set]
        language = [w for w, _, _ in level_at(max(len(b) for b in b_words))]
        if violations:
            return _compat_failure(spec, violations, warnings)
        check = spec.check_prefix_set(b_words, language)
        if check.passed:
            return Verdict("verified_prefix_set",
                           {"B": [spec.alphabet.format(b) for b in b_words]}, warnings)
        if mode == "prefix_set":
            return Verdict(
                "inconclusive",
                {
                    "missing_prefix": [spec.alphabet.format(w) for w in check.missing_prefix],
                    "not_contained": [spec.alphabet.format(b) for b in check.not_contained],
                },
                warnings,
            )
    warnings.append(
        f"no expansion certificate up to n={n_max}; supply a prefix set B "
        f"(mode='prefix_set') to certify this system"
    )
    return Verdict("inconclusive", {"n_max": n_max}, warnings)


def _compat_failure(spec, violations, warnings) -> Verdict:
    words = [spec.alphabet.format(w) for w, _ in violations[:8]]
    warnings.append(f"cover fails the extension identity at: {', '.join(words)}")
    return Verdict("inconclusive", {"compatibility_violations": len(violations)}, warnings)

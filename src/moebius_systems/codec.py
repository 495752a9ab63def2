"""Encoding symbol streams to circle points and greedy decoding back.

The encoder composes the digit maps and reports the expansion-disc
center as the point estimate; the disc radius 1/|beta| is a hard error
certificate whenever the digits stay inside the interval shift, because
the discs of successive prefixes nest down to the represented point.
It checks that they do as it goes: the prefix's follower state and its
refined set pulled back through the prefix map, the pair that decides
whether the prefix extends, are stepped by the subshift's transitions and
NumberSystemSpec.pull_step, and the spec interns the pairs in a bounded
table, so that a repeated step costs one lookup.  A step missing from
the table is taken by NumberSystemSpec._pull_edge; where it returns None
the digit leaves the interval shift, and encode raises the error of
NumberSystemSpec._leaves, as the one-word queries do.

A run of one letter a is taken in closed form once _RUN_MIN digits of it
went one by one, when a is exactly parabolic (transforms.parabolic_scale:
with M its matrix at determinant 1, M^k = k M - (k - 1) I) and the
pair of follower state and pullback state is fixed by a.  The least k
whose certificate meets tol is solved for and confirmed at k - 1 and k;
the run's digits are then read into lists that double in size, and every
one is compared with a at C speed, as a byte.  A mismatch, or a digit
that is no index (a float equal to a too), ends the jump there and the
loop goes on with that digit, reading first the digits the jump read
past it.  A jump reads the caller's iterator itself once those are used
up, not through the chain that put them first.  A digit step and a jump
both end in the one exit test of the loop: the certificate met, or
max_digits reached, so no digit past the cap is read.
Neither a digit nor a jump renormalizes F (products of disc maps never
are, see transforms); a jump keeps det F as it was, so the certificate
of a run carries no rounding drift: on the cf system's rational
streams, whose tails are endless runs of a parabolic letter, the digit
count at which encode stops is the exact first crossing of tol.

The decoder walks the point backwards through inverse letter maps,
choosing at each step by one rule, interval_system._first_fit: the first
legal symbol whose closed cover arc holds the current point more than
EPS_ANGLE inside its ends, else the one whose arc holds it deepest (points
are swept counterclockwise into the arc's interior, so an arc's
counterclockwise end cannot start a representation).  It reads the spec's
per-state tables (NumberSystemSpec._decode_rows, built on the first
decode).  A table's row lists the letters legal in one follower state, in
letter order, each with its next state, its closed cover arcs and the
entries of its inverse map.  Its cuts, the points 2*EPS_ANGLE either side
of each arc end, split the circle into intervals, and its picks hold
_first_fit at the midpoint of each interval wider than three times that
band, on which no arc end lies close enough for the choice to change;
so a digit costs one bisect.  On a narrower interval, and where no legal
arc holds the point, the pick is None and the digit takes _first_fit at
the point itself; a None from it raises NoLegalDigit.  Either way it maps
the point with the arithmetic of DiscMoebius.apply_angle, so it chooses
and moves bit for bit as component_containing and apply_angle would;
change apply_angle, image and decode together.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import index, length_hint

from .arcs import ArcSet, ClosedArcSet, expansion_geometry, image
from .errors import NoLegalDigit
from .interval_system import EPS_ONE, NumberSystemSpec, _first_fit, _least_expansion
from .subshift import Word
from .transforms import (
    EPS_ROTATION, SpherePoint, TAU, canon_angle,
)

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

    `digits` may be a finite word or any iterable digit stream.  The
    first digit that leaves the interval shift raises IllegalPrefix, or
    its subclass EmptyRefinedSet, as the one-word queries do
    (NumberSystemSpec._leaves).  The check is incremental, so arbitrarily
    long streams run at constant cost per digit, and a run of one letter
    costs about as much as one digit (see the module docstring).  If the digits run out above tol the best
    estimate is still returned with converged=False.  Pass max_digits
    when feeding an infinite stream that might not reach tol (e.g. on
    unverified systems); without it the loop runs until the certificate
    is met.  A str, list or tuple is a word, read by Alphabet.word; any
    other iterable is a stream of symbol indices, checked as it is read.
    A symbol outside the alphabet, a stream digit that is no index (a
    name, a float, None), a non-iterable, or a max_digits that is no
    integer or is negative raises ValueError.

    On a caller's iterator encode takes exactly digits_consumed digits,
    with one exception: a run jump reads its run in chunks, and when the
    run breaks inside a chunk, the chunk's digits from the break on are
    read already; those that the loop has not reached when the
    certificate is met are lost to the caller.  That read-ahead is at
    most _RUN_CHUNK_MAX (4,096) digits, never past max_digits, and only
    a run that breaks inside a chunk leaves one.
    """
    if not 0 < tol < math.inf:  # no radius is <= NaN, and every one is <= inf
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    cap = sys.maxsize if max_digits is None else _count(max_digits, "max_digits")
    # the loop reads `stream`: the digits a run jump read past its end and
    # the loop has not taken yet (`pending`), then the rest of `base`; with
    # a cap of 0 it reads nothing
    is_word = isinstance(digits, (str, list, tuple)) or not isinstance(digits, Iterable)
    base = iter(spec.alphabet.word(digits) if is_word else digits)
    stream, pending, rest = base if cap else None, iter(()), ()
    fwd = [(f.alpha, f.beta) for f in spec.transforms]
    n_symbols = len(fwd)
    scales = spec._parabolic_scales
    eps_rotation = EPS_ROTATION
    # the word's state is an id in the spec's table of interned (follower
    # state, nonempty pullback set) pairs (0 the initial state and the full
    # circle); on sofic systems it cycles through a few of them, so nearly
    # every digit is one table lookup, and a step that leaves the language
    # or empties the set is met only where a step is first taken (_pull_edge)
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
                if a != prev:
                    if not 0 <= a < n_symbols:
                        raise TypeError  # the handler below names the digit
                    prev, jump_from = a, consumed + run_min  # run_min >= 1: no jump here
                if consumed >= jump_from and rows[sid][a] == sid and scales[a] is not None:
                    # a run of a from here on: the pair stays put, and
                    # F A^k = k (F A) - (k - 1) F takes the run in one step
                    scale = scales[a]
                    a2, b2 = fwd[a]
                    a1 = (fa * a2 + fb * b2.conjugate()) * scale
                    b1 = (fa * b2 + fb * a2.conjugate()) * scale
                    room = cap - consumed
                    k = _run_crossing(fb, b1, tol, room)
                    # with the read-ahead drained, the chain would only hand
                    # on base's digits: read them from base directly
                    m, rest = _read_run(digits_in if length_hint(pending) else base,
                                        a, (room if k is None else k) - 1)
                    fa, fb = (m + 1) * a1 - m * fa, (m + 1) * b1 - m * fb
                    consumed += m + 1
                else:
                    nxt = rows[sid][a]
                    if nxt is None:
                        if (edge := spec._pull_edge(table, sid, a)) is None:
                            raise spec._leaves(table.states[sid][0], a, consumed)
                        table, nxt = edge
                        rows = table.rows
                    sid = nxt
                    a2, b2 = fwd[a]
                    fa, fb = fa * a2 + fb * b2.conjugate(), fa * b2 + fb * a2.conjugate()
                    consumed += 1
                b = abs(fb)
                if (b >= b_near and (math.inf if b <= eps_rotation else 1.0 / b) <= tol
                        or consumed >= cap):
                    break
                if rest:  # a jump's run broke: go on from the mismatching digit
                    # chain drains `pending` first, so what is left of it
                    # is exactly the read-ahead that was not read again
                    pending, rest = iter(rest + tuple(pending)), ()
                    stream = chain(pending, base)
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


def _count(value, name: str) -> int:
    """value, the digit count passed as `name`, as an int; ValueError
    naming `name` unless it is an integer >= 0."""
    try:
        n = index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return n


def _run_crossing(b0: complex, b1: complex, tol: float, cap: int) -> int | None:
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

    Each chunk is a list (list(islice(...)) builds faster than a tuple
    from an iterator with no length hint).  Returns (m, rest): the m
    digits of the run that were read and, as a tuple, the chunk's digits
    from the first mismatch on (empty when the run reached `need` or the
    stream ended).
    """
    m, size = 0, _RUN_CHUNK_MIN
    letter = bytes((a,)) if a < 256 else None
    while m < need:
        asked = min(size, need - m)
        chunk = list(islice(stream, asked))
        j = _run_length(chunk, a, letter)
        if j < len(chunk):
            return m + j, tuple(chunk[j:])
        m += len(chunk)
        if len(chunk) < asked:  # the stream ended
            break
        size = min(2 * size, _RUN_CHUNK_MAX)
    return m, ()


def _run_length(chunk: list, a: int, letter: bytes | None) -> int:
    """How many of the chunk's digits, from its first, are the index a,
    whose byte is `letter` (None past 255).  The chunk is a list, as
    _read_run reads it, or any other sequence.

    A digit that is no index ends the run even where it equals a, as 2.0
    equals 2, so that the digit loop rejects it.  A chunk of indices below
    256 converts to a bytearray and is compared there at C speed; the
    conversion raises for any other digit, and such a chunk is compared
    digit by digit.
    """
    if letter is not None:
        try:
            row = bytearray(chunk)
        except (TypeError, ValueError):  # a digit that is no index below 256
            pass
        else:
            if row == letter * len(row):
                return len(row)
            return len(row) - len(row.lstrip(letter))
    for j, d in enumerate(chunk):
        if d != a or not hasattr(d, "__index__"):
            return j
    return len(chunk)


def decode(spec: NumberSystemSpec, theta: float, n_digits: int) -> Word:
    """Greedy expansion of the circle point at angle theta into n_digits
    symbols.

    Each digit is chosen among the letters spec.subshift.transitions
    allows, by the one rule interval_system._first_fit: the first whose
    closed cover arc holds the point more than EPS_ANGLE inside its ends,
    else the one whose arc holds it deepest within EPS_ANGLE.  So a point
    near an endpoint takes the arc it lies in, not one it lies just
    outside, whose inverse map would carry it further out.  The state's
    table holds that choice for every interval between its cuts wider than
    the width test of interval_system._decode_cuts, and the digit takes
    _first_fit at the point on the rest.  The caller is expected to have
    verified the system; on covers that fail compatibility the decoder can
    run out of candidates, which raises NoLegalDigit with the offending
    point attached.  A non-finite theta, or an n_digits that is no integer
    or is negative, raises ValueError.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    n = _count(n_digits, "n_digits")
    x = canon_angle(theta)
    rows = spec._decode_rows
    cuts, picks, row = rows[spec.subshift.initial]
    tau = TAU
    exp, phase = cmath.exp, cmath.phase
    word = []
    for _ in range(n):
        entry = picks[bisect_right(cuts, x)] or _first_fit(row, x)
        if entry is None:
            raise NoLegalDigit(
                f"no cover arc admits the point at angle {x:.12g}",
                angle=x,
                word=tuple(word),
                candidates=[spec.alphabet.symbols[e[0]] for e in row],
            )
        a, nxt, _, alpha, beta, cb, ca = entry
        word.append(a)
        cuts, picks, row = rows[nxt]
        # x moves to F_a^-1(x) with the arithmetic of DiscMoebius.apply_angle
        z = exp(1j * x)
        x = phase((alpha * z + beta) / (cb * z + ca)) % tau
        if x == tau:
            x = 0.0
    return tuple(word)


def representable_interval(spec: NumberSystemSpec, word) -> ClosedArcSet:
    """Closed set of points expressible with the given digit prefix:
    F_w(cl Z_w), which keeps the interval of a long word however narrow.
    A prefix that leaves the interval shift raises at its first digit
    that leaves, as encode does (NumberSystemSpec._shift_entry)."""
    z, f = spec._shift_entry(word)
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
    and give Q_n, and the prefix set's language and the entries
    (Z_b, F_b) of its words b; a compatibility failure is disqualifying
    evidence.  Mode 'auto' reports Q_n only for
    a level that certifies, so it stops scoring a level at its first word
    with q < 1 - EPS_ONE; mode 'qn' scores every word of its level.
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

    cut = 1.0 - EPS_ONE if mode == "auto" else -math.inf
    q = math.inf
    for level in levels:
        entries = [entry for _, _, entry in level_at(level)]
        if violations:
            return _compat_failure(spec, violations, warnings)
        if not entries:
            warnings.append(f"no legal words of length {level}; skipped")
            continue
        q = None
        for z, f in entries:
            word_q = _least_expansion(z, f)
            if q is None or word_q < q:  # min()'s rule: a first NaN stays, a later one is passed
                q = word_q
                if q < cut:
                    break
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
        depth = max(len(b) for b in b_words)
        level_at(depth)
        if violations:
            return _compat_failure(spec, violations, warnings)
        missing, not_contained = _prefix_set_failures(b_words, walked[: depth + 1])
        if not missing and not not_contained:
            return Verdict("verified_prefix_set",
                           {"B": [spec.alphabet.format(b) for b in b_words]}, warnings)
        if mode == "prefix_set":
            return Verdict(
                "inconclusive",
                {
                    "missing_prefix": [spec.alphabet.format(w) for w in missing],
                    "not_contained": [spec.alphabet.format(b) for b in not_contained],
                },
                warnings,
            )
    warnings.append(
        f"no expansion certificate up to n={n_max}; supply a prefix set B "
        f"(mode='prefix_set') to certify this system"
    )
    return Verdict("inconclusive", {"n_max": n_max}, warnings)


def _prefix_set_failures(b_words: list[Word], levels: list) -> tuple[list[Word], list[Word]]:
    """(words of the last level that start with no b, words b not
    contained) for a prefix set B, where `levels` are the levels 0..max|b|
    of the interval shift that verify has walked.  Each b's refined set
    must sit inside the expansion interval V(F_b) of its word map, read
    as Z_b within U(F_b), which F_b carries onto V(F_b); a rotation's U is
    empty.  A b outside the interval shift represents no point and
    passes, as an empty Z_b would."""
    missing = [w for w, _, _ in levels[-1] if not any(w[: len(b)] == b for b in b_words)]
    entries = {w: entry for level in levels for w, _, entry in level}
    not_contained = []
    for b in b_words:
        if b in entries:
            z, f = entries[b]
            u = ArcSet.empty() if f.is_rotation else expansion_geometry(f).u_interval
            if not z.intersect(u.complement()).is_empty:
                not_contained.append(b)
    return missing, not_contained


def _compat_failure(spec, violations, warnings) -> Verdict:
    words = [spec.alphabet.format(w) for w, _ in violations[:8]]
    warnings.append(f"cover fails the extension identity at: {', '.join(words)}")
    return Verdict("inconclusive", {"compatibility_violations": len(violations)}, warnings)

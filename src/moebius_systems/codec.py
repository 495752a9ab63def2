"""Encoding symbol streams to circle points and greedy decoding back.

The encoder composes the digit maps and reports the expansion-disc
center as the point estimate; the disc radius 1/|beta| is a hard error
certificate whenever the digits stay inside the interval shift, because
the discs of successive prefixes nest down to the represented point.
It checks that they do as it goes: the prefix's refined set, pulled back
through the prefix map, is stepped by NumberSystemSpec.pull_step, whose
results the spec interns in a bounded table so that repeated states cost
a lookup.

The decoder walks the point backwards through inverse letter maps,
choosing at each step the first legal symbol whose closed cover arc
contains the current point without sitting at its counterclockwise end
(points are swept counterclockwise into the arc's interior, so that end
cannot start a representation).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .arcs import ClosedArcSet, EPS_ANGLE, image  # noqa: F401  the benchmark tests wrap codec.image
from .errors import EmptyRefinedSet, IllegalPrefix, NoLegalDigit
from .interval_system import EPS_ONE, NumberSystemSpec
from .subshift import Word
from .transforms import (
    EPS_ROTATION, RENORM_MAX, SpherePoint, TAU, canon_angle, circle_distance,
)

_NEARLY_FULL = TAU - EPS_ANGLE


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
    digit.  If the digits run out above tol the best estimate is still
    returned with converged=False.  Pass max_digits when feeding an
    infinite stream that might not reach tol (e.g. on unverified
    systems); without it the loop runs until the certificate is met.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    word_digits = spec._as_word(digits) if isinstance(digits, (str, tuple, list)) else digits
    state = spec.automaton.initial
    step = spec.automaton.step
    fwd = [(f.alpha, f.beta) for f in spec.transforms]
    renorm_max, eps_rotation = RENORM_MAX, EPS_ROTATION
    # the pullback state is an id in the spec's table of interned pullback
    # sets (0 the full circle, 1 the empty set); on sofic systems it cycles
    # through a few of them, so nearly every step is a table lookup
    table = spec._pull_table
    rows = table.rows
    sid = 0
    fa, fb = 1.0 + 0j, 0j
    consumed = 0
    radius = math.inf
    for a in word_digits:
        if max_digits is not None and consumed >= max_digits:
            break
        state = step(state, a)
        if state is None:
            raise IllegalPrefix(
                f"digit {spec.alphabet.symbols[a]!r} at position {consumed} leaves the language"
            )
        nxt = rows[sid][a]
        if nxt is None:
            table, nxt = spec._pull_edge(table, sid, a)
            rows = table.rows
        sid = nxt
        if sid == 1:  # the empty set
            raise IllegalPrefix(
                f"digit {spec.alphabet.symbols[a]!r} at position {consumed} refines to the empty set"
            )
        a2, b2 = fwd[a]
        fa, fb = fa * a2 + fb * b2.conjugate(), fa * b2 + fb * a2.conjugate()
        if abs(fa) < renorm_max:  # renormalize while the cancellation is benign
            norm = math.sqrt(abs(fa) ** 2 - abs(fb) ** 2)
            fa, fb = fa / norm, fb / norm
        consumed += 1
        b = abs(fb)
        radius = math.inf if b <= eps_rotation else 1.0 / b
        if radius <= tol:
            break
    if abs(fb) > EPS_ROTATION:
        z = fa / fb.conjugate()
    else:
        z = (fa * 0.5 + fb) / (fb.conjugate() * 0.5 + fa.conjugate())  # rotation prefix
    return EncodeResult(
        point=SpherePoint(z / abs(z)),
        error_radius=radius,
        digits_consumed=consumed,
        converged=radius <= tol,
    )


def decode(spec: NumberSystemSpec, theta: float, n_digits: int, prefix: Word = ()) -> Word:
    """Greedy expansion of the circle point at angle theta.

    Emits n_digits symbols (after the optional forced prefix, whose
    inverse maps are applied to the point first).  The caller is expected
    to have verified the system; on covers that fail compatibility the
    decoder can run out of candidates, which raises NoLegalDigit with the
    offending point attached.
    """
    x = canon_angle(theta)
    state = spec.automaton.initial
    word = list(prefix)
    for a in prefix:
        state = spec.automaton.step(state, a)
        if state is None:
            raise IllegalPrefix("forced prefix is not in the language")
        x = spec.transforms[a].inverse().apply_angle(x)
    closures: list[ClosedArcSet] = [w.closure() for w in spec.cover]
    for _ in range(n_digits):
        chosen = None
        fallback = None
        viable = []
        for a in range(spec.alphabet.size):
            if spec.automaton.step(state, a) is None:
                continue
            viable.append(a)
            comp = closures[a].component_containing(x, tol=EPS_ANGLE)
            if comp is None:
                continue
            s, l = comp
            at_ccw_end = l < _NEARLY_FULL and circle_distance(x, s + l) <= EPS_ANGLE
            if not at_ccw_end:
                chosen = a
                break
            if fallback is None:
                fallback = a
        if chosen is None:
            chosen = fallback
        if chosen is None:
            raise NoLegalDigit(
                f"no cover arc admits the point at angle {x:.12g}",
                angle=x,
                word=tuple(word),
                candidates=[spec.alphabet.symbols[a] for a in viable],
            )
        word.append(chosen)
        state = spec.automaton.step(state, chosen)
        x = spec.transforms[chosen].inverse().apply_angle(x)
    return tuple(word)


def representable_interval(spec: NumberSystemSpec, word) -> ClosedArcSet:
    """Closed set of points expressible with the given digit prefix."""
    refined = spec.refined_set(word)
    if refined.is_empty:
        raise EmptyRefinedSet(f"no point is representable with prefix {word!r}")
    return refined.closure()


def verify(spec: NumberSystemSpec, mode: str = "auto", n: int | None = None,
           prefix_set=None, n_max: int = 8, budget: int = 10_000_000) -> Verdict:
    """Decide whether the interval shift represents every circle point.

    mode 'qn' certifies through the level-n expansion bound (with the
    rotation-free check when the bound equals 1), mode 'prefix_set'
    through a supplied prefix set B, and 'auto' tries the expansion
    bounds for n = 1..n_max and falls back to B when given.  Cover
    compatibility is checked first in every mode; its failure is
    disqualifying evidence.
    """
    warnings: list[str] = []

    def q_certificate(level: int) -> Verdict | None:
        words = spec.interval_shift_language(level, budget)
        if not words:
            warnings.append(f"no legal words of length {level}; skipped")
            return None
        q = min(spec.min_expansion(w) for w in words)
        if q > 1.0 + EPS_ONE:
            return Verdict("verified_Qn", {"n": level, "Q_n": q}, warnings)
        if abs(q - 1.0) <= EPS_ONE:
            if all(not spec.word_transform(w).is_rotation for w in words):
                warnings.append(
                    f"expansion bound at n={level} equals 1; certified because no "
                    f"length-{level} word map is a rotation"
                )
                return Verdict("verified_Qn", {"n": level, "Q_n": q, "rotation_free": True},
                               warnings)
        return None

    if mode == "qn":
        if n is None:
            raise ValueError("mode 'qn' needs the level n")
        compat = spec.compatibility_check(n, budget)
        if not compat.passed:
            return _compat_failure(spec, compat.violations, warnings)
        verdict = q_certificate(n)
        if verdict is not None:
            return verdict
        return Verdict("inconclusive", {"n": n, "Q_n": spec.level_min_expansion(n, budget)},
                       warnings)

    if mode == "prefix_set":
        if not prefix_set:
            raise ValueError("mode 'prefix_set' needs a nonempty set B")
        b_words = [spec._as_word(b) for b in prefix_set]
        compat = spec.compatibility_check(max(len(b) for b in b_words), budget)
        if not compat.passed:
            return _compat_failure(spec, compat.violations, warnings)
        check = spec.check_prefix_set(b_words, budget)
        warnings.extend(check.warnings)
        if check.passed:
            return Verdict(
                "verified_prefix_set",
                {"B": [spec.alphabet.format(b) for b in b_words]},
                warnings,
            )
        return Verdict(
            "inconclusive",
            {
                "missing_prefix": [spec.alphabet.format(w) for w in check.missing_prefix],
                "not_contained": [spec.alphabet.format(b) for b, _ in check.not_contained],
            },
            warnings,
        )

    if mode != "auto":
        raise ValueError(f"unknown verify mode {mode!r}")

    compat_checked = -1

    def compat_up_to(depth: int) -> list:
        nonlocal compat_checked
        found = []
        while compat_checked < depth:
            compat_checked += 1
            _, violations = spec.compatibility_level(compat_checked, budget)
            found.extend(violations)
        return found

    for level in range(1, n_max + 1):
        violations = compat_up_to(level)
        if violations:
            return _compat_failure(spec, violations, warnings)
        verdict = q_certificate(level)
        if verdict is not None:
            return verdict
    if prefix_set:
        b_lens = [len(spec._as_word(b)) for b in prefix_set]
        violations = compat_up_to(max(b_lens))
        if violations:
            return _compat_failure(spec, violations, warnings)
        check = spec.check_prefix_set([spec._as_word(b) for b in prefix_set], budget)
        warnings.extend(check.warnings)
        if check.passed:
            return Verdict(
                "verified_prefix_set",
                {"B": [spec.alphabet.format(spec._as_word(b)) for b in prefix_set]},
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

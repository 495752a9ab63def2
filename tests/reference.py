"""Reference models that the tests compare the package against.

Each model is the slow or direct form of something the package computes
faster or in other coordinates: derivative moduli, sampled arc-set
membership, factor-avoidance, forward refinement, the exhaustive level
minima, the scalar cover sweep, the linear state scan, a frozen copy
of the arc-set kernel and the first-fit decoder through the arc-set and
map methods.  The random disc maps and arc sets the tests draw
are here too, and a system whose language ends after one letter.  None
of it is package API, and each model is defined here once.
"""

import cmath
import math

import numpy as np

from moebius_systems.arcs import EPS_ANGLE, EPS_NEAR_FULL, ArcSet, _v_arc, expansion_interval, image
from moebius_systems.errors import IllegalPrefix, NoLegalDigit
from moebius_systems.existence import EPS_GAP, two_hyperbolic_system
from moebius_systems.interval_system import NumberSystemSpec
from moebius_systems.subshift import Alphabet, Subshift
from moebius_systems.systems import with_cover
from moebius_systems.transforms import TAU, DiscMoebius, canon_angle, circle_distance, identity

MIN_RANDOM_BETA = 1e-6  # random maps with |beta| at most this are rotations in all but name
SAMPLE_ANGLES = np.linspace(0, TAU, 10_000, endpoint=False) + 1e-4  # sampled membership grid


# -- disc maps --------------------------------------------------------------------------


def random_disc_moebius(rng, beta_scale: float = 1.0, rotations_ok: bool = False) -> DiscMoebius:
    """Random transformation; beta is complex normal scaled by beta_scale."""
    while True:
        b = complex(rng.gauss(0.0, beta_scale), rng.gauss(0.0, beta_scale))
        if not rotations_ok and abs(b) <= MIN_RANDOM_BETA:
            continue
        a = math.sqrt(1.0 + abs(b) ** 2) * cmath.exp(1j * rng.uniform(0.0, TAU))
        return DiscMoebius(a, b)


def derivative_modulus(f: DiscMoebius, theta: float) -> float:
    """|F'| at the circle point with the given angle."""
    z = cmath.exp(1j * theta)
    return 1.0 / abs(f.beta.conjugate() * z + f.alpha.conjugate()) ** 2


# -- arc sets ---------------------------------------------------------------------------


def random_arcset(rng, max_arcs: int = 3) -> ArcSet:
    """Random arc set of up to max_arcs arcs, 1e-3 to 0.8 of a turn long."""
    arcs = []
    for _ in range(rng.randint(0, max_arcs)):
        arcs.append((rng.uniform(0, TAU), rng.uniform(1e-3, TAU * 0.8)))
    return ArcSet.from_arcs(arcs)


def contains_many(a: ArcSet, thetas: np.ndarray) -> np.ndarray:
    """Open membership of each angle of an array."""
    if a.full:
        return np.ones(len(thetas), dtype=bool)
    out = np.zeros(len(thetas), dtype=bool)
    for s, l in a.arcs:
        d = (thetas - s) % TAU
        out |= (d > 0.0) & (d < l)
    return out


def scalar_arcs_cover(arcs) -> bool:
    """Do the closed arcs [s, s + l], starts in [0, 2*pi), cover the circle?
    One sorted sweep, one arc at a time, gaps narrower than EPS_GAP covered:
    the scalar form of existence._closed_arcs_cover."""
    if not arcs:
        return False
    reach = max(s + l for s, l in arcs) - TAU
    for s, l in sorted(arcs):
        if s > reach + EPS_GAP:
            return False
        reach = max(reach, s + l)
    return reach >= TAU - EPS_GAP


# -- the frozen arc-set kernel ----------------------------------------------------------
#
# A frozen copy of the arc-set kernel as it stood with builtin min, max and
# sorted calls and one DiscMoebius.apply_angle call per mapped endpoint, on
# (arcs, full) pairs.  The kernel must return the same tuples float for
# float; repr tells -0.0 from 0.0, which == does not.


def ref_canon(theta):
    theta = theta % TAU
    return 0.0 if theta == TAU else theta


def ref_canonical_pieces(items):
    return sorted((ref_canon(s), min(l, TAU)) for s, l in items if l > EPS_ANGLE)


def ref_merged(items, join):
    arcs = ref_canonical_pieces(items)
    if not arcs:
        return []
    merged = [list(arcs[0])]
    for s, l in arcs[1:]:
        ps, pl = merged[-1]
        if join(s - (ps + pl)):
            merged[-1][1] = max(pl, s + l - ps)
        else:
            merged.append([s, l])
    while len(merged) > 1:
        s0, l0 = merged[0]
        sk, lk = merged[-1]
        if join((s0 + TAU) - (sk + lk)):
            merged[-1][1] = max(lk, s0 + l0 + TAU - sk)
            merged.pop(0)
        else:
            break
    return merged


def ref_from_arcs(items):
    merged = ref_merged(items, lambda gap: gap < -EPS_ANGLE)
    if not merged:
        return ((), False)
    if len(merged) == 1 and merged[0][1] > TAU + EPS_ANGLE:
        return ((), True)
    if merged[0][1] > TAU:
        merged[0][1] = TAU
    return (tuple((s, l) for s, l in merged), False)


def ref_intersect(a, b):
    if a[1]:
        return b
    if b[1]:
        return a
    if not a[0] or not b[0]:
        return ((), False)
    out = []
    for s1, l1 in a[0]:
        e1 = s1 + l1
        for s2, l2 in b[0]:
            for shift in (-TAU, 0.0, TAU):
                s = max(s1, s2 + shift)
                e = min(e1, s2 + shift + l2)
                if e - s > EPS_ANGLE:
                    out.append((s, e - s))
    return (tuple(ref_canonical_pieces(out)), False)


def ref_union(a, b):
    if a[1] or b[1]:
        return ((), True)
    return ref_from_arcs(a[0] + b[0])


def ref_complement(a):
    arcs, full = a
    if full:
        return ((), False)
    if not arcs:
        return ((), True)
    out = []
    n = len(arcs)
    for i, (s, l) in enumerate(arcs):
        nxt = arcs[(i + 1) % n][0] + (TAU if i == n - 1 else 0.0)
        out.append((s + l, nxt - (s + l)))
    return (tuple(ref_canonical_pieces(out)), False)


def ref_closure(a):
    arcs, full = a
    if full:
        return ((), True)
    if not arcs:
        return ((), False)
    merged = ref_merged(arcs, lambda gap: gap <= EPS_ANGLE)
    if len(merged) == 1 and merged[0][1] >= TAU - EPS_ANGLE:
        return ((), True)
    return (tuple((s, min(l, TAU)) for s, l in merged), False)


def ref_circle_distance(a, b):
    d = (a - b) % TAU
    return min(d, TAU - d)


def ref_distance(a, b):
    if a[1] or b[1]:
        return 0.0 if (a[1] and b[1]) else math.inf
    if len(a[0]) != len(b[0]):
        return math.inf
    n = len(a[0])
    if n == 0:
        return 0.0
    best = math.inf
    for k in range(n):
        worst = 0.0
        for i in range(n):
            s1, l1 = a[0][i]
            s2, l2 = b[0][(i + k) % n]
            worst = max(worst, ref_circle_distance(s1, s2), abs(l1 - l2))
            if worst >= best:
                break
        best = min(best, worst)
    return best


def ref_apply_angle(alpha, beta, theta):
    z = cmath.exp(1j * theta)
    w = (alpha * z + beta) / (beta.conjugate() * z + alpha.conjugate())
    return ref_canon(cmath.phase(w))


def ref_image(f, a, closed):
    arcs, full = a
    if full:
        return ((), True)
    out = []
    for s, l in arcs:
        sa = ref_apply_angle(f.alpha, f.beta, s)
        ea = ref_apply_angle(f.alpha, f.beta, s + l)
        if l < TAU - EPS_NEAR_FULL:
            glen = (ea - sa) % TAU
            if glen <= TAU - EPS_NEAR_FULL:
                out.append((sa, glen))
                continue
        ma = ref_apply_angle(f.alpha, f.beta, s + 0.5 * l)
        h1 = (ma - sa) % TAU
        h2 = (ea - ma) % TAU
        if h1 > TAU - EPS_ANGLE:
            h1 = 0.0
        if h2 > TAU - EPS_ANGLE:
            h2 = 0.0
        out.append((sa, h1 + h2))
    if closed:
        return (tuple(sorted((ref_canon(s), min(l, TAU)) for s, l in out)), False)
    return (tuple(ref_canonical_pieces(out)), False)


def ref_min_inverse_derivative(f, closed):
    """min_inverse_derivative over a nonempty closed set, with the least of
    the endpoint values found by builtin min."""
    arcs, full = closed
    if f.is_rotation:
        return 1.0
    b2 = abs(f.beta) * abs(f.beta)
    d = f.alpha / f.beta.conjugate()
    at_pole = 1.0 / (b2 * (1.0 + abs(d)) ** 2)
    if full:
        return at_pole
    pole = cmath.phase(d) + math.pi

    def value(t):
        return 1.0 / (b2 * abs(cmath.exp(1j * t) - d) ** 2)

    best = math.inf
    for s, l in arcs:
        best = min(best, value(s), value(s + l))
        if (pole - s) % TAU <= l:
            best = min(best, at_pole)
    return best


# -- subshifts --------------------------------------------------------------------------


def in_language(shift, word) -> bool:
    """No forbidden word of the subshift occurs as a factor of `word`."""
    n = len(word)
    for f in shift.forbidden:
        m = len(f)
        if m > n:
            continue
        for i in range(n - m + 1):
            if word[i:i + m] == f:
                return False
    return True


def follower_accepts(subshift, word) -> bool:
    """The subshift's follower automaton reads all of `word` without
    reaching the sink."""
    state = subshift.initial
    for a in word:
        state = subshift.transitions[state][a]
        if state is None:
            return False
    return True


# -- number systems ---------------------------------------------------------------------


def turned_cover(spec, turn: float):
    """The spec with every cover arc turned by `turn` of a full turn."""
    return with_cover(spec, {
        sym: c if c.full else ArcSet.from_arcs([(s + TAU * turn, l) for s, l in c.arcs])
        for sym, c in zip(spec.alphabet.symbols, spec.cover)
    })


def dead_end_pair():
    """Two hyperbolic letters over the whole circle with every two-letter
    word forbidden: the language has its two letters and nothing longer."""
    fa, fb = two_hyperbolic_system(0.5, 0.25)
    alph = Alphabet(("a", "b"))
    return NumberSystemSpec(alph, {"a": fa, "b": fb},
                            {"a": ArcSet.full_circle(), "b": ArcSet.full_circle()},
                            Subshift(alph, ["aa", "ab", "ba", "bb"]), name="dead-end")


def forward_step(spec, refined: ArcSet, f: DiscMoebius, a: int):
    """(R(wa), F_wa) from (R(w), F_w): R(wa) = R(w) ∩ F_w(C_a)."""
    return refined.intersect(image(f, spec.cover[a])), f.compose(spec.transforms[a])


def forward_refined_set(spec, word) -> ArcSet:
    """R(w) by forward refinement from the full circle, with no pullback
    state and no cache."""
    refined, f = ArcSet.full_circle(), identity()
    for a in word:
        refined, f = forward_step(spec, refined, f, a)
    return refined


def forward_levels(spec, n_max: int) -> list[list[tuple[int, ...]]]:
    """The interval-shift languages of levels 0..n_max by forward refinement,
    with a word kept while R(w) is nonempty: the definition the package
    used before it read membership from the pullback state."""
    level = [((), spec.subshift.initial, ArcSet.full_circle(), identity())]
    levels = [[()]]
    for _ in range(n_max):
        longer = []
        for w, state, refined, f in level:
            for a, nxt in enumerate(spec.subshift.transitions[state]):
                if nxt is not None:
                    r, g = forward_step(spec, refined, f, a)
                    if not r.is_empty:
                        longer.append((w + (a,), nxt, r, g))
        level = longer
        levels.append([w for w, *_ in level])
    return levels


def exhaustive_table(spec, n_max: int) -> list[tuple[int, float]]:
    """Q_1..Q_n_max from every word of every level: the oracle the pruned
    walk of expansion_rate_bound must reproduce bit for bit."""
    levels = spec.interval_shift_levels(n_max)
    next(levels)
    return [(n, min((spec.min_expansion(w) for w, _, _ in level), default=math.inf))
            for n, level in enumerate(levels, 1)]


def mp_product(spec, word):
    """(alpha, beta, det) of the word map, the product of the float letters
    taken at the current mpmath precision."""
    import mpmath

    fa, fb = mpmath.mpc(1), mpmath.mpc(0)
    for a in word:
        f = spec.transforms[a]
        a2, b2 = mpmath.mpc(f.alpha), mpmath.mpc(f.beta)
        fa, fb = fa * a2 + fb * mpmath.conj(b2), fa * b2 + fb * mpmath.conj(a2)
    return fa, fb, abs(fa) ** 2 - abs(fb) ** 2


def first_fit_decode(spec, theta: float, n_digits: int, prefix=()):
    """decode's greedy expansion through the methods it inlines: each digit
    is the first legal letter whose closed cover arc holds x within
    EPS_ANGLE, by ClosedArcSet.component_containing, with x not within
    EPS_ANGLE of that component's ccw end, else the first legal letter at
    it; x moves by DiscMoebius.apply_angle of the letter's inverse."""
    x = canon_angle(theta)
    inverses = [f.inverse() for f in spec.transforms]
    closures = [c.closure() for c in spec.cover]
    moves = spec.subshift.transitions
    state = spec.subshift.initial
    word = list(spec.alphabet.word(prefix))
    for a in word:
        state = moves[state][a]
        if state is None:
            raise IllegalPrefix("forced prefix is not in the language")
        x = inverses[a].apply_angle(x)
    for _ in range(n_digits):
        chosen = fallback = None
        for a, nxt in enumerate(moves[state]):
            comp = None if nxt is None else closures[a].component_containing(x, tol=EPS_ANGLE)
            if comp is None:
                continue
            s, l = comp
            if l < TAU - EPS_ANGLE and circle_distance(x, s + l) <= EPS_ANGLE:
                if fallback is None:
                    fallback = a
                continue
            chosen = a
            break
        if chosen is None:
            chosen = fallback
        if chosen is None:
            raise NoLegalDigit(
                f"no cover arc admits the point at angle {x:.12g}", angle=x, word=tuple(word),
                candidates=[spec.alphabet.symbols[a]
                            for a, nxt in enumerate(moves[state]) if nxt is not None])
        word.append(chosen)
        state = moves[state][chosen]
        x = inverses[chosen].apply_angle(x)
    return tuple(word)


def global_prefix_check(spec, b_words):
    """(passed, missing prefixes, words not contained) of the prefix set by
    the global form: R(b) within V(F_b) on the circle, formed through
    refined_set, as the package read it before it read Z_b within U(F_b)."""
    language = spec.interval_shift_language(max(len(b) for b in b_words))
    missing = [w for w in language if not any(w[: len(b)] == b for b in b_words)]
    leaking = [b for b in b_words if not spec.refined_set(b).intersect(
        expansion_interval(spec.word_transform(b)).complement()).is_empty]
    return not missing and not leaking, missing, leaking


# -- the sofic state search -------------------------------------------------------------


class LinearScan:
    """Reference dedup: every stored state is a candidate, in index order,
    which is the linear scan the state index must agree with."""

    def __init__(self, eps):
        self.n = 0

    def add(self, z, i):
        self.n += 1

    def candidates(self, z):
        return range(self.n)


def recomputed_residual(spec, automaton) -> float:
    """Reference residual: pull_step recomputed on every edge of every
    expanded state, which is what the residual recorded by the BFS must
    equal."""
    worst = 0.0
    for si, row in enumerate(automaton.transitions):
        if not automaton.expanded[si]:
            continue
        z = automaton.states[si]
        for a, ti in enumerate(row):
            d = automaton.states[ti].distance(spec.pull_step(z, a))
            if math.isinf(d):
                return math.inf
            worst = max(worst, d)
    return worst


# -- the existence map ------------------------------------------------------------------


def scalar_cover_search(fa: DiscMoebius, fb: DiscMoebius, depth: int) -> bool:
    """Reference: the word maps one Python complex at a time, every
    interval kept, one sorted sweep at the end (no padding, no arrays)."""
    arcs, level = [], [(1.0 + 0j, 0j)]
    for _ in range(depth):
        nxt = []
        for a1, b1 in level:
            for a2, b2 in ((fa.alpha, fa.beta), (fb.alpha, fb.beta)):
                na = a1 * a2 + b1 * b2.conjugate()
                nb = a1 * b2 + b1 * a2.conjugate()
                nxt.append((na, nb))
                if (arc := _v_arc(na, nb)) is not None:
                    arcs.append(arc)
        level = nxt
    return scalar_arcs_cover(arcs)

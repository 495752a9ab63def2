"""Reference models that the tests compare the package against.

Each model is the slow or direct form of something the package computes
faster or in other coordinates: derivative moduli, sampled arc-set
membership, the expansion interval of a map, factor-avoidance, the
follower table built by scanning every forbidden word, the
subshift-blind pullback fold of a word, the open refined set R(w) and
its forward refinement, the exhaustive level minima, the scalar
generator pair, expansion arcs, cover sweep and inward certificate,
the linear state scan and a state search that scans every stored state
for every step, a frozen copy of the arc-set kernel, the union folds
that a system's covers and cover gaps were once built by, the
first-fit decoder through the arc-set and map methods, the
decode -> encode audit of a certificate, and the JSON text a CLI report
was once written as.
The random disc maps, arc sets, raw arc families and candidate systems
the tests draw are here too, the perturbed builtins and builtins with
one letter perturbed, parabolic3 with its cover rotated, a system whose language
ends after one letter, the words of one level of the interval shift and the
count of states a sofic search expanded.
None of it is package API, and each model is defined here once.
"""

import cmath
import json
import math
import random
from functools import reduce

import numpy as np

from moebius_systems.arcs import (
    EPS_ANGLE, EPS_NEAR_FULL, ArcSet, _v_arc, expansion_geometry, image,
)
from moebius_systems.codec import decode, encode
from moebius_systems.errors import IllegalPrefix, NoLegalDigit
from moebius_systems.existence import EPS_GAP, two_hyperbolic_system
from moebius_systems.interval_system import NumberSystemSpec
from moebius_systems.subshift import Alphabet, Subshift, last_level
from moebius_systems.systems import _whole_turn, builtin, with_cover
from moebius_systems.transforms import (
    EPS_ROTATION, TAU, DiscMoebius, canon_angle, contraction, identity, rotation,
)

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


ARC_FAMILIES = ("overlapping", "touching", "wrapping", "whole-turn", "near")


def random_raw_arcs(rng, family: str) -> list[tuple[float, float]]:
    """1-6 raw (start, end) arcs, counterclockwise, of one family:
    overlapping at random; touching, each starting where the one before
    it ends; wrapping, with starts about 2*pi or below 0 and ends past
    2*pi; one whole turn (s, s + 2*pi) among overlapping ones; near, each
    starting within two EPS_ANGLE of where the one before it ends, some
    exactly one EPS_ANGLE off, where the merge's threshold lies, and some no
    longer than a few EPS_ANGLE (and so, at most EPS_ANGLE, empty)."""
    n = rng.randint(1, 6)
    if family == "wrapping":
        starts = [rng.choice((TAU, 0.0)) + rng.uniform(-1.0, 1.0) for _ in range(n)]
        return [(s, s + rng.uniform(0.1, 3.0)) for s in starts]
    if family in ("touching", "near"):
        out, s = [], rng.uniform(0.0, TAU)
        for _ in range(n):
            tiny = family == "near" and rng.random() < 0.3
            e = s + (rng.uniform(0.0, 4.0) * EPS_ANGLE if tiny else rng.uniform(0.05, 2.5))
            out.append((s, e))
            offset = rng.choice((-2, -1, -0.5, 0, 0.5, 1, 2)) if family == "near" else 0
            s = e + offset * EPS_ANGLE
        return out
    out = [(s, s + rng.uniform(0.05, 3.0)) for s in (rng.uniform(0.0, TAU) for _ in range(n))]
    if family == "whole-turn":
        s = rng.uniform(-TAU, 2 * TAU)
        out.insert(rng.randint(0, n), (s, s + TAU))
    return out


def union_fold_cover(pairs) -> ArcSet:
    """A symbol's cover from raw (start, end) arcs as a fold of
    ArcSet.union, one ArcSet.arc at a time: a whole turn (systems._whole_turn)
    makes it the full circle, and an empty arc drops out."""
    cover = ArcSet.empty()
    for s, e in pairs:
        cover = ArcSet.full_circle() if _whole_turn(s, e) else cover.union(ArcSet.arc(s, e))
    return cover


def union_fold_uncovered(sets) -> ArcSet:
    """arcs._uncovered as a fold of ArcSet.union: the complement of the
    union, one merge per set."""
    return reduce(ArcSet.union, sets, ArcSet.empty()).complement()


def strict_json_text(value) -> str:
    """A CLI report's text as json.dumps wrote it: every non-finite float
    replaced by its str ('inf', '-inf', 'nan'), containers copied as they
    go, then json.dumps(..., indent=2, allow_nan=False)."""
    def strict(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else str(v)
        if isinstance(v, dict):
            return {k: strict(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [strict(x) for x in v]
        return v
    return json.dumps(strict(value), indent=2, allow_nan=False)


def expansion_interval(f: DiscMoebius) -> ArcSet:
    """The arc where the inverse of f expands, V(F) =
    expansion_geometry(f).v_interval; empty for a rotation."""
    if f.is_rotation:
        return ArcSet.empty()
    return expansion_geometry(f).v_interval


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
    """ArcSet.distance's circle distance of two starts: |a - b|, not
    (a - b) % TAU, which reads 1e-17 one way and 0.0 the other across 0."""
    d = abs(a - b)
    if d >= TAU:
        d %= TAU
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


def follower_table(forbidden, size: int):
    """(states, transitions) of the follower automaton of the subshift over
    `size` letters whose forbidden words are `forbidden`, a sorted tuple of
    index words without repeats, built as the definition reads: a letter
    is None after a state where some forbidden word is a suffix of the
    state and the letter, else it leads to the longest such suffix that
    is a state."""
    states = sorted({f[:k] for f in forbidden for k in range(len(f))} | {()},
                    key=lambda p: (len(p), p))
    index = {p: i for i, p in enumerate(states)}
    transitions = []
    for p in states:
        row = []
        for a in range(size):
            w = p + (a,)
            if any(w[len(w) - len(f):] == f for f in forbidden):
                row.append(None)
            else:
                row.append(next(index[w[j:]] for j in range(len(w) + 1) if w[j:] in index))
        transitions.append(tuple(row))
    return tuple(states), tuple(transitions)


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


def rotated_parabolic3():
    """The three parabolic maps with the cover rotated one vertex back and
    no subshift restriction; only constant words survive refinement, so
    ab is legal and Z_ab is empty."""
    p3 = builtin("parabolic3")
    third = TAU / 3
    cover = {
        "a": ArcSet.arc(2 * third, TAU),   # (C, A)
        "b": ArcSet.arc(0, third),         # (A, B)
        "c": ArcSet.arc(third, 2 * third), # (B, C)
    }
    return NumberSystemSpec(
        p3.alphabet,
        dict(zip(p3.alphabet.symbols, p3.transforms)),
        cover,
        Subshift(p3.alphabet, ()),
        name="parabolic3-rotated",
    )


def _repelling_contraction(cover: ArcSet, r: float):
    """The conjugate of contraction(r) that repels from the centre of the
    longest arc of `cover`, so its inverse expands there by r^2."""
    s, l = max(cover.arcs, key=lambda arc: arc[1])
    turn = rotation(s + 0.5 * l - math.pi)  # contraction(r) repels from pi
    return turn.compose(contraction(r)).compose(turn.inverse())


def perturbed_builtin(spec, r: float):
    """The spec with each letter swapped for the conjugate of contraction(r)
    that repels from the centre of the letter's longest cover arc: the
    family on which a certificate can be false (ROADMAP direction 2).
    Every cover arc must be a proper arc."""
    maps = {sym: _repelling_contraction(c, r) for sym, c in zip(spec.alphabet.symbols, spec.cover)}
    return NumberSystemSpec(spec.alphabet, maps, dict(zip(spec.alphabet.symbols, spec.cover)),
                            spec.subshift, name=f"{spec.name}-perturbed-{r:g}")


def perturbed_letter(spec, k: int, r: float):
    """The spec with letter k alone swapped as in perturbed_builtin, the
    scan of ROADMAP direction 13, on which verify certifies systems that
    are no number systems."""
    symbols = spec.alphabet.symbols
    maps = dict(zip(symbols, spec.transforms))
    maps[symbols[k]] = _repelling_contraction(spec.cover[k], r)
    return NumberSystemSpec(spec.alphabet, maps, dict(zip(symbols, spec.cover)),
                            spec.subshift, name=f"{spec.name}-{symbols[k]}-perturbed-{r:g}")


def random_system(rng):
    """A random candidate system by ROADMAP direction 2's recipe: 2-4
    letters from random_disc_moebius at beta scale 0.5, 2 or 10; one cover
    arc per letter, between random cut points and widened by 0-0.3 rad at
    each end; one forbidden two-letter word on half of them."""
    k = rng.randint(2, 4)
    scale = rng.choice((0.5, 2.0, 10.0))
    alph = Alphabet(tuple(str(i) for i in range(k)))
    cuts = sorted(rng.uniform(0.0, TAU) for _ in range(k))
    cover, maps = {}, {}
    for i, sym in enumerate(alph.symbols):
        start, end = cuts[i], cuts[i + 1] if i + 1 < k else cuts[0] + TAU
        lo, hi = rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)
        cover[sym] = ArcSet.from_arcs([(start - lo, end - start + lo + hi)])
        maps[sym] = random_disc_moebius(rng, scale)
    forbidden = [(rng.randrange(k), rng.randrange(k))] if rng.random() < 0.5 else []
    return NumberSystemSpec(alph, maps, cover, Subshift(alph, forbidden), name="random")


def random_multi_arc_system(rng):
    """A random candidate system whose letters may hold several cover arcs:
    2-4 letters from random_disc_moebius at beta scale 0.5, 2 or 10, each
    covering a random_arcset, and the points no letter covers added to one
    random letter's cover; no subshift restriction.  Arcs of different
    letters overlap, so a later letter's arc end can lie inside an earlier
    letter's arc."""
    k = rng.randint(2, 4)
    scale = rng.choice((0.5, 2.0, 10.0))
    alph = Alphabet(tuple(str(i) for i in range(k)))
    covers = [random_arcset(rng) for _ in range(k)]
    j = rng.randrange(k)
    covers[j] = covers[j].union(reduce(ArcSet.union, covers, ArcSet.empty()).complement())
    maps = {sym: random_disc_moebius(rng, scale) for sym in alph.symbols}
    return NumberSystemSpec(alph, maps, dict(zip(alph.symbols, covers)), Subshift(alph, ()),
                            name="random-multi-arc")


def interval_shift_words(spec, n: int) -> list[tuple[int, ...]]:
    """The interval-shift words of length n, lexicographic: the last level
    of the package's walk."""
    return last_level(spec.interval_shift_levels(n))


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


def pullback_entry(spec, word) -> tuple[ArcSet, DiscMoebius]:
    """(Z_w, F_w) of any word, read by Alphabet.word: the fold of
    spec.pull_step and compose from the full circle and the identity,
    blind to the subshift and going on past an empty Z_w."""
    z, f = ArcSet.full_circle(), identity()
    for a in spec.alphabet.word(word):
        z, f = spec.pull_step(z, a), f.compose(spec.transforms[a])
    return z, f


def refined_set(spec, word) -> ArcSet:
    """The refined set R(w) = C_w1 ∩ F_w1(C_w2) ∩ ... ∩ F_w'(C_wn) of the
    cover arcs along `word`, formed as F_w(Z_w) from pullback_entry.  It
    ignores the subshift, so a forbidden word can have a nonempty R(w)
    (binary's `11-` does); it is empty once narrower than EPS_ANGLE though
    Z_w is not."""
    z, f = pullback_entry(spec, word)
    return image(f, z)


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


def first_fit_decode(spec, theta: float, n_digits: int):
    """decode's greedy expansion through the methods it inlines: each digit
    is the first legal letter whose closed cover arc holds x within
    EPS_ANGLE, by ClosedArcSet.component_containing, with x more than
    EPS_ANGLE inside both ends of that component, else the legal letter
    whose component holds x deepest (the signed distance to its nearer
    end), the first on ties; x moves by DiscMoebius.apply_angle of the
    letter's inverse."""
    x = canon_angle(theta)
    inverses = [f.inverse() for f in spec.transforms]
    closures = [c.closure() for c in spec.cover]
    moves = spec.subshift.transitions
    state = spec.subshift.initial
    word = []
    for _ in range(n_digits):
        chosen = fallback = None
        depth = -TAU
        for a, nxt in enumerate(moves[state]):
            comp = None if nxt is None else closures[a].component_containing(x, tol=EPS_ANGLE)
            if comp is None:
                continue
            s, l = comp
            if l < TAU - EPS_ANGLE:
                d = (x - s) % TAU
                m = d - TAU if d > l + EPS_ANGLE else min(d, l - d)
                if m <= EPS_ANGLE:
                    if m > depth:
                        fallback, depth = a, m
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


def codec_contradiction(spec, seed: int = 0):
    """The first point at which the package's codec contradicts a
    certificate, as (angle, the error's message), or None: ROADMAP
    direction 13's audit.  Of 48 points drawn from the seed and the
    centres of the cover arcs, each is decoded to 30 digits and the word
    encoded back with `encode(spec, w, 1e-300, max_digits=30)`.  On a
    number system every point has a word that decode finds and encode
    accepts, so a decode that runs out of letters or an encode that
    rejects the word is a contradiction."""
    rng = random.Random(seed)
    points = [rng.uniform(0.0, TAU) for _ in range(48)]
    points += [s + 0.5 * l for c in spec.cover for s, l in c.arcs]
    for x in points:
        try:
            encode(spec, decode(spec, x, 30), 1e-300, max_digits=30)
        except (IllegalPrefix, NoLegalDigit) as exc:
            return x, str(exc)
    return None


def global_prefix_check(spec, b_words):
    """(passed, missing prefixes, words not contained) of the prefix set by
    the global form: R(b) within V(F_b) on the circle, formed through
    refined_set, as the package read it before it read Z_b within U(F_b).
    A b outside the interval shift represents no point and passes."""
    language = interval_shift_words(spec, max(len(b) for b in b_words))
    missing = [w for w in language if not any(w[: len(b)] == b for b in b_words)]
    leaking = [b for b in b_words if b in interval_shift_words(spec, len(b))
               and not refined_set(spec, b).intersect(
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


def scanned_automaton(spec, state_cap: int, eps: float):
    """Reference state search: breadth first from the full circle, every
    step, an empty one too, taking the lowest-index stored state within
    eps by ArcSet.distance, else a state of its own; the queue stops after
    the depth that takes it past state_cap.  Returns (states, transitions
    of the expanded states, growth, residual)."""
    states, transitions, growth, residual = [ArcSet.full_circle()], [], [], 0.0
    for z in states:
        row = []
        for a in range(spec.alphabet.size):
            nz = spec.pull_step(z, a)
            for j, stored in enumerate(states):
                d = stored.distance(nz)
                if d <= eps:
                    residual = max(residual, d)
                    break
            else:
                j = len(states)
                states.append(nz)
            row.append(j)
        transitions.append(row)
        if len(transitions) == (growth[-1] if growth else 1):
            growth.append(len(states))
            if len(states) > state_cap:
                break
    return states, transitions, growth, residual


def expanded_count(automaton) -> int:
    """How many states the state search expanded: those numbered below
    growth[-2], or the initial state alone when one depth ran."""
    return automaton.growth[-2] if len(automaton.growth) > 1 else 1


def recomputed_residual(spec, automaton) -> float:
    """Reference residual: pull_step recomputed on every edge of every
    expanded state, which is what the residual recorded by the BFS must
    equal."""
    worst = 0.0
    for si, row in enumerate(automaton.transitions[:expanded_count(automaton)]):
        z = automaton.states[si]
        for a, ti in enumerate(row):
            d = automaton.states[ti].distance(spec.pull_step(z, a))
            if math.isinf(d):
                return math.inf
            worst = max(worst, d)
    return worst


# -- the existence map ------------------------------------------------------------------


def scalar_two_hyperbolic_system(q_a: float, q_b: float) -> tuple[DiscMoebius, DiscMoebius]:
    """Reference: the generator pair through the checked DiscMoebius
    constructor, one Python complex at a time: the scalar form of
    existence._generator_entries."""
    sa, sb = 2.0 * math.sqrt(q_a), 2.0 * math.sqrt(q_b)
    return (DiscMoebius(complex(1.0 + q_a, -(1.0 - q_a)) / sa,
                        complex(1.0 - q_a, 1.0 - q_a) / sa),
            DiscMoebius(complex(1.0 + q_b, -(1.0 - q_b)) / sb,
                        complex(-(1.0 - q_b), -(1.0 - q_b)) / sb))


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


def remainder_v_arcs(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference: existence._v_arcs with its start wrapped by numpy's
    remainder, (center - half) % TAU, and one masked path; the kernel's
    identities give half = arctan(1/|beta|) and center = arg(alpha*beta),
    with |beta| as np.abs(beta)."""
    b = np.abs(beta)
    arc = b > EPS_ROTATION
    half = np.arctan(np.divide(1.0, b, out=np.zeros_like(b), where=arc))
    p = np.multiply(alpha, beta, out=np.zeros_like(alpha), where=arc)
    starts = np.where(arc, (np.arctan2(p.imag, p.real) - half) % TAU, -np.inf)
    return starts, starts + 2.0 * half


def scalar_inward_region_test(fa: DiscMoebius, fb: DiscMoebius, q_a: float, q_b: float,
                              n_max: int) -> bool:
    """Reference: existence.inward_region_test on the generator pair
    (fa, fb) of (q_a, q_b), with its own copy of the certificate's words
    and each word map built by DiscMoebius.compose, letter by letter."""
    bounds = [2.0 ** (-1.0 / n) for n in range(1, n_max + 2)]
    words = ()
    if q_a < 0.5 and q_b < 0.5:
        words = ("ab",)
    for n, lo, hi in zip(range(1, n_max + 1), bounds, bounds[1:]):
        if lo < q_a < hi and 0.0 < q_b < 0.5:
            words = ("a" * n + "b", "a" * (n + 1) + "b")
        if lo < q_b < hi and 0.0 < q_a < 0.5:
            words = ("a" + "b" * n, "a" + "b" * (n + 1))
    return bool(words) and all(_is_hyperbolic_word(fa, fb, w) for w in words)


def _is_hyperbolic_word(fa: DiscMoebius, fb: DiscMoebius, word: str) -> bool:
    f = None
    for ch in word:
        g = fa if ch == "a" else fb
        f = g if f is None else f.compose(g)
    return f.trace_squared > 4.0

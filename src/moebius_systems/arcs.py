"""Finite unions of circular arcs and the expansion geometry of a map.

Open arcs are the stored primitive; closures are a query-time view
(ClosedArcSet).  An arc is a pair (start, length) with the start angle
canonical in [0, 2*pi) and the length in (0, 2*pi]; length exactly 2*pi
is the circle minus the start point, while the genuinely full circle is
a separate flag.  Arcs shorter than EPS_ANGLE are treated as numerical
noise and dropped, which is also what "empty" means throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyArcSet, IsRotation
from .transforms import EPS_ROTATION, DiscMoebius, TAU, canon_angle, circle_distance

EPS_ANGLE = 1e-9   # endpoint tolerance for canonicalization and equality
EPS_GAP = 1e-10    # gaps narrower than this count as covered


def _merged(items, join):
    """Sort raw (start, length) pairs and merge per the join predicate.

    join(gap) decides merging from the signed gap between the running end
    and the next start (negative gap = overlap).  Wraparound past 2*pi is
    resolved by folding spilled coverage back onto the leading arcs.
    """
    arcs = sorted((canon_angle(s), min(l, TAU)) for s, l in items if l > EPS_ANGLE)
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


@dataclass(frozen=True)
class ArcSet:
    """Canonical finite union of disjoint open arcs (or the full circle)."""

    arcs: tuple[tuple[float, float], ...] = ()
    full: bool = False

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls) -> "ArcSet":
        return cls((), False)

    @classmethod
    def full_circle(cls) -> "ArcSet":
        return cls((), True)

    @classmethod
    def from_arcs(cls, items) -> "ArcSet":
        """Canonicalize raw (start, length) pairs; overlapping arcs merge,
        arcs that merely share an endpoint stay separate (open sets)."""
        merged = _merged(items, lambda gap: gap < -EPS_ANGLE)
        if not merged:
            return cls.empty()
        if len(merged) == 1 and merged[0][1] > TAU + EPS_ANGLE:
            return cls.full_circle()
        if merged[0][1] > TAU:
            merged[0][1] = TAU
        return cls(tuple((s, l) for s, l in merged), False)

    @classmethod
    def arc(cls, start: float, end: float) -> "ArcSet":
        """Open arc from start to end, counterclockwise."""
        length = (end - start) % TAU
        if length == 0.0 and end != start:
            length = TAU
        return cls.from_arcs([(start, length)])

    # -- queries ------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.full and not self.arcs

    def length(self) -> float:
        if self.full:
            return TAU
        return sum(l for _, l in self.arcs)

    def contains(self, theta: float) -> bool:
        if self.full:
            return True
        for s, l in self.arcs:
            d = (theta - s) % TAU
            if 0.0 < d < l:
                return True
        return False

    def contains_many(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorized open membership for an array of angles."""
        if self.full:
            return np.ones(len(thetas), dtype=bool)
        out = np.zeros(len(thetas), dtype=bool)
        for s, l in self.arcs:
            d = (thetas - s) % TAU
            out |= (d > 0.0) & (d < l)
        return out

    # -- set algebra ----------------------------------------------------------

    def intersect(self, other: "ArcSet") -> "ArcSet":
        if self.full:
            return other
        if other.full:
            return self
        if self.is_empty or other.is_empty:
            return ArcSet.empty()
        out = []
        for s1, l1 in self.arcs:
            e1 = s1 + l1
            for s2, l2 in other.arcs:
                for shift in (-TAU, 0.0, TAU):
                    s = max(s1, s2 + shift)
                    e = min(e1, s2 + shift + l2)
                    if e - s > EPS_ANGLE:
                        out.append((s, e - s))
        return ArcSet.from_arcs(out)

    def union(self, other: "ArcSet") -> "ArcSet":
        if self.full or other.full:
            return ArcSet.full_circle()
        return ArcSet.from_arcs(self.arcs + other.arcs)

    def complement(self) -> "ArcSet":
        """Interior of the set complement (endpoints belong to neither side)."""
        if self.full:
            return ArcSet.empty()
        if not self.arcs:
            return ArcSet.full_circle()
        out = []
        n = len(self.arcs)
        for i, (s, l) in enumerate(self.arcs):
            nxt = self.arcs[(i + 1) % n][0] + (TAU if i == n - 1 else 0.0)
            gap = nxt - (s + l)
            if gap > EPS_ANGLE:
                out.append((s + l, gap))
        return ArcSet.from_arcs(out)

    def closure(self) -> "ClosedArcSet":
        """Closed view; arcs sharing an endpoint merge."""
        if self.full:
            return ClosedArcSet.full_circle()
        if not self.arcs:
            return ClosedArcSet.empty()
        merged = _merged(self.arcs, lambda gap: gap <= EPS_ANGLE)
        if len(merged) == 1 and merged[0][1] >= TAU - EPS_ANGLE:
            return ClosedArcSet.full_circle()
        return ClosedArcSet(tuple((s, min(l, TAU)) for s, l in merged))

    # -- comparison -----------------------------------------------------------

    def distance(self, other: "ArcSet") -> float:
        """Max endpoint deviation between canonical forms; inf if the arc
        structure differs.  Used for numerical state deduplication."""
        if self.full or other.full:
            return 0.0 if (self.full and other.full) else math.inf
        if len(self.arcs) != len(other.arcs):
            return math.inf
        n = len(self.arcs)
        if n == 0:
            return 0.0
        best = math.inf
        for k in range(n):
            worst = 0.0
            for i in range(n):
                s1, l1 = self.arcs[i]
                s2, l2 = other.arcs[(i + k) % n]
                worst = max(worst, circle_distance(s1, s2), abs(l1 - l2))
                if worst >= best:
                    break
            best = min(best, worst)
        return best

    def approx_eq(self, other: "ArcSet", tol: float = 1e-8) -> bool:
        return self.distance(other) <= tol


@dataclass(frozen=True)
class ClosedArcSet:
    """Closed arcs for membership/length/extremum queries.

    Arc lengths may be 0 (a single point), which never arises from
    closure() but can be constructed directly.
    """

    arcs: tuple[tuple[float, float], ...] = ()
    full: bool = False

    @classmethod
    def empty(cls) -> "ClosedArcSet":
        return cls((), False)

    @classmethod
    def full_circle(cls) -> "ClosedArcSet":
        return cls((), True)

    @property
    def is_empty(self) -> bool:
        return not self.full and not self.arcs

    def length(self) -> float:
        return TAU if self.full else sum(l for _, l in self.arcs)

    def contains(self, theta: float, tol: float = 0.0) -> bool:
        if self.full:
            return True
        for s, l in self.arcs:
            d = (theta - s) % TAU
            if d <= l + tol or d >= TAU - tol:
                return True
        return False

    def component_containing(self, theta: float, tol: float = 0.0):
        """The (start, length) component holding theta, or None."""
        if self.full:
            return (0.0, TAU)
        for s, l in self.arcs:
            d = (theta - s) % TAU
            if d <= l + tol or d >= TAU - tol:
                return (s, l)
        return None


def closed_difference(a: ClosedArcSet, b: ClosedArcSet) -> tuple[tuple[float, float], ...]:
    """Components of a minus b as (start, length) pairs (boundary-insensitive)."""
    if a.is_empty or b.full:
        return ()
    a_arcs = ((0.0, TAU),) if a.full else a.arcs
    if b.is_empty:
        return a_arcs
    out = []
    for s, l in a_arcs:
        pieces = [(s, s + l)]
        for bs, bl in b.arcs:
            for shift in (-TAU, 0.0, TAU):
                lo, hi = bs + shift, bs + shift + bl
                nxt = []
                for ps, pe in pieces:
                    if hi <= ps or lo >= pe:
                        nxt.append((ps, pe))
                        continue
                    if lo > ps:
                        nxt.append((ps, lo))
                    if hi < pe:
                        nxt.append((hi, pe))
                pieces = nxt
        out.extend((canon_angle(ps), pe - ps) for ps, pe in pieces if pe - ps > 0.0)
    return tuple(out)


def covers_circle(sets, gap_tol: float = EPS_GAP) -> bool:
    """True iff the closures of the given arc sets cover the whole circle.

    Accepts ArcSet and ClosedArcSet instances; gaps narrower than gap_tol
    count as covered.
    """
    arcs = []
    for s in sets:
        c = s if isinstance(s, ClosedArcSet) else s.closure()
        if c.full:
            return True
        arcs.extend(c.arcs)
    if not arcs:
        return False
    starts = np.array([[s for s, _ in arcs]])
    ends = starts + np.array([[l for _, l in arcs]])
    return bool(_closed_arcs_cover(starts, ends, gap_tol)[0])


def _closed_arcs_cover(starts: np.ndarray, ends: np.ndarray,
                       gap_tol: float = EPS_GAP) -> np.ndarray:
    """Sweep test, one circle per row: do the closed arcs [start, end] of
    each row cover the circle?

    Starts lie in [0, 2*pi); an entry with start and end -inf is padding
    that never fails the sweep nor extends it, and a row of padding only
    is not covered.  Over the arcs in start order the reach is the
    running maximum of the ends, beginning at the coverage the arcs carry
    past 2*pi, so coverage wrapping around the origin counts.  A row
    fails where some start lies beyond the reach of the arcs before it.
    Only maxima, one addition and comparisons enter, so the order of
    equal starts cannot change a verdict.
    """
    order = np.argsort(starts, axis=1)
    starts = np.take_along_axis(starts, order, axis=1)
    reach = np.take_along_axis(ends, order, axis=1)
    del order
    np.maximum.accumulate(reach, axis=1, out=reach)
    floor = reach[:, -1:] - TAU  # the coverage carried past 2*pi
    covered = (reach[:, -1] >= TAU - gap_tol) & (starts[:, 0] <= floor[:, 0] + gap_tol)
    before = reach[:, :-1]  # the reach before each later arc, in place
    np.maximum(before, floor, out=before)
    before += gap_tol
    return covered & (starts[:, 1:] <= before).all(axis=1)


# -- geometry of a single transformation --------------------------------------


@dataclass(frozen=True)
class ExpansionGeometry:
    """Where a map contracts and its inverse expands.

    The inverse derivative exceeds 1 exactly on the disc of the given
    radius 1/|beta| around `center`; v_interval is that disc's trace on
    the circle and u_interval the arc the map carries onto it.
    """

    center: complex
    radius: float
    v_interval: ArcSet
    u_interval: ArcSet


def _v_arc(alpha: complex, beta: complex):
    """Expansion interval of the map with entries (alpha, beta) as a raw
    (start, length) pair, start in [0, 2*pi); None for rotations."""
    b = abs(beta)
    if b <= EPS_ROTATION:
        return None
    half = math.acos(b / math.sqrt(1.0 + b * b))
    center = cmath.phase(alpha / beta.conjugate())
    return ((center - half) % TAU, 2.0 * half)


def expansion_geometry(f: DiscMoebius) -> ExpansionGeometry:
    v_arc = _v_arc(f.alpha, f.beta)
    if v_arc is None:
        raise IsRotation("rotations have no expansion interval")
    b = abs(f.beta)
    u_center = cmath.phase(f.alpha.conjugate() / f.beta.conjugate())
    half_u = math.pi - 0.5 * v_arc[1]
    return ExpansionGeometry(
        center=f.alpha / f.beta.conjugate(),
        radius=1.0 / b,
        v_interval=ArcSet.from_arcs([v_arc]),
        u_interval=ArcSet.from_arcs([(u_center - half_u, 2.0 * half_u)]),
    )


def expansion_interval(f: DiscMoebius) -> ArcSet:
    """Arc where the inverse of f expands; empty for rotations."""
    if f.is_rotation:
        return ArcSet.empty()
    return expansion_geometry(f).v_interval


def image(f: DiscMoebius, a) -> "ArcSet":
    """Image of an arc set under f (endpoint mapping, orientation kept)."""
    if isinstance(a, ClosedArcSet):
        raise TypeError("image() operates on open ArcSets")
    if a.full:
        return ArcSet.full_circle()
    out = []
    for s, l in a.arcs:
        sa = f.apply_angle(s)
        ea = f.apply_angle(s + l)
        if l < TAU - 1e-6:
            # a proper sub-circle arc maps to one; its length is just the
            # counterclockwise endpoint gap
            glen = (ea - sa) % TAU
            if glen <= TAU - 1e-6:
                out.append((sa, glen))
                continue
            # near-full reading of a sub-full arc: either genuine expansion
            # or rounding flipped a microscopic image; midpoint settles it
        ma = f.apply_angle(s + 0.5 * l)
        h1 = (ma - sa) % TAU
        h2 = (ea - ma) % TAU
        # jitter guard: a half-image within rounding of a full turn is 0
        if h1 > TAU - EPS_ANGLE:
            h1 = 0.0
        if h2 > TAU - EPS_ANGLE:
            h2 = 0.0
        out.append((sa, h1 + h2))
    return ArcSet.from_arcs(out)


def min_inverse_derivative(f: DiscMoebius, region) -> float:
    """Exact minimum of the inverse derivative modulus of f over a closed set.

    The inverse derivative at x is 1/(|beta|^2 |x - d|^2) with d the
    expansion-disc center, so the minimum sits where |x - d| is largest:
    at an arc endpoint or at the antipode of d's direction.
    """
    closed = region if isinstance(region, ClosedArcSet) else region.closure()
    if closed.is_empty:
        raise EmptyArcSet("minimum over the empty set is undefined")
    if f.is_rotation:
        return 1.0
    b = abs(f.beta)
    d = f.alpha / f.beta.conjugate()
    ad = abs(d)
    dir_angle = cmath.phase(d)

    def dist2(theta):
        return 1.0 + ad * ad - 2.0 * ad * math.cos(theta - dir_angle)

    far = (1.0 + ad) ** 2
    if closed.full:
        best = far
    else:
        best = 0.0
        antipode = dir_angle + math.pi
        for s, l in closed.arcs:
            best = max(best, dist2(s), dist2(s + l))
            if (antipode - s) % TAU <= l:
                best = max(best, far)
    return 1.0 / (b * b * best)

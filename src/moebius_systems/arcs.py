"""Finite unions of circular arcs and the expansion geometry of a map.

Open arcs are the stored primitive; closures are a query-time view
(ClosedArcSet).  Both kinds keep one stored form, their shared base
_Arcs, and differ only in what their arcs mean: the set algebra is the
open kind's, membership of a closed arc the closed kind's.  An arc is a
pair (start, length) with the start angle canonical in [0, 2*pi) and
the length in (0, 2*pi]; length exactly 2*pi is the circle minus the
start point, while the genuinely full circle is a separate flag.  Arcs
shorter than EPS_ANGLE are treated as numerical noise and dropped, which
is also what "empty" means throughout.

Only raw input is merged: from_arcs (and so union) and closure sort and
merge their arcs, but for the closure of one arc already in stored form,
which cannot close up and is returned as it is.  intersect, complement
and image get disjoint pieces from canonical sets, so they build their
result from those pieces under the same rules (_canonical_pieces) with
no merge.

The set algebra builds its results through _built, which skips the
dataclass __init__ and sets the two fields through their slot
descriptors.  Its invariant: it is given only arcs in stored form,
sorted (start, length) pairs with canonical starts and lengths at most
2*pi as _canonical_pieces, a merge or image makes them, never raw input;
for no arcs it returns the class's shared empty set.  The empty set and
the full circle of each class are shared instances.  image maps each
arc's start and end inline with exactly the arithmetic of
DiscMoebius.apply_angle, so its result is bit for bit the one that
mapping them through apply_angle gives; the midpoint that settles a
near-full reading goes through apply_angle itself.  codec.decode maps its
point with the same arithmetic inline: change apply_angle, image and
decode together.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import EmptyArcSet, IsRotation
from .transforms import EPS_ROTATION, DiscMoebius, TAU

EPS_ANGLE = 1e-9   # endpoint tolerance for canonicalization and equality
EPS_NEAR_FULL = 1e-6  # image arcs this close to a full turn are re-measured via the midpoint


def _canonical_pieces(items) -> list[tuple[float, float]]:
    """Raw (start, length) pairs with canonical starts and lengths clamped
    to 2*pi, sorted, those no longer than EPS_ANGLE dropped."""
    out = []
    for s, l in items:
        if l > EPS_ANGLE:
            s %= TAU
            out.append((0.0 if s == TAU else s, TAU if TAU < l else l))
    out.sort()
    return out


def _merged(items, closed: bool):
    """Sort raw (start, length) pairs and merge those that overlap by more
    than EPS_ANGLE, or, for closed arcs, that come within EPS_ANGLE.

    The merge test reads the signed gap between the running end and the
    next start (negative gap = overlap).  Wraparound past 2*pi is
    resolved by folding spilled coverage back onto the leading arcs.
    """
    arcs = _canonical_pieces(items)
    if not arcs:
        return []
    merged = [list(arcs[0])]
    for s, l in arcs[1:]:
        last = merged[-1]
        ps, pl = last
        gap = s - (ps + pl)
        if (gap <= EPS_ANGLE) if closed else (gap < -EPS_ANGLE):
            reach = s + l - ps
            if reach > pl:
                last[1] = reach
        else:
            merged.append([s, l])
    while len(merged) > 1:
        s0, l0 = merged[0]
        last = merged[-1]
        sk, lk = last
        gap = (s0 + TAU) - (sk + lk)
        if (gap <= EPS_ANGLE) if closed else (gap < -EPS_ANGLE):
            reach = s0 + l0 + TAU - sk
            if reach > lk:
                last[1] = reach
            merged.pop(0)
        else:
            break
    return merged


def _built(cls, arcs: tuple):
    """The set of class cls holding arcs, which are already in stored form
    (see the module docstring); the shared empty set for no arcs."""
    if not arcs:
        return _EMPTY[cls]
    x = _new(cls)
    _set_arcs(x, arcs)
    _set_full(x, False)
    return x


@dataclass(frozen=True, slots=True)
class _Arcs:
    """The stored form of both kinds of arc set: sorted (start, length)
    pairs, or the full circle as a flag with no arcs."""

    arcs: tuple[tuple[float, float], ...] = ()
    full: bool = False

    @classmethod
    def empty(cls):
        return _EMPTY[cls]

    @classmethod
    def full_circle(cls):
        return _FULL[cls]

    @property
    def is_empty(self) -> bool:
        return not self.full and not self.arcs

    def length(self) -> float:
        return TAU if self.full else sum(l for _, l in self.arcs)


@dataclass(frozen=True, slots=True)
class ArcSet(_Arcs):
    """Canonical finite union of disjoint open arcs (or the full circle)."""

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_arcs(cls, items) -> "ArcSet":
        """Canonicalize raw (start, length) pairs; overlapping arcs merge,
        arcs that merely share an endpoint stay separate (open sets)."""
        merged = _merged(items, False)
        if not merged:
            return _EMPTY[cls]
        if len(merged) == 1 and merged[0][1] > TAU + EPS_ANGLE:
            return _FULL[cls]
        if merged[0][1] > TAU:
            merged[0][1] = TAU
        return _built(cls, tuple([(s, l) for s, l in merged]))

    @classmethod
    def arc(cls, start: float, end: float) -> "ArcSet":
        """Open arc from start to end, counterclockwise."""
        length = (end - start) % TAU
        if length == 0.0 and end != start:
            length = TAU
        return cls.from_arcs([(start, length)])

    # -- queries ------------------------------------------------------------

    def contains(self, theta: float) -> bool:
        if self.full:
            return True
        for s, l in self.arcs:
            d = (theta - s) % TAU
            if 0.0 < d < l:
                return True
        return False

    # -- set algebra ----------------------------------------------------------

    def intersect(self, other: "ArcSet") -> "ArcSet":
        if self.full:
            return other
        if other.full:
            return self
        if not self.arcs or not other.arcs:
            return _EMPTY[ArcSet]
        out = []
        for s1, l1 in self.arcs:
            e1 = s1 + l1
            for s2, l2 in other.arcs:
                # the second arc a turn back, as it is and a turn on; the
                # later start and the earlier end win, the first arc's on ties
                for b in (s2 - TAU, s2, s2 + TAU):
                    s = b if b > s1 else s1
                    e = b + l2
                    if not e < e1:
                        e = e1
                    if e - s > EPS_ANGLE:
                        out.append((s, e - s))
        return _built(ArcSet, tuple(_canonical_pieces(out)))

    def union(self, other: "ArcSet") -> "ArcSet":
        if self.full or other.full:
            return _FULL[ArcSet]
        return ArcSet.from_arcs(self.arcs + other.arcs)

    def complement(self) -> "ArcSet":
        """Interior of the set complement (endpoints belong to neither side)."""
        if self.full:
            return _EMPTY[ArcSet]
        if not self.arcs:
            return _FULL[ArcSet]
        out = []
        n = len(self.arcs)
        for i, (s, l) in enumerate(self.arcs):
            nxt = self.arcs[(i + 1) % n][0] + (TAU if i == n - 1 else 0.0)
            gap = nxt - (s + l)
            out.append((s + l, gap))
        return _built(ArcSet, tuple(_canonical_pieces(out)))

    def closure(self) -> "ClosedArcSet":
        """Closed view; arcs sharing an endpoint merge.

        One arc already in stored form, a float start in (0, 2*pi) and
        EPS_ANGLE < length < 2*pi - EPS_ANGLE, is its own closure: the
        merge would keep it as it is and not close it up."""
        if self.full:
            return _FULL[ClosedArcSet]
        arcs = self.arcs
        if len(arcs) == 1:
            (s, l), = arcs
            if 0.0 < s < TAU and EPS_ANGLE < l < TAU - EPS_ANGLE and type(s) is float:
                return _built(ClosedArcSet, arcs)
        merged = _merged(arcs, True)
        if len(merged) == 1 and merged[0][1] >= TAU - EPS_ANGLE:
            return _FULL[ClosedArcSet]
        return _built(ClosedArcSet, tuple([(s, TAU if TAU < l else l) for s, l in merged]))

    # -- comparison -----------------------------------------------------------

    def distance(self, other: "ArcSet") -> float:
        """Max endpoint deviation between canonical forms; inf if the arc
        structure differs.  Used for numerical state deduplication."""
        if self.full or other.full:
            return 0.0 if (self.full and other.full) else math.inf
        mine, theirs = self.arcs, other.arcs
        n = len(mine)
        if n != len(theirs):
            return math.inf
        if n == 0:
            return 0.0
        best = math.inf
        for k in range(n):
            worst = 0.0
            for i in range(n):
                s1, l1 = mine[i]
                s2, l2 = theirs[(i + k) % n]
                # the larger of worst, the circle distance of the starts and
                # the length difference; the earlier one on ties.  |s1 - s2|,
                # since (s1 - s2) % TAU rounds a tiny negative to 2*pi; only
                # a directly built set can hold starts a turn apart
                d = s1 - s2
                if d < 0.0:
                    d = -d
                if d >= TAU:
                    d %= TAU
                if TAU - d < d:
                    d = TAU - d
                if d > worst:
                    worst = d
                d = l1 - l2
                if d < 0.0:
                    d = -d
                if d > worst:
                    worst = d
                if worst >= best:
                    break
            if worst < best:
                best = worst
        return best

    def approx_eq(self, other: "ArcSet", tol: float = 1e-8) -> bool:
        return self.distance(other) <= tol


@dataclass(frozen=True, slots=True)
class ClosedArcSet(_Arcs):
    """Closed arcs for membership/length/extremum queries.

    Arc lengths may be 0 (a single point), which never arises from
    closure() but can from image() or be constructed directly.
    """

    def contains(self, theta: float, tol: float = 0.0) -> bool:
        return self.component_containing(theta, tol) is not None

    def component_containing(self, theta: float, tol: float = 0.0):
        """The (start, length) component holding theta, or None."""
        if self.full:
            return (0.0, TAU)
        for s, l in self.arcs:
            d = (theta - s) % TAU
            if d <= l + tol or d >= TAU - tol:
                return (s, l)
        return None


_new = object.__new__
_set_arcs = _Arcs.arcs.__set__  # the slot descriptors, past the frozen __setattr__
_set_full = _Arcs.full.__set__
_EMPTY = {ArcSet: ArcSet(), ClosedArcSet: ClosedArcSet()}
_FULL = {ArcSet: ArcSet((), True), ClosedArcSet: ClosedArcSet((), True)}


def _uncovered(sets) -> ArcSet:
    """The points that the closure of none of the given arc sets holds: the
    complement of their union, taken by one merge of all their arcs, so
    gaps no wider than EPS_ANGLE are covered."""
    sets = list(sets)
    if any(a.full for a in sets):
        return _EMPTY[ArcSet]
    return ArcSet.from_arcs([arc for a in sets for arc in a.arcs]).complement()


def covers_circle(sets) -> bool:
    """True iff the closures of the given arc sets cover the whole circle;
    gaps no wider than EPS_ANGLE count as covered."""
    return _uncovered(sets).is_empty


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
    (start, length) pair, start in [0, 2*pi); None for rotations.

    The arc is centred at arg(alpha/conj(beta)) with half-width
    acos(|beta|/sqrt(1 + |beta|^2)), read through two exact identities
    (for |alpha|^2 - |beta|^2 = 1): the half-width is arctan(1/|beta|),
    which keeps its relative accuracy where the acos form loses it as its
    argument nears 1 (1.2e-12 rad off at |beta| = 1e4, 1e-8 at 1e8), and
    the centre is arg(alpha*beta), since dividing by conj(beta) and
    multiplying by beta turn by the same angle; alpha*beta overflows only
    past |beta| of about 1e154, far beyond the 1e8 at which float entries
    stop holding the determinant.  existence._v_arcs is the array form of
    the same formula."""
    b = abs(beta)
    if b <= EPS_ROTATION:
        return None
    half = math.atan(1.0 / b)
    return ((cmath.phase(alpha * beta) - half) % TAU, 2.0 * half)


def expansion_geometry(f: DiscMoebius) -> ExpansionGeometry:
    """The expansion geometry of f; a rotation raises IsRotation.  V is
    _v_arc's arc, and U the complementary arc centred at
    arg(conj(alpha)*beta), which is arg(conj(alpha)/conj(beta))."""
    v_arc = _v_arc(f.alpha, f.beta)
    if v_arc is None:
        raise IsRotation("rotations have no expansion interval")
    b = abs(f.beta)
    u_center = cmath.phase(f.alpha.conjugate() * f.beta)
    half_u = math.pi - 0.5 * v_arc[1]
    return ExpansionGeometry(
        center=f.alpha / f.beta.conjugate(),
        radius=1.0 / b,
        v_interval=ArcSet.from_arcs([v_arc]),
        u_interval=ArcSet.from_arcs([(u_center - half_u, 2.0 * half_u)]),
    )


def image(f: DiscMoebius, a):
    """Image of an ArcSet or a ClosedArcSet under f, of the same kind (endpoint
    mapping, orientation kept); a closed image keeps arcs of any length.
    Each endpoint t maps as in f.apply_angle(t)."""
    if a.full:
        return _FULL[type(a)]
    closed = type(a) is ClosedArcSet
    alpha, beta = f.alpha, f.beta
    cb, ca = beta.conjugate(), alpha.conjugate()
    exp, phase = cmath.exp, cmath.phase
    out = []
    for s, l in a.arcs:
        z = exp(1j * s)
        sa = phase((alpha * z + beta) / (cb * z + ca)) % TAU
        if sa == TAU:
            sa = 0.0
        z = exp(1j * (s + l))
        ea = phase((alpha * z + beta) / (cb * z + ca)) % TAU
        if ea == TAU:
            ea = 0.0
        if l < TAU - EPS_NEAR_FULL:
            # a proper sub-circle arc maps to one; its length is just the
            # counterclockwise endpoint gap
            glen = (ea - sa) % TAU
            if glen <= TAU - EPS_NEAR_FULL:
                if closed or glen > EPS_ANGLE:
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
        length = h1 + h2
        if closed or length > EPS_ANGLE:
            out.append((sa, TAU if TAU < length else length))
    # the mapped starts are canonical already; pieces are kept, clamped and
    # sorted as _canonical_pieces does, an open image dropping short ones
    out.sort()
    return _built(type(a), tuple(out))


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
    b2 = b * b
    d = f.alpha / f.beta.conjugate()
    return _least_on(closed, lambda t: 1.0 / (b2 * abs(cmath.exp(1j * t) - d) ** 2),
                     cmath.phase(d) + math.pi, 1.0 / (b2 * (1.0 + abs(d)) ** 2))


def _least_on(closed: ClosedArcSet, value, pole: float, at_pole: float) -> float:
    """Least of value(theta) over a nonempty closed arc set, for a value
    that grows with the angular distance from `pole`, where it is at_pole:
    the least value at an arc endpoint, or at_pole where an arc holds pole.
    The earliest of equal values is kept."""
    if closed.full:
        return at_pole
    best = math.inf
    for s, l in closed.arcs:
        v = value(s)
        if v < best:
            best = v
        v = value(s + l)
        if v < best:
            best = v
        if (pole - s) % TAU <= l and at_pole < best:
            best = at_pole
    return best

"""Disc-preserving Moebius transformations and their classification.

Every transformation is stored through the normalized matrix

    [ alpha        beta       ]
    [ conj(beta)   conj(alpha)],      |alpha|^2 - |beta|^2 = 1,

which is exactly the shape of the Moebius maps sending the closed unit
disc onto itself.  The matrix sign is canonicalized (Re alpha > 0, or
Re alpha == 0 and Im alpha >= 0) so equal maps compare equal; note the
two matrices +M and -M always describe the same map.

A map is normalized once, where it is built from outside data: the
constructor checks |alpha|^2 - |beta|^2 > EPS_NORM and divides by its
square root.  Products and inverses of maps are not normalized again.
The determinant of a product of n letters drifts from 1 by about n
rounding errors, whereas the difference of squares of large entries
cancels to noise, so re-measuring it would only add error.

Circle points are plain float angles in radians, canonical in [0, 2*pi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NotDiscPreserving, OrientationReversing, SingularMatrix

TAU = 2.0 * math.pi

EPS_NORM = 1e-12        # least |alpha|^2 - |beta|^2 a map may be built from
EPS_SINGULAR = 1e-12    # determinant threshold
EPS_SHAPE = 1e-9        # relative tolerance for the disc-preserving shape
EPS_TRACE = 1e-9        # band around trace^2 = 4 classified as parabolic
EPS_ROTATION = 1e-12    # |beta| below this counts as a rotation
EPS_IDENTITY = 1e-12    # a rotation with |alpha - 1| below this is the identity
EPS_DISTINCT = 1e-12    # unit complex numbers closer than this are one circle point
EPS_PENCIL = 1e-9       # imaginary part of a real pencil parameter left by rounding
EPS_SOLVED = 1e-9       # a solved map's angle error on its data, relative to the points' least separation


def canon_angle(theta: float) -> float:
    """Reduce an angle to the canonical interval [0, 2*pi); NaN stays NaN."""
    theta = theta % TAU
    return 0.0 if theta == TAU else theta


def circle_distance(a: float, b: float) -> float:
    """Distance between two angles measured along the circle."""
    d = (a - b) % TAU
    return min(d, TAU - d)


def angle_of(z: complex) -> float:
    return canon_angle(cmath.phase(z))


@dataclass(frozen=True)
class SpherePoint:
    """A point of the complex sphere: a finite value or the point at infinity."""

    value: complex | None = None

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __repr__(self):
        return "SpherePoint(inf)" if self.value is None else f"SpherePoint({self.value!r})"


INFINITY = SpherePoint(None)


@dataclass(frozen=True)
class MoebiusClass:
    """Classification of a transformation together with its fixed points.

    kind is one of 'identity', 'elliptic', 'parabolic', 'hyperbolic'.
    Boundary fixed points are reported as angles; the elliptic fixed
    point inside the disc is a complex number.
    """

    kind: str
    trace_squared: float
    stable: float | None = None
    unstable: float | None = None
    fixed: float | None = None
    interior: complex | None = None


@dataclass(frozen=True)
class KAKDecomposition:
    """Rotation-contraction-rotation factorization R_phi1 . C_r . R_phi2."""

    phi1: float
    r: float
    phi2: float

    def recompose(self) -> "DiscMoebius":
        return rotation(self.phi1).compose(contraction(self.r)).compose(rotation(self.phi2))


@dataclass(frozen=True, slots=True)
class DiscMoebius:
    """A disc-preserving Moebius transformation in canonical normalized form."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        a = complex(self.alpha)
        b = complex(self.beta)
        n2 = abs(a) * abs(a) - abs(b) * abs(b)
        if not n2 > EPS_NORM:
            raise NotDiscPreserving(
                f"|alpha|^2 - |beta|^2 = {n2:.3g} <= 0; not a disc-preserving pair"
            )
        s = 1.0 / math.sqrt(n2)
        self._set_canonical(a * s, b * s)

    def _set_canonical(self, a: complex, b: complex) -> None:
        """Store the entries under the one sign rule: Re alpha > 0, or
        Re alpha == 0 and Im alpha >= 0.  The fields are set through their
        slot descriptors, past the frozen __setattr__."""
        if a.real < 0.0 or (a.real == 0.0 and a.imag < 0.0):
            a, b = -a, -b
        _set_alpha(self, a)
        _set_beta(self, b)

    @staticmethod
    def _product(a: complex, b: complex) -> "DiscMoebius":
        """The map with entries that already have |a|^2 - |b|^2 = 1 up to
        rounding (a product of maps, or a formula of determinant 1): the
        sign is canonicalized by _set_canonical's rule, nothing is checked
        or rescaled, and no __init__ runs."""
        f = _new(DiscMoebius)
        f._set_canonical(a, b)
        return f

    # -- basic algebra ----------------------------------------------------

    def compose(self, other: "DiscMoebius") -> "DiscMoebius":
        """Matrix product: self applied after other."""
        a1, b1 = self.alpha, self.beta
        a2, b2 = other.alpha, other.beta
        return DiscMoebius._product(a1 * a2 + b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate())

    def inverse(self) -> "DiscMoebius":
        return DiscMoebius._product(self.alpha.conjugate(), -self.beta)

    def apply(self, z) -> SpherePoint:
        """Apply to a point of the sphere (complex or SpherePoint)."""
        if isinstance(z, SpherePoint):
            if z.is_infinity:
                if self.beta == 0:
                    return INFINITY
                return SpherePoint(self.alpha / self.beta.conjugate())
            z = z.value
        z = complex(z)
        den = self.beta.conjugate() * z + self.alpha.conjugate()
        if den == 0:
            return INFINITY
        return SpherePoint((self.alpha * z + self.beta) / den)

    def apply_angle(self, theta: float) -> float:
        """Image of the circle point e^(i*theta), returned as an angle.
        arcs.image maps arc endpoints, and codec.decode its point, with this
        arithmetic written inline: change apply_angle, image and decode
        together."""
        z = cmath.exp(1j * theta)
        w = (self.alpha * z + self.beta) / (self.beta.conjugate() * z + self.alpha.conjugate())
        return canon_angle(cmath.phase(w))

    # -- structure ---------------------------------------------------------

    @property
    def trace_squared(self) -> float:
        t = 2.0 * self.alpha.real
        return t * t

    @property
    def is_rotation(self) -> bool:
        return abs(self.beta) <= EPS_ROTATION

    @property
    def is_identity(self) -> bool:
        return self.is_rotation and abs(self.alpha - 1.0) <= EPS_IDENTITY

    def classify(self) -> MoebiusClass:
        """Elliptic / parabolic / hyperbolic taxonomy with fixed-point data.

        trace^2 within EPS_TRACE of 4 counts as parabolic (exact equality
        has measure zero in floats); the identity is reported separately.
        """
        t2 = self.trace_squared
        if self.is_identity:
            return MoebiusClass("identity", t2)
        if self.is_rotation:
            return MoebiusClass("elliptic", t2, interior=0j)
        bc = self.beta.conjugate()
        if abs(t2 - 4.0) <= EPS_TRACE:
            z = 1j * self.alpha.imag / bc
            z /= abs(z)
            return MoebiusClass("parabolic", t2, fixed=angle_of(z))
        tr = 2.0 * self.alpha.real
        if t2 > 4.0:
            # canonical sign makes tr > 2, so lam1 > 1 > lam2 = 1/lam1;
            # the fixed point of the larger eigenvalue is the stable one
            lam1 = (tr + math.sqrt(t2 - 4.0)) / 2.0
            zs = lam1 - self.alpha.conjugate()
            zu = 1.0 / lam1 - self.alpha.conjugate()
            zs, zu = zs / bc, zu / bc
            return MoebiusClass(
                "hyperbolic", t2,
                stable=angle_of(zs / abs(zs)),
                unstable=angle_of(zu / abs(zu)),
            )
        lam = (tr + 1j * math.sqrt(4.0 - t2)) / 2.0
        z1 = (lam - self.alpha.conjugate()) / bc
        z2 = (lam.conjugate() - self.alpha.conjugate()) / bc
        return MoebiusClass("elliptic", t2, interior=z1 if abs(z1) < 1.0 else z2)

    def decompose(self) -> KAKDecomposition:
        """Factor as rotation . contraction . rotation.

        For rotations the representative (2*arg alpha, 1, 0) is returned;
        otherwise the factors are unique.
        """
        if self.is_rotation:
            return KAKDecomposition(canon_angle(2.0 * cmath.phase(self.alpha)), 1.0, 0.0)
        r = abs(self.alpha) + abs(self.beta)
        pa, pb = cmath.phase(self.alpha), cmath.phase(self.beta)
        return KAKDecomposition(canon_angle(pa + pb), r, canon_angle(pa - pb))

    def approx_eq(self, other: "DiscMoebius", tol: float = 1e-9) -> bool:
        """Equality as maps (insensitive to the matrix-sign ambiguity)."""
        da = abs(self.alpha - other.alpha) + abs(self.beta - other.beta)
        db = abs(self.alpha + other.alpha) + abs(self.beta + other.beta)
        return min(da, db) <= tol

    def __repr__(self):
        return f"DiscMoebius(alpha={self.alpha:.12g}, beta={self.beta:.12g})"


_new = object.__new__
_set_alpha = DiscMoebius.alpha.__set__
_set_beta = DiscMoebius.beta.__set__


# -- powers -----------------------------------------------------------------


def parabolic_scale(f: DiscMoebius) -> float | None:
    """The factor c for which c times f's stored matrix has determinant 1
    and trace exactly 2, or None when there is none.

    For that unit-determinant matrix M, Cayley-Hamilton gives
    M^k = k M - (k - 1) I.  The test is exact on the float entries: with
    Re alpha > 0 (the canonical sign) it asks |alpha|^2 - |beta|^2 =
    (Re alpha)^2, that is (Im alpha)^2 = |beta|^2, in integers, so a
    letter that rounding leaves slightly elliptic or hyperbolic fails it.
    """
    if f.alpha.real <= 0.0 or f.beta == 0:
        return None
    # (n/d)^2 == (p/e)^2 + (r/g)^2 with the floats' exact integer ratios
    (n, d), (p, e), (r, g) = (x.as_integer_ratio()
                              for x in (f.alpha.imag, f.beta.real, f.beta.imag))
    if (n * e * g) ** 2 != ((p * g) ** 2 + (r * e) ** 2) * d * d:
        return None
    return 1.0 / f.alpha.real


# -- constructors -----------------------------------------------------------


def identity() -> DiscMoebius:
    return DiscMoebius(1.0 + 0j, 0j)


def rotation(phi: float) -> DiscMoebius:
    """z -> e^(i*phi) z."""
    return DiscMoebius(cmath.exp(0.5j * phi), 0j)


def contraction(r: float) -> DiscMoebius:
    """The hyperbolic map fixing +-1 that contracts toward 1 when r > 1."""
    if r <= 0:
        raise ValueError("contraction parameter must be positive")
    # determinant 1 by formula; the checked constructor would cancel
    # (r + 1/r)^2 - (r - 1/r)^2 to 0 for large r
    return DiscMoebius._product(complex((r + 1.0 / r) / 2.0), complex((r - 1.0 / r) / 2.0))


def normalize(m) -> DiscMoebius:
    """Canonical DiscMoebius from a regular 2x2 complex matrix.

    Accepts any nested 2x2 sequence (lists, tuples, numpy array).  The
    matrix is scaled to determinant 1 and must then be conjugate-symmetric
    within EPS_SHAPE relative error, else NotDiscPreserving is raised.
    """
    a, b = complex(m[0][0]), complex(m[0][1])
    c, d = complex(m[1][0]), complex(m[1][1])
    det = a * d - b * c
    if abs(det) <= EPS_SINGULAR:
        raise SingularMatrix(f"determinant {det:.3g} is numerically zero")
    s = cmath.sqrt(det)
    a, b, c, d = a / s, b / s, c / s, d / s
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if abs(c - b.conjugate()) > EPS_SHAPE * scale or abs(d - a.conjugate()) > EPS_SHAPE * scale:
        raise NotDiscPreserving("matrix is not of the disc-preserving conjugate shape")
    return DiscMoebius((a + d.conjugate()) / 2.0, (b + c.conjugate()) / 2.0)


def from_real_line(a: float, b: float, c: float, d: float) -> DiscMoebius:
    """Disc map conjugate to x -> (a x + b)/(c x + d) on the extended real line.

    The conjugation is by the stereographic projection u(z) = (-iz+1)/(z-i);
    the matrix must preserve the upper half plane (positive determinant).
    """
    det = a * d - b * c
    if abs(det) <= EPS_SINGULAR:
        raise SingularMatrix("real-line matrix is singular")
    if det < 0:
        raise OrientationReversing("ad - bc < 0 maps the upper half plane to the lower")
    return DiscMoebius(complex(a + d, b - c), complex(b + c, a - d))


def stereographic(z) -> SpherePoint:
    """u: circle -> extended real line, u(z) = (-iz+1)/(z-i)."""
    if isinstance(z, SpherePoint):
        if z.is_infinity:
            return SpherePoint(-1j)
        z = z.value
    z = complex(z)
    den = z - 1j
    if den == 0:
        return INFINITY
    return SpherePoint((-1j * z + 1.0) / den)


def from_real(x) -> SpherePoint:
    """Inverse stereographic projection: real coordinate -> circle point;
    infinity (INFINITY or a float +-inf) goes to i."""
    x = math.inf if isinstance(x, SpherePoint) and x.is_infinity else complex(x)
    if cmath.isinf(x):
        return SpherePoint(1j)
    den = x + 1j
    if den == 0:
        return INFINITY
    return SpherePoint((1j * x + 1.0) / den)


def parabolic_map(fix: float, src: float, dst: float) -> DiscMoebius:
    """The unique parabolic disc map fixing `fix` and sending `src` to `dst`.

    All three arguments are circle angles.  Solved by rotating the fixed
    point to 1, where the parabolic pencil through 1 is the one-parameter
    family ((1+it, -it), (it, 1-it)).
    """
    bp = cmath.exp(1j * (dst - fix))
    cp = cmath.exp(1j * (src - fix))
    if min(abs(bp - 1), abs(cp - 1), abs(bp - cp)) < EPS_DISTINCT:
        raise ValueError("fix, src, dst must be three distinct circle points")
    t = (cp - bp) / (1j * (bp - 1.0) * (cp - 1.0))
    if abs(t.imag) > EPS_PENCIL:
        raise ValueError("no parabolic map for this configuration")
    t = t.real
    core = DiscMoebius._product(1.0 + 1j * t, -1j * t)  # determinant 1 by formula
    result = rotation(fix).compose(core).compose(rotation(-fix))
    # a map that misses dst by a fixed angle would pass an absolute check
    # on points closer than that angle, so the miss is measured against
    # the points' least separation
    separation = min(circle_distance(fix, src), circle_distance(src, dst),
                     circle_distance(dst, fix))
    if circle_distance(result.apply_angle(src), canon_angle(dst)) > EPS_SOLVED * separation:
        raise ValueError("parabolic solve failed to reproduce src -> dst")
    return result

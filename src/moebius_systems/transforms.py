"""Disc-preserving Moebius transformations and their classification.

Every transformation is stored through the normalized matrix

    [ alpha        beta       ]
    [ conj(beta)   conj(alpha)],      |alpha|^2 - |beta|^2 = 1,

which is exactly the shape of the Moebius maps sending the closed unit
disc onto itself.  The matrix sign is canonicalized (Re alpha > 0, or
Re alpha == 0 and Im alpha >= 0) so equal maps compare equal; note the
two matrices +M and -M always describe the same map.

Circle points are plain float angles in radians, canonical in [0, 2*pi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NotDiscPreserving, OrientationReversing, SingularMatrix

TAU = 2.0 * math.pi

EPS_NORM = 1e-12        # tolerance on |alpha|^2 - |beta|^2 - 1
EPS_SINGULAR = 1e-12    # determinant threshold
EPS_SHAPE = 1e-9        # relative tolerance for the disc-preserving shape
EPS_TRACE = 1e-9        # band around trace^2 = 4 classified as parabolic
EPS_ROTATION = 1e-12    # |beta| below this counts as a rotation
RENORM_MAX = 1e6        # entry size past which |alpha|^2 - |beta|^2 is noise


def canon_angle(theta: float) -> float:
    """Reduce an angle to the canonical interval [0, 2*pi)."""
    theta = theta % TAU
    return theta if theta < TAU else 0.0


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

    def __abs__(self) -> float:
        return math.inf if self.value is None else abs(self.value)

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


@dataclass(frozen=True)
class DiscMoebius:
    """A disc-preserving Moebius transformation in canonical normalized form."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        a = complex(self.alpha)
        b = complex(self.beta)
        # |a|^2 - |b|^2 = 1 holds to ~1e-16 relative under composition, but
        # evaluating the difference of squares cancels catastrophically once
        # the entries are large (deep words); renormalize only while the
        # difference still carries information.
        scale = max(abs(a), abs(b))
        if scale < RENORM_MAX:
            n2 = abs(a) * abs(a) - abs(b) * abs(b)
            if n2 <= EPS_NORM:
                raise NotDiscPreserving(
                    f"|alpha|^2 - |beta|^2 = {n2:.3g} <= 0; not a disc-preserving pair"
                )
            s = 1.0 / math.sqrt(n2)
            a *= s
            b *= s
        if a.real < 0.0 or (a.real == 0.0 and a.imag < 0.0):
            a, b = -a, -b
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    # -- basic algebra ----------------------------------------------------

    def compose(self, other: "DiscMoebius") -> "DiscMoebius":
        """Matrix product: self applied after other."""
        a1, b1 = self.alpha, self.beta
        a2, b2 = other.alpha, other.beta
        return DiscMoebius(a1 * a2 + b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate())

    def inverse(self) -> "DiscMoebius":
        return DiscMoebius(self.alpha.conjugate(), -self.beta)

    def matrix(self) -> list[list[complex]]:
        return [[self.alpha, self.beta], [self.beta.conjugate(), self.alpha.conjugate()]]

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
        """Image of the circle point e^(i*theta), returned as an angle."""
        z = cmath.exp(1j * theta)
        w = (self.alpha * z + self.beta) / (self.beta.conjugate() * z + self.alpha.conjugate())
        return canon_angle(cmath.phase(w))

    def derivative_modulus(self, theta: float) -> float:
        """|F'| at the circle point with the given angle."""
        z = cmath.exp(1j * theta)
        return 1.0 / abs(self.beta.conjugate() * z + self.alpha.conjugate()) ** 2

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
        return self.is_rotation and abs(self.alpha - 1.0) <= 1e-12

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

    def fixed_points(self) -> list[SpherePoint]:
        """Fixed points on the sphere, stable first for hyperbolic maps."""
        c = self.classify()
        if c.kind == "identity":
            return []
        if c.kind == "parabolic":
            return [SpherePoint(cmath.exp(1j * c.fixed))]
        if c.kind == "hyperbolic":
            return [SpherePoint(cmath.exp(1j * c.stable)), SpherePoint(cmath.exp(1j * c.unstable))]
        inner = c.interior
        outer = INFINITY if inner == 0 else SpherePoint(1.0 / inner.conjugate())
        return [SpherePoint(inner), outer]

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
    return DiscMoebius(complex((r + 1.0 / r) / 2.0), complex((r - 1.0 / r) / 2.0))


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
    """Inverse stereographic projection: real coordinate -> circle point."""
    if isinstance(x, SpherePoint) and x.is_infinity:
        return SpherePoint(1j)
    x = complex(x)
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
    if min(abs(bp - 1), abs(cp - 1), abs(bp - cp)) < 1e-12:
        raise ValueError("fix, src, dst must be three distinct circle points")
    t = (cp - bp) / (1j * (bp - 1.0) * (cp - 1.0))
    if abs(t.imag) > 1e-9:
        raise ValueError("no parabolic map for this configuration")
    t = t.real
    core = DiscMoebius(1.0 + 1j * t, -1j * t)
    result = rotation(fix).compose(core).compose(rotation(-fix))
    if circle_distance(result.apply_angle(src), canon_angle(dst)) > 1e-9:
        raise ValueError("parabolic solve failed to reproduce src -> dst")
    return result


def random_disc_moebius(rng, beta_scale: float = 1.0, rotations_ok: bool = False) -> DiscMoebius:
    """Random transformation; beta is complex normal scaled by beta_scale."""
    while True:
        b = complex(rng.gauss(0.0, beta_scale), rng.gauss(0.0, beta_scale))
        if not rotations_ok and abs(b) <= 1e-6:
            continue
        a = math.sqrt(1.0 + abs(b) ** 2) * cmath.exp(1j * rng.uniform(0.0, TAU))
        return DiscMoebius(a, b)

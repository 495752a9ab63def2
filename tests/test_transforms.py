"""Transformation algebra: construction, composition, classification."""

import cmath
import math
import random

import numpy as np
import pytest

from moebius_systems.errors import NotDiscPreserving, OrientationReversing, SingularMatrix
from moebius_systems.systems import builtin
from moebius_systems.transforms import (
    INFINITY,
    DiscMoebius,
    SpherePoint,
    TAU,
    canon_angle,
    circle_distance,
    contraction,
    from_real,
    from_real_line,
    identity,
    normalize,
    parabolic_map,
    parabolic_scale,
    rotation,
    stereographic,
)
from reference import derivative_modulus, random_disc_moebius

S8 = 2.0 * math.sqrt(2.0)


def binary_f0():
    return normalize([[3 / S8, -1j / S8], [1j / S8, 3 / S8]])


def cf_f0():
    return normalize([[-1j, 0], [0, 1j]])


def cf_f1():
    return normalize([[(2 + 1j) / 2, 0.5], [0.5, (2 - 1j) / 2]])


# -- normalize ---------------------------------------------------------------


def test_normalize_binary_matrix():
    f = binary_f0()
    assert abs(f.alpha - 3 / S8) < 1e-15
    assert abs(f.beta - (-1j / S8)) < 1e-15


def test_normalize_identity():
    f = normalize([[1, 0], [0, 1]])
    assert f.is_identity


def test_normalize_rejects_diagonal_stretch():
    with pytest.raises(NotDiscPreserving):
        normalize([[2, 0], [0, 0.5]])
    # oracle: that matrix fixes 0 but moves the circle off itself
    assert abs(2 * 1.0 / 0.5) != 1.0


def test_normalize_rejects_singular():
    with pytest.raises(SingularMatrix):
        normalize([[1, 1], [1, 1]])


def test_normalize_rejects_inversion():
    with pytest.raises(NotDiscPreserving):
        normalize([[0, 1], [1, 0]])  # z -> 1/z turns the disc inside out


def test_normalize_accepts_scalar_multiples():
    f = binary_f0()
    g = normalize([[3 * 1j, 1], [-1, 3 * 1j]])  # i * (unnormalized F0 matrix)
    assert g.approx_eq(normalize([[3, -1j], [1j, 3]]))
    assert f.approx_eq(g)


def test_constructor_normalizes_or_rejects():
    f = DiscMoebius(2, 1)
    assert abs(f.alpha - 2 / math.sqrt(3)) < 1e-15 and abs(f.beta - 1 / math.sqrt(3)) < 1e-15
    with pytest.raises(NotDiscPreserving):
        DiscMoebius(1, 2)


@pytest.mark.parametrize("r", [0.0, -2.0])
def test_contraction_needs_a_positive_parameter(r):
    with pytest.raises(ValueError, match="contraction parameter must be positive"):
        contraction(r)


@pytest.mark.parametrize("a", [
    complex(-0.75, 1.0), complex(0.75, -1.0), complex(-1.25, 0.0), complex(-1.25, -0.0),
    complex(0.0, 1.25), complex(0.0, -1.25), complex(-0.0, 1.25), complex(-0.0, -1.25),
])
@pytest.mark.parametrize("b", [complex(0.75, 0.0), complex(-0.0, -0.75)])
def test_product_takes_the_checked_constructors_sign_rule(a, b):
    # |a| = 1.25 and |b| = 0.75 in floats, so the checked constructor
    # scales by exactly 1; Re alpha < 0, and Re alpha = +-0.0 with
    # Im alpha < 0, flip both entries, bit for bit
    flip = a.real < 0.0 or (a.real == 0.0 and a.imag < 0.0)
    got = DiscMoebius._product(a, b)
    assert repr((got.alpha, got.beta)) == repr((-a, -b) if flip else (a, b))
    checked = DiscMoebius(a, b)
    assert checked == got and hash(checked) == hash(got)
    assert checked.alpha.real > 0.0 or (checked.alpha.real == 0.0 and checked.alpha.imag > 0.0)


def test_contraction_is_built_from_its_formula():
    # (r + 1/r)/2 and (r - 1/r)/2 round to the same float here, so a
    # checked difference of squares would be 0
    assert derivative_modulus(contraction(1e9), 0.0) == 1e-18


# -- from_real_line ----------------------------------------------------------


def test_real_line_translation_is_cf_f1():
    f = from_real_line(1, 1, 0, 1)
    assert f.approx_eq(cf_f1(), 1e-12)


def test_real_line_identity():
    assert from_real_line(1, 0, 0, 1).is_identity


def test_real_line_halving_is_binary_f0():
    assert from_real_line(1, 0, 0, 2).approx_eq(binary_f0(), 1e-12)


def test_real_line_rejects_singular_and_reversing():
    with pytest.raises(SingularMatrix):
        from_real_line(1, 2, 2, 4)
    with pytest.raises(OrientationReversing):
        from_real_line(0, 1, 1, 0)


def test_real_line_matches_explicit_conjugation():
    # oracle: conjugate by the stereographic projection as raw matrices
    rng = random.Random(1)
    u = np.array([[-1j, 1], [1, -1j]])
    u_inv = np.array([[1j, 1], [1, 1j]])
    for _ in range(50):
        a, b, c, d = (rng.uniform(-3, 3) for _ in range(4))
        if a * d - b * c <= 1e-3:
            continue
        m = u_inv @ np.array([[a, b], [c, d]]) @ u
        assert from_real_line(a, b, c, d).approx_eq(normalize(m), 1e-9)


# -- compose / apply ----------------------------------------------------------


def test_compose_with_identity():
    f = binary_f0()
    assert f.compose(identity()).approx_eq(f)
    assert identity().compose(f).approx_eq(f)


def test_compose_with_inverse_is_identity():
    f = random_disc_moebius(random.Random(2))
    assert f.compose(f.inverse()).is_identity


def test_binary_f0_f2_inverse_pair():
    f2 = normalize([[3 / S8, 1j / S8], [-1j / S8, 3 / S8]])
    assert binary_f0().compose(f2).is_identity


def test_compose_matches_pointwise():
    rng = random.Random(3)
    for _ in range(300):
        f = random_disc_moebius(rng)
        g = random_disc_moebius(rng)
        theta = rng.uniform(0, TAU)
        lhs = f.compose(g).apply_angle(theta)
        rhs = f.apply_angle(g.apply_angle(theta))
        assert circle_distance(lhs, rhs) < 1e-9


def test_apply_identity_and_infinity():
    f = binary_f0()
    assert identity().apply(0.3 + 0.1j).value == 0.3 + 0.1j
    w = f.apply(INFINITY)
    assert abs(w.value - f.alpha / f.beta.conjugate()) < 1e-15
    assert rotation(1.0).apply(INFINITY).is_infinity


def test_apply_pole_goes_to_infinity():
    f = binary_f0()
    pole = -f.alpha.conjugate() / f.beta.conjugate()
    assert f.apply(pole).is_infinity


def test_cf_f0_negates():
    # on the circle the inversion digit acts as z -> -z
    assert abs(cf_f0().apply(1.0).value - (-1.0)) < 1e-15


def test_binary_f0_fixes_i():
    assert abs(binary_f0().apply(1j).value - 1j) < 1e-12


# -- derivative moduli, by the reference model ---------------------------------


def test_derivative_rotation_is_one():
    r = rotation(0.7)
    for theta in (0.0, 1.0, 4.0):
        assert abs(derivative_modulus(r, theta) - 1.0) < 1e-15


def test_derivative_binary_inverse_at_i():
    assert abs(derivative_modulus(binary_f0().inverse(), math.pi / 2) - 0.5) < 1e-12


def test_derivative_contraction_at_one():
    for r in (1.5, 2.0, 5.0):
        assert abs(derivative_modulus(contraction(r), 0.0) - 1.0 / r**2) < 1e-12


def test_derivative_matches_finite_differences():
    rng = random.Random(4)
    h = 1e-6
    for _ in range(100):
        f = random_disc_moebius(rng)
        theta = rng.uniform(0, TAU)
        forward = f.apply_angle(theta + h)
        backward = f.apply_angle(theta - h)
        numeric = circle_distance(forward, backward) / (2 * h)
        assert abs(numeric - derivative_modulus(f, theta)) < 1e-4 * max(1, numeric)


# -- classify -------------------------------------------------------------------


def test_classify_cf_f0_elliptic():
    c = cf_f0().classify()
    assert c.kind == "elliptic"
    assert c.trace_squared < 4
    assert abs(c.interior) < 1e-12  # rotation fixes the origin


def test_classify_cf_f1_parabolic_fixes_i():
    c = cf_f1().classify()
    assert c.kind == "parabolic"
    assert circle_distance(c.fixed, math.pi / 2) < 1e-12


def test_classify_binary_f0_hyperbolic():
    c = binary_f0().classify()
    assert c.kind == "hyperbolic"
    assert circle_distance(c.stable, 3 * math.pi / 2) < 1e-12   # -i
    assert circle_distance(c.unstable, math.pi / 2) < 1e-12     # +i


def test_classify_identity():
    assert identity().classify().kind == "identity"
    assert normalize([[-1, 0], [0, -1]]).classify().kind == "identity"


def test_classify_invariant_under_conjugation():
    rng = random.Random(5)
    for _ in range(200):
        f = random_disc_moebius(rng)
        m = random_disc_moebius(rng)
        g = m.compose(f).compose(m.inverse())
        assert abs(f.trace_squared - g.trace_squared) < 1e-9 * max(1, f.trace_squared)


def test_fixed_points_are_fixed():
    # the fixed points classify reports, which classify on the CLI prints:
    # the stable and unstable angles, the parabolic angle, and the elliptic
    # interior point with its reflection 1/conj(z) in the circle
    rng = random.Random(6)
    maps = [random_disc_moebius(rng) for _ in range(200)]
    maps += [parabolic_map(fix, fix + 1.0, fix + 2.0) for fix in (0.0, 0.7, 2.5, 4.0)]
    maps.append(rotation(1.0))
    kinds = set()
    for f in maps:
        c = f.classify()
        kinds.add(c.kind)
        if c.kind == "elliptic":
            points = [SpherePoint(c.interior),
                      INFINITY if c.interior == 0 else SpherePoint(1.0 / c.interior.conjugate())]
        else:
            angles = [c.stable, c.unstable] if c.kind == "hyperbolic" else [c.fixed]
            points = [SpherePoint(cmath.exp(1j * t)) for t in angles]
        for p in points:
            q = f.apply(p)
            if p.is_infinity:
                assert q.is_infinity
            else:
                assert abs(q.value - p.value) < 1e-8
    assert kinds == {"elliptic", "parabolic", "hyperbolic"}


def test_hyperbolic_derivative_product_is_one():
    rng = random.Random(7)
    seen = 0
    while seen < 100:
        f = random_disc_moebius(rng)
        c = f.classify()
        if c.kind != "hyperbolic":
            continue
        seen += 1
        prod = derivative_modulus(f, c.stable) * derivative_modulus(f, c.unstable)
        assert abs(prod - 1.0) < 1e-9
        assert derivative_modulus(f, c.stable) < 1.0 < derivative_modulus(f, c.unstable)


def test_parabolic_derivative_is_one_at_fixed_point():
    rng = random.Random(8)
    for _ in range(100):
        t = rng.uniform(-4, 4)
        m = random_disc_moebius(rng)
        f = m.compose(DiscMoebius(1 + 1j * t, -1j * t)).compose(m.inverse())
        c = f.classify()
        if c.kind != "parabolic":
            continue  # conjugation noise can tip out of the trace band
        assert abs(derivative_modulus(f, c.fixed) - 1.0) < 1e-6


def test_hyperbolic_iteration_converges_to_stable_point():
    rng = random.Random(9)
    f = binary_f0()
    target = cmath.exp(1j * f.classify().stable)
    for _ in range(100):
        z = SpherePoint(complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)))
        for _ in range(500):
            z = f.apply(z)
            if not z.is_infinity and abs(z.value - target) < 1e-6:
                break
        assert not z.is_infinity and abs(z.value - target) < 1e-6


# -- decompose --------------------------------------------------------------------


def test_decompose_contraction():
    k = contraction(2.0).decompose()
    assert abs(k.phi1) < 1e-12 and abs(k.r - 2.0) < 1e-12 and abs(k.phi2) < 1e-12


def test_decompose_rotation_representative():
    k = rotation(math.pi / 3).decompose()
    assert circle_distance(k.phi1, math.pi / 3) < 1e-12
    assert k.r == 1.0 and k.phi2 == 0.0


def test_decompose_recomposes():
    rng = random.Random(10)
    samples = [TAU * i / 16 for i in range(16)]
    for _ in range(200):
        f = random_disc_moebius(rng, rotations_ok=True)
        g = f.decompose().recompose()
        for theta in samples:
            assert circle_distance(f.apply_angle(theta), g.apply_angle(theta)) < 1e-9
    # a deep word map, |alpha| about 8192: its entries come back to rounding
    f = builtin("binary").word_transform("0" * 25 + "1" * 3)
    g = f.decompose().recompose()
    assert abs(f.alpha) > 8000
    assert abs(g.alpha - f.alpha) <= 1e-12 * abs(f.alpha)
    assert abs(g.beta - f.beta) <= 1e-12 * abs(f.beta)


def test_parabolic_map_three_points():
    a, b, c = 0.0, TAU / 3, 2 * TAU / 3
    f = parabolic_map(a, c, b)
    assert f.classify().kind == "parabolic"
    assert circle_distance(f.apply_angle(c), b) < 1e-12
    assert circle_distance(f.apply_angle(a), a) < 1e-12


def test_parabolic_map_rejects_degenerate_points():
    with pytest.raises(ValueError):
        parabolic_map(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        parabolic_map(0.0, 1.0, 1.0)


def test_parabolic_map_rejects_close_points():
    # the solve at points 1e-11 apart sent src to 0.0, a miss of 2e-11 that
    # an absolute 1e-9 check let through; measured against the points'
    # separation, both close configurations are refused
    for sep in (1e-11, 1e-9):
        with pytest.raises(ValueError, match="failed to reproduce"):
            parabolic_map(0.0, sep, 2.0 * sep)
    # points a thousandth of a turn apart still solve
    f = parabolic_map(1.0, 1.0 + 1e-3 * TAU, 1.0 + 2e-3 * TAU)
    assert circle_distance(f.apply_angle(1.0 + 1e-3 * TAU), 1.0 + 2e-3 * TAU) < 1e-12


# -- plumbing -----------------------------------------------------------------------


def test_parabolic_scale_is_exact():
    from fractions import Fraction

    def oracle(f):  # trace 2 at determinant 1, in rationals
        re, im = Fraction(f.alpha.real), Fraction(f.alpha.imag)
        det = re * re + im * im - Fraction(f.beta.real) ** 2 - Fraction(f.beta.imag) ** 2
        return f.beta != 0 and re * re == det

    assert parabolic_scale(cf_f1()) == 1.0
    assert parabolic_scale(cf_f1().inverse()) == 1.0
    for f in (cf_f0(), binary_f0(), contraction(2.0), rotation(0.3), identity()):
        assert parabolic_scale(f) is None
    # the pencil member (1 + it, -it) of parabolic_map passes with dyadic t
    assert parabolic_scale(DiscMoebius(1.0 + 0.5j, -0.5j)) == 1.0
    # parabolic in exact arithmetic, but the floats of parabolic3's b are not
    assert parabolic_scale(parabolic_map(TAU / 3.0, 0.0, 2.0 * TAU / 3.0)) is None
    rng = random.Random(5)
    for _ in range(300):
        f = parabolic_map(*(rng.uniform(0.0, TAU) for _ in range(3)))
        assert (parabolic_scale(f) is not None) == oracle(f)
        if parabolic_scale(f) is not None:
            assert parabolic_scale(f) == 1.0 / f.alpha.real


def test_canon_angle_range():
    for theta in (-10.0, -1e-9, 0.0, TAU, TAU + 1e-9, 100.0):
        assert 0.0 <= canon_angle(theta) < TAU


def test_canon_angle_keeps_nan():
    assert math.isnan(canon_angle(math.nan))
    assert math.isnan(canon_angle(math.inf))


def test_from_real_sends_infinity_to_i():
    for x in (math.inf, -math.inf, INFINITY):
        assert from_real(x) == SpherePoint(1j)


def test_stereographic_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        x = rng.uniform(-50, 50)
        z = from_real(x)
        assert abs(abs(z.value) - 1.0) < 1e-12
        assert abs(stereographic(z).value - x) < 1e-9 * max(1, abs(x))
    assert stereographic(from_real(INFINITY).value).is_infinity

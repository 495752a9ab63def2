"""Arc-set algebra against a membership-sampling oracle, plus the
expansion geometry of single transformations."""

import math
import random

import numpy as np
import pytest

from moebius_systems.arcs import (
    _closed_arcs_cover,
    ArcSet,
    ClosedArcSet,
    closed_difference,
    covers_circle,
    expansion_geometry,
    expansion_interval,
    image,
    min_inverse_derivative,
)
from moebius_systems.errors import EmptyArcSet, IsRotation
from moebius_systems.transforms import (
    TAU,
    circle_distance,
    contraction,
    identity,
    normalize,
    random_disc_moebius,
    rotation,
)

ORACLE_ANGLES = np.linspace(0, TAU, 10_000, endpoint=False) + 1e-4


def random_arcset(rng, max_arcs=3):
    arcs = []
    for _ in range(rng.randint(0, max_arcs)):
        arcs.append((rng.uniform(0, TAU), rng.uniform(1e-3, TAU * 0.8)))
    return ArcSet.from_arcs(arcs)


def sampled(a):
    return a.contains_many(ORACLE_ANGLES)


# -- canonical form ------------------------------------------------------------


def test_intersect_with_full_circle():
    x = ArcSet.arc(0.3, 2.0)
    assert x.intersect(ArcSet.full_circle()) == x


def test_touching_open_arcs_are_disjoint():
    a = ArcSet.arc(0, math.pi)
    b = ArcSet.arc(math.pi, TAU)
    assert a.intersect(b).is_empty
    u = a.union(b)
    assert len(u.arcs) == 2  # the shared endpoints stay excluded
    assert not u.contains(math.pi) and not u.contains(0.0)


def test_intersection_example():
    got = ArcSet.arc(0, 3 * math.pi / 2).intersect(ArcSet.arc(math.pi, TAU))
    assert got.approx_eq(ArcSet.arc(math.pi, 3 * math.pi / 2), 1e-12)


def test_union_merges_overlap():
    got = ArcSet.arc(0, 1).union(ArcSet.arc(0.5, 2))
    assert got.approx_eq(ArcSet.arc(0, 2), 1e-12)


def test_complement_of_empty_is_full():
    assert ArcSet.empty().complement().full
    assert ArcSet.full_circle().complement().is_empty


def test_closure_includes_endpoint_and_merges():
    c = ArcSet.arc(0, math.pi).closure()
    assert c.contains(math.pi) and c.contains(0.0)
    both = ArcSet.arc(0, math.pi).union(ArcSet.arc(math.pi, TAU))
    assert both.closure().full


def test_wraparound_canonicalization():
    a = ArcSet.from_arcs([(TAU - 0.5, 1.0)])  # crosses zero
    assert a.contains(0.0) and a.contains(0.3) and not a.contains(1.0)
    b = a.union(ArcSet.arc(0.4, 1.5))
    assert b.approx_eq(ArcSet.arc(TAU - 0.5, 1.5), 1e-12)


def test_operations_match_membership_oracle():
    rng = random.Random(100)
    for _ in range(1000):
        a = random_arcset(rng)
        b = random_arcset(rng)
        sa, sb = sampled(a), sampled(b)
        assert np.array_equal(sampled(a.intersect(b)), sa & sb)
        assert np.array_equal(sampled(a.union(b)), sa | sb)
        assert np.array_equal(sampled(a.complement()), ~sa)


def test_de_morgan_and_involution():
    rng = random.Random(107)
    for _ in range(500):
        a = random_arcset(rng)
        b = random_arcset(rng)
        lhs = a.union(b).complement()
        rhs = a.complement().intersect(b.complement())
        assert lhs.distance(rhs) < 1e-9
        assert a.complement().complement().distance(a) < 1e-9


def test_distance_alignment_across_zero():
    a = ArcSet.from_arcs([(1e-8, 1.0), (3.0, 1.0)])
    b = ArcSet.from_arcs([(TAU - 1e-8, 1.0), (3.0, 1.0)])
    assert a.distance(b) < 1e-7


# -- image -----------------------------------------------------------------------


def test_image_under_identity_and_rotation():
    x = ArcSet.arc(0, math.pi / 2)
    assert image(identity(), x).approx_eq(x, 1e-12)
    got = image(rotation(math.pi / 2), x)
    assert got.approx_eq(ArcSet.arc(math.pi / 2, math.pi), 1e-12)


def test_image_round_trip():
    rng = random.Random(101)
    for _ in range(200):
        f = random_disc_moebius(rng)
        x = random_arcset(rng)
        back = image(f.inverse(), image(f, x))
        assert back.distance(x) < 1e-9


def test_image_full_circle():
    f = random_disc_moebius(random.Random(102))
    assert image(f, ArcSet.full_circle()).full


def test_image_membership_oracle():
    rng = random.Random(103)
    for _ in range(100):
        f = random_disc_moebius(rng)
        x = random_arcset(rng)
        got = image(f, x)
        for _ in range(50):
            theta = rng.uniform(0, TAU)
            if min(circle_distance(theta, s) for s, l in x.arcs or [(99, 0)]) < 1e-6:
                continue
            assert got.contains(f.apply_angle(theta)) == x.contains(theta) or \
                min(abs(circle_distance(f.apply_angle(theta), gs)) for gs, gl in got.arcs or [(99, 0)]) < 1e-6


# -- expansion geometry --------------------------------------------------------------


def test_contraction_geometry_values():
    g = expansion_geometry(contraction(2.0))
    assert abs(g.radius - 4.0 / 3.0) < 1e-12
    assert abs(abs(g.center) - 5.0 / 3.0) < 1e-12
    assert abs(g.v_interval.length() - 2 * math.acos(0.6)) < 1e-12


def test_rotation_has_no_geometry():
    with pytest.raises(IsRotation):
        expansion_geometry(rotation(1.0))
    assert expansion_interval(rotation(1.0)).is_empty


def test_geometry_invariants_random():
    rng = random.Random(104)
    for _ in range(500):
        f = random_disc_moebius(rng)
        g = expansion_geometry(f)
        b = abs(f.beta)
        assert abs(g.radius - 1.0 / b) < 1e-9 * g.radius
        assert abs(abs(g.center) - math.sqrt(1.0 / b**2 + 1.0)) < 1e-9 * abs(g.center)
        assert g.v_interval.length() < math.pi
        assert abs(g.u_interval.length() + g.v_interval.length() - TAU) < 1e-9
        assert image(f, g.u_interval).distance(g.v_interval) < 1e-8


def test_v_interval_is_where_inverse_expands():
    rng = random.Random(105)
    for _ in range(100):
        f = random_disc_moebius(rng)
        g = expansion_geometry(f)
        inv = f.inverse()
        for _ in range(20):
            theta = rng.uniform(0, TAU)
            s, l = g.v_interval.arcs[0]
            if min(circle_distance(theta, s), circle_distance(theta, s + l)) < 1e-6:
                continue
            if g.v_interval.contains(theta):
                assert inv.derivative_modulus(theta) > 1.0
            else:
                assert inv.derivative_modulus(theta) < 1.0


# -- min_inverse_derivative ------------------------------------------------------------


def test_min_derivative_rotation_and_empty():
    assert min_inverse_derivative(rotation(0.3), ArcSet.arc(0, 1)) == 1.0
    with pytest.raises(EmptyArcSet):
        min_inverse_derivative(contraction(2.0), ArcSet.empty())


def test_min_derivative_binary_powers_over_circle():
    s8 = 2 * math.sqrt(2)
    f0 = normalize([[3 / s8, -1j / s8], [1j / s8, 3 / s8]])
    f = identity()
    for n in range(1, 11):
        f = f.compose(f0)
        got = min_inverse_derivative(f, ArcSet.full_circle())
        assert abs(got - 0.5**n) < 1e-9


def test_min_derivative_degenerate_point_arc():
    got = min_inverse_derivative(contraction(2.0), ClosedArcSet(((0.0, 0.0),)))
    assert abs(got - 4.0) < 1e-12
    # oracle: the inverse derivative at the point itself
    assert abs(contraction(2.0).inverse().derivative_modulus(0.0) - 4.0) < 1e-12


def test_min_derivative_against_brute_force():
    rng = random.Random(106)
    grid = np.linspace(0, 1, 20_000)
    for _ in range(60):
        f = random_disc_moebius(rng)
        s = rng.uniform(0, TAU)
        l = rng.uniform(0.01, TAU - 0.01)
        arcs = ArcSet.from_arcs([(s, l)])
        inv = f.inverse()
        thetas = s + grid * l
        brute = min(inv.derivative_modulus(t) for t in thetas)
        got = min_inverse_derivative(f, arcs)
        assert got <= brute + 1e-12
        assert abs(got - brute) < 1e-4 * brute


# -- covers_circle -------------------------------------------------------------------


def test_covers_full_and_half():
    assert covers_circle([ArcSet.full_circle()])
    assert not covers_circle([ArcSet.arc(0, math.pi)])


def test_covers_exact_tiling():
    thirds = [ArcSet.arc(i * TAU / 3, (i + 1) * TAU / 3) for i in range(3)]
    assert covers_circle(thirds)
    assert not covers_circle(thirds[:2])


def test_covers_respects_gap_tolerance():
    a = ArcSet.arc(0, math.pi)
    b = ArcSet.arc(math.pi + 1e-11, TAU)        # gap below tolerance
    c = ArcSet.arc(math.pi + 1e-6, TAU)         # genuine gap
    assert covers_circle([a, b])
    assert not covers_circle([a, c])


def test_covers_counts_coverage_wrapping_past_zero():
    # the arc from 6.0 carries past 2*pi and closes the gap between 0.5
    # and 0.6 that the sweep from the smallest start meets first
    head, tail = ArcSet.arc(0, 0.5), ArcSet.arc(0.6, 6.1)
    assert covers_circle([head, ArcSet.from_arcs([(6.0, 1.0)]), tail])
    assert not covers_circle([head, ArcSet.from_arcs([(6.0, 0.5)]), tail])


def test_cover_sweep_rows_with_padding_match_single_sets():
    # one row per circle; (-inf, -inf) entries pad the rows to one width
    rng = random.Random(60)
    rows, want = [], []
    for _ in range(300):
        k = rng.randint(1, 6)
        arcs = [(rng.uniform(0, TAU), rng.uniform(0.7, 2.2) * TAU / k) for _ in range(k)]
        want.append(covers_circle([ArcSet.from_arcs([a]) for a in arcs]))
        row = [(s, s + l) for s, l in arcs] + [(-math.inf, -math.inf)] * (8 - k)
        rng.shuffle(row)
        rows.append(row)
    rows.append([(-math.inf, -math.inf)] * 8)
    want.append(False)
    table = np.array(rows)
    assert 50 < sum(want) < 250
    assert _closed_arcs_cover(table[:, :, 0], table[:, :, 1]).tolist() == want


def test_closed_difference():
    a = ArcSet.arc(0, 3).closure()
    b = ArcSet.arc(1, 2).closure()
    gaps = closed_difference(a, b)
    total = sum(l for _, l in gaps)
    assert abs(total - 2.0) < 1e-12
    assert closed_difference(a, ClosedArcSet.full_circle()) == ()

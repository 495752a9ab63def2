"""Arc-set algebra against a membership-sampling oracle, plus the
expansion geometry of single transformations, the value types, and the
frozen copy of the arc-set kernel in reference.py, which the kernel must
match bit for bit."""

import cmath
import dataclasses
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moebius_systems import interval_system
from moebius_systems.arcs import (
    EPS_ANGLE,
    EPS_NEAR_FULL,
    _canonical_pieces,
    ArcSet,
    ClosedArcSet,
    covers_circle,
    expansion_geometry,
    image,
    min_inverse_derivative,
)
from moebius_systems.errors import EmptyArcSet, IsRotation
from moebius_systems.existence import _closed_arcs_cover
from moebius_systems.sofic import build_automaton
from moebius_systems.systems import builtin
from moebius_systems.transforms import (
    TAU,
    DiscMoebius,
    circle_distance,
    contraction,
    identity,
    normalize,
    rotation,
)
from reference import (
    SAMPLE_ANGLES,
    contains_many,
    derivative_modulus,
    perturbed_builtin,
    random_arcset,
    random_disc_moebius,
    random_system,
    ref_canon,
    ref_canonical_pieces,
    ref_closure,
    ref_complement,
    ref_distance,
    ref_from_arcs,
    ref_image,
    ref_intersect,
    ref_min_inverse_derivative,
    ref_union,
    scalar_arcs_cover,
    turned_cover,
)

def sampled(a):
    return contains_many(a, SAMPLE_ANGLES)


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


def test_full_closed_circle_is_its_own_component():
    full = ClosedArcSet.full_circle()
    for theta in (0.0, 1.0, math.pi, TAU - 1e-12):
        assert full.component_containing(theta) == (0.0, TAU)


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


def test_distance_is_symmetric_across_zero():
    # (0.0 - 1e-17) % TAU rounds to 2*pi, which read 0.0 one way; so
    # build_automaton(eps_state=0), which merges at distance <= 0, merged
    # more than exact repeats
    a, b = ArcSet.arc(0.0, 1.0), ArcSet.arc(1e-17, 1.0)
    assert a.distance(b) == b.distance(a) == 1e-17
    assert not a.approx_eq(b, tol=0.0) and not b.approx_eq(a, tol=0.0)
    # a directly built set may hold a start a turn off [0, 2*pi)
    x, y = ArcSet(((TAU + 0.5, 1.0),)), ArcSet(((0.5, 1.0),))
    assert 0.0 <= x.distance(y) == y.distance(x) < 1e-15


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


def _assert_image_matches_sampling(f, x, missing):
    """image(f, x) holds f of dense samples of x and leaves out `missing`."""
    got = image(f, x)
    (s, l), = x.arcs
    for theta in np.linspace(s, s + l, 2001)[1:-1]:
        assert got.contains(f.apply_angle(theta))
    assert not got.full and not got.contains(missing)
    return got


def test_image_of_circle_minus_a_point_is_near_full():
    f = contraction(3.0)
    got = _assert_image_matches_sampling(f, ArcSet.from_arcs([(1.0, TAU)]), f.apply_angle(1.0))
    (s, l), = got.arcs
    assert circle_distance(s, f.apply_angle(1.0)) < 1e-12 and l == pytest.approx(TAU)


def test_image_of_sub_full_arc_reading_near_full():
    # the arc misses 4e-6 around the attracting fixed point 0; f shrinks that
    # gap by 1/9, so the endpoint gap of the image reads within
    # EPS_NEAR_FULL of a full turn and the midpoint decides its length
    delta = 2e-6
    x = ArcSet.from_arcs([(delta, TAU - 2 * delta)])
    assert TAU - x.arcs[0][1] > EPS_NEAR_FULL
    got = _assert_image_matches_sampling(contraction(3.0), x, 0.0)
    (_, l), = got.arcs
    assert TAU - l == pytest.approx(2 * delta / 9, rel=1e-6)
    assert TAU - l < EPS_NEAR_FULL


# -- expansion geometry --------------------------------------------------------------


def test_contraction_geometry_values():
    g = expansion_geometry(contraction(2.0))
    assert abs(g.radius - 4.0 / 3.0) < 1e-12
    assert abs(abs(g.center) - 5.0 / 3.0) < 1e-12
    assert abs(g.v_interval.length() - 2 * math.acos(0.6)) < 1e-12


def test_rotation_has_no_geometry():
    with pytest.raises(IsRotation):
        expansion_geometry(rotation(1.0))


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
                assert derivative_modulus(inv, theta) > 1.0
            else:
                assert derivative_modulus(inv, theta) < 1.0


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
    assert abs(derivative_modulus(contraction(2.0).inverse(), 0.0) - 4.0) < 1e-12


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
        brute = min(derivative_modulus(inv, t) for t in thetas)
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
    # a gap no wider than EPS_ANGLE counts as covered, as in the spec's
    # compatibility gaps
    a = ArcSet.arc(0, math.pi)
    b = ArcSet.arc(math.pi + 1e-11, TAU)        # gap below tolerance
    c = ArcSet.arc(math.pi + 1e-6, TAU)         # genuine gap
    d = ArcSet.arc(math.pi + 5e-10, TAU)        # below EPS_ANGLE
    assert covers_circle([a, b])
    assert not covers_circle([a, c])
    assert covers_circle([a, d])


def test_covers_counts_coverage_wrapping_past_zero():
    # the arc from 6.0 carries past 2*pi and closes the gap between 0.5
    # and 0.6 that the sweep from the smallest start meets first
    head, tail = ArcSet.arc(0, 0.5), ArcSet.arc(0.6, 6.1)
    assert covers_circle([head, ArcSet.from_arcs([(6.0, 1.0)]), tail])
    assert not covers_circle([head, ArcSet.from_arcs([(6.0, 0.5)]), tail])


def test_cover_sweep_rows_with_padding_match_single_sets():
    # the batched sweep of the existence map, one row per circle, against
    # the scalar sweep of each row's arcs; (-inf, -inf) entries pad the rows
    # to one width.  Both count gaps narrower than EPS_GAP as covered, so a
    # 5e-10 gap is open to them though covers_circle closes it.
    rng = random.Random(60)
    rows, want = [], []
    for _ in range(300):
        k = rng.randint(1, 6)
        arcs = [(rng.uniform(0, TAU), rng.uniform(0.7, 2.2) * TAU / k) for _ in range(k)]
        want.append(scalar_arcs_cover(arcs))
        row = [(s, s + l) for s, l in arcs] + [(-math.inf, -math.inf)] * (8 - k)
        rng.shuffle(row)
        rows.append(row)
    for gap, covered in ((5e-10, False), (5e-11, True)):
        arcs = [(0.0, math.pi), (math.pi + gap, math.pi - gap)]
        assert scalar_arcs_cover(arcs) is covered
        rows.append([(s, s + l) for s, l in arcs] + [(-math.inf, -math.inf)] * 6)
        want.append(covered)
    rows.append([(-math.inf, -math.inf)] * 8)
    want.append(False)
    table = np.array(rows)
    assert 50 < sum(want) < 250
    assert _closed_arcs_cover(table[:, :, 0], table[:, :, 1], np.empty(table.size)).tolist() == want


# -- value types -------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: ArcSet(((0.5, 1.0), (3.0, 0.25))),
    lambda: ClosedArcSet(((0.5, 1.0), (3.0, 0.0))),
    lambda: DiscMoebius(2.0 + 1.0j, 0.5 - 1.5j),
], ids=["ArcSet", "ClosedArcSet", "DiscMoebius"])
def test_value_types_are_frozen_slotted_and_picklable(make):
    value = make()
    assert not hasattr(value, "__dict__")
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, getattr(value, field.name))
    twin = make()
    assert twin == value and hash(twin) == hash(value)
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is type(value) and again == value and hash(again) == hash(value)


def test_kernel_built_sets_equal_constructed_ones():
    arcs = ((0.5, 1.0),)
    built = ArcSet.from_arcs([(0.5, 1.0)])
    assert built == ArcSet(arcs) and hash(built) == hash(ArcSet(arcs))
    assert ArcSet(arcs) != ClosedArcSet(arcs)
    assert ArcSet.empty() != ClosedArcSet.empty()
    assert ArcSet.full_circle() != ClosedArcSet.full_circle()
    assert ArcSet().intersect(built) is ArcSet.empty()
    assert built.closure() == ClosedArcSet(arcs)
    assert image(identity(), ArcSet.full_circle()) is ArcSet.full_circle()


@pytest.mark.parametrize("built, made", [
    (lambda: ArcSet.from_arcs([(3.0, 0.25), (0.5, 1.0)]),
     lambda: ArcSet(((0.5, 1.0), (3.0, 0.25)))),
    (lambda: ArcSet.arc(0.0, 2.0).intersect(ArcSet.arc(1.0, 3.0)), lambda: ArcSet(((1.0, 1.0),))),
    (lambda: ArcSet.from_arcs([(0.5, 1.0)]).closure(), lambda: ClosedArcSet(((0.5, 1.0),))),
    (lambda: ArcSet(((0.5, 1.0), (1.5, 1.0))).closure(), lambda: ClosedArcSet(((0.5, 2.0),))),
    (lambda: identity().compose(DiscMoebius(1.25 + 0j, 0.75 + 0j)),
     lambda: DiscMoebius(1.25 + 0j, 0.75 + 0j)),
    (lambda: contraction(2.0).inverse().inverse(), lambda: DiscMoebius(1.25 + 0j, 0.75 + 0j)),
], ids=["from_arcs", "intersect", "one-arc-closure", "merged-closure", "compose", "inverse"])
def test_slot_built_values_behave_as_constructed_ones(built, made):
    # the set algebra and the map products set their fields through the
    # slot descriptors; the values are those the checked constructors give
    value, twin = built(), made()
    assert type(value) is type(twin) and repr(value) == repr(twin)
    fields = [f.name for f in dataclasses.fields(value)]
    assert repr([getattr(value, f) for f in fields]) == repr([getattr(twin, f) for f in fields])
    assert value == twin and hash(value) == hash(twin)
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is type(value) and repr(again) == repr(value)
    assert again == value and hash(again) == hash(value)
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))


_EDGE_STARTS = [0.0, -0.0, 5e-324, 1.0, math.nextafter(TAU, 0.0), 1, np.float64(1.0)]
_EDGE_LENGTHS = [math.nextafter(EPS_ANGLE, 0.0), EPS_ANGLE, math.nextafter(EPS_ANGLE, 1.0), 1.0,
                 math.nextafter(TAU - EPS_ANGLE, 0.0), TAU - EPS_ANGLE,
                 math.nextafter(TAU - EPS_ANGLE, TAU), TAU]


@pytest.mark.parametrize("length", _EDGE_LENGTHS)
@pytest.mark.parametrize("start", _EDGE_STARTS, ids=repr)
def test_one_arc_closure_matches_the_reference_at_its_edges(start, length):
    # closure returns one float-start arc in stored form as it is; every
    # other one arc, a start of 0.0 or -0.0, an int or numpy start, or a
    # length within EPS_ANGLE of 0 or of a full turn, still goes through
    # the merge, which the frozen reference pins
    a = ArcSet(((start, length),))
    _assert_same(_pair(a.closure()), ref_closure(_pair(a)))


# -- bit-identity oracle -------------------------------------------------------------
#
# The kernel against the frozen copy in reference.py, on (arcs, full) pairs.


def _pair(x):
    return (x.arcs, x.full)


def _assert_same(got, want):
    assert repr(got) == repr(want)


def _assert_kernel_matches_reference(a, b, f):
    """Every kernel operation on the sets a, b (ArcSets, canonical or not)
    and the map f against the frozen copy."""
    pa, pb = _pair(a), _pair(b)
    _assert_same(_pair(a.intersect(b)), ref_intersect(pa, pb))
    _assert_same(_pair(b.intersect(a)), ref_intersect(pb, pa))
    _assert_same(_pair(a.union(b)), ref_union(pa, pb))
    _assert_same(_pair(a.complement()), ref_complement(pa))
    _assert_same(_pair(a.closure()), ref_closure(pa))
    _assert_same(a.distance(b), ref_distance(pa, pb))
    _assert_same(b.distance(a), ref_distance(pb, pa))
    _assert_same(_canonical_pieces(a.arcs), ref_canonical_pieces(pa[0]))
    _assert_same(_pair(image(f, a)), ref_image(f, pa, False))
    closed = ClosedArcSet(a.arcs, a.full)
    _assert_same(_pair(image(f, closed)), ref_image(f, pa, True))
    if not a.closure().is_empty:
        _assert_same(min_inverse_derivative(f, a),
                     ref_min_inverse_derivative(f, ref_closure(pa)))


ORACLE_SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def raw_arcs(draw, starts=(0.0, TAU), lengths=(0.0, 1.25 * TAU)):
    """Raw (start, length) pairs, lengths from 0 past a full turn."""
    length = st.one_of(st.floats(*lengths), st.sampled_from(
        [EPS_ANGLE, 2 * EPS_ANGLE, TAU - EPS_NEAR_FULL, TAU - EPS_ANGLE, TAU, TAU + EPS_ANGLE]))
    return draw(st.lists(st.tuples(st.floats(*starts), length), max_size=4))


@st.composite
def oracle_maps(draw):
    b = draw(st.one_of(st.floats(0.0, 3.0), st.floats(100.0, 1e4)))
    return DiscMoebius(math.sqrt(1.0 + b * b) * cmath.exp(1j * draw(st.floats(0.0, TAU))),
                       b * cmath.exp(1j * draw(st.floats(0.0, TAU))))


@ORACLE_SETTINGS
@given(raw_arcs(), raw_arcs(), oracle_maps())
def test_kernel_matches_frozen_reference_on_canonical_sets(raw_a, raw_b, f):
    a, b = ArcSet.from_arcs(raw_a), ArcSet.from_arcs(raw_b)
    _assert_same(_pair(a), ref_from_arcs(raw_a))
    _assert_same(_pair(b), ref_from_arcs(raw_b))
    _assert_kernel_matches_reference(a, b, f)


@ORACLE_SETTINGS
@given(raw_arcs(starts=(-2 * TAU, 3 * TAU)), raw_arcs(starts=(-2 * TAU, 3 * TAU)),
       oracle_maps())
def test_kernel_matches_frozen_reference_on_directly_built_sets(raw_a, raw_b, f):
    # ArcSet(...) stores its arcs as given: starts off [0, 2*pi), arcs
    # shorter than EPS_ANGLE or longer than a turn, in any order
    _assert_kernel_matches_reference(ArcSet(tuple(raw_a)), ArcSet(tuple(raw_b)), f)


def test_closure_of_one_directly_built_arc_is_canonical():
    (s, l), = ArcSet(((TAU + 0.5, 1.0),)).closure().arcs
    assert (s, l) == (ref_canon(TAU + 0.5), 1.0)
    assert ArcSet(((-1.0, 0.5 * EPS_ANGLE),)).closure().is_empty
    assert ArcSet(((3.0, TAU + 1.0),)).closure().full


BUILTINS = ["parabolic3", "cf", "binary", "hyperbolic4"]


def _recorded_pull_steps(spec, n_max: int, state_cap: int) -> list:
    """Every (z, a) that spec.pull_step is given by the interval-shift walk
    through level n_max and a sofic state search capped at state_cap."""
    seen = []
    step = spec.pull_step

    def recording(z, a):
        seen.append((z, a))
        return step(z, a)

    spec.pull_step = recording
    try:
        list(spec.interval_shift_levels(n_max))
        build_automaton(spec, state_cap=state_cap)
    finally:
        del spec.pull_step
    assert seen
    return seen


def _early_exits(spec, seen, monkeypatch) -> int:
    """Assert that pull_step equals image(F_a^-1, z).intersect(F_a^-1(C_a))
    bit for bit on every recorded input; return how many of the steps
    mapped nothing, by counting pull_step's calls of image."""
    calls = []
    early = 0
    with monkeypatch.context() as m:
        m.setattr(interval_system, "image", lambda g, z: calls.append(z) or image(g, z))
        for z, a in seen:
            before = len(calls)
            got = spec.pull_step(z, a)
            early += len(calls) == before
            _assert_same(_pair(got),
                         _pair(image(spec._inverses[a], z).intersect(spec._letter_pulls[a])))
    return early


@pytest.mark.parametrize("name", BUILTINS)
def test_kernel_matches_frozen_reference_on_pull_steps(name, monkeypatch):
    # every pull_step input of the interval-shift walk and the sofic state
    # search, on the builtin and on its cover turned 0.2 to 0.8 of a turn;
    # pull_step itself, early exit or not, equals the mapped step
    base = builtin(name)
    for spec in [base] + [turned_cover(base, t) for t in (0.2, 0.35, 0.5, 0.65, 0.8)]:
        seen = _recorded_pull_steps(spec, 5, 40)
        for z, a in seen:
            g, pulled = spec._inverses[a], spec._letter_pulls[a]
            mapped = image(g, z)
            _assert_same(_pair(mapped), ref_image(g, _pair(z), False))
            _assert_same(_pair(mapped.intersect(pulled)),
                         ref_intersect(_pair(mapped), _pair(pulled)))
            _assert_same(_pair(z.closure()), ref_closure(_pair(z)))
            _assert_same(z.distance(pulled), ref_distance(_pair(z), _pair(pulled)))
        _early_exits(spec, seen, monkeypatch)


def test_pull_step_early_exit_agrees_on_perturbed_builtins_and_random_systems(monkeypatch):
    # the family that certifies falsely and direction 2's random candidates:
    # letters that expand by up to r^2 = 1e8, or at random beta scales
    rng = random.Random(7)
    specs = [perturbed_builtin(builtin(name), r)
             for name in BUILTINS for r in (3.0, 10.0, 1e2, 1e3, 1e4)]
    specs += [random_system(rng) for _ in range(40)]
    steps = early = 0
    for spec in specs:
        seen = _recorded_pull_steps(spec, 6, 120)
        steps += len(seen)
        early += _early_exits(spec, seen, monkeypatch)
    assert 0 < early < steps

"""Property tests of the arc-set algebra and of refined sets.

intersect, complement and image cut their result out of canonical sets
without merging, so each property also checks that the result is in the
canonical form from_arcs would give it.  Examples are derandomized and no
example database is written.
"""

import cmath
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from moebius_systems.arcs import EPS_ANGLE, ArcSet, image  # noqa: E402
from moebius_systems.codec import decode  # noqa: E402
from moebius_systems.systems import builtin  # noqa: E402
from moebius_systems.transforms import TAU, DiscMoebius  # noqa: E402
from reference import refined_set  # noqa: E402

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=150,
                             deadline=None)
ANGLES = np.linspace(0.0, TAU, 720, endpoint=False) + 1e-4
ENDPOINT_MARGIN = 1e-6

angles = st.floats(0.0, TAU, exclude_max=True)


@st.composite
def arc_sets(draw, min_length=0.0, max_length=TAU, min_size=0):
    if draw(st.integers(0, 9)) == 0:
        return ArcSet.full_circle()
    arcs = draw(st.lists(st.tuples(angles, st.floats(min_length, max_length)),
                         min_size=min_size, max_size=4))
    return ArcSet.from_arcs(arcs)


@st.composite
def disc_maps(draw, b_max=3.0, b_min=0.0):
    b = draw(st.floats(b_min, b_max))
    beta = b * cmath.exp(1j * draw(angles))
    return DiscMoebius(math.sqrt(1.0 + b * b) * cmath.exp(1j * draw(angles)), beta)


def _endpoints(*sets):
    return [e % TAU for a in sets for s, l in a.arcs for e in (s, s + l)]


def _far_angles(*sets):
    """The sample angles farther than ENDPOINT_MARGIN from every endpoint."""
    ends = np.array(_endpoints(*sets))
    if not len(ends):
        return ANGLES
    d = np.abs((ANGLES[:, None] - ends[None, :] + math.pi) % TAU - math.pi)
    return ANGLES[d.min(axis=1) > ENDPOINT_MARGIN]


def _canonical(r: ArcSet) -> bool:
    return r.full or ArcSet.from_arcs(r.arcs) == r


@PROPERTY_SETTINGS
@given(arc_sets(), arc_sets())
def test_set_algebra_agrees_with_boolean_operations(a, b):
    meet, join, rest = a.intersect(b), a.union(b), a.complement()
    for r in (meet, join, rest):
        assert _canonical(r)
    for x in _far_angles(a, b, meet, join, rest):
        x = float(x)
        assert meet.contains(x) == (a.contains(x) and b.contains(x))
        assert join.contains(x) == (a.contains(x) or b.contains(x))
        assert rest.contains(x) == (not a.contains(x))


@PROPERTY_SETTINGS
@given(disc_maps(), arc_sets(min_length=1e-3))
def test_image_round_trip_is_canonical(f, a):
    there = image(f, a)
    assert _canonical(there)
    back = image(f.inverse(), there)
    assert _canonical(back)
    assert a.distance(back) <= 1e-9


def _closed_distance(p, q) -> float:
    """ArcSet.distance between the arcs of two closed sets."""
    if p.full or q.full:
        return 0.0 if p.full and q.full else math.inf
    return ArcSet(p.arcs).distance(ArcSet(q.arcs))


@PROPERTY_SETTINGS
@given(disc_maps(), arc_sets(min_length=1e-3, max_length=2.0, min_size=1))
def test_image_of_the_closure_is_the_closure_of_the_image(f, a):
    closed = image(f, a).closure()
    if not closed.is_empty:
        assert _closed_distance(image(f, a.closure()), closed) <= 1e-12


@PROPERTY_SETTINGS
@given(disc_maps(b_min=100.0, b_max=1e4), st.floats(2 * EPS_ANGLE, 1e-6), st.floats(0.0, 1.0))
def test_closed_image_keeps_an_arc_narrower_than_eps_angle(f, length, offset):
    # an arc at the centre of U(f), where f contracts by 1/(|alpha| + |beta|)^2
    # < 2.5e-5, maps to less than EPS_ANGLE: the open image drops it, the
    # closed one holds the images of its endpoints
    centre = cmath.phase(f.alpha.conjugate() / f.beta.conjugate())
    a = ArcSet.from_arcs([(centre - offset * length, length)])
    assert image(f, a).is_empty
    closed = image(f, a.closure())
    assert not closed.is_empty
    for s, l in a.closure().arcs:
        for end in (s, s + l):
            assert closed.contains(f.apply_angle(end), tol=1e-12)


@PROPERTY_SETTINGS
@given(st.sampled_from(["parabolic3", "cf", "binary", "hyperbolic4"]), angles,
       st.integers(1, 24))
def test_refined_sets_shrink_along_decoded_words(name, theta, n):
    spec = builtin(name)
    word = decode(spec, theta, n)
    for k in range(n):
        parent, child = refined_set(spec, word[:k]), refined_set(spec, word[: k + 1])
        assert child.intersect(parent.complement()).is_empty

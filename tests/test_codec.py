"""Encoder/decoder round trips, certificates, and system verification."""

import cmath
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from moebius_systems.arcs import ArcSet
from moebius_systems.codec import decode, encode, representable_interval, verify
from moebius_systems.errors import EmptyRefinedSet, IllegalPrefix, NoLegalDigit
from moebius_systems.interval_system import _PULL_TABLE_CAP, NumberSystemSpec
from moebius_systems.subshift import Subshift
from moebius_systems.systems import builtin, cf_digit_stream, classical_cf_terms, with_cover
from moebius_systems.transforms import TAU, canon_angle, circle_distance, from_real

S8 = 2 * math.sqrt(2)


def angle(z: complex) -> float:
    return canon_angle(cmath.phase(z))


# -- encode ------------------------------------------------------------------


def test_encode_cf_ones_approaches_i():
    cf = builtin("cf")
    res = encode(cf, "1" * 40, tol=1e-6)
    assert not res.converged  # unit translations converge only linearly
    assert circle_distance(res.angle, math.pi / 2) < 0.06
    # the disc center of the 40-fold translation is 2/40 + i
    predicted = (0.05 + 1j) / abs(0.05 + 1j)
    assert abs(res.point.value - predicted) < 1e-9


def test_encode_binary_zeros_approaches_minus_i():
    bi = builtin("binary")
    res = encode(bi, "0" * 80, tol=1e-8)
    assert res.converged
    assert circle_distance(res.angle, 3 * math.pi / 2) < 1e-8


def test_encode_radius_matches_matrix_power_oracle():
    bi = builtin("binary")
    m0 = np.array([[3, -1j], [1j, 3]]) / S8
    prev = math.inf
    for n in range(1, 20):
        res = encode(bi, "0" * n, tol=1e-30)
        beta_n = np.linalg.matrix_power(m0, n)[0, 1]
        assert res.error_radius == pytest.approx(1.0 / abs(beta_n), rel=1e-9)
        assert res.error_radius < prev
        prev = res.error_radius


def test_encode_cf_negative_run_matches_matrix_oracle():
    cf = builtin("cf")
    m = np.array([[(2 - 1j) / 2, -0.5], [-0.5, (2 + 1j) / 2]])
    res = encode(cf, "1-" * 40, tol=1e-30)
    beta_40 = np.linalg.matrix_power(m, 40)[0, 1]
    assert res.error_radius == pytest.approx(1.0 / abs(beta_40), rel=1e-9)
    assert circle_distance(res.angle, math.pi / 2) < 0.06  # near the image of inf


def test_encode_rejects_illegal_prefixes():
    p3 = builtin("parabolic3")
    with pytest.raises(IllegalPrefix):
        encode(p3, "ba", tol=1e-6)  # forbidden factor
    rotated = NumberSystemSpec(
        p3.alphabet,
        dict(zip(p3.alphabet.symbols, p3.transforms)),
        {"a": ArcSet.arc(2 * TAU / 3, TAU), "b": ArcSet.arc(0, TAU / 3),
         "c": ArcSet.arc(TAU / 3, 2 * TAU / 3)},
        Subshift(p3.alphabet, ()),
    )
    with pytest.raises(IllegalPrefix):
        encode(rotated, "ab", tol=1e-6)  # legal factor, empty refinement


def test_encode_respects_max_digits():
    bi = builtin("binary")
    res = encode(bi, "0" * 100, tol=1e-30, max_digits=10)
    assert res.digits_consumed == 10 and not res.converged


def test_encode_certificate_covers_longer_expansions():
    # extending a word never leaves the reported disc of the shorter one,
    # and the origin's images under every longer prefix stay inside it too
    from moebius_systems.transforms import identity

    rng = random.Random(31)
    bi = builtin("binary")
    for _ in range(30):
        theta = rng.uniform(0, TAU)
        w = decode(bi, theta, 60)
        short = encode(bi, w[:40], tol=1e-30)
        for k in range(40, 61, 5):
            longer = encode(bi, w[:k], tol=1e-30)
            d = abs(longer.point.value - short.point.value)
            assert d <= short.error_radius * 1.01 + 1e-12
        f = identity()
        for k, a in enumerate(w):
            f = f.compose(bi.transforms[a])
            if k + 1 >= 40:
                z = f.apply(0j).value
                assert abs(z - short.point.value) <= short.error_radius * 1.01


def _rotated_parabolic3():
    # the cover turned by 0.23 of a turn: along a decoded word its
    # pullbacks do not repeat, so each digit adds a table state
    p3 = builtin("parabolic3")
    phi = 0.23 * TAU
    return with_cover(p3, {s: ArcSet.from_arcs([(a + phi, l) for a, l in c.arcs])
                           for s, c in zip(p3.alphabet.symbols, p3.cover)})


def _assert_table_consistent(spec):
    # ids are unique, and every filled edge leads to the pulled-back state
    table = spec._pull_table
    assert len(table.states) == len(table.rows) <= _PULL_TABLE_CAP
    assert all(table.index[z] == i for i, z in enumerate(table.states))
    for i, row in enumerate(table.rows):
        for a, j in enumerate(row):
            if j is not None:
                assert table.states[j] == spec.pull_step(table.states[i], a)


def test_encode_pullback_table_stays_bounded():
    spec = _rotated_parabolic3()
    w = decode(spec, 1.234, 10_000)
    first_table = spec._pull_table
    res = encode(spec, w, tol=1e-12)
    assert res.digits_consumed == len(w)
    assert spec._pull_table is not first_table  # the cap was reached
    assert len(spec._pull_table.states) <= _PULL_TABLE_CAP
    assert encode(spec, w, tol=1e-12) == res
    assert encode(_rotated_parabolic3(), w, tol=1e-12) == res
    # threads that overflow one shared table at once agree with serial
    shared = _rotated_parabolic3()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda _: encode(shared, w, tol=1e-12), range(4)))
    finally:
        sys.setswitchinterval(switch)
    assert got == [res] * 4
    _assert_table_consistent(shared)


def test_concurrent_encode_matches_serial():
    rng = random.Random(38)
    switch = sys.getswitchinterval()
    for name in ("parabolic3", "cf", "binary", "hyperbolic4"):
        words = [decode(builtin(name), rng.uniform(0, TAU), 60) for _ in range(40)]
        serial = [encode(builtin(name), w, tol=1e-8) for w in words]
        fresh = builtin(name)
        sys.setswitchinterval(1e-6)  # interleave threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda w: encode(fresh, w, tol=1e-8), words))
        finally:
            sys.setswitchinterval(switch)
        assert got == serial, name
        _assert_table_consistent(fresh)


# -- decode -------------------------------------------------------------------


def test_decode_binary_stable_point():
    bi = builtin("binary")
    w = decode(bi, 3 * math.pi / 2, 60)  # the point -i
    res = encode(bi, w, tol=1e-8)
    assert circle_distance(res.angle, 3 * math.pi / 2) < 1e-6


def test_decode_parabolic3_vertex():
    # the vertex is the first map's fixed point, so the expansion is the
    # constant word; a parabolic power pins it only at certificate speed
    # (d_n = 1 - i*sqrt(3)/n, radius sqrt(3)/n), never faster
    p3 = builtin("parabolic3")
    w = decode(p3, 0.0, 40)
    assert p3.subshift.in_language(w)
    assert w == tuple([0] * 40)
    res = encode(p3, w, tol=1e-8)
    assert res.error_radius == pytest.approx(math.sqrt(3) / 40, rel=1e-9)
    assert circle_distance(res.angle, 0.0) <= 1.5 * res.error_radius


def test_decode_with_forced_prefix_nests():
    rng = random.Random(32)
    for name in ("binary", "cf"):
        spec = builtin(name)
        words = spec.interval_shift_language(5)
        for _ in range(20):
            v = rng.choice(words)
            closed = representable_interval(spec, v)
            s, l = closed.arcs[0]
            x = s + rng.uniform(0.2, 0.8) * l
            w = decode(spec, x, 20, prefix=v)
            assert w[: len(v)] == v
            for k in range(len(v), len(w) + 1, 5):
                assert spec.refined_set(w[:k]).closure().contains(x, tol=1e-7)


def test_decode_no_legal_digit_on_over_restricted_shift():
    p3 = builtin("parabolic3")
    starved = NumberSystemSpec(
        p3.alphabet,
        dict(zip(p3.alphabet.symbols, p3.transforms)),
        dict(zip(p3.alphabet.symbols, p3.cover)),
        Subshift.from_words(p3.alphabet, ["ac", "ba", "cb", "aa"]),
    )
    with pytest.raises(NoLegalDigit) as exc:
        decode(starved, 0.05, 30)  # hugs the first vertex, needs digit 'a' twice
    assert exc.value.angle is not None


def test_round_trip_binary_random_points():
    rng = random.Random(33)
    bi = builtin("binary")
    for _ in range(200):
        theta = rng.uniform(0, TAU)
        w = decode(bi, theta, 60)
        res = encode(bi, w, tol=1e-8)
        assert circle_distance(res.angle, theta) <= 1e-6


@pytest.mark.parametrize("name", ["parabolic3", "cf"])
def test_round_trip_parabolic_heavy_systems(name):
    """Parabolic digit blocks converge only polynomially, so a fixed
    60-digit budget resolves most but not all uniform points; the bulk of
    the distribution and all points away from the slow zones are exact."""
    rng = random.Random(34)
    spec = builtin(name)
    dists = []
    for _ in range(300):
        theta = rng.uniform(0, TAU)
        w = decode(spec, theta, 60)
        res = encode(spec, w, tol=1e-8)
        dists.append(circle_distance(res.angle, theta))
    dists.sort()
    assert dists[len(dists) // 2] < 1e-8       # median is sharp
    good = sum(1 for d in dists if d <= 1e-6)
    assert good >= 0.75 * len(dists)           # tail = slow parabolic zones
    assert dists[-1] < 0.1                     # even the tail is certified-small


def test_shift_equivariance_on_binary():
    rng = random.Random(35)
    bi = builtin("binary")
    for _ in range(50):
        theta = rng.uniform(0, TAU)
        w = decode(bi, theta, 60)
        x = encode(bi, w, tol=1e-10)
        y = encode(bi, w[1:], tol=1e-10)
        pushed = bi.transforms[w[0]].inverse().apply_angle(x.angle)
        assert circle_distance(y.angle, pushed) < 1e-6


# -- classical continued fractions cross-check -----------------------------------


def test_classical_cf_terms():
    from fractions import Fraction

    assert classical_cf_terms(1, 2) == [2]
    assert classical_cf_terms(2, 5) == [2, 2]
    rng = random.Random(37)
    for _ in range(100):
        q = rng.randint(2, 5000)
        p = rng.randint(1, q - 1)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        value = Fraction(0)
        for a in reversed(classical_cf_terms(p, q)):
            value = Fraction(1, a + value)
        assert value == Fraction(p, q)


def test_cf_stream_encodes_rationals():
    rng = random.Random(36)
    cf = builtin("cf")
    for _ in range(10):
        q = rng.randint(2, 300)
        p = rng.randint(1, q - 1)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        res = encode(cf, cf_digit_stream(p, q), tol=1e-6, max_digits=2_000_000)
        assert res.converged
        target = from_real(p / q).value
        assert circle_distance(res.angle, angle(target)) <= 1e-6


# -- representable intervals ---------------------------------------------------------


def test_representable_interval_examples():
    cf = builtin("cf")
    assert representable_interval(cf, ()).full
    got = representable_interval(cf, "1")
    assert got.arcs[0] == pytest.approx((0.0, math.pi / 2))
    bi = builtin("binary")
    got = bi and representable_interval(bi, "0")
    h_minus = math.atan2(-3, -4) % TAU
    h_plus = math.atan2(-3, 4) % TAU
    assert got.arcs[0][0] == pytest.approx(h_minus)
    assert (got.arcs[0][0] + got.arcs[0][1]) % TAU == pytest.approx(h_plus)
    with pytest.raises(EmptyRefinedSet):
        representable_interval(builtin("parabolic3"), "ac")


# -- verify --------------------------------------------------------------------------


def test_verify_parabolic3_auto():
    v = verify(builtin("parabolic3"), mode="auto")
    assert v.status == "verified_Qn"
    assert v.evidence["n"] == 1 and v.evidence.get("rotation_free")


def test_verify_hyperbolic4_auto():
    assert verify(builtin("hyperbolic4"), mode="auto").verified


def test_verify_cf_prefix_set():
    v = verify(builtin("cf"), mode="prefix_set", prefix_set=["01", "01-", "1", "1-"])
    assert v.status == "verified_prefix_set"
    assert set(v.evidence["B"]) == {"01", "01-", "1", "1-"}


def test_verify_binary_auto_certifies_at_level_four():
    v = verify(builtin("binary"), mode="auto")
    assert v.status == "verified_Qn"
    assert v.evidence["n"] == 4


def test_verify_binary_quoted_prefix_set_is_rejected_strictly():
    # the quoted B fails containment at 22; strict prefix mode reports it
    v = verify(builtin("binary"), mode="prefix_set",
               prefix_set=["0", "1", "1-", "21", "21-", "22"])
    assert v.status == "inconclusive"
    assert v.evidence["not_contained"] == ["22"]


def test_verify_binary_auto_with_prefix_set_still_verifies():
    v = verify(builtin("binary"), mode="auto",
               prefix_set=["0", "1", "1-", "21", "21-", "22"])
    assert v.verified


def test_verify_binary_level_one_inconclusive():
    v = verify(builtin("binary"), mode="qn", n=1)
    assert v.status == "inconclusive"
    assert v.evidence["Q_n"] < 1.0


def test_verify_flags_incompatible_cover():
    from moebius_systems.systems import with_cover
    bi = builtin("binary")
    cover = dict(zip(bi.alphabet.symbols, bi.cover))
    s, l = cover["1"].arcs[0]
    cover["1"] = ArcSet.from_arcs([(s + 0.1, l - 0.1)])
    v = verify(with_cover(bi, cover), mode="auto", n_max=2)
    assert v.status == "inconclusive"
    assert v.evidence.get("compatibility_violations")


def test_verify_mode_validation():
    with pytest.raises(ValueError):
        verify(builtin("cf"), mode="qn")
    with pytest.raises(ValueError):
        verify(builtin("cf"), mode="prefix_set")
    with pytest.raises(ValueError):
        verify(builtin("cf"), mode="nope")

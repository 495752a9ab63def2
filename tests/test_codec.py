"""Encoder/decoder round trips, certificates, and system verification."""

import cmath
import itertools
import math
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from moebius_systems import codec, interval_system, subshift
from moebius_systems.arcs import EPS_ANGLE, ArcSet, image
from moebius_systems.codec import decode, encode, representable_interval, verify
from moebius_systems.errors import ConfigError, EmptyRefinedSet, IllegalPrefix, NoLegalDigit
from moebius_systems.transforms import DiscMoebius
from moebius_systems.interval_system import _PULL_TABLE_CAP, NumberSystemSpec
from moebius_systems.subshift import Subshift
from moebius_systems.systems import (
    BUILTIN_NAMES, builtin, cf_digit_stream, classical_cf_terms, parse_config, serialize_config,
    with_cover,
)
from moebius_systems.transforms import TAU, canon_angle, circle_distance, contraction, from_real
from reference import (
    codec_contradiction,
    first_fit_decode,
    in_language,
    perturbed_letter,
    pullback_entry,
    random_multi_arc_system,
    random_system,
    refined_set,
    rotated_parabolic3,
    turned_cover,
)

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
    with pytest.raises(IllegalPrefix):
        encode(builtin("parabolic3"), "ba", tol=1e-6)  # forbidden factor
    rotated = rotated_parabolic3()
    for _ in range(2):  # the emptying step is stored nowhere, so it is taken again
        with pytest.raises(EmptyRefinedSet, match="'b' at position 1 refines to the empty set"):
            encode(rotated, "ab", tol=1e-6)  # legal factor, empty refinement
    assert not any(z.is_empty for _, z in rotated._pull_table.states)
    _assert_table_consistent(rotated)


@pytest.mark.parametrize("name, word, digit, empty", [("binary", "20", "0", False),
                                                      ("parabolic3", "ba", "a", True)])
def test_encode_names_a_forbidden_digit_from_its_follower_state(name, word, digit, empty):
    # the table stores no step that leaves the language, so the miss is met
    # cold and again warm, and its cause is read from the pair's follower
    # state: binary's Z_20 is nonempty, and parabolic3's Z_ba is empty, where
    # the language is named first, as it always was
    spec = builtin(name)
    z, _ = pullback_entry(spec, word)
    assert z.is_empty == empty
    for _ in range(2):
        with pytest.raises(IllegalPrefix, match=f"digit '{digit}' at position 1 leaves the language"):
            encode(spec, word, tol=1e-6)
    _assert_table_consistent(spec)


def test_encode_respects_max_digits():
    bi = builtin("binary")
    res = encode(bi, "0" * 100, tol=1e-30, max_digits=10)
    assert res.digits_consumed == 10 and not res.converged
    # on an iterator encode takes exactly the digits it counts: none past a
    # cap met by a digit step or inside a run jump, none at a cap of 0, and
    # none after the digit step or run jump that meets tol
    cf = builtin("cf")
    word = decode(bi, 1.0, 60)
    for system, digits, tol, max_digits, want in [
        (cf, [2] * 50, 1e-30, 10, 10),
        (cf, [2] * 50, 1e-30, 0, 0),
        (cf, [2] * 3000, 1e-30, 2500, 2500),
        (bi, word, 1e-6, None, 43),
        (cf, list(itertools.islice(cf_digit_stream(333, 1000), 10_000)), 1e-6, None, 2237),
    ]:
        it = iter(digits)
        res = encode(system, it, tol, max_digits=max_digits)
        assert res.digits_consumed == want
        assert len(list(it)) == len(digits) - want, (system.name, max_digits)
    # a NaN tol would never be met, an infinite one is met by any radius,
    # even a rotation's, and a negative cap would return nothing
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            encode(bi, itertools.repeat(1), tol=tol)
    with pytest.raises(ValueError, match="max_digits must be >= 0"):
        encode(bi, "0" * 100, tol=1e-30, max_digits=-1)
    # a cap that is no integer is rejected, not rounded up or left to fail later
    for max_digits in (2.5, "3"):
        with pytest.raises(ValueError, match="max_digits must be an integer"):
            encode(bi, "0" * 100, tol=1e-30, max_digits=max_digits)


# -- runs of one letter ----------------------------------------------------------


def _gauss(z: complex):
    # a float's exact value as a Gaussian rational (re, im)
    return Fraction(z.real), Fraction(z.imag)


def _gmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gadd(x, y):
    return x[0] + y[0], x[1] + y[1]


def _exact_cf_crossing(p: int, q: int, tol: float) -> int:
    """The digit count at which the exact certificate of p/q's cf stream
    first meets tol: the letters are exact dyadic matrices of determinant
    1, so Gaussian rationals carry the composition without rounding; the
    endless tail T gives F T^k = k F T - (k - 1) F (trace 2)."""
    cf = builtin("cf")
    letters = [(_gauss(f.alpha), _gauss(f.beta)) for f in cf.transforms]
    for (ar, ai), (br, bi) in letters:
        assert ar * ar + ai * ai - br * br - bi * bi == 1
    r2 = 1 / Fraction(tol) ** 2  # the certificate 1/|beta| <= tol
    terms = classical_cf_terms(p, q)
    stream = cf_digit_stream(p, q)
    head = list(itertools.islice(stream, 1 + sum(terms) + len(terms)))
    tail = next(stream)
    fa, fb = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    for n, a in enumerate(head, 1):
        a2, b2 = letters[a]
        fa, fb = (_gadd(_gmul(fa, a2), _gmul(fb, (b2[0], -b2[1]))),
                  _gadd(_gmul(fa, b2), _gmul(fb, (a2[0], -a2[1]))))
        if fb[0] ** 2 + fb[1] ** 2 >= r2:
            return n
    a2, b2 = letters[tail]
    b1 = _gadd(_gmul(fa, b2), _gmul(fb, (a2[0], -a2[1])))

    def met(k):
        re, im = k * b1[0] - (k - 1) * fb[0], k * b1[1] - (k - 1) * fb[1]
        return re * re + im * im >= r2

    hi = 1
    while not met(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if met(mid) else (mid, hi)
    return len(head) + hi


def test_cf_stream_stops_at_the_exact_crossing():
    # the tails of q <= 10 run to about 1e5 digits; (441, 964) and
    # (71, 953) are rationals a per-digit product used to end early
    cases = [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (3, 5), (1, 6), (5, 6),
             (2, 7), (4, 7), (3, 8), (7, 8), (4, 9), (7, 9), (3, 10), (9, 10),
             (7, 17), (441, 964), (71, 953), (250, 307), (613, 999)]
    cf = builtin("cf")
    for p, q in cases:
        res = encode(cf, cf_digit_stream(p, q), tol=1e-6, max_digits=5_000_000)
        assert res.converged
        assert res.digits_consumed == _exact_cf_crossing(p, q, 1e-6), (p, q)
    assert _exact_cf_crossing(7, 17, 1e-6) == 108_797


def test_parabolic3_runs_match_a_high_precision_product():
    # a's float matrix is exactly parabolic, so its runs are taken in
    # closed form; b's and c's are elliptic by a rounding and go digit by digit
    mpmath = pytest.importorskip("mpmath")
    p3 = builtin("parabolic3")
    with mpmath.workdps(60):
        letters = [(mpmath.mpc(f.alpha), mpmath.mpc(f.beta)) for f in p3.transforms]

        def compose(x, y):
            (a1, b1), (a2, b2) = x, y
            return a1 * a2 + b1 * mpmath.conj(b2), a1 * b2 + b1 * mpmath.conj(a2)

        def power(letter, k):
            result, base = (mpmath.mpc(1), mpmath.mpc(0)), letter
            while k:
                if k & 1:
                    result = compose(result, base)
                base, k = compose(base, base), k >> 1
            return result

        for head, run in (("", 20_000), ("c", 50_000), ("bca", 30_000), ("abbbbbca", 3_000)):
            f = (mpmath.mpc(1), mpmath.mpc(0))
            for a in p3.alphabet.word(head):
                f = compose(f, letters[a])
            fa, fb = compose(f, power(letters[0], run))
            radius = mpmath.sqrt(abs(fa) ** 2 - abs(fb) ** 2) / abs(fb)
            exact_angle = float(mpmath.arg(fa / mpmath.conj(fb)))
            res = encode(p3, head + "a" * run, tol=1e-30)
            assert res.digits_consumed == len(head) + run
            assert abs(res.error_radius / float(radius) - 1.0) <= 1e-9, head
            assert circle_distance(res.angle, canon_angle(exact_angle)) <= 1e-12, head


def test_encode_radius_matches_a_high_precision_product():
    # 1/|beta| of the float product, never renormalized, against the same
    # letters multiplied at 60 digits: sqrt(det)/|beta|
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(61)
    with mpmath.workdps(60):
        for name in ("binary", "cf", "hyperbolic4", "parabolic3"):
            spec = builtin(name)
            letters = [(mpmath.mpc(f.alpha), mpmath.mpc(f.beta)) for f in spec.transforms]
            for _ in range(50):
                word = decode(spec, rng.uniform(0.0, TAU), 60)
                res = encode(spec, word, tol=1e-300, max_digits=len(word))
                fa, fb = mpmath.mpc(1), mpmath.mpc(0)
                for a in word:
                    a2, b2 = letters[a]
                    fa, fb = fa * a2 + fb * mpmath.conj(b2), fa * b2 + fb * mpmath.conj(a2)
                radius = mpmath.sqrt(abs(fa) ** 2 - abs(fb) ** 2) / abs(fb)
                assert res.digits_consumed == 60
                assert abs(res.error_radius / radius - 1) <= 1e-12, (name, word)


def test_run_jump_checks_every_digit(monkeypatch):
    cf = builtin("cf")
    minus, inv, plus = range(3)
    jumps = []
    read_run = codec._read_run
    monkeypatch.setattr(codec, "_read_run", lambda *a: jumps.append(a[2]) or read_run(*a))
    # the forbidden factor "1 1-" right after a long run is caught where it is
    with pytest.raises(IllegalPrefix, match="position 3000"):
        encode(cf, "1" * 3000 + "1-", tol=1e-30)
    with pytest.raises(IllegalPrefix, match="position 3000"):
        encode(cf, itertools.chain(itertools.repeat(plus, 3000), [minus]), tol=1e-30)
    assert len(jumps) == 2
    # a run broken after j digits reads the same from a stream as from a word
    for j in (17, 100, 1000, 5000):
        word = (inv,) + (minus,) * j + (inv,) + (plus,) * 600 + (inv, minus)
        res = encode(cf, word, tol=1e-30)
        assert encode(cf, (d for d in word), tol=1e-30) == res
        assert res.digits_consumed == len(word) and not res.converged
    assert len(jumps) == 2 + 4 * 2 * 2
    # runs that break inside digits a jump read ahead give the counts,
    # certificate and errors of the digit-by-digit loop
    word = [inv]
    for i, n in enumerate([41, 20, 33, 17, 70, 18, 25, 300, 19]):
        word += [(minus, plus)[i % 2]] * n + [inv]
    word = tuple(word)
    res = encode(cf, word, tol=1e-30)
    with monkeypatch.context() as digit_by_digit:
        digit_by_digit.setattr(codec, "_RUN_MIN", len(word))
        ref = encode(cf, word, tol=1e-30)
        # an inversion inside a run makes "1 0 1" or "1- 0 1-", both forbidden
        broken = [word[:i] + (inv,) + word[i:] for i in range(20, len(word), 7)
                  if word[i - 1] == word[i] != inv]
        messages = []
        for w in broken:
            with pytest.raises(IllegalPrefix) as err:
                encode(cf, w, tol=1e-30)
            messages.append(str(err.value))
    assert res.digits_consumed == ref.digits_consumed == len(word)
    assert res.error_radius == pytest.approx(ref.error_radius, rel=1e-9)
    assert circle_distance(res.angle, ref.angle) <= 1e-12
    for w, message in zip(broken, messages):
        with pytest.raises(IllegalPrefix) as err:
            encode(cf, iter(w), tol=1e-30)
        assert str(err.value) == message
    # max_digits inside a run stops there
    res = encode(cf, itertools.repeat(plus), tol=1e-30, max_digits=2500)
    assert res.digits_consumed == 2500 and not res.converged
    assert res == encode(cf, "1" * 2500, tol=1e-30)
    assert res == encode(cf, "1" * 3000, tol=1e-30, max_digits=2500)


def test_a_run_jump_reads_ahead_at_most_one_chunk():
    # a run that breaks inside a chunk has read the rest of that chunk; the
    # digits of it not yet encoded when tol is met are lost to the caller
    cf = builtin("cf")
    word = [1] + [0] * 100 + [1] + [2] * 300
    it = iter(word)
    res = encode(cf, it, 1e-2)
    assert res.digits_consumed == 104 and len(list(it)) == 264
    word = [1] + [0] * 5000 + [1] + [2] * 6000
    lost = []
    for e in range(1, 13):
        it = iter(word)
        res = encode(cf, it, 10.0 ** -e)
        lost.append(len(word) - res.digits_consumed - len(list(it)))
    assert 0 < max(lost) <= codec._RUN_CHUNK_MAX
    # runs too short to jump read nothing ahead
    rng = random.Random(5)
    word = [1]
    for i in range(200):
        word += [(0, 2)[i % 2]] * rng.randint(1, codec._RUN_MIN - 1) + [1]
    for tol in (1e-2, 1e-4, 1e-8, 1e-12, 1e-300):
        it = iter(word)
        res = encode(cf, it, tol)
        assert len(list(it)) == len(word) - res.digits_consumed, tol


def cf_runs(lengths):
    """A cf word: runs of 1- and 1 by turns, of the given lengths, each
    after a 0, so that no forbidden factor occurs."""
    word = []
    for i, n in enumerate(lengths):
        word += [1] + [(0, 2)[i % 2]] * n
    return word


def spy_on_jumps(monkeypatch, it):
    """Record, for each run jump, whether it reads the iterator `it` itself."""
    direct = []
    read_run = codec._read_run
    monkeypatch.setattr(codec, "_read_run",
                        lambda stream, *a: direct.append(stream is it) or read_run(stream, *a))
    return direct


def test_a_jump_after_the_read_ahead_is_used_up_reads_the_callers_iterator(monkeypatch):
    # each run of 100 breaks inside a jump's chunk; the run of 17 jumps inside
    # the second one's read-ahead, through the chain that puts it first; the
    # short runs after each use that read-ahead up, so the next long run jumps
    # from the caller's iterator itself, and the run of 20 from a chain again
    cf = builtin("cf")
    word = cf_runs([100] + [5] * 8 + [100, 17] + [5] * 8 + [300, 20])
    for tol, max_digits in ((1e-30, None), (1e-30, 500), (1e-6, None)):
        want = encode(cf, tuple(word), tol, max_digits)
        it = iter(word)
        direct = spy_on_jumps(monkeypatch, it)
        assert encode(cf, it, tol, max_digits) == want
        if tol == 1e-30:
            assert direct == [True, True, False, True, False][:len(direct)]
            assert len(direct) == (5 if max_digits is None else 4)
    assert want.converged and want.digits_consumed < len(word)


def test_past_the_read_ahead_a_run_still_checks_every_digit(monkeypatch):
    # after a broken jump and its drained read-ahead, the next run's jump
    # reads the caller's iterator: a float equal to the letter still ends
    # the run and raises at its own position, and a TypeError of the stream
    # itself still propagates
    cf = builtin("cf")
    head = cf_runs([100, 5, 3, 5, 3, 5, 3, 5, 300])
    it = iter(head + [2.0] + [2] * 50)
    direct = spy_on_jumps(monkeypatch, it)
    message = f"digit 2.0 at position {len(head)} is not a symbol index 0..2"
    with pytest.raises(ValueError, match=re.escape(message)):
        encode(cf, it, 1e-30)
    assert direct == [True, True]

    def failing():
        yield from head
        raise TypeError("the stream failed")

    it = failing()
    direct = spy_on_jumps(monkeypatch, it)
    with pytest.raises(TypeError, match="the stream failed"):
        encode(cf, it, 1e-30)
    assert direct == [True, True]


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


def _assert_table_consistent(spec):
    # ids are unique, state 0 is the initial pair, and every filled edge
    # leads to the follower move paired with the pulled-back state
    table = spec._pull_table
    assert len(table.states) == len(table.rows) <= _PULL_TABLE_CAP
    assert all(table.index[pair] == i for i, pair in enumerate(table.states))
    assert table.states[0] == (spec.subshift.initial, ArcSet.full_circle())
    for (state, z), row in zip(table.states, table.rows):
        for a, j in enumerate(row):
            if j is not None:
                assert table.states[j] == (spec.subshift.transitions[state][a],
                                           spec.pull_step(z, a))


def test_encode_pullback_table_stays_bounded():
    # the cover turned by 0.23 of a turn: along a decoded word its
    # pullbacks do not repeat, so each digit adds a table state
    spec = turned_cover(builtin("parabolic3"), 0.23)
    w = decode(spec, 1.234, 10_000)
    first_table = spec._pull_table
    res = encode(spec, w, tol=1e-12)
    assert res.digits_consumed == len(w)
    assert spec._pull_table is not first_table  # the cap was reached
    assert len(spec._pull_table.states) <= _PULL_TABLE_CAP
    assert encode(spec, w, tol=1e-12) == res
    assert encode(turned_cover(builtin("parabolic3"), 0.23), w, tol=1e-12) == res
    # threads that overflow one shared table at once agree with serial
    shared = turned_cover(builtin("parabolic3"), 0.23)
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
    assert in_language(p3.subshift, w)
    assert w == tuple([0] * 40)
    res = encode(p3, w, tol=1e-8)
    assert res.error_radius == pytest.approx(math.sqrt(3) / 40, rel=1e-9)
    assert circle_distance(res.angle, 0.0) <= 1.5 * res.error_radius


def test_decode_no_legal_digit_on_over_restricted_shift():
    p3 = builtin("parabolic3")
    starved = NumberSystemSpec(
        p3.alphabet,
        dict(zip(p3.alphabet.symbols, p3.transforms)),
        dict(zip(p3.alphabet.symbols, p3.cover)),
        Subshift(p3.alphabet, ["ac", "ba", "cb", "aa"]),
    )
    with pytest.raises(NoLegalDigit) as exc:
        decode(starved, 0.05, 30)  # hugs the first vertex, needs digit 'a' twice
    assert exc.value.angle is not None
    # the candidates are every letter the follower state allows after 'a'
    assert exc.value.word == (0,)
    assert exc.value.candidates == ["b"]


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


@pytest.mark.parametrize("p, q", [(0, 5), (5, 5), (7, 5), (-1, 5)])
def test_classical_cf_terms_needs_a_fraction_in_the_unit_interval(p, q):
    with pytest.raises(ValueError, match="need 0 < p < q"):
        classical_cf_terms(p, q)


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
    with pytest.raises(IllegalPrefix, match="^digit 'c' at position 1 leaves the language$"):
        representable_interval(builtin("parabolic3"), "ac")
    with pytest.raises(EmptyRefinedSet, match="^digit 'b' at position 1 refines to the empty set$"):
        representable_interval(rotated_parabolic3(), "ab")


@pytest.mark.parametrize("word", ["20", "02", "12", "1-2", "11-", "1-1"])
def test_representable_interval_rejects_a_forbidden_prefix_as_encode_does(word):
    # each refined set is nonempty; the subshift forbids the word, and
    # min_expansion, which reads the same check, rejects it too
    bi = builtin("binary")
    assert not refined_set(bi, word).is_empty
    with pytest.raises(IllegalPrefix) as want:
        encode(bi, word, tol=1e-30)
    for query in (lambda w: representable_interval(bi, w), bi.min_expansion):
        with pytest.raises(IllegalPrefix) as got:
            query(word)
        assert str(got.value) == str(want.value)


def _outcome(call):
    """The class and message of the error call() raises, or None."""
    try:
        call()
    except IllegalPrefix as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "parabolic3-rotated"])
def test_every_reader_of_a_word_stops_at_the_same_digit_alike(name):
    # every word of length <= 4, legal or not: the one-word queries and
    # encode raise the same class with the same message, or none raises
    spec = rotated_parabolic3() if name == "parabolic3-rotated" else builtin(name)
    seen = set()
    for n in range(5):
        for word in itertools.product(range(spec.alphabet.size), repeat=n):
            want = _outcome(lambda: encode(spec, word, tol=1e-300))
            for query in (lambda: representable_interval(spec, word),
                          lambda: spec.min_expansion(word)):
                assert _outcome(query) == want, word
            if want is not None:
                cls, message = want
                assert (cls is EmptyRefinedSet) == message.endswith("refines to the empty set")
                seen.add(cls)
    # a builtin's words leave through the subshift (where the pullback empties
    # too, the subshift is named), and the rotated cover's, which has no
    # forbidden word, through an empty pullback
    assert seen == ({EmptyRefinedSet} if name == "parabolic3-rotated" else {IllegalPrefix})


@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_representable_interval_of_a_walked_word_is_its_entrys_image(name):
    spec = builtin(name)
    for level in spec.interval_shift_levels(4):
        for word, _, (z, f) in level:
            assert representable_interval(spec, word) == image(f, z.closure()), word


def test_representable_interval_of_a_long_word_sits_in_the_encode_disc():
    # a 60-digit word, whose interval is a few nanoradians wide
    cf = builtin("cf")
    w = decode(cf, 1.234, 60)
    got = representable_interval(cf, w)
    assert got.contains(1.234, tol=EPS_ANGLE)
    res = encode(cf, w, tol=1e-30)
    assert res.digits_consumed == 60
    for s, l in got.arcs:
        for end in (s, s + l):
            assert abs(cmath.exp(1j * end) - res.point.value) <= res.error_radius


@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_representable_interval_answers_every_prefix_of_a_decoded_word(name):
    # from 25 to 77 digits on, depending on the system, F_w(Z_w) is narrower
    # than EPS_ANGLE, which an open arc set drops; the closed image keeps it
    spec = builtin(name)
    word = decode(spec, 1.234, 120)
    for k in range(1, len(word) + 1):
        assert representable_interval(spec, word[:k]).contains(1.234, tol=1e-12), k


# the last five sit on and either side of the guard band of the decode table
# (interval_system._DECODE_BAND), where the table hands over to _first_fit
_ENDPOINT_OFFSETS = (0.0, 1e-15, 1e-12, 2e-10, 1e-9, 1e-6, 3e-3,
                     2 * EPS_ANGLE, 2 * EPS_ANGLE - 1e-15, 2 * EPS_ANGLE + 1e-15,
                     2 * EPS_ANGLE - 1e-12, 2 * EPS_ANGLE + 1e-12)


def _decode_outcome(decoder, spec, theta):
    """The word decoder gives, or the fields of the error it raises."""
    try:
        return decoder(spec, theta, 40)
    except NoLegalDigit as exc:
        return "NoLegalDigit", exc.angle, exc.word, exc.candidates, str(exc)


def test_decode_matches_the_first_fit_reference():
    # decode picks a digit from its per-state table of cover-arc cuts, and
    # takes interval_system._first_fit, which inlines the arc tests and the
    # map of the methods the reference calls, near an arc end; words and
    # strands agree bit for bit with the reference's.  The points sit at
    # every cover endpoint and just off it, where the arc tests decide, and
    # at either edge of the table's guard band.  The 17th spec's letter c is
    # the full circle; the random systems after it have overlapping arcs, so
    # that a later letter's arc end lies inside an earlier letter's arc,
    # forbidden pairs, and letters with several arcs or none
    rng = random.Random(20)
    draw = random.Random(3)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    p3 = builtin("parabolic3")
    specs = [turned_cover(builtin(name), turn) if turn else builtin(name)
             for name in ("parabolic3", "cf", "binary", "hyperbolic4")
             for turn in (0.0, 0.23, 0.5, 0.77)]
    specs.append(with_cover(p3, {**dict(zip(p3.alphabet.symbols, p3.cover)),
                                 "c": ArcSet.full_circle()}))
    specs += [random_system(draw) for _ in range(20)]
    specs += [random_multi_arc_system(draw) for _ in range(20)]
    strands = decodes = 0
    for spec in specs:
        ends = {e for c in spec.cover for s, l in c.arcs for e in (s, s + l)}
        u = rng.random()
        thetas = [TAU * ((u + k * golden) % 1.0) for k in range(64)]
        thetas += sorted({e + sign * off for e in ends for off in _ENDPOINT_OFFSETS
                          for sign in (1.0, -1.0)})
        for theta in thetas:
            got = _decode_outcome(decode, spec, theta)
            want = _decode_outcome(first_fit_decode, spec, theta)
            assert got == want, (spec.name, spec.cover, theta)
            strands += got[0] == "NoLegalDigit"
            decodes += 1
    assert decodes > 3000 and strands > 0


def test_decode_does_not_strand_a_point_near_a_cover_endpoint():
    assert len(decode(builtin("cf"), 1e-9, 4)) == 4
    # 50 seeded offsets of 1e-15 to 1e-3, and EPS_ANGLE itself, either side of
    # every cover endpoint of a builtin; the first fit that took a letter whose
    # arc held x only within EPS_ANGLE stranded 38 of these 2,040 points and
    # left others up to EPS_ANGLE outside their words' refined sets
    rng = random.Random(15)
    offsets = [10.0 ** rng.uniform(-15.0, -3.0) for _ in range(50)] + [EPS_ANGLE]
    for name in BUILTIN_NAMES:
        spec = builtin(name)
        ends = {e for c in spec.cover for s, l in c.arcs for e in (s, s + l)}
        for theta in sorted(e + sign * off for e in ends for off in offsets for sign in (1.0, -1.0)):
            word = decode(spec, theta, 60)
            assert representable_interval(spec, word[:20]).contains(theta, tol=1e-12), theta


def test_decode_rejects_non_finite_angles_and_negative_counts():
    cf = builtin("cf")
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            decode(cf, theta, 5)
    with pytest.raises(ValueError, match="n_digits must be >= 0"):
        decode(cf, 1.0, -3)
    for bad in (2.5, "3", None):
        with pytest.raises(ValueError, match=re.escape(f"n_digits must be an integer, got {bad!r}")):
            decode(cf, 1.0, bad)
    assert decode(cf, 1.0, 0) == ()


def test_symbol_indices_outside_the_alphabet_are_rejected():
    # -1 used to alias the last letter through Python's negative indexing
    cf = builtin("cf")
    for bad in (-1, cf.alphabet.size):
        entry_points = [
            lambda: encode(cf, (bad,), tol=1e-6),
            lambda: encode(cf, [1, bad], tol=1e-6),
            lambda: cf.word_transform([bad]),
            lambda: encode(cf, iter(decode(cf, 1.234, 3) + (bad, 1)), tol=1e-30),
            lambda: refined_set(cf, (bad,)),
            lambda: cf.min_expansion((1, bad)),
            lambda: verify(cf, mode="prefix_set", prefix_set=[(bad,)]),
        ]
        for call in entry_points:
            with pytest.raises(ValueError, match="symbol index"):
                call()


def test_a_stream_of_names_is_rejected_as_no_symbol_index():
    # a stream is read as symbol indices; a name in it used to fail the range
    # check with "'<=' not supported between instances of 'int' and 'str'"
    cf = builtin("cf")
    with pytest.raises(ValueError, match="digit '1' at position 0 is not a symbol index 0..2"):
        encode(cf, iter(["1", "0"]), 1e-3)
    with pytest.raises(ValueError, match="digit None at position 2"):
        encode(cf, iter([2, 2, None]), 1e-30)
    # numpy integers and bools are indices
    assert encode(cf, iter(np.array([2, 2, 1])), 1e-3) == encode(cf, (2, 2, 1), 1e-3)
    assert encode(cf, iter([True, 2]), 1e-3) == encode(cf, (1, 2), 1e-3)


@pytest.mark.parametrize("stream, at", [
    ([2.0, 1.0], 0), ([2, 2.0], 1), ([np.float64(2.0)], 0), ([2, 2, 2.5], 2), ([None], 0),
])
def test_a_non_index_digit_in_a_stream_is_rejected(stream, at):
    # these passed the range check, or skipped it as equal to the digit before,
    # and then failed indexing the follower table with a TypeError
    message = f"digit {stream[at]!r} at position {at} is not a symbol index 0..2"
    with pytest.raises(ValueError, match=re.escape(message)):
        encode(builtin("cf"), iter(stream), 1e-3)


def test_a_run_ends_at_its_first_digit_that_is_not_its_index():
    # a float equal to the letter used to pass for it once the run jumped
    cf = builtin("cf")
    for stream, at in (([2] * 20 + [2.0] * 5, 20), ([2] * 10 + [2.0] * 5, 10),
                       ([2] * 300 + [np.float64(2.0)], 300)):
        message = f"digit {stream[at]!r} at position {at} is not a symbol index 0..2"
        with pytest.raises(ValueError, match=re.escape(message)):
            encode(cf, iter(stream), 1e-30)
    assert encode(cf, iter(np.array([2] * 40)), 1e-30) == encode(cf, (2,) * 40, 1e-30)
    for chunk, a, want in [
        ((), 2, 0), ((2,) * 8, 2, 8), ((2, 2, 1, 2), 2, 2), ((2, 2, 2.0), 2, 2),
        ((2, np.int64(2), True), 2, 2), ((1, True, np.int64(1)), 1, 3), ((2, -1), 2, 1),
        ((2, "2"), 2, 1), ((300,) * 4, 300, 4), ((300, 300.0), 300, 1), ((5, 300), 5, 1),
        ((), 300, 0), ((5, 5), 300, 0),
    ]:
        letter = bytes((a,)) if a < 256 else None
        assert codec._run_length(chunk, a, letter) == want, chunk
        assert codec._run_length(list(chunk), a, letter) == want, chunk


def test_a_type_error_of_the_stream_itself_propagates():
    cf = builtin("cf")

    def failing(head):
        yield from head
        raise TypeError("the stream failed")

    for head in ((), (2,), (2,) * 40):
        with pytest.raises(TypeError, match="the stream failed"):
            encode(cf, failing(head), 1e-30)


def test_a_list_of_symbol_indices_reads_like_a_tuple():
    # a list of ints used to be parsed as symbol names, and failed with
    # "tuple.index(x): x not in tuple"
    cf = builtin("cf")
    assert encode(cf, [1, 2, 2], 1e-3) == encode(cf, (1, 2, 2), 1e-3) \
        == encode(cf, iter([1, 2, 2]), 1e-3)
    assert cf.word_transform([1, 2]) == cf.word_transform((1, 2))
    for name in ("parabolic3", "binary"):
        spec = builtin(name)
        word = decode(spec, 1.234, 40)
        assert encode(spec, list(word), tol=1e-9) == encode(spec, word, tol=1e-9) \
            == encode(spec, iter(word), tol=1e-9)
        assert spec.min_expansion(list(word)) == spec.min_expansion(word)
        assert refined_set(spec, list(word)) == refined_set(spec, word)
    # strings and lists of names still parse through the alphabet
    assert encode(cf, ["1", "0"], 1e-3) == encode(cf, "10", 1e-3) == encode(cf, (2, 1), 1e-3)
    with pytest.raises(ValueError):
        encode(cf, ["1", 0], 1e-3)


# Every entry point that takes a word reads it through Alphabet.word.  The
# words of cf's prefix set B = {01, 01-, 1, 1-}, by names and by the range of
# their indices, are given in each form a caller may use.
_CF_PREFIX_SET = [(("0", "1"), range(1, 3)), (("0", "1-"), range(1, -1, -1)),
                  (("1",), range(2, 3)), (("1-",), range(1))]
_WORD_FORMS = {
    "str": lambda names, indices: "".join(names),
    "name list": lambda names, indices: list(names),
    "name tuple": lambda names, indices: tuple(names),
    "index list": lambda names, indices: list(indices),
    "index tuple": lambda names, indices: tuple(indices),
    "index range": lambda names, indices: indices,
}
# each reads the word w, or the words b of the prefix set, all in one form
_WORD_ENTRY_POINTS = {
    "word_transform": lambda cf, w, b: cf.word_transform(w),
    "min_expansion": lambda cf, w, b: cf.min_expansion(w),
    "representable_interval": lambda cf, w, b: representable_interval(cf, w),
    "verify": lambda cf, w, b: verify(cf, "prefix_set", prefix_set=b),
    "encode": lambda cf, w, b: encode(cf, w, 1e-3),
    "Subshift": lambda cf, w, b: Subshift(cf.alphabet, b).forbidden,
    "parse_config": lambda cf, w, b: parse_config(
        {**serialize_config(cf), "forbidden": b}).subshift.forbidden,
}
# a bad word of cf, and what its error must show of it
_BAD_WORDS = {
    "untokenizable str": ("7", "cannot tokenize '7'"),
    "unknown name in a list": (["9"], "item '9'"),
    "unknown name in a tuple": (("1", "9"), "item '9'"),
    "index list out of range": ([1, 3], "item 3"),
    "index tuple out of range": ((1, 3), "item 3"),
    "negative index": ((-1,), "item -1"),
    "index range out of range": (range(2, 4), "3"),
    "names and indices": (["1", 0], "item 0"),
    "indices and names": ((2, "0"), "item '0'"),
    "float item": ([1.0], "item 1.0"),
    "none item": ((None,), "item None"),
    "not iterable": (5, "cannot read 5"),
}


@pytest.mark.parametrize("entry", sorted(_WORD_ENTRY_POINTS))
def test_every_entry_point_reads_every_form_of_a_word_alike(entry):
    cf = builtin("cf")
    call = _WORD_ENTRY_POINTS[entry]

    def run(form):
        words = [form(names, indices) for names, indices in _CF_PREFIX_SET]
        return call(cf, words[0], words)

    want = run(_WORD_FORMS["index tuple"])
    for name, form in _WORD_FORMS.items():
        assert run(form) == want, name


@pytest.mark.parametrize("entry", sorted(_WORD_ENTRY_POINTS))
def test_every_entry_point_rejects_a_bad_word_naming_the_item(entry):
    cf = builtin("cf")
    call = _WORD_ENTRY_POINTS[entry]
    for case, (bad, shown) in _BAD_WORDS.items():
        raised = ConfigError if entry == "parse_config" else ValueError
        with pytest.raises(raised) as exc:
            call(cf, bad, [bad])
        assert shown in str(exc.value), case


def test_the_word_reader_names_the_item_and_the_alphabet():
    alphabet = builtin("cf").alphabet
    for bad, shown in _BAD_WORDS.values():
        with pytest.raises(ValueError) as exc:
            alphabet.word(bad)
        assert shown in str(exc.value) and "('1-', '0', '1')" in str(exc.value)
    # a tuple of indices is passed through as it is, however it was checked
    word = (2, 1, 0, 1)
    assert alphabet.word(word) is word
    assert alphabet.word(iter(["1", "0"])) == alphabet.word("10") == (2, 1)


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


def test_verify_binary_level_five_certifies_strictly():
    # Q_5 clears 1 + EPS_ONE, so the strict certificate decides the verdict
    # and the rotation-free rule is not needed
    v = verify(builtin("binary"), mode="qn", n=5)
    assert v.status == "verified_Qn" and v.warnings == []
    assert v.evidence == {"n": 5, "Q_n": 1.250000000000001}


def test_verify_auto_stops_scoring_a_level_it_rules_out(monkeypatch):
    real, scored = codec._least_expansion, []
    monkeypatch.setattr(codec, "_least_expansion",
                        lambda z, f: scored.append(1) or real(z, f))
    # each level of these turned covers is ruled out by its first word, so
    # auto mode scores one word a level (153 and 144 words before)
    for name, turn in [("binary", 0.3), ("hyperbolic4", 0.2)]:
        spec = turned_cover(builtin(name), turn)
        scored.clear()
        assert verify(spec, mode="auto").evidence == {"n_max": codec.AUTO_N_MAX}
        assert len(scored) == codec.AUTO_N_MAX
        # mode qn still scores every word and reports the level's minimum
        level = list(spec.interval_shift_levels(3))[3]
        scored.clear()
        q = verify(spec, mode="qn", n=3).evidence["Q_n"]
        assert len(scored) == len(level)
        assert q == min(real(z, f) for _, _, (z, f) in level) < 1.0


def test_verify_reads_a_nan_q_as_min_does(monkeypatch):
    # min() keeps a NaN that comes first in a level and passes over a later one
    spec, real = builtin("binary"), codec._least_expansion
    levels = list(spec.interval_shift_levels(4))
    for nan_at, status in [(0, "inconclusive"), (1, "verified_Qn")]:
        poisoned = {(f.alpha, f.beta) for level in levels[1:]
                    for _, _, (_, f) in level[nan_at:nan_at + 1]}
        monkeypatch.setattr(codec, "_least_expansion", lambda z, f: (
            math.nan if (f.alpha, f.beta) in poisoned else real(z, f)))
        want = min(codec._least_expansion(z, f) for _, _, (z, f) in levels[4])
        assert verify(spec, mode="auto", n_max=4).status == status
        got = verify(spec, mode="qn", n=4).evidence["Q_n"]
        assert got == want or math.isnan(got) and math.isnan(want)


@pytest.mark.parametrize("query", [
    lambda spec: verify(spec, mode="auto", n_max=3, prefix_set=["0", "1", "1-", "21", "21-", "22"]),
    lambda spec: verify(spec, mode="prefix_set", prefix_set=["0", "1", "1-", "21", "21-", "22"]),
    lambda spec: verify(spec, mode="qn", n=3),
    lambda spec: spec.expansion_rate_bound(4),
    lambda spec: [spec.compatibility_violations(level) for level in spec.interval_shift_levels(3)],
], ids=["verify-auto", "verify-prefix-set", "verify-qn", "expansion-rate-bound",
        "compatibility-check"])
def test_each_query_walks_the_interval_shift_once(monkeypatch, query):
    real, starts = interval_system.walk, []

    def counted(*args, **kwargs):
        starts.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(interval_system, "walk", counted)
    query(builtin("binary"))
    assert len(starts) == 1


def test_verify_flags_incompatible_cover():
    from moebius_systems.systems import with_cover
    bi = builtin("binary")
    cover = dict(zip(bi.alphabet.symbols, bi.cover))
    s, l = cover["1"].arcs[0]
    cover["1"] = ArcSet.from_arcs([(s + 0.1, l - 0.1)])
    v = verify(with_cover(bi, cover), mode="auto", n_max=2)
    assert v.status == "inconclusive"
    assert v.evidence.get("compatibility_violations")


def test_verify_mode_validation(monkeypatch):
    with pytest.raises(ValueError):
        verify(builtin("cf"), mode="qn")
    with pytest.raises(ValueError):
        verify(builtin("cf"), mode="prefix_set")
    with pytest.raises(ValueError):
        verify(builtin("cf"), mode="nope")
    # a budget of 1 would stop any walk at its second word, so only a
    # check made before the walk raises ValueError here
    monkeypatch.setattr(subshift, "BUDGET", 1)
    with pytest.raises(ValueError, match="n >= 0"):
        verify(builtin("cf"), mode="qn", n=-1)
    with pytest.raises(ValueError, match="n_max >= 1"):
        verify(builtin("cf"), mode="auto", n_max=0)


# (name, cover turn, mode, n, B, n_max) -> (status, evidence, warnings), as
# recorded when each mode still ran in a branch of its own; an int B stands for
# every word of that length.  The last case's B cannot be parsed, and auto mode
# parses B only after the expansion bounds fail.  The Q_n values were re-recorded,
# each within 1e-14 of a 60-digit product of the letters, when products of disc
# maps stopped being renormalized, and again, each within 3e-15, when the
# expansion minimum came to be read from the pullback state.
_PINNED_VERDICTS = [(('binary', None, 'auto'),
  ('verified_Qn',
   {'n': 4, 'Q_n': 1.0, 'rotation_free': True},
   ['expansion bound at n=4 equals 1; certified because no length-4 word map is a '
    'rotation'])),
 (('cf', None, 'auto'),
  ('verified_Qn',
   {'n': 2, 'Q_n': 0.9999999999999998, 'rotation_free': True},
   ['expansion bound at n=2 equals 1; certified because no length-2 word map is a '
    'rotation'])),
 (('hyperbolic4', None, 'auto'),
  ('verified_Qn',
   {'n': 1, 'Q_n': 0.9999999999999987, 'rotation_free': True},
   ['expansion bound at n=1 equals 1; certified because no length-1 word map is a '
    'rotation'])),
 (('parabolic3', None, 'auto'),
  ('verified_Qn',
   {'n': 1, 'Q_n': 0.9999999999999998, 'rotation_free': True},
   ['expansion bound at n=1 equals 1; certified because no length-1 word map is a '
    'rotation'])),
 (('binary', None, 'qn', 1), ('inconclusive', {'n': 1, 'Q_n': 0.5882352941176472}, [])),
 (('binary', None, 'qn', 2), ('inconclusive', {'n': 2, 'Q_n': 0.47058823529411786}, [])),
 (('binary', None, 'qn', 3), ('inconclusive', {'n': 3, 'Q_n': 0.5882352941176475}, [])),
 (('cf', None, 'qn', 1), ('inconclusive', {'n': 1, 'Q_n': 1.0}, [])),
 (('cf', None, 'qn', 2),
  ('verified_Qn',
   {'n': 2, 'Q_n': 0.9999999999999998, 'rotation_free': True},
   ['expansion bound at n=2 equals 1; certified because no length-2 word map is a '
    'rotation'])),
 (('cf', None, 'qn', 3),
  ('verified_Qn',
   {'n': 3, 'Q_n': 0.9999999999999998, 'rotation_free': True},
   ['expansion bound at n=3 equals 1; certified because no length-3 word map is a '
    'rotation'])),
 (('hyperbolic4', None, 'qn', 1),
  ('verified_Qn',
   {'n': 1, 'Q_n': 0.9999999999999987, 'rotation_free': True},
   ['expansion bound at n=1 equals 1; certified because no length-1 word map is a '
    'rotation'])),
 (('hyperbolic4', None, 'qn', 2),
  ('verified_Qn',
   {'n': 2, 'Q_n': 0.9999999999999969, 'rotation_free': True},
   ['expansion bound at n=2 equals 1; certified because no length-2 word map is a '
    'rotation'])),
 (('hyperbolic4', None, 'qn', 3),
  ('verified_Qn',
   {'n': 3, 'Q_n': 0.9999999999999951, 'rotation_free': True},
   ['expansion bound at n=3 equals 1; certified because no length-3 word map is a '
    'rotation'])),
 (('parabolic3', None, 'qn', 1),
  ('verified_Qn',
   {'n': 1, 'Q_n': 0.9999999999999998, 'rotation_free': True},
   ['expansion bound at n=1 equals 1; certified because no length-1 word map is a '
    'rotation'])),
 (('parabolic3', None, 'qn', 2),
  ('verified_Qn',
   {'n': 2, 'Q_n': 0.9999999999999996, 'rotation_free': True},
   ['expansion bound at n=2 equals 1; certified because no length-2 word map is a '
    'rotation'])),
 (('parabolic3', None, 'qn', 3),
  ('verified_Qn',
   {'n': 3, 'Q_n': 0.9999999999999993, 'rotation_free': True},
   ['expansion bound at n=3 equals 1; certified because no length-3 word map is a '
    'rotation'])),
 (('cf', None, 'qn', 0), ('inconclusive', {'n': 0, 'Q_n': 1.0}, [])),
 (('cf', None, 'prefix_set', None, ('01', '01-', '1', '1-')),
  ('verified_prefix_set', {'B': ['01', '01-', '1', '1-']}, [])),
 (('cf', None, 'prefix_set', None, ('0', '1')),
  ('inconclusive', {'missing_prefix': ['1-'], 'not_contained': ['0']}, [])),
 (('cf', None, 'prefix_set', None, ('01', '1')),
  ('inconclusive', {'missing_prefix': ['1-1-', '1-0', '01-'], 'not_contained': []}, [])),
 (('cf', None, 'prefix_set', None, ('1', '1-', '0')),
  ('inconclusive', {'missing_prefix': [], 'not_contained': ['0']}, [])),
 (('binary', None, 'prefix_set', None, ('0', '1', '1-', '21', '21-', '22')),
  ('inconclusive', {'missing_prefix': [], 'not_contained': ['22']}, [])),
 (('cf', None, 'auto', None, ('01', '01-', '1', '1-'), 1),
  ('verified_prefix_set', {'B': ['01', '01-', '1', '1-']}, [])),
 (('binary', None, 'auto', None, ('0', '1', '1-', '21', '21-', '22'), 3),
  ('inconclusive',
   {'n_max': 3},
   ["no expansion certificate up to n=3; supply a prefix set B (mode='prefix_set') to "
    'certify this system'])),
 (('cf', 0.1, 'auto', None, 2, 1),
  ('inconclusive',
   {'compatibility_violations': 1},
   ['cover fails the extension identity at: 1-0'])),
 (('cf', 0.1, 'auto', None, 3, 1),
  ('inconclusive',
   {'compatibility_violations': 3},
   ['cover fails the extension identity at: 1-0, 1-1-0, 01-0'])),
 (('cf', 0.25, 'auto', None, 2, 1),
  ('inconclusive',
   {'n_max': 1},
   ["no expansion certificate up to n=1; supply a prefix set B (mode='prefix_set') to "
    'certify this system'])),
 (('binary', 0.5, 'auto', None, 2, 1),
  ('inconclusive',
   {'n_max': 1},
   ["no expansion certificate up to n=1; supply a prefix set B (mode='prefix_set') to "
    'certify this system'])),
 (('parabolic3', None, 'auto', None, ('zz',)),
  ('verified_Qn',
   {'n': 1, 'Q_n': 0.9999999999999998, 'rotation_free': True},
   ['expansion bound at n=1 equals 1; certified because no length-1 word map is a '
    'rotation']))]


# compatibility-violation counts of verify --auto on the builtins with their
# covers turned k/40 of a turn, k = 8..32 (the benchmark's certify band),
# recorded while refined sets were still refined forward; None is no
# violation.  Every verdict is inconclusive and names no level n.
_TURNED_VIOLATIONS = {
    "parabolic3": [None] * 25,
    "cf": [1, 1] + [None] * 21 + [1, 1],
    "binary": [2, 2, 1] + [None] * 19 + [1, 2, 2],
    "hyperbolic4": [None] * 25,
}


@pytest.mark.parametrize("name", sorted(_TURNED_VIOLATIONS))
def test_turned_cover_verdicts_are_pinned(name):
    got = []
    for k in range(8, 33):
        v = verify(turned_cover(builtin(name), k / 40), mode="auto")
        got.append((v.status, v.evidence.get("n"), v.evidence.get("compatibility_violations")))
    assert got == [("inconclusive", None, c) for c in _TURNED_VIOLATIONS[name]]


def _pinned_case(name, turn, mode, n=None, b=None, n_max=8):
    spec = builtin(name) if turn is None else turned_cover(builtin(name), turn)
    if isinstance(b, int):
        b = [spec.alphabet.format(w)
             for w in itertools.product(range(spec.alphabet.size), repeat=b)]
    v = verify(spec, mode=mode, n=n, prefix_set=b, n_max=n_max)
    return v.status, v.evidence, v.warnings


@pytest.mark.parametrize("case, expected", _PINNED_VERDICTS,
                         ids=[str(c) for c, _ in _PINNED_VERDICTS])
def test_verify_matches_pinned_verdicts(case, expected):
    assert _pinned_case(*case) == expected


def test_decode_builds_no_map_per_digit(monkeypatch):
    spec = builtin("cf")
    built = []
    checked, product = DiscMoebius.__post_init__, DiscMoebius._product
    # the checked constructor and the product constructor of compose/inverse
    monkeypatch.setattr(DiscMoebius, "__post_init__",
                        lambda self: built.append(1) or checked(self))
    monkeypatch.setattr(DiscMoebius, "_product",
                        staticmethod(lambda a, b: built.append(1) or product(a, b)))
    spec.transforms[0].compose(spec.transforms[1])
    assert built == [1]  # a product is counted
    built.clear()
    word = decode(spec, 1.234, 61)
    assert len(word) == 61 and not built


# -- standing defects, pinned until their ROADMAP direction mends them ----------------


def _hyperbolic4_with_contraction(r):
    """hyperbolic4 with letter 3 replaced by contraction(r).  R(3) = C_3 is a
    quarter circle, but F_3^-1(C_3) is narrower than EPS_ANGLE, so the
    pullback walk drops every word that holds a 3; the system is no number
    system (3^oo converges to angle 0, and encode rejects the words decode
    emits)."""
    h4 = builtin("hyperbolic4")
    maps = dict(zip(h4.alphabet.symbols, h4.transforms))
    maps["3"] = contraction(r)
    return NumberSystemSpec(h4.alphabet, maps, dict(zip(h4.alphabet.symbols, h4.cover)),
                            h4.subshift, name="hyperbolic4-contracted")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP direction 1: membership drops a word whose refined "
                          "set is wide once its pullback state is narrower than EPS_ANGLE")
@pytest.mark.parametrize("r", [1e5, 1e8, 1e12])
def test_verify_does_not_certify_a_letter_that_contracts_on_its_arc(r):
    assert not verify(_hyperbolic4_with_contraction(r), mode="auto").verified


# ROADMAP direction 13's scan: one letter of a builtin swapped for a map that
# repels from the centre of its cover arc, at 9 strengths: 126 systems
PERTURBED_LETTERS = [(name, k, r) for name in ("parabolic3", "cf", "binary", "hyperbolic4")
                     for k in range(builtin(name).alphabet.size)
                     for r in [3.0] + [10.0 ** e for e in range(1, 9)]]


def test_the_codec_does_not_contradict_the_builtins():
    for name in ("parabolic3", "cf", "binary", "hyperbolic4"):
        assert codec_contradiction(builtin(name)) is None, name


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP direction 1: certified systems whose decoded words "
                          "encode rejects, or whose points decode cannot expand")
def test_no_certified_perturbed_letter_fails_the_codec_audit():
    assert len(PERTURBED_LETTERS) == 126
    certified = [(name, k, r, spec) for name, k, r in PERTURBED_LETTERS
                 if verify(spec := perturbed_letter(builtin(name), k, r), mode="auto").verified]
    assert certified  # the family certifies, so a false certificate can show
    failing = [(name, k, r) for name, k, r, spec in certified if codec_contradiction(spec)]
    assert failing == []

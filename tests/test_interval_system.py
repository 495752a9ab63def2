"""Refined sets, the interval shift, compatibility, and expansion bounds."""

import math
import random

import pytest

from moebius_systems import interval_system
from moebius_systems.arcs import EPS_ANGLE, ArcSet, expansion_interval, image, min_inverse_derivative
from moebius_systems.codec import decode, representable_interval, verify
from moebius_systems.errors import EmptyRefinedSet
from moebius_systems.interval_system import NumberSystemSpec
from moebius_systems.subshift import Alphabet, Subshift
from moebius_systems.systems import builtin, with_cover
from moebius_systems.transforms import TAU
from reference import (
    dead_end_pair,
    exhaustive_table,
    forward_levels,
    forward_refined_set,
    global_prefix_check,
    mp_product,
    turned_cover,
)


def rotated_parabolic3():
    """The three parabolic maps with the cover rotated one vertex back and
    no subshift restriction; only constant words survive refinement."""
    p3 = builtin("parabolic3")
    third = TAU / 3
    cover = {
        "a": ArcSet.arc(2 * third, TAU),   # (C, A)
        "b": ArcSet.arc(0, third),         # (A, B)
        "c": ArcSet.arc(third, 2 * third), # (B, C)
    }
    return NumberSystemSpec(
        p3.alphabet,
        dict(zip(p3.alphabet.symbols, p3.transforms)),
        cover,
        Subshift(p3.alphabet, ()),
        name="parabolic3-rotated",
    )


def trivial_binary():
    bi = builtin("binary")
    return with_cover(bi, {s: ArcSet.full_circle() for s in bi.alphabet.symbols})


def _violations(spec, depth):
    """The compatibility violations of the interval-shift levels 0..depth."""
    return [v for level in spec.interval_shift_levels(depth)
            for v in spec.compatibility_violations(level)]


def _parts(spec):
    """The spec's maps and cover arcs by symbol, as NumberSystemSpec takes them."""
    return (dict(zip(spec.alphabet.symbols, spec.transforms)),
            dict(zip(spec.alphabet.symbols, spec.cover)))


def test_spec_without_a_subshift_forbids_nothing():
    bi = builtin("binary")
    spec = NumberSystemSpec(bi.alphabet, *_parts(bi))
    assert spec.subshift.forbidden == ()
    assert spec.subshift.alphabet == bi.alphabet


def test_spec_arguments_are_checked():
    bi = builtin("binary")
    maps, cover = _parts(bi)
    other = Subshift(Alphabet(("x", "y", "z", "w")), ())
    with pytest.raises(ValueError, match="subshift alphabet differs from the system alphabet"):
        NumberSystemSpec(bi.alphabet, maps, cover, other)
    first = bi.alphabet.symbols[0]
    with pytest.raises(ValueError, match=f"no transformation for symbol {first!r}"):
        NumberSystemSpec(bi.alphabet, {s: m for s, m in maps.items() if s != first}, cover)
    with pytest.raises(ValueError, match=f"no cover arcs for symbol {first!r}"):
        NumberSystemSpec(bi.alphabet, maps, {s: c for s, c in cover.items() if s != first})


# -- refined sets ---------------------------------------------------------------


def test_refined_set_of_empty_word_is_full():
    assert builtin("cf").refined_set(()).full


def test_parabolic3_forbidden_pairs_refine_to_empty():
    p3 = builtin("parabolic3")
    for w in ("ac", "ba", "cb"):
        assert p3.refined_set(w).is_empty


def test_parabolic3_refined_sets_are_pushed_last_letter_covers():
    # legal words u satisfy W_u = F_(all but last)(W_(last letter))
    p3 = builtin("parabolic3")
    for n in range(1, 6):
        for u in p3.interval_shift_language(n):
            expect = image(p3.word_transform(u[:-1]), p3.cover[u[-1]])
            assert p3.refined_set(u).distance(expect) < 1e-9


@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_refined_set_matches_direct_definition(name):
    # independent oracle: intersect the pushed-forward letter covers left
    # to right without the cache or the incremental recursion; the decoded
    # words reach past the cached depth
    spec = builtin(name)
    decoded = [decode(spec, 1.234, n) for n in (33, 48, 60)]
    for w in spec.interval_shift_language(5) + decoded:
        assert forward_refined_set(spec, w).distance(spec.refined_set(w)) < 1e-9


def test_refined_set_recursion_identity():
    rng = random.Random(20)
    cf = builtin("cf")
    words = cf.interval_shift_language(6)
    for _ in range(100):
        v = rng.choice(words)
        k = rng.randint(0, len(v))
        u, w = v[:k], v[k:]
        recombined = cf.refined_set(u).intersect(image(cf.word_transform(u), cf.refined_set(w)))
        assert cf.refined_set(v).distance(recombined) < 1e-9


def test_refined_set_monotone():
    bi = builtin("binary")
    for v in bi.interval_shift_language(4):
        outer = bi.refined_set(v[:-1])
        inner = bi.refined_set(v)
        assert inner.intersect(outer).distance(inner) < 1e-9


def test_refined_sets_inside_expansion_intervals():
    # with letter covers inside the letter expansion intervals, every legal
    # word keeps its refined set inside the word map's expansion interval
    for name in ("parabolic3", "hyperbolic4"):
        spec = builtin(name)
        for n in range(1, 7):
            for u in spec.interval_shift_language(n):
                v = expansion_interval(spec.word_transform(u))
                leak = spec.refined_set(u).intersect(v.complement())
                assert leak.length() < 1e-7, (name, u)


def test_long_words_answer_and_add_one_memo_entry():
    cf = builtin("cf")
    w = decode(cf, 1.234, 60)
    assert not cf.refined_set(w).is_empty
    assert not cf.word_transform(w).is_rotation
    assert 1.0 < cf.min_expansion(w) < math.inf
    assert representable_interval(cf, w).contains(1.234, tol=EPS_ANGLE)
    # a one-word query memoises that word alone, however long it is
    fresh = builtin("cf")
    long_word = decode(fresh, 1.234, 2000)
    before = len(fresh._cache)
    fresh.refined_set(long_word)
    assert len(fresh._cache) - before <= 1
    fresh.word_transform(long_word)
    assert len(fresh._cache) - before <= 1


# -- interval shift language -------------------------------------------------------


def test_interval_shift_language_basics():
    bi = builtin("binary")
    assert bi.interval_shift_language(0) == [()]
    words = {bi.alphabet.format(w) for w in bi.interval_shift_language(2)}
    assert "11-" not in words and "1-1" not in words
    # note: the exclusion comes from the subshift; the refinements of these
    # two words are small but nonempty arcs (reals (1/4,3/8) and its mirror)
    w = bi.refined_set(bi.alphabet.word("11-"))
    assert not w.is_empty and w.length() < 0.3


def test_parabolic3_level_two_language():
    p3 = builtin("parabolic3")
    words = [p3.alphabet.format(w) for w in p3.interval_shift_language(2)]
    assert words == ["aa", "ab", "bb", "bc", "ca", "cc"]


def test_rotated_cover_language_is_constant_words():
    spec = rotated_parabolic3()
    for n in (1, 3, 6):
        words = {spec.alphabet.format(w) for w in spec.interval_shift_language(n)}
        assert words == {"a" * n, "b" * n, "c" * n}


@pytest.mark.parametrize("turn", [None, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_language_matches_forward_refinement(name, turn):
    spec = builtin(name) if turn is None else turned_cover(builtin(name), turn)
    walked = [[w for w, _, _ in level] for level in spec.interval_shift_levels(8)]
    assert walked == forward_levels(spec, 8)


@pytest.mark.parametrize("turn", [None, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_walk_carries_each_words_entry_and_follower_state(name, turn):
    # the (Z_w, F_w) stepped in the walk's frontier is the one a one-word
    # query steps from the root, bit for bit, and the follower state is the
    # replay of the word through the subshift's transitions
    spec = builtin(name) if turn is None else turned_cover(builtin(name), turn)
    for level in spec.interval_shift_levels(6):
        for word, state, entry in level:
            assert entry == spec._entry(word), word
            replay = spec.subshift.initial
            for a in word:
                replay = spec.subshift.transitions[replay][a]
            assert state == replay, word


def test_walk_consumers_ask_for_no_walked_word(monkeypatch):
    asked = []
    original = NumberSystemSpec._entry
    monkeypatch.setattr(NumberSystemSpec, "_entry",
                        lambda self, word: asked.append(word) or original(self, word))
    for name in ("parabolic3", "cf", "binary", "hyperbolic4"):
        for spec in (builtin(name), turned_cover(builtin(name), 0.25)):
            spec.expansion_rate_bound(6)
            for level in spec.interval_shift_levels(4):
                spec.compatibility_violations(level)
            verify(spec, "auto", n_max=4)
            verify(spec, "qn", n=3)
    assert asked == []
    # check_prefix_set's B words are one-word queries, and nothing else is
    cf = builtin("cf")
    b_words = ["01", "01-", "1", "1-"]
    assert verify(cf, "prefix_set", prefix_set=b_words).status == "verified_prefix_set"
    assert asked == [cf.alphabet.word(b) for b in b_words]


def test_shift_invariance_of_language():
    cf = builtin("cf")
    for n in (2, 4, 6):
        shorter = set(cf.interval_shift_language(n - 1))
        for v in cf.interval_shift_language(n):
            assert v[1:] in shorter


# -- compatibility ------------------------------------------------------------------


def test_binary_compatibility_depth_one():
    assert not _violations(builtin("binary"), 1)
    # a negative depth checks no word, so it is an error and not a pass
    with pytest.raises(ValueError, match="n >= 0"):
        _violations(builtin("cf"), -1)


def test_trivial_cover_is_compatible():
    assert not _violations(trivial_binary(), 2)


def test_shrunk_cover_fails_with_gap():
    bi = builtin("binary")
    cover = dict(zip(bi.alphabet.symbols, bi.cover))
    s, l = cover["1"].arcs[0]
    cover["1"] = ArcSet.from_arcs([(s + 0.1, l - 0.1)])
    [(word, gaps)] = _violations(with_cover(bi, cover), 1)
    assert bi.alphabet.format(word) == "2"
    [(start, length)] = gaps
    assert abs(start - 5.639684198386302) <= 1e-12
    assert abs(length - 0.16480815299067686) <= 1e-12


@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_builtin_compatibility(name):
    assert not _violations(builtin(name), 3)


# -- expansion bounds ----------------------------------------------------------------


def test_min_expansion_of_empty_word():
    assert builtin("cf").min_expansion(()) == 1.0


def test_min_expansion_requires_nonempty():
    with pytest.raises(EmptyRefinedSet):
        builtin("parabolic3").min_expansion("ac")


def test_min_expansion_matches_a_high_precision_product():
    # the inverse derivative det / |alpha - conj(beta) x|^2 of the float
    # letters' product at 60 digits, taken at the same closed refined-set
    # endpoints (and at the antipode of the disc center when it is inside)
    mpmath = pytest.importorskip("mpmath")

    def reference(spec, word):
        fa, fb, det = mp_product(spec, word)
        far = det / (abs(fb) + abs(fa)) ** 2
        antipode = float(mpmath.arg(fa / mpmath.conj(fb))) + math.pi
        values = []
        for s, l in spec.refined_set(word).closure().arcs:
            for theta in (s, s + l):
                x = mpmath.expj(mpmath.mpf(theta))
                values.append(det / abs(fa - mpmath.conj(fb) * x) ** 2)
            if (antipode - s) % TAU <= l:
                values.append(far)
        return min(values)

    cases = [(builtin("hyperbolic4"), "00000000"), (builtin("hyperbolic4"), "33322222")]
    for name in ("binary", "cf", "hyperbolic4", "parabolic3"):
        spec = builtin(name)
        cases += [(spec, w) for w in spec.interval_shift_language(6)]
    with mpmath.workdps(60):
        for spec, word in cases:
            word = spec.alphabet.word(word)
            assert abs(spec.min_expansion(word) / reference(spec, word) - 1) <= 1e-9, word


@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_min_expansion_matches_the_refined_set_minimum(name):
    # the local minimum over cl Z_w against the global one over cl R(w).
    # The global form is the less accurate side: a rounding of R(w)'s
    # endpoint angles moves it by 2/|x - d| relative per radian, and on
    # hyperbolic4's 100000 it is 7.3e-12 off a 60-digit product of the
    # float letters where min_expansion is 3e-16 off.
    spec = builtin(name)
    for level in spec.interval_shift_levels(6):
        for w, _, _ in level:
            ref = min_inverse_derivative(spec.word_transform(w), spec.refined_set(w).closure())
            assert abs(spec.min_expansion(w) / ref - 1) <= 1e-11, w


@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_min_expansion_along_decoded_words_matches_a_high_precision_product(name):
    # |conj(beta) y + conj(alpha)|^2 / det at 60 digits over the endpoints
    # of cl Z_w, and det / (|alpha| + |beta|)^2 where cl Z_w holds the point
    # nearest the pole; the refined sets of most of these prefixes are
    # narrower than EPS_ANGLE, so only the pullback state can answer
    mpmath = pytest.importorskip("mpmath")
    spec = builtin(name)
    word = decode(spec, 1.234, 120)
    z = ArcSet.full_circle()
    with mpmath.workdps(60):
        for k in range(len(word) + 1):
            if k:
                z = spec.pull_step(z, word[k - 1])
            fa, fb, det = mp_product(spec, word[:k])
            closed = z.closure()
            near = det / (abs(fa) + abs(fb)) ** 2
            if closed.full:
                ref = near
            else:
                pole = float(mpmath.arg(-mpmath.conj(fa) * fb))
                ref = min(abs(mpmath.conj(fb) * mpmath.expj(t) + mpmath.conj(fa)) ** 2 / det
                          for s, l in closed.arcs for t in (s, s + l))
                if any((pole - s) % TAU <= l for s, l in closed.arcs):
                    ref = min(ref, near)
            q = spec.min_expansion(word[:k])
            assert math.isfinite(q) and abs(q / ref - 1) <= 1e-10, k


def test_trivial_binary_zero_run_expansion():
    spec = trivial_binary()
    for n in (1, 3, 6):
        assert abs(spec.min_expansion("0" * n) - 0.5**n) < 1e-9


def test_trivial_binary_level_bound():
    spec = trivial_binary()
    assert spec.level_min_expansion(0) == 1.0
    for n in range(1, 11):
        assert spec.level_min_expansion(n) <= 0.5**n + 1e-9


def test_rotated_parabolic_roots_increase_to_one():
    spec = rotated_parabolic3()
    prev = 0.0
    roots = []
    for n in range(1, 13):
        q = spec.level_min_expansion(n)
        assert q < 1.0
        root = q ** (1.0 / n)
        assert root > prev - 1e-12
        prev = root
        roots.append(root)
    # the levels decay only polynomially, so the n-th roots creep to 1:
    # root(n) = poly(n)^(-1/n); check the closed form's prediction at n=12
    q12 = spec.level_min_expansion(12)
    assert roots[-1] == pytest.approx(q12 ** (1 / 12))
    assert roots[-1] > roots[0] and 1.0 - roots[-1] < 1.0 - roots[0]


def test_rotated_parabolic_inverse_quadratic_law():
    # constant-word expansions are 1/|g(n)|^2 with g a complex linear
    # polynomial, so 1/q(a^n) is a real quadratic in n: second differences
    # of the reciprocals are constant
    spec = rotated_parabolic3()
    recip = [1.0 / spec.min_expansion("a" * n) for n in range(1, 9)]
    second = [recip[i + 2] - 2 * recip[i + 1] + recip[i] for i in range(len(recip) - 2)]
    for d in second[1:]:
        assert abs(d - second[0]) < 1e-6
    assert recip[0] == pytest.approx(3.0)  # 1^2 + 1 + 1


def test_superadditivity_on_builtins():
    for name in ("parabolic3", "cf", "binary", "hyperbolic4"):
        spec = builtin(name)
        q = {n: spec.level_min_expansion(n) for n in range(1, 9)}
        for n in range(1, 8):
            for m in range(1, 9 - n):
                assert math.log(q[n + m]) >= math.log(q[n]) + math.log(q[m]) - 1e-9


def test_expansion_rate_bound_dominates_level_one():
    cf = builtin("cf")
    est = cf.expansion_rate_bound(4)
    assert est.lower_bound >= cf.level_min_expansion(1) - 1e-12
    assert est.n_achieving >= 1
    # no level to bound: an empty range used to give -inf as a "bound"
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            cf.expansion_rate_bound(n_max)


def test_empty_levels_are_inf_and_skipped_by_the_rate_bound():
    spec = dead_end_pair()
    q1 = spec.level_min_expansion(1)
    assert 0.0 < q1 < 1.0
    # the greedy descent ends at the first level with no child
    assert spec._dive_bounds(3) == [1.0, q1, math.inf, math.inf]
    est = spec.expansion_rate_bound(3)
    assert est.table == [(1, q1), (2, math.inf), (3, math.inf)]
    assert est.lower_bound == q1 and est.n_achieving == 1
    assert "some language levels are empty; their entries were ignored" in est.warnings
    assert spec.level_min_expansion(2) == math.inf


def test_level_and_prefix_set_arguments_are_checked():
    cf = builtin("cf")
    with pytest.raises(ValueError, match="level n must be >= 0"):
        cf.level_min_expansion(-1)
    with pytest.raises(ValueError, match="prefix set must be nonempty"):
        cf.check_prefix_set([])


def test_trivial_cover_rate_warning():
    est = trivial_binary().expansion_rate_bound(8)
    assert est.lower_bound < 1.0
    assert any("Q estimate" in w for w in est.warnings)
    assert est.table == exhaustive_table(trivial_binary(), 8)


@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_pruned_table_matches_exhaustive_on_builtins(name):
    assert builtin(name).expansion_rate_bound(8).table == exhaustive_table(builtin(name), 8)


@pytest.mark.parametrize("turn", [0.1, 0.25, 0.37, 0.5, 0.9])
@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_pruned_table_matches_exhaustive_on_turned_covers(name, turn):
    spec = turned_cover(builtin(name), turn)
    oracle = exhaustive_table(turned_cover(builtin(name), turn), 9)
    assert spec.expansion_rate_bound(9).table == oracle


def test_pruned_walk_computes_few_word_minima(monkeypatch):
    # every Q_n of hyperbolic4 is 1, attained on few branches: the bound
    # q(uv) >= q(u)*Q_|v| cuts nearly all of the 118,096 words of levels 1..10
    calls = []
    original = interval_system._least_expansion
    monkeypatch.setattr(interval_system, "_least_expansion",
                        lambda z, f: calls.append(f) or original(z, f))
    table = builtin("hyperbolic4").expansion_rate_bound(10).table
    assert len(table) == 10 and all(abs(q - 1.0) <= 1e-9 for _, q in table)
    assert len(calls) <= 1000


# -- prefix sets ------------------------------------------------------------------------


def test_cf_prefix_set_passes():
    cf = builtin("cf")
    check = cf.check_prefix_set(["01", "01-", "1", "1-"])
    assert check.passed
    # the word maps never contract anywhere on the closed refined sets;
    # the minimum sits exactly at 1 (attained at parabolic fixed points
    # on the boundary), which is the open-containment borderline
    for b in ("01", "01-", "1", "1-"):
        assert cf.min_expansion(b) >= 1.0 - 1e-9


def test_binary_prefix_set_is_rejected_at_22():
    # the quoted prefix set fails its containment requirement at the word
    # 22: the refined set is the half circle through i but the expansion
    # interval of the doubled doubling map is strictly smaller
    bi = builtin("binary")
    check = bi.check_prefix_set(["0", "1", "1-", "21", "21-", "22"])
    assert not check.passed
    assert [bi.alphabet.format(b) for b in check.not_contained] == ["22"]
    assert not check.missing_prefix
    assert bi.min_expansion("22") < 0.5  # quantitative witness (8/17)


# prefix sets beyond the letters and the two-letter words: the benchmark's
# for cf and the one rejected at 22 for binary
PREFIX_SETS = {"cf": "01,01-,1,1-", "binary": "0,1,1-,21,21-,22"}


@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_prefix_check_matches_the_global_form_on_turned_covers(name):
    # covers turned 0 to 0.95 of a turn: 60 prefix sets on cf and binary,
    # 40 on the others, each checked in local coordinates against the global
    # form; words fall on both sides of the containment test
    inside = outside = 0
    for k in range(20):
        spec = builtin(name) if k == 0 else turned_cover(builtin(name), 0.05 * k)
        size = spec.alphabet.size
        candidates = [[(a,) for a in range(size)],
                      [(a, b) for a in range(size) for b in range(size)]]
        if name in PREFIX_SETS:
            candidates.append([spec.alphabet.word(b) for b in PREFIX_SETS[name].split(",")])
        for b_words in candidates:
            check = spec.check_prefix_set(b_words)
            got = (check.passed, check.missing_prefix, check.not_contained)
            assert got == global_prefix_check(spec, b_words), (k, b_words)
            outside += len(check.not_contained)
            inside += len(b_words) - len(check.not_contained)
    assert inside and outside


def test_single_letter_prefix_set_misses_words():
    cf = builtin("cf")
    check = cf.check_prefix_set(["1"])
    assert not check.passed
    assert check.missing_prefix  # e.g. words starting with 0 or 1-


def test_hyperbolic4_letters_form_prefix_set():
    h4 = builtin("hyperbolic4")
    check = h4.check_prefix_set(["0", "1", "2", "3"])
    assert check.passed


# -- cache behaviour -----------------------------------------------------------------


def test_concurrent_refinement_matches_serial():
    # the cache contract: concurrent readers/writers observe the same
    # values as a serial run (entries are pure and idempotent)
    from concurrent.futures import ThreadPoolExecutor

    cf = builtin("cf")
    words = cf.interval_shift_language(6)
    serial = {w: cf.refined_set(w) for w in words}
    fresh = NumberSystemSpec(
        cf.alphabet,
        dict(zip(cf.alphabet.symbols, cf.transforms)),
        dict(zip(cf.alphabet.symbols, cf.cover)),
        cf.subshift,
    )
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(fresh.refined_set, words))
    for w, got in zip(words, results):
        assert got.distance(serial[w]) < 1e-12


def test_cache_eviction_keeps_results_consistent(monkeypatch):
    cf = builtin("cf")
    reference = {w: cf.refined_set(w) for w in cf.interval_shift_language(4)}
    small = builtin("cf")
    monkeypatch.setattr(interval_system, "_CACHE_CAP", 16)
    for w, expect in reference.items():
        assert small.refined_set(w).distance(expect) < 1e-12
    assert len(small._cache) <= 64


def test_rate_within_eps_one_of_one_is_reported_as_one():
    est = builtin("hyperbolic4").expansion_rate_bound(6)
    assert est.lower_bound == 1.0
    assert any("equals 1 within EPS_ONE" in w for w in est.warnings)
    assert builtin("cf").expansion_rate_bound(6).lower_bound == 1.0

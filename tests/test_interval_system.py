"""Refined sets, the interval shift, compatibility, and expansion bounds."""

import math
import random

import pytest

from moebius_systems.arcs import ArcSet, image
from moebius_systems.errors import DepthCapExceeded, EmptyRefinedSet
from moebius_systems.interval_system import NumberSystemSpec
from moebius_systems.subshift import Subshift
from moebius_systems.systems import builtin, with_cover
from moebius_systems.transforms import TAU


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
    # to right without the cache or the incremental recursion
    from moebius_systems.transforms import identity

    spec = builtin(name)
    for w in spec.interval_shift_language(5):
        direct = ArcSet.full_circle()
        f = identity()
        for a in w:
            direct = direct.intersect(image(f, spec.cover[a]))
            f = f.compose(spec.transforms[a])
        assert direct.distance(spec.refined_set(w)) < 1e-9


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
                leak = spec.refined_set(u).intersect(spec.word_expansion_interval(u).complement())
                assert leak.length() < 1e-7, (name, u)


def test_depth_cap():
    cf = builtin("cf")
    with pytest.raises(DepthCapExceeded):
        cf.refined_set(tuple([2] * (cf.depth_cap + 1)))


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


def test_shift_invariance_of_language():
    cf = builtin("cf")
    for n in (2, 4, 6):
        shorter = set(cf.interval_shift_language(n - 1))
        for v in cf.interval_shift_language(n):
            assert v[1:] in shorter


# -- compatibility ------------------------------------------------------------------


def test_binary_compatibility_depth_one():
    assert builtin("binary").compatibility_check(1).passed


def test_trivial_cover_is_compatible():
    assert trivial_binary().compatibility_check(2).passed


def test_shrunk_cover_fails_with_gap():
    bi = builtin("binary")
    cover = dict(zip(bi.alphabet.symbols, bi.cover))
    s, l = cover["1"].arcs[0]
    cover["1"] = ArcSet.from_arcs([(s + 0.1, l - 0.1)])
    report = with_cover(bi, cover).compatibility_check(1)
    assert not report.passed
    total_gap = sum(l for _, gaps in report.violations for _, l in gaps)
    assert total_gap > 0.01


@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_builtin_compatibility(name):
    assert builtin(name).compatibility_check(3).passed


# -- expansion bounds ----------------------------------------------------------------


def test_min_expansion_of_empty_word():
    assert builtin("cf").min_expansion(()) == 1.0


def test_min_expansion_requires_nonempty():
    with pytest.raises(EmptyRefinedSet):
        builtin("parabolic3").min_expansion("ac")


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


def test_trivial_cover_rate_warning():
    est = trivial_binary().expansion_rate_bound(8)
    assert est.lower_bound < 1.0
    assert any("Q estimate" in w for w in est.warnings)
    # oracle: recompute the table directly
    for n, q in est.table:
        assert abs(q - trivial_binary().level_min_expansion(n)) < 1e-12


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
    assert [bi.alphabet.format(b) for b, _ in check.not_contained] == ["22"]
    assert not check.missing_prefix
    assert bi.min_expansion("22") < 0.5  # quantitative witness (8/17)


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


def test_cache_eviction_keeps_results_consistent():
    cf = builtin("cf")
    small = NumberSystemSpec(
        cf.alphabet,
        dict(zip(cf.alphabet.symbols, cf.transforms)),
        dict(zip(cf.alphabet.symbols, cf.cover)),
        cf.subshift,
        cache_cap=16,
    )
    reference = {w: cf.refined_set(w) for w in cf.interval_shift_language(4)}
    for w, expect in reference.items():
        assert small.refined_set(w).distance(expect) < 1e-12
    assert len(small._cache) <= 64


def test_rate_within_eps_one_of_one_is_reported_as_one():
    est = builtin("hyperbolic4").expansion_rate_bound(6)
    assert est.lower_bound == 1.0
    assert any("equals 1 within EPS_ONE" in w for w in est.warnings)
    assert builtin("cf").expansion_rate_bound(6).lower_bound == 1.0

"""Refined sets, the interval shift, compatibility, and expansion bounds."""

import math
import random
from functools import reduce

import pytest

from moebius_systems import interval_system
from moebius_systems.arcs import EPS_ANGLE, ArcSet, image, min_inverse_derivative
from moebius_systems.codec import (
    _prefix_set_failures, decode, encode, representable_interval, verify,
)
from moebius_systems.errors import EmptyRefinedSet, IllegalPrefix
from moebius_systems.interval_system import NumberSystemSpec
from moebius_systems.sofic import build_automaton
from moebius_systems.subshift import Alphabet, Subshift
from moebius_systems.systems import builtin, with_cover
from moebius_systems.transforms import TAU, contraction, rotation
from reference import (
    dead_end_pair,
    exhaustive_table,
    expansion_interval,
    forward_levels,
    forward_refined_set,
    global_prefix_check,
    interval_shift_words,
    mp_product,
    pullback_entry,
    random_multi_arc_system,
    random_system,
    refined_set,
    rotated_parabolic3,
    turned_cover,
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
    assert refined_set(builtin("cf"), ()).full


def test_parabolic3_forbidden_pairs_refine_to_empty():
    p3 = builtin("parabolic3")
    for w in ("ac", "ba", "cb"):
        assert refined_set(p3, w).is_empty


def test_parabolic3_refined_sets_are_pushed_last_letter_covers():
    # legal words u satisfy W_u = F_(all but last)(W_(last letter))
    p3 = builtin("parabolic3")
    for n in range(1, 6):
        for u in interval_shift_words(p3, n):
            expect = image(p3.word_transform(u[:-1]), p3.cover[u[-1]])
            assert refined_set(p3, u).distance(expect) < 1e-9


@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_refined_set_matches_direct_definition(name):
    # independent oracle: intersect the pushed-forward letter covers left
    # to right without the cache or the incremental recursion; the decoded
    # words reach past the cached depth
    spec = builtin(name)
    decoded = [decode(spec, 1.234, n) for n in (33, 48, 60)]
    for w in interval_shift_words(spec, 5) + decoded:
        assert forward_refined_set(spec, w).distance(refined_set(spec, w)) < 1e-9


def test_refined_set_recursion_identity():
    rng = random.Random(20)
    cf = builtin("cf")
    words = interval_shift_words(cf, 6)
    for _ in range(100):
        v = rng.choice(words)
        k = rng.randint(0, len(v))
        u, w = v[:k], v[k:]
        recombined = refined_set(cf, u).intersect(image(cf.word_transform(u), refined_set(cf, w)))
        assert refined_set(cf, v).distance(recombined) < 1e-9


def test_refined_set_monotone():
    bi = builtin("binary")
    for v in interval_shift_words(bi, 4):
        outer = refined_set(bi, v[:-1])
        inner = refined_set(bi, v)
        assert inner.intersect(outer).distance(inner) < 1e-9


def test_refined_sets_inside_expansion_intervals():
    # with letter covers inside the letter expansion intervals, every legal
    # word keeps its refined set inside the word map's expansion interval
    for name in ("parabolic3", "hyperbolic4"):
        spec = builtin(name)
        for n in range(1, 7):
            for u in interval_shift_words(spec, n):
                v = expansion_interval(spec.word_transform(u))
                leak = refined_set(spec, u).intersect(v.complement())
                assert leak.length() < 1e-7, (name, u)


def test_long_words_answer_and_store_nothing():
    cf = builtin("cf")
    w = decode(cf, 1.234, 60)
    assert not refined_set(cf, w).is_empty
    assert not cf.word_transform(w).is_rotation
    assert 1.0 < cf.min_expansion(w) < math.inf
    assert representable_interval(cf, w).contains(1.234, tol=EPS_ANGLE)
    # a one-word query steps from the root and stores nothing, however
    # long the word is
    fresh = builtin("cf")
    long_word = decode(fresh, 1.234, 2000)
    refined_set(fresh, long_word)
    fresh.word_transform(long_word)
    assert fresh._cache == {}


def test_no_command_or_query_stores_a_word():
    cf = builtin("cf")
    b = ["01", "01-", "1", "1-"]
    verify(cf, "auto", n_max=4)
    verify(cf, "qn", n=3)
    verify(cf, "prefix_set", prefix_set=b)
    cf.expansion_rate_bound(5)
    build_automaton(cf)
    w = decode(cf, 1.234, 30)
    encode(cf, w, 1e-6)
    cf.word_transform(w)
    cf.min_expansion(w)
    representable_interval(cf, w)
    assert cf._cache == {}


# -- interval shift language -------------------------------------------------------


def test_interval_shift_language_basics():
    bi = builtin("binary")
    assert interval_shift_words(bi, 0) == [()]
    words = {bi.alphabet.format(w) for w in interval_shift_words(bi, 2)}
    assert "11-" not in words and "1-1" not in words
    # note: the exclusion comes from the subshift; the refinements of these
    # two words are small but nonempty arcs (reals (1/4,3/8) and its mirror)
    w = refined_set(bi, bi.alphabet.word("11-"))
    assert not w.is_empty and w.length() < 0.3


def test_parabolic3_level_two_language():
    p3 = builtin("parabolic3")
    words = [p3.alphabet.format(w) for w in interval_shift_words(p3, 2)]
    assert words == ["aa", "ab", "bb", "bc", "ca", "cc"]


def test_rotated_cover_language_is_constant_words():
    spec = rotated_parabolic3()
    for n in (1, 3, 6):
        words = {spec.alphabet.format(w) for w in interval_shift_words(spec, n)}
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
            assert entry == pullback_entry(spec, word), word
            replay = spec.subshift.initial
            for a in word:
                replay = spec.subshift.transitions[replay][a]
            assert state == replay, word


def test_walk_consumers_ask_for_no_walked_word(monkeypatch):
    asked = []
    original = NumberSystemSpec._shift_entry
    monkeypatch.setattr(NumberSystemSpec, "_shift_entry",
                        lambda self, word: asked.append(word) or original(self, word))
    for name in ("parabolic3", "cf", "binary", "hyperbolic4"):
        for spec in (builtin(name), turned_cover(builtin(name), 0.25)):
            spec.expansion_rate_bound(6)
            for level in spec.interval_shift_levels(4):
                spec.compatibility_violations(level)
            verify(spec, "auto", n_max=4)
            verify(spec, "qn", n=3)
    # the prefix set's B words are read from the walk too
    cf = builtin("cf")
    assert verify(cf, "prefix_set", prefix_set=["01", "01-", "1", "1-"]).status == \
        "verified_prefix_set"
    assert asked == []


def test_shift_invariance_of_language():
    cf = builtin("cf")
    for n in (2, 4, 6):
        shorter = set(interval_shift_words(cf, n - 1))
        for v in interval_shift_words(cf, n):
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
    # parabolic3's 'ac' is forbidden, and Z_ac is empty too: the subshift is
    # named first, as encode names it; the rotated cover's 'ab' is legal
    # with an empty Z_ab
    p3, rotated = builtin("parabolic3"), rotated_parabolic3()
    for query in (p3.min_expansion, lambda w: representable_interval(p3, w)):
        with pytest.raises(IllegalPrefix, match="^digit 'c' at position 1 leaves the language$"):
            query("ac")
    for query in (rotated.min_expansion, lambda w: representable_interval(rotated, w)):
        with pytest.raises(EmptyRefinedSet, match="^digit 'b' at position 1 refines to the empty set$"):
            query("ab")


@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_word_transform_folds_the_letter_maps_and_takes_no_pull_step(name, monkeypatch):
    # any word has a map, one the subshift forbids or with an empty refined
    # set too, and it is the map the subshift-blind fold composes, bit for bit
    spec = builtin(name)
    rng = random.Random(30)
    words = [tuple(rng.randrange(spec.alphabet.size) for _ in range(n))
             for n in (0, 1, 2, 3, 5, 8, 40) for _ in range(4)]
    want = [pullback_entry(spec, w)[1] for w in words]

    def refuse(z, a):
        raise AssertionError("word_transform took a pull step")

    monkeypatch.setattr(spec, "pull_step", refuse)
    got = [spec.word_transform(w) for w in words]
    assert [(f.alpha, f.beta) for f in got] == [(f.alpha, f.beta) for f in want]


def test_pull_step_maps_nothing_where_z_misses_the_closed_cover_arc(monkeypatch):
    # cover arcs with float-exact ends: p's is [1, 3], q's [2.5, 1.5] round
    # through 0, r's the full circle; touching closed arcs meet, and a full
    # z or a full cover always maps
    alph = Alphabet(("p", "q", "r"))
    spec = NumberSystemSpec(alph, {"p": contraction(2.0), "q": rotation(0.5), "r": rotation(1.0)},
                            {"p": ArcSet.from_arcs([(1.0, 2.0)]),
                             "q": ArcSet.from_arcs([(2.5, TAU - 1.0)]),
                             "r": ArcSet.full_circle()})

    def refuse(g, z):
        raise AssertionError("pull_step mapped z")

    monkeypatch.setattr(interval_system, "image", refuse)
    disjoint = [([(3.5, 2.0)], 0), ([(5.0, 1.0), (3.25, 0.5)], 0), ([(6.0, 0.9)], 0),
                ([(1.75, 0.5)], 1), ([], 0)]
    for arcs, a in disjoint:
        assert spec.pull_step(ArcSet.from_arcs(arcs), a) is ArcSet.empty()
    mapped = [([(3.0, 1.0)], 0), ([(0.5, 0.5)], 0), ([(5.0, TAU - 4.0)], 0), ([(3.5, 2.0)], 2)]
    for z, a in [(ArcSet.from_arcs(arcs), a) for arcs, a in mapped] + [(ArcSet.full_circle(), 0)]:
        with pytest.raises(AssertionError, match="pull_step mapped z"):
            spec.pull_step(z, a)


def _inside(lo, hi, arcs):
    """How much of [lo, hi], lo in [0, 2*pi) and hi - lo < 2*pi, the closed
    (start, length) arcs hold."""
    return sum(max(0.0, min(hi, s + k + l) - max(lo, s + k))
               for s, l in arcs for k in (-TAU, 0.0, TAU))


def _check_decode_table(spec):
    """decode calls _first_fit only where the table's pick is None; inside
    the legal closed arcs that is at most the guard band, 4 EPS_ANGLE
    wide, round each arc end (two ends of the builtins share one, since
    their arcs abut), up to the rounding of the cuts, 1e-12 per end.
    Each pick is _first_fit's 1e-12 inside both ends of its interval, and
    an interval left None is no wider than the width test lets through,
    or holds points that no legal arc holds."""
    band = interval_system._DECODE_BAND
    for cuts, picks, row in spec._decode_rows:
        assert len(picks) == len(cuts) + 1 and picks[0] is picks[-1]
        if not cuts:  # every legal arc is the full circle, or there is none
            assert picks == [interval_system._first_fit(row, 0.0)]
            continue
        legal = reduce(ArcSet.union, (spec.cover[entry[0]] for entry in row), ArcSet.empty())
        arcs = interval_system._arcs(legal.closure())
        ends = sum(2 for entry in row for s, l, _ in entry[2] if l < TAU)
        bounds = list(zip(cuts, cuts[1:] + cuts[:1]))
        undecided = sum(_inside(lo, hi if hi > lo else hi + TAU, arcs)
                        for (lo, hi), pick in zip(bounds, picks[1:]) if pick is None)
        assert ends and undecided <= (4 * EPS_ANGLE + 1e-12) * ends, (undecided, ends)
        for (lo, hi), pick in zip(bounds, picks[1:]):
            hi += TAU if hi <= lo else 0.0
            inner = [(lo + 1e-12) % TAU, (hi - 1e-12) % TAU]
            fits = [interval_system._first_fit(row, x) for x in inner]
            if pick is not None:
                assert fits == [pick, pick], (lo, hi)
            else:
                assert hi - lo <= 3 * band or fits == [None, None], (lo, hi)


@pytest.mark.parametrize("turn", [0.0, 0.23, 0.5, 0.77])
@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_decode_table_leaves_undecided_only_the_guard_bands(name, turn):
    spec = turned_cover(builtin(name), turn) if turn else builtin(name)
    assert all(cuts for cuts, _, _ in spec._decode_rows)
    _check_decode_table(spec)


def test_decode_table_leaves_undecided_only_the_guard_bands_on_random_systems():
    # arcs that overlap, letters with several arcs and forbidden pairs,
    # none of which the builtins have
    rng = random.Random(8)
    for spec in [random_system(rng) for _ in range(8)] + [random_multi_arc_system(rng)
                                                         for _ in range(8)]:
        _check_decode_table(spec)


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
        for s, l in refined_set(spec, word).closure().arcs:
            for theta in (s, s + l):
                x = mpmath.expj(mpmath.mpf(theta))
                values.append(det / abs(fa - mpmath.conj(fb) * x) ** 2)
            if (antipode - s) % TAU <= l:
                values.append(far)
        return min(values)

    cases = [(builtin("hyperbolic4"), "00000000"), (builtin("hyperbolic4"), "33322222")]
    for name in ("binary", "cf", "hyperbolic4", "parabolic3"):
        spec = builtin(name)
        cases += [(spec, w) for w in interval_shift_words(spec, 6)]
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
            ref = min_inverse_derivative(spec.word_transform(w), refined_set(spec, w).closure())
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
    for n, q in trivial_binary().expansion_rate_bound(10).table:
        assert q <= 0.5**n + 1e-9


def test_rotated_parabolic_roots_increase_to_one():
    spec = rotated_parabolic3()
    prev = 0.0
    roots = []
    table = spec.expansion_rate_bound(12).table
    for n, q in table:
        assert q < 1.0
        root = q ** (1.0 / n)
        assert root > prev - 1e-12
        prev = root
        roots.append(root)
    # the levels decay only polynomially, so the n-th roots creep to 1:
    # root(n) = poly(n)^(-1/n); check the closed form's prediction at n=12
    q12 = table[-1][1]
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
        q = dict(spec.expansion_rate_bound(8).table)
        for n in range(1, 8):
            for m in range(1, 9 - n):
                assert math.log(q[n + m]) >= math.log(q[n]) + math.log(q[m]) - 1e-9


def test_expansion_rate_bound_dominates_level_one():
    cf = builtin("cf")
    est = cf.expansion_rate_bound(4)
    assert est.lower_bound >= est.table[0][1] - 1e-12
    assert est.n_achieving >= 1
    # no level to bound: an empty range used to give -inf as a "bound"
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            cf.expansion_rate_bound(n_max)


def test_empty_levels_are_inf_and_skipped_by_the_rate_bound():
    spec = dead_end_pair()
    [(_, q1)] = exhaustive_table(spec, 1)
    assert 0.0 < q1 < 1.0
    # the greedy descent ends at the first level with no child
    assert spec._dive_bounds(3)[0] == [1.0, q1, math.inf, math.inf]
    est = spec.expansion_rate_bound(3)
    assert est.table == [(1, q1), (2, math.inf), (3, math.inf)]
    assert est.lower_bound == q1 and est.n_achieving == 1
    assert "some language levels are empty; their entries were ignored" in est.warnings


def test_level_and_prefix_set_arguments_are_checked():
    cf = builtin("cf")
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        cf.expansion_rate_bound(-1)
    with pytest.raises(ValueError, match="needs a nonempty set B"):
        verify(cf, "prefix_set", prefix_set=[])


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
    check = verify(cf, "prefix_set", prefix_set=["01", "01-", "1", "1-"])
    assert check.status == "verified_prefix_set"
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
    check = verify(bi, "prefix_set", prefix_set=["0", "1", "1-", "21", "21-", "22"])
    assert check.status == "inconclusive"
    assert check.evidence["not_contained"] == ["22"]
    assert not check.evidence["missing_prefix"]
    assert bi.min_expansion("22") < 0.5  # quantitative witness (8/17)


def test_a_prefix_set_word_outside_the_interval_shift_passes():
    # binary's level-4 interval-shift words are a prefix set that certifies;
    # the forbidden word 02 represents no point, so adding it moves nothing,
    # though the subshift-blind Z_02 is nonempty and F_02 is the identity,
    # whose U is empty
    bi = builtin("binary")
    b_words = [bi.alphabet.format(w) for w in interval_shift_words(bi, 4)]
    assert verify(bi, "prefix_set", prefix_set=b_words).status == "verified_prefix_set"
    z, f = pullback_entry(bi, "02")
    assert not z.is_empty and f.is_rotation
    check = verify(bi, "prefix_set", prefix_set=b_words + ["02"])
    assert check.status == "verified_prefix_set"
    assert check.evidence["B"] == b_words + ["02"]


# prefix sets beyond the letters and the two-letter words: the benchmark's
# for cf and the one rejected at 22 for binary
PREFIX_SETS = {"cf": "01,01-,1,1-", "binary": "0,1,1-,21,21-,22"}


@pytest.mark.parametrize("name", ["parabolic3", "cf", "binary", "hyperbolic4"])
def test_prefix_check_matches_the_global_form_on_turned_covers(name):
    # covers turned 0 to 0.95 of a turn: 60 prefix sets on cf and binary,
    # 40 on the others, each checked in local coordinates against the global
    # form; words fall on both sides of the containment test.  Many turned
    # covers fail compatibility, so verify would withhold these lists: the
    # check is read from its helper, over the level verify walks
    inside = outside = 0
    for k in range(20):
        spec = builtin(name) if k == 0 else turned_cover(builtin(name), 0.05 * k)
        size = spec.alphabet.size
        candidates = [[(a,) for a in range(size)],
                      [(a, b) for a in range(size) for b in range(size)]]
        if name in PREFIX_SETS:
            candidates.append([spec.alphabet.word(b) for b in PREFIX_SETS[name].split(",")])
        for b_words in candidates:
            levels = list(spec.interval_shift_levels(max(len(b) for b in b_words)))
            missing, not_contained = _prefix_set_failures(b_words, levels)
            got = (not missing and not not_contained, missing, not_contained)
            assert got == global_prefix_check(spec, b_words), (k, b_words)
            outside += len(not_contained)
            inside += len(b_words) - len(not_contained)
    assert inside and outside


def test_single_letter_prefix_set_misses_words():
    cf = builtin("cf")
    check = verify(cf, "prefix_set", prefix_set=["1"])
    assert check.status == "inconclusive"
    assert check.evidence["missing_prefix"]  # e.g. words starting with 0 or 1-


def test_hyperbolic4_letters_form_prefix_set():
    h4 = builtin("hyperbolic4")
    check = verify(h4, "prefix_set", prefix_set=["0", "1", "2", "3"])
    assert check.status == "verified_prefix_set"


# -- cache behaviour -----------------------------------------------------------------


def test_concurrent_refinement_matches_serial():
    # the cache contract: concurrent readers/writers observe the same
    # values as a serial run (entries are pure and idempotent)
    from concurrent.futures import ThreadPoolExecutor

    cf = builtin("cf")
    words = interval_shift_words(cf, 6)
    serial = {w: refined_set(cf, w) for w in words}
    fresh = NumberSystemSpec(
        cf.alphabet,
        dict(zip(cf.alphabet.symbols, cf.transforms)),
        dict(zip(cf.alphabet.symbols, cf.cover)),
        cf.subshift,
    )
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda w: refined_set(fresh, w), words))
    for w, got in zip(words, results):
        assert got.distance(serial[w]) < 1e-12


def test_rate_within_eps_one_of_one_is_reported_as_one():
    est = builtin("hyperbolic4").expansion_rate_bound(6)
    assert est.lower_bound == 1.0
    assert any("equals 1 within EPS_ONE" in w for w in est.warnings)
    assert builtin("cf").expansion_rate_bound(6).lower_bound == 1.0

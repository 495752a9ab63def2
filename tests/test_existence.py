"""The two-hyperbolic-generator parameter experiment."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import moebius_systems
from moebius_systems import existence
from moebius_systems.arcs import _v_arc
from moebius_systems.errors import NotDiscPreserving, ParamOutOfRange
from moebius_systems.existence import (
    EPS_GAP,
    _cell_centre,
    _certificate_words,
    _FIRST_SWEEP,
    _closed_arcs_cover,
    _cover_batch,
    _generator_entries,
    _strips,
    _v_arcs,
    _word_entries,
    LABEL_COVER,
    LABEL_INWARD,
    LABEL_UNKNOWN,
    cover_search,
    cover_search_unpruned,
    inward_region_test,
    render_grid,
    two_hyperbolic_system,
)
from moebius_systems.transforms import TAU, DiscMoebius, circle_distance, rotation
from reference import (
    derivative_modulus,
    remainder_v_arcs,
    scalar_arcs_cover,
    scalar_cover_search,
    scalar_inward_region_test,
    scalar_two_hyperbolic_system,
)

# no floating-point warning may escape the cover-search kernel's np.errstate
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_generators_fixed_points_and_derivatives():
    fa, fb = two_hyperbolic_system(0.25, 0.25)
    ca = fa.classify()
    assert ca.kind == "hyperbolic"
    assert circle_distance(ca.stable, 0.0) < 1e-12            # 1
    assert circle_distance(ca.unstable, 3 * math.pi / 2) < 1e-12  # -i
    assert derivative_modulus(fa, ca.stable) == pytest.approx(0.25)
    cb = fb.classify()
    assert circle_distance(cb.stable, math.pi) < 1e-12        # -1
    assert circle_distance(cb.unstable, math.pi / 2) < 1e-12  # +i


def _entries(pair):
    return tuple(z for f in pair for z in (f.alpha, f.beta))


def test_generator_entries_match_the_checked_constructor():
    # the array formula, and two_hyperbolic_system that reads it, equal the
    # pair built through the checked DiscMoebius constructor float for float
    rng = random.Random(54)
    params = [(rng.random(), rng.random()) for _ in range(10_000)]
    params += [(rng.uniform(1e-9, 1e-3), 1.0 - rng.uniform(1e-12, 1e-3)) for _ in range(500)]
    params += [_cell_centre((0.0, 1.0, 0.0, 1.0), 200, 200, row, col)
               for row in range(200) for col in range(200)]
    # render_grid reads the same centres from the array form of _cell_centre
    rows, cols = np.divmod(np.arange(200 * 200), 200)
    centres = _cell_centre((0.0, 1.0, 0.0, 1.0), 200, 200, rows, cols)
    assert list(zip(*(c.tolist() for c in centres))) == params[-200 * 200:]
    got = _generator_entries(np.array([p[0] for p in params]), np.array([p[1] for p in params]))
    for i, (qa, qb) in enumerate(params):
        want = _entries(scalar_two_hyperbolic_system(qa, qb))
        assert tuple(complex(z[i]) for z in got) == want, (qa, qb)
        if i % 10 == 0:
            assert _entries(two_hyperbolic_system(qa, qb)) == want, (qa, qb)


def test_parameter_validation():
    for bad in ((0.0, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.5)):
        with pytest.raises(ParamOutOfRange):
            two_hyperbolic_system(*bad)


@pytest.mark.parametrize("pair", [(1e-300, 0.5), (0.5, 1e-300)])
def test_parameter_near_zero_is_no_disc_map(pair):
    # inside (0, 1), but |alpha|^2 - |beta|^2 rounds to 0
    with pytest.raises(NotDiscPreserving, match="not a disc-preserving pair"):
        two_hyperbolic_system(*pair)


def test_swap_symmetry_is_conjugation_by_half_turn():
    # exchanging the parameters exchanges the generators up to z -> -z
    rng = random.Random(50)
    half = rotation(math.pi)
    for _ in range(20):
        q1, q2 = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        fa, fb = two_hyperbolic_system(q1, q2)
        conj = half.compose(fa).compose(half.inverse())
        fb_same_param = two_hyperbolic_system(q2, q1)[1]
        for k in range(16):
            theta = TAU * k / 16
            assert circle_distance(conj.apply_angle(theta),
                                   fb_same_param.apply_angle(theta)) < 1e-9


def test_cover_search_depth_zero_is_false():
    fa, fb = two_hyperbolic_system(0.25, 0.25)
    assert not cover_search(fa, fb, 0)


@pytest.mark.parametrize("depth", [-1, -2])
def test_cover_search_rejects_a_negative_depth(depth):
    fa, fb = two_hyperbolic_system(0.25, 0.25)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        cover_search(fa, fb, depth)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        render_grid(2, 2, depth=depth, n_max=4)


def test_cover_search_monotone_in_depth():
    rng = random.Random(51)
    for _ in range(100):
        fa, fb = two_hyperbolic_system(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
        flags = [cover_search(fa, fb, m) for m in range(0, 9)]
        for a, b in zip(flags, flags[1:]):
            assert b or not a  # once covered, always covered


def test_cover_search_regression_value():
    fa, fb = two_hyperbolic_system(0.25, 0.25)
    assert cover_search(fa, fb, 10) is True


@pytest.mark.parametrize("angle, first_true", [
    (2 * math.pi / 3, {0.2: 6, 0.5: 3, 0.8: 3}),
    (math.pi, {0.2: None, 0.5: 4, 0.8: 4}),
])
def test_cover_search_with_a_rotation_generator(angle, first_true):
    # words such as aa and aaa are exact rotations: they add no interval,
    # but the words below them still do
    fa = rotation(angle)
    for q, depth in first_true.items():
        fb = two_hyperbolic_system(q, q)[1]
        want = [depth is not None and d >= depth for d in range(9)]
        assert [cover_search(fa, fb, d) for d in range(9)] == want, q
        assert [cover_search_unpruned(fa, fb, d) for d in range(9)] == want, q


def test_batched_kernel_matches_scalar_reference():
    # one batch of cells that are certified at different levels
    rng = random.Random(53)
    gens = [two_hyperbolic_system(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
            for _ in range(150)]
    entries = np.array([(fa.alpha, fa.beta, fb.alpha, fb.beta) for fa, fb in gens]).T
    first = [None] * len(gens)
    for depth in range(10):
        want = [scalar_cover_search(fa, fb, depth) for fa, fb in gens]
        assert _cover_batch(*entries, depth).tolist() == want, depth
        assert _cover_batch(*entries, depth, prune=False).tolist() == want, depth
        first = [depth if f is None and w else f for f, w in zip(first, want)]
    assert 20 < sum(want) < 130
    # the pruned search sweeps no level below _FIRST_SWEEP: the batch holds
    # cells first covered on both sides of it
    covered = [f for f in first if f is not None]
    assert min(covered) < _FIRST_SWEEP <= max(covered)


def test_batches_back_to_back_match_the_scalar_reference():
    # each batch takes an uninitialised workspace: batches of 1 and 36
    # cells (an existence tile) at every depth, pruned and not, run in a
    # shuffled order, so each starts in memory another batch left behind
    rng = random.Random(57)
    gens = [two_hyperbolic_system(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
            for _ in range(36)]
    entries = np.array([(fa.alpha, fa.beta, fb.alpha, fb.beta) for fa, fb in gens]).T
    want = [[scalar_cover_search(fa, fb, depth) for fa, fb in gens] for depth in range(10)]
    runs = [(size, depth, prune) for size in (1, 36) for depth in range(10)
            for prune in (True, False)] * 2
    rng.shuffle(runs)
    for size, depth, prune in runs:
        first = rng.randrange(37 - size)
        got = _cover_batch(*entries[:, first:first + size], depth, prune)
        assert got.tolist() == want[depth][first:first + size], (size, depth, prune, first)
    # the tile has cells covered before, at and after the first sweep, and
    # cells never covered, so the pruned batches compact their rows
    first = [next((d for d in range(10) if want[d][i]), None) for i in range(36)]
    covered = [d for d in first if d is not None]
    assert None in first and min(covered) < _FIRST_SWEEP < max(covered)


_NUDGES = (0.0, EPS_GAP, EPS_GAP * (1 + 1e-6), EPS_GAP * (1 - 1e-6), 1e-16, 2 * EPS_GAP)


def _adversarial_row(rng):
    """(start, length) arcs near the sweep's decision: a chain of arcs
    around the circle, each starting at the previous end moved by one of
    _NUDGES: back onto an overlap, except at one junction, which gets a
    gap; the chain's last arc wraps past 2*pi onto the first start.
    Short extra arcs and copies with tied starts are mixed in."""
    k = rng.randint(1, 7)
    x = rng.choice((0.0, rng.uniform(0.0, TAU)))
    lengths = [rng.uniform(0.5, 1.5) for _ in range(k)]
    lengths = [TAU * w / sum(lengths) for w in lengths]
    loose = rng.randrange(k)
    arcs = []
    for i in range(k):
        nudge = rng.choice(_NUDGES + (1e-9, 0.01)) * (1 if i == loose else -1)
        s = x if x < TAU else x - TAU
        if i < k - 1:
            arcs.append((s, lengths[i]))
            x = (s + lengths[i]) + nudge + (TAU if x >= TAU else 0.0)
        else:  # back onto the first start, one turn on
            arcs.append((s, (arcs[0][0] + TAU - nudge) - s if k > 1 else TAU - nudge))
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            arcs.append((rng.choice(arcs)[0], rng.uniform(0.0, 0.5)))  # a tied start
        else:
            arcs.append((rng.uniform(0.0, TAU), rng.uniform(0.0, 0.3)))
    return [(s, l) for s, l in arcs if 0.0 <= s < TAU and l >= 0.0]


def test_sweep_matches_the_scalar_sweep_near_its_decision():
    rng = random.Random(55)
    rows = [_adversarial_row(rng) for _ in range(3000)] + [[], []]
    width = max(map(len, rows)) + 3
    starts = np.full((len(rows), width), -np.inf)  # the rest is padding
    ends = starts.copy()
    for i, arcs in enumerate(rows):
        at = rng.sample(range(width), len(arcs))
        starts[i, at] = [s for s, _ in arcs]
        ends[i, at] = [s + l for s, l in arcs]
    want = [scalar_arcs_cover(arcs) for arcs in rows]
    assert _closed_arcs_cover(starts, ends, np.empty(2 * starts.size)).tolist() == want
    assert len(rows) / 4 <= sum(want) <= 3 * len(rows) / 4


def test_pruned_matches_unpruned_enumerator():
    rng = random.Random(52)
    # the fixed cell's depth-6 intervals cover the circle, but only once
    # the sweep counts the coverage an arc carries past 2*pi
    params = [(0.495, 0.005)]
    params += [(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)) for _ in range(500)]
    for qa, qb in params:
        fa, fb = two_hyperbolic_system(qa, qb)
        assert cover_search(fa, fb, 6) == cover_search_unpruned(fa, fb, 6), (qa, qb)


def test_inward_strip_zero():
    # inside (0, 1/2)^2 the certificate is exactly hyperbolicity of the
    # two-letter word map
    fa, fb = two_hyperbolic_system(0.3, 0.3)
    expected = fa.compose(fb).trace_squared > 4.0
    assert inward_region_test(0.3, 0.3, 0) == expected
    assert inward_region_test(0.3, 0.3, 8) or not expected


def test_inward_outside_all_rectangles():
    assert not inward_region_test(0.9, 0.9, 12)


def test_inward_open_rectangle_boundary():
    # q_a exactly 1/2 sits on no open strip for q_b >= 1/2 partner checks
    assert not inward_region_test(0.5, 0.45, 0)


@pytest.mark.parametrize("size", [(0, 3), (3, 0), (-1, 2)])
def test_grid_rejects_sizes_below_one(size):
    with pytest.raises(ValueError, match="at least 1x1"):
        render_grid(*size, depth=4, n_max=4)


def test_grid_refuses_a_grid_over_the_render_budget():
    # 2^41 word maps in the worst case: refused before any cell is searched
    with pytest.raises(ValueError, match="1x1 cells at depth 40 exceeds the render budget"):
        render_grid(1, 1, depth=40, n_max=4)


@pytest.mark.parametrize("workers", [0, -2])
def test_grid_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        render_grid(2, 2, depth=4, n_max=4, workers=workers)


def test_single_cell_grid_matches_predicates():
    grid = render_grid(1, 1, depth=10, n_max=8,
                       rect=(0.2499, 0.2501, 0.2499, 0.2501))
    fa, fb = two_hyperbolic_system(0.25, 0.25)
    want = LABEL_COVER if cover_search(fa, fb, 10) else (
        LABEL_INWARD if inward_region_test(0.25, 0.25, 8) else LABEL_UNKNOWN)
    assert grid.labels[0, 0] == want


def test_grid_orientation_and_formats(tmp_path):
    grid = render_grid(8, 6, depth=6, n_max=6)
    # row 0 is the top: largest q_b; column 0 the smallest q_a
    qa0, qb0 = grid.cell_params(0, 0)
    qa1, qb1 = grid.cell_params(5, 7)
    assert qa0 < qa1 and qb0 > qb1

    pgm = tmp_path / "map.pgm"
    grid.write_pgm(pgm)
    text = pgm.read_text().splitlines()
    assert text[0] == "P2" and text[1] == "8 6" and text[2] == "255"
    values = [int(v) for line in text[3:] for v in line.split()]
    assert len(values) == 48 and set(values) <= {0, 128, 255}

    csv_path = tmp_path / "map.csv"
    grid.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "q_a,q_b,label"
    assert len(lines) == 49

    json_path = tmp_path / "map.json"
    grid.write_json(json_path)
    import json
    data = json.loads(json_path.read_text())
    assert data["resolution"] == [8, 6]
    assert abs(sum(data["fractions"].values()) - 1.0) < 1e-12
    assert np.array_equal(np.array(data["labels"], dtype=np.uint8), grid.labels)
    assert data["label_codes"] == {str(LABEL_UNKNOWN): "unknown", str(LABEL_COVER): "cover",
                                   str(LABEL_INWARD): "inward"}


def test_grid_builds_maps_only_inside_an_inward_rectangle(monkeypatch):
    folded = []
    original = existence._hyperbolic_words
    monkeypatch.setattr(existence, "_hyperbolic_words",
                        lambda *args: folded.append(args[4]) or original(*args))
    # both parameters above 1/2: no rectangle of any strip holds a cell
    grid = render_grid(12, 12, depth=8, n_max=8, rect=(0.55, 0.95, 0.55, 0.95))
    assert folded == []
    assert (grid.labels != LABEL_INWARD).all()
    render_grid(4, 4, depth=8, n_max=8, rect=(0.1, 0.4, 0.1, 0.4))
    assert folded == [("ab",)] * 16


def test_inward_fold_matches_the_compose_chain():
    # depth 0 certifies no cover, so each label of the 200 x 200 grid is the
    # inward test alone; cells on the strip bounds 2^(-1/n) and one ulp
    # either side of them go through inward_region_test
    rect = (0.0, 1.0, 0.0, 1.0)
    rows, cols = np.divmod(np.arange(200 * 200), 200)
    cells = list(zip(*(c.tolist() for c in _cell_centre(rect, 200, 200, rows, cols))))
    edges = [x for n in range(1, 14) for b in [2.0 ** (-1.0 / n)]
             for x in (math.nextafter(b, 0.0), b, math.nextafter(b, 1.0))]
    edge_cells = [cell for x in edges for q in (1e-9, 0.1, 0.3, 0.49) for cell in ((x, q), (q, x))]
    pairs = [scalar_two_hyperbolic_system(*cell) for cell in cells + edge_cells]
    for n_max in (0, 3, 8, 12):
        want = [scalar_inward_region_test(*pair, *cell, n_max)
                for pair, cell in zip(pairs, cells + edge_cells)]
        labels = render_grid(200, 200, depth=0, n_max=n_max, rect=rect).labels.ravel()
        assert (labels == LABEL_INWARD).tolist() == want[:len(cells)], n_max
        assert (labels != LABEL_COVER).all()
        assert [inward_region_test(*cell, n_max) for cell in edge_cells] == want[len(cells):]
        assert sum(want) > 2500


def test_inward_fold_entries_are_the_compose_chain():
    # every certificate word is a^n b, a b^n or ab, and its reverse is a
    # rotation of it, so a fold composing on the left reads the same trace
    # up to rounding; the word maps' entries tell the two orders apart
    rng = np.random.default_rng(26)
    qa, qb = rng.uniform(0.0, 1.0, (2, 400))
    strips = _strips(12)
    words = set()
    for q_a, q_b, *entries in zip(*(x.tolist() for x in (qa, qb, *_generator_entries(qa, qb)))):
        maps = {"a": tuple(entries[:2]), "b": tuple(entries[2:])}
        letters = {ch: DiscMoebius._product(*m) for ch, m in maps.items()}
        for word in _certificate_words(q_a, q_b, strips):
            chain = reduce(DiscMoebius.compose, [letters[ch] for ch in word])
            fold = DiscMoebius._product(*_word_entries(maps, word))
            # equal entries, the sign of a zero part aside
            assert (fold.alpha, fold.beta) == (chain.alpha, chain.beta), (q_a, q_b, word)
            words.add(word)
    assert words == {"ab"} | {w for n in range(2, 14) for w in ("a" * n + "b", "a" + "b" * n)}


def _same_bits(x, y):
    """Equal float for float, sign of zero included; NaN equals NaN."""
    nan = np.isnan(x) & np.isnan(y)
    return np.array_equal(np.where(nan, 0, x.view(np.int64)), np.where(nan, 0, y.view(np.int64)))


def test_v_arcs_wrap_is_the_remainder_bit_for_bit():
    rng = np.random.default_rng(56)
    shape = (64, 256)
    r = 10.0 ** rng.uniform(-11.0, 9.0, shape)
    beta = r * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    alpha = np.sqrt(1.0 + r * r) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    # row 0: a real beta and center = half - d for a tiny d, so the start
    # falls just below 0 and often wraps to exactly TAU; row 1: one start of
    # -0.0 (center -0.0, and half 0.0 where np.abs(beta) overflows to inf)
    # and one of -1e-309 (half 2^-1023 at |beta| = 2^1023, center just below)
    r0 = 10.0 ** rng.uniform(-3.0, 3.0, shape[1])
    half = np.arctan(1.0 / r0)
    d = 10.0 ** rng.uniform(-18.0, -14.0, shape[1])
    alpha[0], beta[0] = np.sqrt(1.0 + r0 * r0) * np.exp(1j * (half - d)), r0
    alpha[1, :2] = complex(-0.0, -0.0), complex(1.0, 2.0 ** -1023 - 1e-309)
    beta[1, :2] = complex(1.5e308, 1.5e308), complex(2.0 ** 1023, 0.0)
    # rotations take the masked path: exact, below EPS_ROTATION, and NaN
    masked_alpha, masked_beta = alpha.copy(), beta.copy()
    spin = rng.random(shape) < 0.2
    spin[:3] = False
    masked_beta[spin] = np.where(rng.random(spin.sum()) < 0.5, 0.0, 1e-13)
    masked_alpha[spin] = np.exp(1j * rng.uniform(-np.pi, np.pi, spin.sum()))
    masked_beta[2, 0] = complex(np.nan, 0.0)
    for entries in ((alpha, beta), (masked_alpha, masked_beta)):
        want = remainder_v_arcs(*entries)
        got = _v_arcs(*entries)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert (want[0] == TAU).sum() > 10
        assert want[0][1, 0] == 0.0 and not np.signbit(want[0][1, 0])
        assert want[0][1, 1] == TAU
    assert (want[0] == -np.inf).sum() == spin.sum() + 1


def _wide_range_entries():
    """Entries of 221 disc maps with |beta| from 1e-3 to 1e8."""
    rng = np.random.default_rng(31)
    r = np.logspace(-3.0, 8.0, 221)
    beta = r * np.exp(1j * rng.uniform(-np.pi, np.pi, r.size))
    alpha = np.sqrt(1.0 + r * r) * np.exp(1j * rng.uniform(-np.pi, np.pi, r.size))
    return alpha, beta


def _assert_50_digit_arcs(alpha, beta, starts, ends):
    """Each [start, end] lies within 1e-14 rad of the expansion arc by its
    defining formula, acos(|beta| / sqrt(1 + |beta|^2)) about
    arg(alpha / conj(beta)), on the same float entries in 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        tau = 2 * mpmath.pi
        for a, b, s, e in zip(alpha.tolist(), beta.tolist(), starts, ends):
            a, b = mpmath.mpc(a), mpmath.mpc(b)
            half = mpmath.acos(abs(b) / mpmath.sqrt(1 + abs(b) ** 2))
            center = mpmath.arg(a / mpmath.conj(b))
            for got, want in ((s, center - half), (e, center + half)):
                d = (got - want) % tau
                assert min(d, tau - d) <= 1e-14, (abs(b), got, want)


def test_v_arcs_match_a_50_digit_expansion_arc():
    # the arccos form of the half-width is 1.2e-12 off at |beta| = 1e4
    alpha, beta = _wide_range_entries()
    starts, ends = _v_arcs(alpha, beta)
    _assert_50_digit_arcs(alpha, beta, starts.tolist(), ends.tolist())
    # rotations, exact and below EPS_ROTATION, and a NaN entry: padding, and
    # no floating-point warning escapes the kernel
    beta = np.array([0.0, complex(-0.0, 0.0), 1e-13, complex(3e-13, -4e-13),
                     complex(np.nan, 0.0), complex(0.0, np.nan)])
    alpha = np.exp(1j * np.linspace(-3.0, 3.0, beta.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        starts, ends = _v_arcs(alpha, beta)
    assert (starts == -np.inf).all() and (ends == -np.inf).all()


def test_scalar_v_arc_matches_a_50_digit_expansion_arc():
    # the scalar arc shares the array form's formula; the acos form of the
    # half-width misses 1e-14 from |beta| of about 158 on, by 1.1e-8 at 8.9e7
    alpha, beta = _wide_range_entries()
    arcs = [_v_arc(a, b) for a, b in zip(alpha.tolist(), beta.tolist())]
    _assert_50_digit_arcs(alpha, beta, [s for s, _ in arcs], [s + l for s, l in arcs])


def test_grid_deterministic_and_parallel_consistent():
    # 1,600 cells at depth 6 make two blocks, so the pool really runs
    a = render_grid(40, 40, depth=6, n_max=6)
    b = render_grid(40, 40, depth=6, n_max=6, workers=2)
    assert np.array_equal(a.labels, b.labels)


def test_grid_starts_at_most_one_process_per_block(monkeypatch):
    import multiprocessing
    opened = []

    class RecordingPool:
        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, jobs):
            return map(func, jobs)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    one = render_grid(10, 10, depth=3, n_max=3, workers=4)
    assert opened == []
    two = render_grid(50, 30, depth=3, n_max=3, workers=8)
    assert opened == [2]
    assert np.array_equal(one.labels, render_grid(10, 10, depth=3, n_max=3).labels)
    assert np.array_equal(two.labels, render_grid(50, 30, depth=3, n_max=3).labels)


def test_grid_golden_labels():
    # 3,600 cells span several kernel blocks, so this also pins how the
    # blocks are split and joined
    grid = render_grid(60, 60, depth=8, n_max=8)
    assert hashlib.sha256(grid.labels.tobytes()).hexdigest() == \
        "b7f55b06ebf985245935b23dd1aed85f02a147b81082729fff721bd3cde55388"
    assert np.array_equal(render_grid(60, 60, depth=8, n_max=8, workers=2).labels,
                          grid.labels)


def test_grid_labels_do_not_depend_on_the_block_size(monkeypatch):
    # the kernel's workspace is sized per block: blocks of 1, 7, 36 and all
    # 600 cells of a 30 x 20 grid label it alike
    blocks = []
    original = existence._render_block
    monkeypatch.setattr(existence, "_render_block",
                        lambda job: blocks.append(job[1] - job[0]) or original(job))
    grids = []
    for cells in (1, 7, 36, 600):
        blocks.clear()
        monkeypatch.setattr(existence, "_BLOCK_WORDS", cells << 8)
        grids.append(render_grid(30, 20, depth=8, n_max=8).labels)
        assert max(blocks) == cells and sum(blocks) == 600
    assert all(np.array_equal(grid, grids[-1]) for grid in grids)
    assert len(np.unique(grids[-1])) == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_reports_every_row_in_order(workers):
    # 1,500 cells make two blocks whose boundary falls inside row 20
    calls = []
    render_grid(50, 30, depth=3, n_max=2, workers=workers,
                on_progress=lambda done, total: calls.append((done, total)))
    assert calls == [(row, 30) for row in range(1, 31)]


def test_no_cell_is_dual_labelled():
    # the render raises if both certificates ever fire; a completed grid is
    # therefore evidence of disjointness
    grid = render_grid(25, 25, depth=6, n_max=6)
    assert grid.labels.shape == (25, 25)


# run in a fresh interpreter: importing the package and its CLI loads neither
# numpy nor multiprocessing, the kernel imports numpy on its first call, and
# only a render of more than one block with workers > 1 imports multiprocessing
_FRESH_IMPORT = """
import json, sys
import moebius_systems, moebius_systems.cli
loaded = sorted({"numpy", "multiprocessing"} & set(sys.modules))
from moebius_systems import cover_search, render_grid, two_hyperbolic_system
fa, fb = two_hyperbolic_system(0.3, 0.6)
print(json.dumps({
    "loaded": loaded,
    "pair": [repr(z) for z in (fa.alpha, fa.beta, fb.alpha, fb.beta)],
    "cover": [cover_search(*two_hyperbolic_system(qa, qb), depth)
              for qa, qb, depth in ((0.3, 0.6, 3), (0.3, 0.6, 4), (0.45, 0.45, 1), (0.45, 0.45, 2))],
    "grids": [render_grid(8, 6, 8, 4, workers=workers).labels.tolist() for workers in (1, 2)],
    "pool_after_one_block": "multiprocessing" in sys.modules,
    "two_blocks": [render_grid(40, 30, 3, 2, workers=workers).labels.tolist() for workers in (1, 2)],
    "pool_after_two_blocks": "multiprocessing" in sys.modules,
}))
"""


def test_package_import_defers_numpy_and_multiprocessing():
    src = str(Path(moebius_systems.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _FRESH_IMPORT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == []
    assert got["pair"] == ["(1.1867322079278597-0.6390096504226936j)",
                           "(0.6390096504226936+0.6390096504226936j)",
                           "(1.0327955589886446-0.25819888974716115j)",
                           "(-0.25819888974716115-0.25819888974716115j)"]
    assert got["cover"] == [False, True, False, True]
    labels = [[0, 0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1, 1, 1],
              [0, 1, 1, 1, 1, 1, 1, 0], [2, 1, 1, 1, 1, 1, 1, 0], [2, 2, 1, 1, 1, 1, 0, 0]]
    assert got["grids"] == [labels, labels]
    assert not got["pool_after_one_block"] and got["pool_after_two_blocks"]
    assert got["two_blocks"][0] == got["two_blocks"][1]

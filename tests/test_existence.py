"""The two-hyperbolic-generator parameter experiment."""

import hashlib
import math
import random

import numpy as np
import pytest

from moebius_systems.arcs import EPS_GAP, _v_arc
from moebius_systems.errors import ParamOutOfRange
from moebius_systems.existence import (
    _cover_batch,
    LABEL_COVER,
    LABEL_INWARD,
    LABEL_UNKNOWN,
    cover_search,
    cover_search_unpruned,
    inward_region_test,
    render_grid,
    two_hyperbolic_system,
)
from moebius_systems.transforms import RENORM_MAX, TAU, circle_distance, rotation

# the cover-search kernel must stay inside the domains of sqrt and arccos
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_generators_fixed_points_and_derivatives():
    fa, fb = two_hyperbolic_system(0.25, 0.25)
    ca = fa.classify()
    assert ca.kind == "hyperbolic"
    assert circle_distance(ca.stable, 0.0) < 1e-12            # 1
    assert circle_distance(ca.unstable, 3 * math.pi / 2) < 1e-12  # -i
    assert fa.derivative_modulus(ca.stable) == pytest.approx(0.25)
    cb = fb.classify()
    assert circle_distance(cb.stable, math.pi) < 1e-12        # -1
    assert circle_distance(cb.unstable, math.pi / 2) < 1e-12  # +i


def test_parameter_validation():
    for bad in ((0.0, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.5)):
        with pytest.raises(ParamOutOfRange):
            two_hyperbolic_system(*bad)


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


def _scalar_cover_search(fa, fb, depth):
    """Reference: the word maps one Python complex at a time, every
    interval kept, one sorted sweep at the end (no padding, no arrays)."""
    arcs, level = [], [(1.0 + 0j, 0j)]
    for _ in range(depth):
        nxt = []
        for a1, b1 in level:
            for a2, b2 in ((fa.alpha, fa.beta), (fb.alpha, fb.beta)):
                na = a1 * a2 + b1 * b2.conjugate()
                nb = a1 * b2 + b1 * a2.conjugate()
                if abs(na) < RENORM_MAX:
                    norm = math.sqrt(abs(na) ** 2 - abs(nb) ** 2)
                    na, nb = na / norm, nb / norm
                nxt.append((na, nb))
                if (arc := _v_arc(na, nb)) is not None:
                    arcs.append(arc)
        level = nxt
    if not arcs:
        return False
    reach = max(s + l for s, l in arcs) - TAU
    for s, l in sorted(arcs):
        if s > reach + EPS_GAP:
            return False
        reach = max(reach, s + l)
    return reach >= TAU - EPS_GAP


def test_batched_kernel_matches_scalar_reference():
    # one batch of cells that are certified at different levels
    rng = random.Random(53)
    gens = [two_hyperbolic_system(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
            for _ in range(150)]
    entries = np.array([(fa.alpha, fa.beta, fb.alpha, fb.beta) for fa, fb in gens]).T
    for depth in range(8):
        want = [_scalar_cover_search(fa, fb, depth) for fa, fb in gens]
        assert _cover_batch(*entries, depth).tolist() == want, depth
        assert _cover_batch(*entries, depth, prune=False).tolist() == want, depth
    assert 20 < sum(want) < 130


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


def test_grid_deterministic_and_parallel_consistent():
    a = render_grid(10, 10, depth=6, n_max=6)
    b = render_grid(10, 10, depth=6, n_max=6, workers=2)
    assert np.array_equal(a.labels, b.labels)


def test_grid_golden_labels():
    # 3,600 cells span several kernel blocks, so this also pins how the
    # blocks are split and joined
    grid = render_grid(60, 60, depth=8, n_max=8)
    assert hashlib.sha256(grid.labels.tobytes()).hexdigest() == \
        "b7f55b06ebf985245935b23dd1aed85f02a147b81082729fff721bd3cde55388"
    assert np.array_equal(render_grid(60, 60, depth=8, n_max=8, workers=2).labels,
                          grid.labels)


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

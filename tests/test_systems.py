"""Built-in registry and the JSON system-definition format."""

import json
import math

import pytest

from moebius_systems.arcs import ArcSet, expansion_interval
from moebius_systems.errors import ConfigError
from moebius_systems.systems import (
    BUILTIN_NAMES,
    builtin,
    load_config,
    parse_angle,
    parse_config,
    serialize_config,
    with_cover,
)
from moebius_systems.transforms import TAU, circle_distance, from_real_line, normalize


def test_registry_contents():
    assert set(BUILTIN_NAMES) == {"parabolic3", "cf", "binary", "hyperbolic4"}
    with pytest.raises(ConfigError):
        builtin("nope")


def test_parabolic3_maps_cycle_the_triangle():
    p3 = builtin("parabolic3")
    a, b, c = 0.0, TAU / 3, 2 * TAU / 3
    fa, fb, fc = p3.transforms
    for f in (fa, fb, fc):
        assert f.classify().kind == "parabolic"
    assert circle_distance(fa.apply_angle(c), b) < 1e-9
    assert circle_distance(fb.apply_angle(a), c) < 1e-9
    assert circle_distance(fc.apply_angle(b), a) < 1e-9
    # the covers are exactly the expansion intervals
    for i in range(3):
        assert expansion_interval(p3.transforms[i]).distance(p3.cover[i]) < 1e-9


def test_cf_matrices_verbatim():
    cf = builtin("cf")
    want = [
        normalize([[(2 - 1j) / 2, -0.5], [-0.5, (2 + 1j) / 2]]),
        normalize([[-1j, 0], [0, 1j]]),
        normalize([[(2 + 1j) / 2, 0.5], [0.5, (2 - 1j) / 2]]),
    ]
    for got, expect in zip(cf.transforms, want):
        assert got.approx_eq(expect, 1e-15)


def test_binary_cover_endpoints_verbatim():
    bi = builtin("binary")
    h_minus = math.atan2(-3, -4) % TAU
    h_plus = math.atan2(-3, 4) % TAU
    q_minus = math.atan2(-15, -8) % TAU
    q_plus = math.atan2(-15, 8) % TAU
    cover = dict(zip(bi.alphabet.symbols, bi.cover))
    (s, l), = cover["1-"].arcs
    assert s == pytest.approx(math.pi) and (s + l) % TAU == pytest.approx(q_minus)
    (s, l), = cover["0"].arcs
    assert s == pytest.approx(h_minus) and (s + l) % TAU == pytest.approx(h_plus)
    (s, l), = cover["1"].arcs
    assert s == pytest.approx(q_plus) and (s + l) % TAU == pytest.approx(0.0, abs=1e-12)
    (s, l), = cover["2"].arcs
    assert s == pytest.approx(h_plus) and (s + l) % TAU == pytest.approx(h_minus)


def test_hyperbolic4_expansion_intervals_verbatim():
    h4 = builtin("hyperbolic4")
    quarters = [
        (5 * math.pi / 4, 7 * math.pi / 4),
        (7 * math.pi / 4, math.pi / 4),
        (math.pi / 4, 3 * math.pi / 4),
        (3 * math.pi / 4, 5 * math.pi / 4),
    ]
    for i, (s, e) in enumerate(quarters):
        v = expansion_interval(h4.transforms[i])
        assert circle_distance(v.arcs[0][0], s) < 1e-9
        assert abs(v.arcs[0][1] - math.pi / 2) < 1e-9
        assert v.distance(h4.cover[i]) < 1e-9
    # the second pair inverts the first
    assert h4.transforms[2].approx_eq(h4.transforms[0].inverse())
    assert h4.transforms[3].approx_eq(h4.transforms[1].inverse())


def test_parse_angle_forms():
    assert parse_angle(1.5) == 1.5
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("-pi") == pytest.approx(-math.pi)
    assert parse_angle("pi*2/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("pi*0.5") == pytest.approx(math.pi / 2)
    assert parse_angle("2.25") == 2.25
    for bad in ("tau", "pi*1/0", "nan", "-inf", math.inf, math.nan, 10**400, "pi*1" + "0" * 400):
        with pytest.raises(ConfigError, match="cannot parse angle"):
            parse_angle(bad)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_config_round_trip(name):
    spec = builtin(name)
    data = json.loads(json.dumps(serialize_config(spec)))
    again = parse_config(data)
    assert again.alphabet == spec.alphabet
    assert again.subshift == spec.subshift
    assert again.cover == spec.cover
    # parse_config normalises the written matrices: the maps come back to rounding
    for i in range(spec.alphabet.size):
        assert spec.transforms[i].approx_eq(again.transforms[i], 1e-15)
    # and a second round trip is textually stable
    assert serialize_config(again) == serialize_config(parse_config(serialize_config(again)))


def test_serialize_config_refuses_the_circle_less_a_point():
    # [s, s + 2*pi] would read back as the whole circle, so no file is written
    cf = builtin("cf")
    pierced = with_cover(cf, {"1-": cf.cover[0], "0": cf.cover[1],
                              "1": ArcSet.arc(0.3, 0.3 + TAU)})
    with pytest.raises(ValueError, match="symbol '1'"):
        serialize_config(pierced)
    whole = with_cover(cf, {"1-": cf.cover[0], "0": cf.cover[1], "1": ArcSet.full_circle()})
    assert parse_config(serialize_config(whole)).cover[2].full


def test_config_with_pi_strings_and_points():
    data = {
        "name": "toy",
        "alphabet": ["r", "s"],
        "transforms": {
            "r": {"real_line": [1, 1, 0, 1]},
            "s": {"real_line": [1, -1, 0, 1]},
        },
        "cover": {
            "r": [["pi*0", "pi"]],
            "s": [{"points": [[-1, 0], [1, 0]]}],
        },
        "forbidden": [],
    }
    spec = parse_config(data)
    assert spec.cover[0].arcs[0] == pytest.approx((0.0, math.pi))
    assert spec.cover[1].arcs[0][0] == pytest.approx(math.pi)


def test_config_lenient_forms_still_parse():
    # "real_line" takes numeric strings and "points" uses its first two
    # pairs; a string alphabet is no list and no longer splits into letters
    data = {
        "alphabet": ["r", "s"],
        "transforms": {
            "r": {"real_line": ["1", "1", 0, 1]},
            "s": {"real_line": [1, -1, 0, 1]},
        },
        "cover": {
            "r": [["pi*0", "pi"]],
            "s": [{"points": [[-1, 0], [1, 0], [0, 1]]}],
        },
        "forbidden": [],
    }
    spec = parse_config(data)
    assert spec.alphabet.symbols == ("r", "s")
    assert spec.transforms[0].approx_eq(from_real_line(1, 1, 0, 1), 0.0)
    assert spec.cover[1].arcs[0] == pytest.approx((math.pi, math.pi))
    with pytest.raises(ConfigError, match="'alphabet' needs a list"):
        parse_config(dict(data, alphabet="rs"))


def test_config_error_paths():
    with pytest.raises(ConfigError):
        parse_config({})
    base = json.loads(json.dumps(serialize_config(builtin("cf"))))
    missing = dict(base)
    missing["transforms"] = {k: v for k, v in base["transforms"].items() if k != "1"}
    with pytest.raises(ConfigError):
        parse_config(missing)
    off_circle = dict(base)
    off_circle["cover"] = dict(base["cover"])
    off_circle["cover"]["1"] = [{"points": [[0.5, 0], [1, 0]]}]
    with pytest.raises(ConfigError):
        parse_config(off_circle)
    bad_word = dict(base)
    bad_word["forbidden"] = base["forbidden"] + [["x"]]
    with pytest.raises(ConfigError):
        parse_config(bad_word)
    not_cover = dict(base)
    not_cover["cover"] = dict(base["cover"])
    not_cover["cover"]["0"] = [[0.1, 0.2]]
    with pytest.raises(ConfigError):
        parse_config(not_cover)


def test_load_config_file(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(serialize_config(builtin("parabolic3"))))
    spec = load_config(path)
    assert spec.alphabet.symbols == ("a", "b", "c")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)

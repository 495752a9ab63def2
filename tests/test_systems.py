"""Built-in registry and the JSON system-definition format."""

import json
import math
import random

import pytest

from moebius_systems import systems
from moebius_systems.arcs import EPS_ANGLE, ArcSet, _uncovered, covers_circle
from moebius_systems.codec import decode, encode
from moebius_systems.errors import ConfigError
from moebius_systems.systems import (
    BUILTIN_NAMES,
    _parse_cover,
    _whole_turn,
    builtin,
    load_config,
    parse_angle,
    parse_config,
    serialize_config,
    with_cover,
)
from moebius_systems.transforms import TAU, circle_distance, from_real_line, normalize
from reference import (
    ARC_FAMILIES,
    expansion_interval,
    random_multi_arc_system,
    random_raw_arcs,
    random_system,
    turned_cover,
    union_fold_cover,
    union_fold_uncovered,
)


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
    # "real_line" takes numeric strings and a cover arc angle strings; a
    # string alphabet is no list and no longer splits into letters
    data = {
        "alphabet": ["r", "s"],
        "transforms": {
            "r": {"real_line": ["1", "1", 0, 1]},
            "s": {"real_line": [1, -1, 0, 1]},
        },
        "cover": {
            "r": [["pi*0", "pi"]],
            "s": [{"points": [[-1, 0], [1, 0]]}],
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
    for symbols in ([], ["0", "0", "1"]):
        with pytest.raises(ConfigError):
            parse_config({**base, "alphabet": symbols})
    # each of these reads as cf itself where JSON true and false count as
    # the numbers 1 and 0 and extra endpoints or keys are ignored
    one_disc = [[True, 0.5], [0.5, 0.0], [0.5, -0.0], [True, -0.5]]
    for section, value in [
        ("cover", [[False, math.pi / 2]]),
        ("cover", [{"points": [[1, False], [0, 1]]}]),
        ("cover", [{"points": [[1, 0], [0, 1], [-1, 0]]}]),
        ("transforms", {"disc": one_disc}),
        ("transforms", {"real_line": [True, True, False, True]}),
        ("transforms", {"disc": base["transforms"]["1"]["disc"], "real_line": [1, 1, 0, 1]}),
    ]:
        with pytest.raises(ConfigError):
            parse_config({**base, section: {**base[section], "1": value}})
    with pytest.raises(ConfigError):
        parse_config({**base, "forbidden": base["forbidden"] + [[True, True]]})


def test_load_config_file(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(serialize_config(builtin("parabolic3"))))
    spec = load_config(path)
    assert spec.alphabet.symbols == ("a", "b", "c")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_returns_a_fresh_spec_on_parts_built_once(name):
    first, second = builtin(name), builtin(name)
    alphabet, maps, cover, subshift = systems._BUILTIN_FACTORIES[name]()  # built anew
    for spec in (first, second):
        assert spec.name == name and spec.alphabet == alphabet and spec.subshift == subshift
        assert spec.transforms == [maps[a] for a in alphabet.symbols]
        assert spec.cover == [cover[a] for a in alphabet.symbols]
    # nothing a spec builds or fills is shared
    assert first is not second
    assert first._pull_table is not second._pull_table
    assert first._decode_rows is not second._decode_rows
    assert first._gaps is not second._gaps
    word = decode(second, 1.0, 30)
    before = (list(second._pull_table.states), [list(r) for r in second._pull_table.rows])
    encode(first, word, tol=1e-9)
    assert len(first._pull_table.states) > 1
    assert (second._pull_table.states, second._pull_table.rows) == before
    assert encode(second, word, tol=1e-9) == encode(builtin(name), word, tol=1e-9)


@pytest.mark.parametrize("arc", [[2.0, 2.0], [0.0, EPS_ANGLE], [4.0, 4.0 + 0.9 * EPS_ANGLE],
                                 ["pi", "pi"], {"points": [[0, 1], [0, 1]]}])
def test_an_empty_cover_arc_is_a_config_error(arc):
    # cf with a second arc for "1" that reads as empty: it was dropped from
    # the cover, and the file read as cf itself
    base = json.loads(json.dumps(serialize_config(builtin("cf"))))
    cover = {**base["cover"], "1": [[0.0, math.pi / 2], arc]}
    with pytest.raises(ConfigError, match=r"cover arc .* of symbol '1' is empty"):
        parse_config({**base, "cover": cover})
    assert union_fold_cover([(0.0, math.pi / 2), (2.0, 2.0)]) == builtin("cf").cover[2]


def _canonical(pair):
    s, e = pair
    return s % TAU, (e - s) % TAU


def _same(a: ArcSet, b: ArcSet):
    assert repr((a.arcs, a.full)) == repr((b.arcs, b.full))  # repr tells -0.0 from 0.0


def _arc_by_arc(sets) -> list[ArcSet]:
    """The arcs of the sets, one set each, in canonical order."""
    if any(a.full for a in sets):
        return [ArcSet.full_circle()]
    return [ArcSet.from_arcs([arc]) for arc in sorted(arc for a in sets for arc in a.arcs)]


# parse_config once folded a symbol's cover arc by arc with ArcSet.union, in
# the order the file lists them, and _uncovered folded the sets letter by
# letter.  One merge of all the arcs gives a fold's result bit for bit where
# the fold takes the arcs in canonical order, the order serialize_config
# writes them in.  In another order a fold can round its merged ends
# differently, in the last bit, and where arc ends lie exactly EPS_ANGLE
# apart ("near") it can join other arcs; the one merge's result does not
# depend on the order.


@pytest.mark.parametrize("family", ARC_FAMILIES)
def test_one_merge_cover_matches_the_union_fold(family):
    rng = random.Random(f"cover-{family}")
    for _ in range(400):
        pairs = random_raw_arcs(rng, family)
        kept = [p for p in pairs if _whole_turn(*p) or (p[1] - p[0]) % TAU > EPS_ANGLE]
        if len(kept) < len(pairs):
            with pytest.raises(ConfigError, match="is empty"):
                _parse_cover(pairs, "x")
        cover = _parse_cover(kept, "x")
        _same(cover, union_fold_cover(sorted(kept, key=_canonical)))
        _same(_parse_cover(rng.sample(kept, len(kept)), "x"), cover)
        if family != "near":
            assert cover.distance(union_fold_cover(kept)) <= 2e-15


@pytest.mark.parametrize("family", ARC_FAMILIES)
def test_one_merge_uncovered_matches_the_union_fold(family):
    rng = random.Random(f"uncovered-{family}")
    for _ in range(400):
        sets = [ArcSet.from_arcs([(s, e - s) for s, e in random_raw_arcs(rng, family)
                                  if not _whole_turn(s, e)])
                for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.1:
            sets.insert(rng.randint(0, len(sets)), ArcSet.full_circle())
        gaps, folded = _uncovered(sets), union_fold_uncovered(sets)
        _same(gaps, union_fold_uncovered(_arc_by_arc(sets)))
        assert covers_circle(sets) == gaps.is_empty == folded.is_empty
        if family != "near":
            assert gaps.distance(folded) <= 2e-15


def test_cover_gaps_match_the_union_fold():
    rng = random.Random(41)
    specs = [builtin(name) for name in BUILTIN_NAMES]
    specs += [turned_cover(spec, t) for spec in specs for t in (0.2, 0.5, 0.8)]
    exact = len(specs)  # the builtins and their turned covers: bit for bit in letter order
    specs += [random_system(rng) for _ in range(60)]
    specs += [random_multi_arc_system(rng) for _ in range(60)]
    for i, spec in enumerate(specs):
        for row, gaps in zip(spec.subshift.transitions, spec._gaps):
            legal = [c for c, nxt in zip(spec.cover, row) if nxt is not None]
            _same(gaps, union_fold_uncovered(_arc_by_arc(legal)))
            if i < exact:
                _same(gaps, union_fold_uncovered(legal))
            else:
                assert gaps.distance(union_fold_uncovered(legal)) <= 2e-15

"""Built-in example systems, JSON system definitions, and helpers.

Four systems ship with the package:

  parabolic3   three parabolic maps cycling the vertices of the inscribed
               equilateral triangle; cover = the maps' expansion intervals.
  cf           the continued-fraction system on the circle (x-1, -1/x, x+1
               conjugated from the real line), with its standard cover.
  binary       the signed binary system (digits 1-, 0, 1 and a doubling
               digit 2 allowed only as a leading block).
  hyperbolic4  four hyperbolic maps conjugate by quarter turns whose
               expansion intervals tile the circle exactly.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from collections.abc import Mapping
from types import MappingProxyType

from .arcs import EPS_ANGLE, ArcSet
from .errors import ConfigError, NotDiscPreserving, OrientationReversing, SingularMatrix
from .interval_system import NumberSystemSpec
from .subshift import Alphabet, Subshift
from .transforms import (
    DiscMoebius,
    TAU,
    contraction,
    normalize,
    from_real_line,
    parabolic_map,
    rotation,
)

EPS_UNIT = 1e-9          # | |z| - 1 | allowed for a config arc endpoint on the circle
EPS_WHOLE_TURN = 1e-15   # distinct arc endpoints this close mod 2*pi mean the whole circle


def _parts(symbols, maps, cover, forbidden) -> tuple:
    """A builtin's alphabet, maps and covers keyed by symbol, read-only, and
    subshift."""
    alphabet = Alphabet(tuple(symbols))
    maps = MappingProxyType(dict(zip(symbols, maps)))
    cover = MappingProxyType(dict(zip(symbols, cover)))
    return alphabet, maps, cover, Subshift(alphabet, forbidden)


def _make_parabolic3() -> tuple:
    a, b, c = 0.0, TAU / 3.0, 2.0 * TAU / 3.0
    return _parts(
        ["a", "b", "c"],
        [parabolic_map(a, c, b), parabolic_map(b, a, c), parabolic_map(c, b, a)],
        [ArcSet.arc(a, b), ArcSet.arc(b, c), ArcSet.arc(c, TAU)],
        ["ac", "ba", "cb"],
    )


_CF_SYMBOLS = ("1-", "0", "1")  # shared with cf_digit_stream


def _make_cf() -> tuple:
    half = math.pi / 2.0
    return _parts(
        _CF_SYMBOLS,
        [
            normalize([[(2 - 1j) / 2, -0.5], [-0.5, (2 + 1j) / 2]]),
            normalize([[-1j, 0], [0, 1j]]),
            normalize([[(2 + 1j) / 2, 0.5], [0.5, (2 - 1j) / 2]]),
        ],
        [ArcSet.arc(half, math.pi), ArcSet.arc(math.pi, TAU), ArcSet.arc(0.0, half)],
        ["00", "11-", "1-1", "101", "1-01-"],
    )


def _make_binary() -> tuple:
    s = 1.0 / (2.0 * math.sqrt(2.0))
    h_minus = math.atan2(-3.0, -4.0) % TAU   # circle image of -1/2
    h_plus = math.atan2(-3.0, 4.0) % TAU     # circle image of +1/2
    q_minus = math.atan2(-15.0, -8.0) % TAU  # circle image of -1/4
    q_plus = math.atan2(-15.0, 8.0) % TAU    # circle image of +1/4
    return _parts(
        ["1-", "0", "1", "2"],
        [
            normalize([[(3 - 1j) * s, (-1 - 1j) * s], [(-1 + 1j) * s, (3 + 1j) * s]]),
            normalize([[3 * s, -1j * s], [1j * s, 3 * s]]),
            normalize([[(3 + 1j) * s, (1 - 1j) * s], [(1 + 1j) * s, (3 - 1j) * s]]),
            normalize([[3 * s, 1j * s], [-1j * s, 3 * s]]),
        ],
        [
            ArcSet.arc(math.pi, q_minus),
            ArcSet.arc(h_minus, h_plus),
            ArcSet.arc(q_plus, TAU),
            ArcSet.arc(h_plus, h_minus),
        ],
        ["20", "02", "12", "1-2", "11-", "1-1"],
    )


def _make_hyperbolic4() -> tuple:
    f1 = contraction(1.0 + math.sqrt(2.0))  # expansion interval spans a quarter turn
    quarter = math.pi / 2.0
    f0 = rotation(-quarter).compose(f1).compose(rotation(quarter))
    return _parts(
        ["0", "1", "2", "3"],
        [f0, f1, f0.inverse(), f1.inverse()],
        [
            ArcSet.arc(5 * math.pi / 4, 7 * math.pi / 4),
            ArcSet.arc(-math.pi / 4, math.pi / 4),
            ArcSet.arc(math.pi / 4, 3 * math.pi / 4),
            ArcSet.arc(3 * math.pi / 4, 5 * math.pi / 4),
        ],
        ["02", "20", "13", "31"],
    )


_BUILTIN_FACTORIES = {
    "parabolic3": _make_parabolic3,
    "cf": _make_cf,
    "binary": _make_binary,
    "hyperbolic4": _make_hyperbolic4,
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN_FACTORIES))


@functools.cache
def _builtin_parts(name: str) -> tuple:
    """The named builtin's parts, built on first use; no spec changes them."""
    return _BUILTIN_FACTORIES[name]()


def builtin(name: str) -> NumberSystemSpec:
    """A fresh spec of the named builtin, on the parts all its specs share."""
    if name not in _BUILTIN_FACTORIES:
        raise ConfigError(f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    return NumberSystemSpec(*_builtin_parts(name), name=name)


def with_cover(spec: NumberSystemSpec, cover_by_symbol) -> NumberSystemSpec:
    """Same maps and subshift, different cover (e.g. the trivial full-circle one)."""
    return NumberSystemSpec(
        spec.alphabet,
        dict(zip(spec.alphabet.symbols, spec.transforms)),
        cover_by_symbol,
        spec.subshift,
        name=spec.name,
    )


# -- JSON system definitions ---------------------------------------------------

_PI_RE = re.compile(r"^(-?)pi(?:\*(-?\d+(?:\.\d+)?)(?:/(\d+(?:\.\d+)?))?)?$")


def parse_angle(value) -> float:
    """Angle from a finite radian number or a 'pi*<fraction>' string."""
    text = value.replace(" ", "") if isinstance(value, str) else value
    m = _PI_RE.match(text) if isinstance(text, str) else None
    try:
        if m:
            sign = -1.0 if m.group(1) else 1.0
            angle = sign * math.pi * float(m.group(2) or 1.0) / float(m.group(3) or 1.0)
        elif isinstance(text, bool):
            angle = math.nan  # JSON true and false are no angles, though float() reads them
        else:
            angle = float(text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        angle = math.nan
    if not math.isfinite(angle):
        raise ConfigError(f"cannot parse angle {value!r}; use radians or 'pi*p/q'")
    return angle


def _pairs(vals, what: str) -> list[complex]:
    """Complex numbers from a list of [re, im] pairs; JSON true and false
    are no numbers, though complex() reads them."""
    try:
        if bool not in map(type, itertools.chain.from_iterable(vals)):
            return [complex(re_, im_) for re_, im_ in vals]
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{what} needs [re, im] pairs of numbers, got {vals!r}")


def _parse_arc(entry) -> tuple[float, float]:
    if isinstance(entry, dict) and "points" in entry:
        zs = _pairs(entry["points"], "'points'")
        if len(zs) != 2:
            raise ConfigError(f"'points' needs two [re, im] pairs, got {entry['points']!r}")
        angles = []
        for z in zs:
            if abs(abs(z) - 1.0) > EPS_UNIT:
                raise ConfigError(f"arc endpoint {z} is not on the unit circle")
            angles.append(math.atan2(z.imag, z.real))
        return angles[0], angles[1]
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return parse_angle(entry[0]), parse_angle(entry[1])
    raise ConfigError(f"cannot parse arc {entry!r}")


def _whole_turn(s: float, e: float) -> bool:
    """Whether a cover arc written from s to e reads as the whole circle."""
    return (e - s) % TAU < EPS_WHOLE_TURN and e != s


def _parse_cover(entry, name: str) -> ArcSet:
    """The cover of symbol `name` from its list of arcs, by one merge: the
    whole circle where an arc reads as a whole turn, and ConfigError for
    an arc that reads as empty, no longer than EPS_ANGLE."""
    pieces, full = [], False
    for arc in _listed(entry, f"the cover of {name!r}"):
        s, e = _parse_arc(arc)
        pieces.append((s, (e - s) % TAU))
        if _whole_turn(s, e):
            full = True  # equal endpoints: the whole circle
        elif pieces[-1][1] <= EPS_ANGLE:
            raise ConfigError(f"cover arc {arc!r} of symbol {name!r} is empty")
    return ArcSet.full_circle() if full else ArcSet.from_arcs(pieces)


def _parse_transform(entry) -> DiscMoebius:
    if isinstance(entry, dict) and "disc" in entry and "real_line" in entry:
        raise ConfigError(f"transform must give one of 'disc' and 'real_line', got {entry!r}")
    try:
        if isinstance(entry, dict) and "disc" in entry:
            zs = _pairs(entry["disc"], "'disc'")
            if len(zs) != 4:
                raise ConfigError("'disc' needs the four matrix entries, row major")
            return normalize([[zs[0], zs[1]], [zs[2], zs[3]]])
        if isinstance(entry, dict) and "real_line" in entry:
            vals = entry["real_line"]
            try:
                if any(isinstance(v, bool) for v in vals):
                    raise TypeError("JSON true and false are no numbers")
                nums = [float(v) for v in vals]
            except (TypeError, ValueError):
                raise ConfigError(f"'real_line' needs [a, b, c, d] numbers, got {vals!r}")
            if len(nums) != 4:
                raise ConfigError("'real_line' needs [a, b, c, d]")
            return from_real_line(*nums)
    except (SingularMatrix, NotDiscPreserving, OrientationReversing) as exc:
        raise ConfigError(str(exc))
    raise ConfigError(f"transform must give 'disc' or 'real_line', got {entry!r}")


def _section(data: dict, key: str) -> dict:
    """The object keyed by symbol under key, {} when absent."""
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{key}' needs an object keyed by symbol, got {section!r}")
    return section


def _listed(value, what: str) -> list:
    """The items of a JSON array: a string, bytes or an object is no list,
    though each is iterable.  A list, what json.load gives for an array,
    skips that test."""
    if type(value) is not list and isinstance(value, (str, bytes, Mapping)):
        raise ConfigError(f"{what} needs a list, got {value!r}")
    try:
        return list(value)
    except TypeError:
        raise ConfigError(f"{what} needs a list, got {value!r}")


def parse_config(data: dict) -> NumberSystemSpec:
    """Build a system from its JSON object form, validating as we go: a
    section of the wrong JSON type raises ConfigError like a missing one."""
    try:
        symbols = _listed(data["alphabet"], "'alphabet'")
    except (KeyError, TypeError):
        raise ConfigError("config needs an 'alphabet' list")
    for name in symbols:
        if not isinstance(name, str):
            raise ConfigError(f"alphabet symbols need to be strings, got {name!r}")
    transforms_in = _section(data, "transforms")
    cover_in = _section(data, "cover")
    transforms_map = {}
    cover_map = {}
    for name in symbols:
        t_entry = transforms_in.get(name)
        if t_entry is None:
            raise ConfigError(f"no transform for symbol {name!r}")
        transforms_map[name] = _parse_transform(t_entry)
        c_entry = cover_in.get(name)
        if c_entry is None:
            raise ConfigError(f"no cover arcs for symbol {name!r}")
        cover_map[name] = _parse_cover(c_entry, name)
    forbidden = _listed(data.get("forbidden", []), "'forbidden'")
    for word in forbidden:
        if isinstance(word, (list, tuple)) and bool in map(type, word):
            raise ConfigError(f"forbidden word {word!r} holds true or false, not a symbol")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ConfigError(f"'name' needs a string, got {name!r}")
    try:
        alphabet = Alphabet(tuple(symbols))
        return NumberSystemSpec(
            alphabet, transforms_map, cover_map, Subshift(alphabet, forbidden), name=name,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def serialize_config(spec: NumberSystemSpec) -> dict:
    """JSON object form of a system.  parse_config reads back equal
    alphabet, forbidden words and covers, but normalises each written
    matrix, so the maps come back only to rounding (5e-16 on the builtins)
    and results from the re-read system may differ in their last bits.  A
    cover arc it would read back as the whole circle raises ValueError."""
    out = {
        "name": spec.name,
        "alphabet": list(spec.alphabet.symbols),
        "transforms": {},
        "cover": {},
        "forbidden": [
            [spec.alphabet.symbols[i] for i in w] for w in spec.subshift.forbidden
        ],
    }
    for i, name in enumerate(spec.alphabet.symbols):
        f = spec.transforms[i]
        m = [f.alpha, f.beta, f.beta.conjugate(), f.alpha.conjugate()]
        out["transforms"][name] = {"disc": [[z.real, z.imag] for z in m]}
        out["cover"][name] = [[s, s + l] for s, l in spec.cover[i].arcs]
        if any(_whole_turn(s, e) for s, e in out["cover"][name]):
            raise ValueError(f"the cover of symbol {name!r} is the circle less a point, "
                             f"which the definition format reads back as the whole circle")
        if spec.cover[i].full:
            out["cover"][name] = [[0.0, TAU]]
    return out


def load_config(path) -> NumberSystemSpec:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}")
    return parse_config(data)


# -- classical continued fractions (oracle material for the cf system) ---------


def classical_cf_terms(p: int, q: int) -> list[int]:
    """Terms a1, a2, ... of p/q = 1/(a1 + 1/(a2 + ...)), for 0 < p < q."""
    if not 0 < p < q:
        raise ValueError("need 0 < p < q")
    num, den = q, p
    terms = []
    while den:
        a, rem = divmod(num, den)
        terms.append(a)
        num, den = den, rem
    return terms


def cf_digit_stream(p: int, q: int):
    """Infinite digit stream for p/q in the cf system.

    The rational in (0,1) expands as an inversion digit, then alternating
    blocks of unit translations whose lengths are the classical terms;
    the exact remainder 0-at-infinity is finished off with an inversion
    followed by the opposite translation repeated forever (the opposite
    sign keeps the three-letter factors legal).  The endless tail is an
    itertools.repeat, so reading it costs no Python frame per digit.
    """
    inv = _CF_SYMBOLS.index("0")
    minus = _CF_SYMBOLS.index("1-")
    plus = _CF_SYMBOLS.index("1")
    head = [inv]
    last = minus
    for i, a in enumerate(classical_cf_terms(p, q)):
        last = minus if i % 2 == 0 else plus
        head += [last] * a
        head.append(inv)
    tail = plus if last == minus else minus
    return itertools.chain(head, itertools.repeat(tail))

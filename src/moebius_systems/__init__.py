"""Moebius number systems on the unit circle.

Disc-preserving Moebius transformation algebra, circular-arc set
arithmetic, subshifts of finite type, interval-cover verification,
an encoder/decoder between digit strings and circle points, a
soficness certificate via pullback automata, and the two-generator
parameter-space existence map.
"""

__version__ = "0.1.0"

from .arcs import (
    ArcSet,
    ClosedArcSet,
    ExpansionGeometry,
    covers_circle,
    expansion_geometry,
    image,
    min_inverse_derivative,
)
from .codec import EncodeResult, Verdict, decode, encode, representable_interval, verify
from .errors import MoebiusError
from .existence import (
    CoverageGrid,
    cover_search,
    inward_region_test,
    render_grid,
    two_hyperbolic_system,
)
from .interval_system import NumberSystemSpec
from .sofic import PullbackAutomaton, build_automaton, sofic_verdict
from .subshift import Alphabet, Subshift
from .systems import BUILTIN_NAMES, builtin, load_config, parse_config, serialize_config
from .transforms import (
    INFINITY,
    DiscMoebius,
    KAKDecomposition,
    MoebiusClass,
    SpherePoint,
    canon_angle,
    circle_distance,
    contraction,
    from_real,
    from_real_line,
    identity,
    normalize,
    parabolic_map,
    rotation,
    stereographic,
)

__all__ = [
    "ArcSet", "ClosedArcSet", "ExpansionGeometry", "covers_circle",
    "expansion_geometry", "image", "min_inverse_derivative",
    "EncodeResult", "Verdict", "decode", "encode", "representable_interval", "verify",
    "MoebiusError",
    "CoverageGrid", "cover_search", "inward_region_test",
    "render_grid", "two_hyperbolic_system",
    "NumberSystemSpec",
    "PullbackAutomaton", "build_automaton", "sofic_verdict",
    "Alphabet", "Subshift",
    "BUILTIN_NAMES", "builtin", "load_config", "parse_config", "serialize_config",
    "INFINITY", "DiscMoebius", "KAKDecomposition", "MoebiusClass", "SpherePoint",
    "canon_angle", "circle_distance", "contraction", "from_real", "from_real_line",
    "identity", "normalize", "parabolic_map", "rotation", "stereographic",
]

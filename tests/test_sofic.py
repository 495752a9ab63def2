"""Pullback automaton construction and the soficness verdict."""

import itertools
import math
import random
import re

import pytest

from moebius_systems import sofic
from moebius_systems.arcs import ArcSet
from moebius_systems.interval_system import NumberSystemSpec
from moebius_systems.sofic import build_automaton, sofic_verdict, transition_residual
from moebius_systems.subshift import Alphabet, Subshift
from moebius_systems.systems import BUILTIN_NAMES, builtin
from moebius_systems.transforms import TAU, rotation
from reference import (
    LinearScan,
    expanded_count,
    interval_shift_words,
    perturbed_builtin,
    random_system,
    recomputed_residual,
    refined_set,
    scanned_automaton,
    turned_cover,
)


def test_parabolic3_saturates_with_five_states():
    # legal refinements depend only on the last letter, so the reachable
    # states are the full circle, one pullback per letter, and the sink
    p3 = builtin("parabolic3")
    auto = build_automaton(p3)
    assert auto.saturated
    assert auto.n_states == 5
    empties = [i for i, s in enumerate(auto.states) if s.is_empty]
    assert len(empties) == 1
    sink = empties[0]
    assert all(t == sink for t in auto.transitions[sink])  # the sink absorbs


def test_acceptance_matches_refined_emptiness():
    p3 = builtin("parabolic3")
    auto = build_automaton(p3)
    for n in range(0, 9):
        for v in itertools.product(range(3), repeat=n):
            assert auto.accepts(v) == (not refined_set(p3, v).is_empty)


def test_rotation_full_cover_two_states():
    alph = Alphabet(("r",))
    spec = NumberSystemSpec(
        alph, {"r": rotation(1.0)}, {"r": ArcSet.full_circle()}, Subshift(alph, ())
    )
    auto = build_automaton(spec)
    assert auto.saturated and auto.n_states <= 2


def test_cap_prevents_saturation():
    p3 = builtin("parabolic3")
    auto = build_automaton(p3, state_cap=3)
    assert not auto.saturated
    report = sofic_verdict(p3, auto)
    assert report.verdict.startswith("not shown sofic within cap")
    assert auto.growth  # the per-depth curve is part of the diagnosis


@pytest.mark.parametrize("cap", [0, -3])
def test_state_cap_below_one_rejected(cap):
    with pytest.raises(ValueError, match="state_cap must be >= 1"):
        build_automaton(builtin("cf"), state_cap=cap)


def test_rebuild_is_deterministic():
    p3 = builtin("parabolic3")
    a1 = build_automaton(p3)
    a2 = build_automaton(p3)
    assert a1.transitions == a2.transitions
    assert [s.arcs for s in a1.states] == [s.arcs for s in a2.states]


def test_transition_residual_small():
    for name, size in zip(("parabolic3", "cf", "binary", "hyperbolic4"), (5, 7, 16, 6)):
        spec = builtin(name)
        auto = build_automaton(spec)
        assert auto.saturated and auto.n_states == size
        # binary's 5.3e-15 is the largest
        assert transition_residual(spec, auto) < 6e-15


def test_sofic_verdict_product_language():
    p3 = builtin("parabolic3")
    auto = build_automaton(p3)
    report = sofic_verdict(p3, auto)
    assert auto.saturated
    assert report.product_states <= 5 * 4

    def product_accepts(word):
        state = 0
        for a in word:
            state = report.product_transitions[state][a]
            if state is None:
                return False
        return True

    # the product recognizes exactly the interval-shift language
    for n in range(0, 9):
        legal = set(interval_shift_words(p3, n))
        for v in itertools.product(range(3), repeat=n):
            assert product_accepts(v) == (v in legal)


def test_hyperbolic4_saturates():
    h4 = builtin("hyperbolic4")
    auto = build_automaton(h4)
    assert auto.saturated
    assert auto.n_states <= 6
    for n in range(0, 7):
        for v in itertools.product(range(4), repeat=n):
            assert auto.accepts(v) == (not refined_set(h4, v).is_empty)


def test_unused_letter_with_empty_cover_feeds_the_sink():
    # a letter whose cover is empty gets all transitions into the sink and
    # leaves the rest of the language untouched
    p3 = builtin("parabolic3")
    alph = Alphabet(("a", "b", "c", "z"))
    spec = NumberSystemSpec(
        alph,
        dict(zip(alph.symbols, list(p3.transforms) + [rotation(0.5)])),
        dict(zip(alph.symbols, list(p3.cover) + [ArcSet.empty()])),
        Subshift(alph, tuple(p3.subshift.forbidden)),
    )
    auto = build_automaton(spec)
    assert auto.saturated
    sinks = [i for i, s in enumerate(auto.states) if s.is_empty]
    assert len(sinks) == 1
    (z,) = alph.word("z")
    assert all(row[z] == sinks[0] for row in auto.transitions)
    for n in range(0, 5):
        for v in itertools.product(range(3), repeat=n):
            assert auto.accepts(v) == (not refined_set(p3, v).is_empty)


def test_exports_render():
    p3 = builtin("parabolic3")
    auto = build_automaton(p3)
    table = auto.transition_table(p3.alphabet)
    assert "state" in table and str(auto.n_states - 1) in table


def test_transition_table_columns_fit_long_symbol_names():
    # cf relabelled: each row's cells end where the header's names end
    cf = builtin("cf")
    names = {"1-": "minus", "0": "inversion", "1": "plus"}
    alph = Alphabet(tuple(names[s] for s in cf.alphabet.symbols))
    spec = NumberSystemSpec(alph, dict(zip(alph.symbols, cf.transforms)),
                            dict(zip(alph.symbols, cf.cover)), Subshift(alph, cf.subshift.forbidden))
    auto = build_automaton(spec)
    header, *rows = auto.transition_table(alph).splitlines()
    assert header.split()[1:-1] == list(alph.symbols) and len(rows) == auto.n_states == 7

    def ends(line):  # where each field but the last ends
        return [m.end() for m in re.finditer(r"\S+", line)][:-1]

    assert all(ends(row) == ends(header) for row in rows)
    assert [row.split() for row in rows] == \
        [row.split() for row in build_automaton(cf).transition_table(cf.alphabet).splitlines()[1:]]


_BINARY_TABLE = """\
state  minus1     0     1     2  accepting
    0       1     2     3     4  yes
    1       1     2     5     6  yes
    2       1     2     3     7  yes
    3       8     2     3     9  yes
    4       1    10     3     4  yes
    5       8    11    12    12  yes
    6       8    13    12    12  yes
    7       8    10     5    12  yes
    8      12    14     5    12  yes
    9      12    15     5    12  yes
   10      11    12    14     7  yes
   11       1    11    12     6  yes
   12      12    12    12    12  no
   13      11    12    12     6  yes
   14      12    14     3     9  yes
   15      12    12    14     9  yes"""


def test_transition_table_text_is_pinned():
    # binary's 16 states, its first letter renamed to a six-character name:
    # two-digit state ids, a column wider than 4 and the sink's "no" row
    auto = build_automaton(builtin("binary"))
    assert auto.transition_table(Alphabet(("minus1", "0", "1", "2"))) == _BINARY_TABLE


def _wrap_spec():
    # letter p keeps an arc starting just below 2*pi; letter q turns any
    # state by +4e-4, so p then q gives an arc starting just above 0 that
    # lies within 1e-3 of the state p reached
    alph = Alphabet(("p", "q"))
    return NumberSystemSpec(
        alph,
        {"p": rotation(0.0), "q": rotation(-4e-4)},
        {"p": ArcSet.from_arcs([(TAU - 2e-4, 3.0)]), "q": ArcSet.full_circle()},
        Subshift(alph, ()),
    )


def _assert_same_automaton(spec, cap, eps, monkeypatch):
    indexed = build_automaton(spec, state_cap=cap, eps_state=eps)
    with monkeypatch.context() as m:
        m.setattr(sofic, "_StateIndex", LinearScan)
        linear = build_automaton(spec, state_cap=cap, eps_state=eps)
    assert [(s.full, s.arcs) for s in indexed.states] == \
        [(s.full, s.arcs) for s in linear.states]
    assert indexed.transitions == linear.transitions
    assert indexed.growth == linear.growth
    assert indexed.saturated == linear.saturated
    assert indexed.residual == linear.residual
    return indexed


@pytest.mark.parametrize("eps", [0.0, 1e-7, 1e-3])
@pytest.mark.parametrize("turn", [None, 0.2, 0.35, 0.5, 0.65, 0.8])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_state_index_matches_linear_scan(name, turn, eps, monkeypatch):
    spec = builtin(name) if turn is None else turned_cover(builtin(name), turn)
    _assert_same_automaton(spec, 120, eps, monkeypatch)


@pytest.mark.parametrize("eps", [0.0, 1e-7, 1e-3])
def test_state_index_matches_linear_scan_across_zero(eps, monkeypatch):
    spec = _wrap_spec()
    auto = _assert_same_automaton(spec, 120, eps, monkeypatch)
    p, q = spec.alphabet.word("pq")
    below = auto.transitions[auto.initial][p]
    assert auto.states[below].arcs[0][0] > TAU - 1e-3
    if eps == 1e-3:
        # the arc pulled across zero is merged with the one below 2*pi
        assert auto.transitions[below][q] == below
    else:
        assert auto.states[auto.transitions[below][q]].arcs[0][0] < 1e-3


def _empty_dominated_specs():
    """The perturbed builtins and a derandomized slice of direction 2's
    random systems: state searches in which most steps are empty."""
    rng = random.Random(11)
    return ([perturbed_builtin(builtin(name), r) for name in BUILTIN_NAMES for r in (3.0, 1e2, 1e4)]
            + [random_system(rng) for _ in range(16)])


@pytest.mark.parametrize("eps", [0.0, 1e-7, 1e-3])
def test_sink_rule_matches_the_full_scan_where_empty_steps_dominate(eps, monkeypatch):
    # an empty step that meets the stored sink takes its id unlooked; the
    # reference search scans every stored state for it, as for any step
    empty = steps = 0
    for spec in _empty_dominated_specs():
        auto = _assert_same_automaton(spec, 120, eps, monkeypatch)
        states, transitions, growth, residual = scanned_automaton(spec, 120, eps)
        assert [(s.full, s.arcs) for s in auto.states] == [(s.full, s.arcs) for s in states]
        assert auto.transitions[:len(transitions)] == transitions
        assert auto.growth == growth and auto.residual == residual
        steps += sum(map(len, transitions))
        empty += sum(states[j].is_empty for row in transitions for j in row)
    assert empty > steps / 2


def test_empty_steps_skip_the_state_lookup_once_the_sink_is_stored(monkeypatch):
    looked_up, measured = [], []
    candidates, distance = sofic._StateIndex.candidates, ArcSet.distance
    monkeypatch.setattr(sofic._StateIndex, "candidates",
                        lambda self, z: looked_up.append(z.is_empty) or candidates(self, z))
    monkeypatch.setattr(ArcSet, "distance", lambda self, other: measured.append(
        self.is_empty or other.is_empty) or distance(self, other))
    sinks = 0
    for spec in _empty_dominated_specs() + [builtin(name) for name in BUILTIN_NAMES]:
        looked_up.clear()
        measured.clear()
        auto = build_automaton(spec, state_cap=120)
        has_sink = any(s.is_empty for s in auto.states)
        sinks += has_sink
        # one lookup of an empty step, the one that stores the sink; none
        # measures a distance to or from the empty set
        assert looked_up.count(True) == has_sink
        assert not any(measured)
    assert sinks > 20


@pytest.mark.parametrize("eps", [math.inf, math.nan, -1.0, -math.inf])
def test_invalid_state_tolerance_rejected(eps):
    with pytest.raises(ValueError, match="eps_state"):
        build_automaton(builtin("cf"), eps_state=eps)


def test_verdict_withheld_when_residual_exceeds_tolerance():
    spec = turned_cover(builtin("cf"), 0.5)
    auto = build_automaton(spec, state_cap=120, eps_state=1e-3)
    residual = transition_residual(spec, auto)
    assert auto.saturated and 0.0 < residual <= 1e-3
    assert sofic_verdict(spec, auto).verdict.startswith("sofic")
    auto.eps_state = residual / 2
    report = sofic_verdict(spec, auto)
    assert report.verdict.startswith("not shown sofic: transition residual")
    assert report.product_states is None


@pytest.mark.parametrize("eps", [0.0, 1e-7, 1e-3])
@pytest.mark.parametrize("turn", [None, 0.2, 0.35, 0.5, 0.65, 0.8])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_recorded_residual_matches_recomputation(name, turn, eps):
    spec = builtin(name) if turn is None else turned_cover(builtin(name), turn)
    auto = build_automaton(spec, state_cap=120, eps_state=eps)
    assert transition_residual(spec, auto) == recomputed_residual(spec, auto)


@pytest.mark.parametrize("cap", [1, 5, 20])
@pytest.mark.parametrize("turn", [None, 0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_states_met_in_the_last_depth_are_the_unexpanded_ones(name, turn, cap):
    # the search expands the states numbered below growth[-2] (the initial
    # state alone after one depth); the states met in the depth where the
    # cap stopped it self-loop on every letter, and the residual the BFS
    # records is the one recomputed over the expanded states' edges
    spec = builtin(name) if turn is None else turned_cover(builtin(name), turn)
    auto = build_automaton(spec, state_cap=cap)
    expanded = expanded_count(auto)
    assert auto.saturated == (expanded == auto.n_states)
    for si in range(expanded, auto.n_states):
        assert auto.transitions[si] == [si] * spec.alphabet.size
    assert auto.residual == recomputed_residual(spec, auto)


def test_verdict_takes_no_pullback_step(monkeypatch):
    spec = turned_cover(builtin("cf"), 0.5)
    auto = build_automaton(spec, state_cap=120, eps_state=1e-3)

    def refuse(z, a):
        raise AssertionError("pull_step called after the BFS")

    monkeypatch.setattr(spec, "pull_step", refuse)
    report = sofic_verdict(spec, auto)
    assert report.verdict.startswith("sofic") and report.transition_residual > 0.0


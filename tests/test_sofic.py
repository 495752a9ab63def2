"""Pullback automaton construction and the soficness verdict."""

import itertools
import math

import pytest

from moebius_systems import sofic
from moebius_systems.arcs import ArcSet
from moebius_systems.interval_system import NumberSystemSpec
from moebius_systems.sofic import build_automaton, sofic_verdict, transition_residual
from moebius_systems.subshift import Alphabet, Subshift
from moebius_systems.systems import BUILTIN_NAMES, builtin
from moebius_systems.transforms import TAU, rotation
from reference import LinearScan, recomputed_residual, turned_cover


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
            assert auto.accepts(v) == (not p3.refined_set(v).is_empty)


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
    assert report.growth  # the per-depth curve is part of the diagnosis


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
    assert report.saturated
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
        legal = set(p3.interval_shift_language(n))
        for v in itertools.product(range(3), repeat=n):
            assert product_accepts(v) == (v in legal)


def test_hyperbolic4_saturates():
    h4 = builtin("hyperbolic4")
    auto = build_automaton(h4)
    assert auto.saturated
    assert auto.n_states <= 6
    for n in range(0, 7):
        for v in itertools.product(range(4), repeat=n):
            assert auto.accepts(v) == (not h4.refined_set(v).is_empty)


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
            assert auto.accepts(v) == (not p3.refined_set(v).is_empty)


def test_exports_render():
    p3 = builtin("parabolic3")
    auto = build_automaton(p3)
    table = auto.transition_table(p3.alphabet)
    assert "state" in table and str(auto.n_states - 1) in table
    dot = auto.graph_description(p3.alphabet)
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert dot.count("->") == auto.n_states * p3.alphabet.size


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
    assert indexed.expanded == linear.expanded
    assert indexed.saturated == linear.saturated
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


def test_verdict_takes_no_pullback_step(monkeypatch):
    spec = turned_cover(builtin("cf"), 0.5)
    auto = build_automaton(spec, state_cap=120, eps_state=1e-3)

    def refuse(z, a):
        raise AssertionError("pull_step called after the BFS")

    monkeypatch.setattr(spec, "pull_step", refuse)
    report = sofic_verdict(spec, auto)
    assert report.verdict.startswith("sofic") and report.transition_residual > 0.0


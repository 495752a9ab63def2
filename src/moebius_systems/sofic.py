"""Finite-automaton view of refined-set nonemptiness.

Pulling a word's refined set back through the inverse word map gives a
state that updates locally by NumberSystemSpec.pull_step:
Z -> F_a^-1(Z) intersected with the letter's own pullback F_a^-1(C_a).
When only finitely many states arise (up to a numerical tolerance), the
words with nonempty refinement form a regular language, and
intersecting with the subshift language yields a finite recognizer for
the interval shift — a soficness certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arcs import EPS_ANGLE, ArcSet, image  # noqa: F401  the benchmark tests wrap sofic.image
from .interval_system import NumberSystemSpec
from .subshift import Word
from .transforms import TAU


@dataclass
class PullbackAutomaton:
    """Deterministic automaton whose states are pulled-back refined sets.

    States are deduplicated within eps_state (max endpoint deviation):
    a new state maps to the lowest-index stored state within eps_state,
    found through build_automaton's state index.  The empty state is a
    sink and the only non-accepting state.
    """

    states: list[ArcSet]
    transitions: list[list[int]]
    initial: int
    saturated: bool
    eps_state: float
    growth: list[int] = field(default_factory=list)  # total states after each BFS depth
    expanded: list[bool] = field(default_factory=list)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def accepting(self, state: int) -> bool:
        return not self.states[state].is_empty

    def accepts(self, word: Word) -> bool:
        state = self.initial
        for a in word:
            state = self.transitions[state][a]
        return self.accepting(state)

    def transition_table(self, alphabet) -> str:
        """Plain-text transition table (one row per state)."""
        lines = ["state  " + "  ".join(f"{s:>4}" for s in alphabet.symbols) + "  accepting"]
        for i, row in enumerate(self.transitions):
            cells = "  ".join(f"{t:>4}" for t in row)
            lines.append(f"{i:>5}  {cells}  {'yes' if self.accepting(i) else 'no'}")
        return "\n".join(lines)

    def graph_description(self, alphabet) -> str:
        """Graph form: one node per state, labelled edges (DOT syntax)."""
        lines = ["digraph pullback {"]
        for i in range(self.n_states):
            shape = "doublecircle" if self.accepting(i) else "circle"
            mark = " (start)" if i == self.initial else ""
            lines.append(f'  s{i} [shape={shape}, label="s{i}{mark}"];')
        for i, row in enumerate(self.transitions):
            for a, t in enumerate(row):
                lines.append(f'  s{i} -> s{t} [label="{alphabet.symbols[a]}"];')
        lines.append("}")
        return "\n".join(lines)


def build_automaton(spec: NumberSystemSpec, state_cap: int = 10_000,
                    eps_state: float = 1e-7) -> PullbackAutomaton:
    """Breadth-first closure of the pullback states, starting from the
    full circle.  Stops when no new state appears (saturated) or when the
    cap is hit (reported in the result, not raised).

    A new state is the lowest-index stored state within eps_state by
    ArcSet.distance, else a state of its own.  The candidates come from a
    _StateIndex rather than a scan of every stored state; the rule, and so
    the automaton, is the one the scan gives.  eps_state must be finite
    and >= 0 (0 merges exact repeats only).
    """
    if not 0.0 <= eps_state < math.inf:
        raise ValueError(f"eps_state must be finite and >= 0, got {eps_state}")
    states: list[ArcSet] = [ArcSet.full_circle()]
    index = _StateIndex(eps_state)
    index.add(states[0], 0)
    transitions: list[list[int] | None] = [None]
    growth: list[int] = []
    frontier = [0]
    saturated = True
    while frontier:
        next_frontier: list[int] = []
        for si in frontier:
            z = states[si]
            row: list[int] = []
            for a in range(spec.alphabet.size):
                nz = spec.pull_step(z, a)
                found = None
                for j in index.candidates(nz):
                    if states[j].distance(nz) <= eps_state:
                        found = j
                        break
                if found is None:
                    found = len(states)
                    states.append(nz)
                    index.add(nz, found)
                    transitions.append(None)
                    next_frontier.append(found)
                row.append(found)
            transitions[si] = row
        growth.append(len(states))
        if len(states) > state_cap:
            saturated = False
            break
        frontier = next_frontier
    # unexpanded states (cap hit mid-search) self-loop so the table is total
    expanded = [row is not None for row in transitions]
    for i, row in enumerate(transitions):
        if row is None:
            transitions[i] = [i] * spec.alphabet.size
    return PullbackAutomaton(
        states=states,
        transitions=transitions,  # type: ignore[arg-type]
        initial=0,
        saturated=saturated,
        eps_state=eps_state,
        growth=growth,
        expanded=expanded,
    )


class _StateIndex:
    """Stored states keyed so that every state within eps of a query is
    among the query's candidates.

    ArcSet.distance is finite only between two full sets, two empty sets,
    or sets with the same number of arcs, and a distance <= eps pairs the
    query's first arc start with some arc start of the match within eps
    along the circle.  So a state with arcs is filed under (arc count,
    cell) for each of its starts, cell = floor(start / width), and a query
    looks up its first start's cell and the two next to it, and the same a
    turn away when the start lies within a width of 0 or 2*pi.  The width
    is 2*eps, so that rounding in circle_distance cannot carry a match
    past the next cell, and at least EPS_ANGLE, so that eps = 0 works.
    """

    _FULL, _EMPTY = (-1, 0), (0, 0)

    def __init__(self, eps: float):
        self.width = max(2.0 * eps, EPS_ANGLE)
        self.cells: dict[tuple[int, int], list[int]] = {}

    def add(self, z: ArcSet, i: int) -> None:
        if z.full or not z.arcs:
            keys = {self._FULL if z.full else self._EMPTY}
        else:
            keys = {(len(z.arcs), math.floor(s / self.width)) for s, _ in z.arcs}
        for key in keys:
            self.cells.setdefault(key, []).append(i)

    def candidates(self, z: ArcSet) -> list[int]:
        """Indices of the stored states that may lie within eps of z, in
        ascending order."""
        if z.full or not z.arcs:
            return self.cells.get(self._FULL if z.full else self._EMPTY, [])
        n, w = len(z.arcs), self.width
        s = z.arcs[0][0]
        starts = [s]
        if s < w:
            starts.append(s + TAU)
        if s > TAU - w:
            starts.append(s - TAU)
        found: set[int] = set()
        for x in starts:
            c = math.floor(x / w)
            for cell in (c - 1, c, c + 1):
                found.update(self.cells.get((n, cell), ()))
        return sorted(found)


@dataclass
class SoficReport:
    verdict: str
    saturated: bool
    n_states: int
    eps_state: float
    growth: list[int]
    transition_residual: float
    product_states: int | None = None
    product_transitions: list[list[int | None]] | None = None
    product_accepting: list[bool] | None = None


def transition_residual(spec: NumberSystemSpec, automaton: PullbackAutomaton) -> float:
    """Max deviation between stored target states and freshly recomputed
    pullback steps, over all edges from accepting states."""
    worst = 0.0
    for si, row in enumerate(automaton.transitions):
        if automaton.expanded and not automaton.expanded[si]:
            continue
        z = automaton.states[si]
        for a, ti in enumerate(row):
            d = automaton.states[ti].distance(spec.pull_step(z, a))
            if math.isinf(d):
                return math.inf
            worst = max(worst, d)
    return worst


def sofic_verdict(spec: NumberSystemSpec, automaton: PullbackAutomaton) -> SoficReport:
    """Judge soficness of the interval shift from a built automaton.

    A saturated search certifies (numerically, up to eps_state) that the
    nonempty-refinement language is regular; the product with the
    subshift's factor automaton then recognizes the interval shift.  The
    verdict is withheld when a recomputed transition lands farther than
    eps_state from its stored target, or changes the arc structure.
    """
    residual = transition_residual(spec, automaton)
    if not automaton.saturated:
        verdict = f"not shown sofic within cap (reached {automaton.n_states} states)"
    elif not residual <= automaton.eps_state or math.isinf(residual):
        verdict = (f"not shown sofic: transition residual {residual:g} exceeds "
                   f"state tolerance {automaton.eps_state:g}")
    else:
        verdict = None
    if verdict is not None:
        return SoficReport(
            verdict=verdict,
            saturated=automaton.saturated,
            n_states=automaton.n_states,
            eps_state=automaton.eps_state,
            growth=automaton.growth,
            transition_residual=residual,
        )
    follower = spec.automaton
    pairs: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []

    def intern(p):
        if p not in pairs:
            pairs[p] = len(order)
            order.append(p)
        return pairs[p]

    intern((automaton.initial, follower.initial))
    table: list[list[int | None]] = []
    i = 0
    while i < len(order):
        z, fstate = order[i]
        row: list[int | None] = []
        for a in range(spec.alphabet.size):
            nf = follower.step(fstate, a)
            nz = automaton.transitions[z][a]
            if nf is None or not automaton.accepting(nz):
                row.append(None)
            else:
                row.append(intern((nz, nf)))
        table.append(row)
        i += 1
    accepting = [automaton.accepting(z) for z, _ in order]
    return SoficReport(
        verdict=f"sofic (numerically, state tolerance {automaton.eps_state:g})",
        saturated=True,
        n_states=automaton.n_states,
        eps_state=automaton.eps_state,
        growth=automaton.growth,
        transition_residual=residual,
        product_states=len(order),
        product_transitions=table,
        product_accepting=accepting,
    )

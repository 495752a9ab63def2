"""Finite-automaton view of refined-set nonemptiness.

Pulling a word's refined set back through the inverse word map gives a
state that updates locally by NumberSystemSpec.pull_step:
Z -> F_a^-1(Z) intersected with the letter's own pullback F_a^-1(C_a).
When only finitely many states arise (up to a numerical tolerance), the
words with nonempty refinement form a regular language, and
intersecting with the subshift language yields a finite recognizer for
the interval shift — a soficness certificate.  The breadth-first search
records how far each computed step lands from the state it is merged
into; the verdict is withheld when that residual exceeds the state
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arcs import EPS_ANGLE, ArcSet, image  # noqa: F401  the benchmark tests wrap sofic.image
from .interval_system import NumberSystemSpec
from .subshift import Word
from .transforms import TAU

STATE_CAP = 10_000  # BFS states before build_automaton gives up on saturation
EPS_STATE = 1e-7    # state dedup tolerance, far above the pull steps' rounding


@dataclass
class PullbackAutomaton:
    """Deterministic automaton whose states are pulled-back refined sets.

    The initial state, 0, is the full circle.  States are deduplicated
    within eps_state (max endpoint deviation): a new state maps to the
    lowest-index stored state within eps_state, found through
    build_automaton's state index.  The empty state is a sink and the only
    non-accepting state.  residual is the largest distance, recorded by
    the BFS, between a computed pullback step and the stored state it was
    merged into (0 for a step that became a new state), over the edges of
    the expanded states.  Those are the states numbered below growth[-2]
    (below 1 when one depth ran); the rest, met in the depth where the cap
    stopped the search, self-loop on every letter.
    """

    states: list[ArcSet]
    transitions: list[list[int]]
    saturated: bool
    eps_state: float
    growth: list[int] = field(default_factory=list)  # total states after each BFS depth
    residual: float = 0.0

    initial = 0  # a class constant, not a field: the full circle

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
        """Plain-text transition table (one row per state, each formatted by
        one % operation), each letter's column as wide as its name and at
        least 4."""
        widths = ["%5"] + [f"%{max(4, len(s))}" for s in alphabet.symbols]
        head = "  ".join([w + "s" for w in widths] + ["accepting"]) % ("state", *alphabet.symbols)
        line = "  ".join([w + "d" for w in widths] + ["%s"])
        return "\n".join([head] + [line % (i, *row, "no" if z.is_empty else "yes") for i, (row, z)
                                   in enumerate(zip(self.transitions, self.states))])


def build_automaton(spec: NumberSystemSpec, state_cap: int = STATE_CAP,
                    eps_state: float = EPS_STATE) -> PullbackAutomaton:
    """Breadth-first closure of the pullback states, starting from the
    full circle.  Stops when no new state appears (saturated) or when the
    cap is hit (reported in the result, not raised).

    The states list is the search's queue: it is expanded in order as it
    grows, and a depth ends with the last state the depth before it met.
    A new state is the lowest-index stored state within eps_state by
    ArcSet.distance, else a state of its own.  The candidates come from a
    _StateIndex rather than a scan of every stored state; the rule, and so
    the automaton, is the one the scan gives.  An empty step, once the
    empty state is stored, takes the sink's id without a lookup: only an
    empty set lies within any eps_state of an empty set, at distance 0, so
    the rule picks the sink and the residual does not move.  state_cap
    must be >= 1, and eps_state finite and >= 0 (0 merges exact repeats
    only).
    """
    if state_cap < 1:
        raise ValueError(f"state_cap must be >= 1, got {state_cap}")
    if not 0.0 <= eps_state < math.inf:
        raise ValueError(f"eps_state must be finite and >= 0, got {eps_state}")
    size = spec.alphabet.size
    states = [ArcSet.full_circle()]  # grows as new states are met, breadth first
    index = _StateIndex(eps_state)
    index.add(states[0], 0)
    transitions: list[list[int]] = []
    growth: list[int] = []
    residual = 0.0
    saturated = True
    sink = None  # the empty state's id, once stored
    for z in states:
        row: list[int] = []
        for a in range(size):
            nz = spec.pull_step(z, a)
            if sink is not None and not nz.arcs and not nz.full:
                row.append(sink)
                continue
            for j in index.candidates(nz):
                d = states[j].distance(nz)
                if d <= eps_state:
                    residual = max(residual, d)
                    break
            else:
                j = len(states)
                states.append(nz)
                index.add(nz, j)
                if not nz.arcs and not nz.full:
                    sink = j
            row.append(j)
        transitions.append(row)
        if len(transitions) == (growth[-1] if growth else 1):  # a depth ends
            growth.append(len(states))
            if len(states) > state_cap:
                saturated = False
                break
    # unexpanded states (cap hit mid-search) self-loop so the table is total
    transitions += ([i] * size for i in range(len(transitions), len(states)))
    return PullbackAutomaton(
        states=states,
        transitions=transitions,
        saturated=saturated,
        eps_state=eps_state,
        growth=growth,
        residual=residual,
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
        get = self.cells.get
        hits = []
        for x in starts:
            c = math.floor(x / w)
            for cell in (c - 1, c, c + 1):
                hit = get((n, cell))
                if hit:
                    hits.append(hit)
        if len(hits) == 1:
            return hits[0]  # one cell's list is ascending already
        return sorted({i for hit in hits for i in hit})


@dataclass
class SoficReport:
    """What sofic_verdict adds to the automaton it judges: the verdict, the
    transition residual, and for a "sofic" verdict the product with the
    subshift's follower automaton (None otherwise).  Saturation, the state
    count, the tolerance and the growth per depth are the automaton's."""

    verdict: str
    transition_residual: float
    product_states: int | None = None
    product_transitions: list[list[int | None]] | None = None


def transition_residual(spec: NumberSystemSpec, automaton: PullbackAutomaton) -> float:
    """Max deviation between stored target states and the pullback steps
    that reached them, as recorded by the BFS, over the edges of the
    expanded states.  pull_step is deterministic, so recomputing the steps
    gives the same value."""
    return automaton.residual


def sofic_verdict(spec: NumberSystemSpec, automaton: PullbackAutomaton) -> SoficReport:
    """Judge soficness of the interval shift from a built automaton.

    A saturated search certifies (numerically, up to eps_state) that the
    nonempty-refinement language is regular; its product with the
    subshift's follower automaton, read from spec.subshift.transitions,
    then recognizes the interval shift.  The verdict is withheld when the
    search hit its cap, or when the transition residual, recorded by the
    BFS, exceeds eps_state, which is finite, so an infinite residual
    always does.  The report holds only what the verdict adds; saturation,
    states, tolerance and growth are read from the automaton.  Product
    states are numbered in the order they are met, breadth first from the
    pair of initial states; a row lists its letters in alphabet order,
    None where the word leaves the interval shift.
    """
    residual = transition_residual(spec, automaton)
    eps = automaton.eps_state
    if not automaton.saturated:
        return SoficReport(f"not shown sofic within cap (reached {automaton.n_states} states)",
                           residual)
    if not residual <= eps:
        return SoficReport(f"not shown sofic: transition residual {residual:g} exceeds "
                           f"state tolerance {eps:g}", residual)
    moves = spec.subshift.transitions
    pairs = [(automaton.initial, spec.subshift.initial)]  # grows as new pairs are met
    ids = {pairs[0]: 0}
    table: list[list[int | None]] = []
    for z, f in pairs:
        row: list[int | None] = []
        for nz, nf in zip(automaton.transitions[z], moves[f]):
            if nf is None or not automaton.accepting(nz):
                row.append(None)
                continue
            if (nz, nf) not in ids:
                ids[nz, nf] = len(pairs)
                pairs.append((nz, nf))
            row.append(ids[nz, nf])
        table.append(row)
    return SoficReport(f"sofic (numerically, state tolerance {eps:g})", residual,
                       len(pairs), table)

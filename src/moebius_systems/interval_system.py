"""Interval almost covers, refined sets, and expansion bounds.

A number system candidate is an alphabet of disc maps together with a
family of open arc sets whose closures fill the circle (a gap no wider
than EPS_ANGLE counts as covered), and a subshift restricting the
admissible digit strings.  A word w is held as the pullback state
Z_w = F_w^-1(R(w)) of its refined set R(w) together with its word map
F_w, stepped letter by letter by pull_step and compose from the full
circle and the identity.  The level walk of the interval shift carries
each word's (Z_w, F_w) from its parent's, and interval-shift membership
(Z_w nonempty), the expansion minimum and the cover gaps are read from
it.  No query forms the open R(w) = F_w(Z_w): the points a word can
represent are codec.representable_interval, the closed F_w(cl Z_w).

A word leaves the interval shift at its first digit that the subshift
forbids there or whose step empties Z_w.  The walk cuts the branch
there, and encode and the one-word queries raise the one error that
NumberSystemSpec._leaves builds for it, which names the subshift first.

Since Z_wa = F_a^-1(Z_w ∩ C_a), a step is empty exactly when Z_w misses
C_a.  pull_step reads that in forward coordinates first, without mapping
(about half the steps of a certify pass); its docstring bounds the error
of that test.

Where each letter's inverse expands on its cover arc (C_a within the
expansion interval of F_a), F_w^-1 expands on R(w) by the chain rule, so
Z_w is at least as wide as R(w), arc by arc, and still answers once R(w)
is narrower than EPS_ANGLE.  The input does not promise that.  Where F_w
contracts, Z_w is the narrower one, and a word whose Z_w drops below
EPS_ANGLE leaves the interval shift even when R(w) is wide (a known
defect, ROADMAP direction 1).
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property, reduce

from . import transforms
from .arcs import EPS_ANGLE, ArcSet, _least_on, _uncovered, covers_circle, image
from .errors import EmptyRefinedSet, IllegalPrefix
from .subshift import Alphabet, Subshift, Word, walk
from .transforms import TAU

EPS_COMPAT = 1e-8   # endpoint tolerance for the cover-extension identity
EPS_ONE = 1e-9      # band around an expansion bound of exactly 1
EPS_PRUNE = 1e-9    # slack on q(uv) >= q(u)*Q_|v|; min_expansion is within 3e-12 of a 60-digit product
_PULL_TABLE_CAP = 4096  # interned pairs per table before a fresh one starts
_DECODE_BAND = 2 * EPS_ANGLE  # decode's guard band either side of a cover-arc end
_NEARLY_FULL = TAU - EPS_ANGLE  # decode: an arc offset or length within EPS_ANGLE of a full turn


@dataclass
class ExpansionRateBound:
    """Certified lower bound on the asymptotic expansion rate.

    The per-level minima are supermultiplicative, so every n-th root is a
    lower bound for the limit rate; the best one over 1..n_max is kept.
    Each table entry Q_n is the exhaustive level minimum, bit for bit: the
    walk that computes it cuts only words none of whose extensions can
    attain a later level's minimum (see expansion_rate_bound).
    """

    lower_bound: float
    n_achieving: int
    table: list[tuple[int, float]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _extension_bound(lower: list[float], upper: list[float]) -> float:
    """The q above which a word of level k = len(lower) - 1 has no extension
    attaining Q_m for any m in k+1..n_max = len(upper) - 1, from the exact
    Q_0..Q_k in lower and the upper bounds U_m in upper."""
    k, n_max = len(lower) - 1, len(upper) - 1
    est = list(lower)
    for j in range(k + 1, n_max - k + 1):
        est.append(max(est[i] * est[j - i] for i in range(1, j)))
    return max(upper[m] * (1.0 + EPS_PRUNE) / est[m - k] if est[m - k] > 0 else math.inf
               for m in range(k + 1, n_max + 1))


def _least_expansion(z: ArcSet, f: transforms.DiscMoebius) -> float:
    """q(w): the least inverse-derivative modulus 1/|F_w'(y)| =
    |conj(beta) y + conj(alpha)|^2 of the word map f = F_w over the closed
    pullback state cl Z_w, at an arc endpoint or, nearest F_w's pole, the
    closed form 1/(|alpha| + |beta|)^2, which does not cancel."""
    if f.is_rotation:
        return 1.0
    ca, cb = f.alpha.conjugate(), f.beta.conjugate()
    return _least_on(z.closure(), lambda t: abs(cb * cmath.exp(1j * t) + ca) ** 2,
                     cmath.phase(-ca * f.beta), 1.0 / (abs(f.alpha) + abs(f.beta)) ** 2)


def _arcs(a) -> tuple[tuple[float, float], ...]:
    """The arcs of an ArcSet or a ClosedArcSet; the full circle as ((0, 2*pi),)."""
    return ((0.0, TAU),) if a.full else a.arcs


def _meets(first, second) -> bool:
    """True iff some arc of `first` meets some arc of `second`, both taken
    closed, as (start, length) pairs; touching arcs meet.  A pair meets iff
    d = (s1 - s2) % 2*pi, the first start seen from the second, lies within
    the second arc or the first arc reaches round to the second's start."""
    for s1, l1 in first:
        for s2, l2 in second:
            d = (s1 - s2) % TAU
            if d <= l2 or d + l1 >= TAU:
                return True
    return False


def _first_fit(row: tuple[tuple, ...], x: float) -> tuple | None:
    """The entry of a decode row that decode chooses at the point x in
    [0, 2*pi): the first whose closed arc holds x, as
    ClosedArcSet.component_containing(x, EPS_ANGLE) finds it, more than
    EPS_ANGLE inside both its ends; else the entry whose arc holds x
    deepest (the signed distance to its nearer end, negative outside it),
    the first on ties; None where no legal arc holds x.  The arc tests of
    component_containing and circle_distance are written inline: the
    calls were most of a digit's cost.
    """
    fallback, depth = None, -TAU
    for entry in row:
        for s, l, reach in entry[2]:
            d = (x - s) % TAU
            if d <= reach or d >= _NEARLY_FULL:
                break
        else:
            continue
        if l < _NEARLY_FULL:
            m = d - TAU if d > reach else (d if d < l - d else l - d)
            if m <= EPS_ANGLE:
                if m > depth:
                    fallback, depth = entry, m
                continue
        return entry
    return fallback


def _decode_cuts(row: tuple[tuple, ...]) -> tuple[list[float], list]:
    """(cuts, picks) of one decode row: the sorted points s +- _DECODE_BAND
    and s + l +- _DECODE_BAND, mod 2*pi, of every arc (s, l) of the row
    but a full circle's, and per interval between cuts (the first and the
    last are one, across 0) _first_fit at its midpoint where the interval
    is wider than 3 * _DECODE_BAND, else None.

    An interval with an arc end e inside lies between e - _DECODE_BAND and
    e + _DECODE_BAND, so it is at most 2 * _DECODE_BAND wide.  Every point
    of a wider one lies more than 2 * EPS_ANGLE from every arc end, where
    _first_fit's tests (d <= l + EPS_ANGLE, d >= 2*pi - EPS_ANGLE and
    min(d, l - d) > EPS_ANGLE, on d = (x - s) % 2*pi) carry rounding of
    about 1e-15 rad and so give one answer throughout.
    """
    cuts = sorted({(e + off) % TAU for entry in row for s, l, _ in entry[2] if l < TAU
                   for e in (s, s + l) for off in (-_DECODE_BAND, _DECODE_BAND)})
    if not cuts:
        return cuts, [_first_fit(row, 0.0)]
    edges = [cuts[-1] - TAU] + cuts + [cuts[0] + TAU]
    return cuts, [_first_fit(row, (lo + hi) / 2 % TAU) if hi - lo > 3 * _DECODE_BAND else None
                  for lo, hi in zip(edges, edges[1:])]


class _PullbackTable:
    """Pairs (follower state, nonempty pullback state) interned by exact
    equality, with transitions filled lazily: rows[sid][a] stays None
    until that step is first taken, and for good when the letter leaves
    the language or the step empties the set, neither of which is
    stored.  State 0 is (Subshift.initial, the full circle)."""

    __slots__ = ("states", "index", "rows")

    def __init__(self, size: int):
        self.states = [(Subshift.initial, ArcSet.full_circle())]
        self.index = {self.states[0]: 0}
        self.rows: list[list[int | None]] = [[None] * size]

    def intern(self, pair: tuple[int, ArcSet]) -> int | None:
        """Id of the pair, added if new; None when it is new and the table
        is full."""
        sid = self.index.get(pair)
        if sid is None and len(self.states) < _PULL_TABLE_CAP:
            sid = len(self.states)
            self.states.append(pair)
            self.rows.append([None] * len(self.rows[0]))
            self.index[pair] = sid
        return sid


# (Z, F) of the empty word: one pair, and so one identity map, for every spec
_ROOT = (ArcSet.full_circle(), transforms.identity())


class NumberSystemSpec:
    """Alphabet -> disc map, alphabet -> cover arcs, plus a subshift.

    The level walk carries each word's pullback state and word map, a
    one-word query steps them from the root, and encode's (follower
    state, pullback state) pairs are interned in a bounded table filled
    under a lock; values are pure, so concurrent use returns the same
    results as serial execution.
    """

    def __init__(self, alphabet: Alphabet, transforms_by_symbol, cover_by_symbol,
                 subshift: Subshift | None = None, name: str = ""):
        self.name = name
        self.alphabet = alphabet
        if subshift is None:
            subshift = Subshift(alphabet, ())
        if subshift.alphabet != alphabet:
            raise ValueError("subshift alphabet differs from the system alphabet")
        self.subshift = subshift
        self.transforms: list[transforms.DiscMoebius] = []
        self.cover: list[ArcSet] = []
        for name_ in alphabet.symbols:
            if name_ not in transforms_by_symbol:
                raise ValueError(f"no transformation for symbol {name_!r}")
            if name_ not in cover_by_symbol:
                raise ValueError(f"no cover arcs for symbol {name_!r}")
            self.transforms.append(transforms_by_symbol[name_])
            self.cover.append(cover_by_symbol[name_])
        if not covers_circle(self.cover):
            raise ValueError("closures of the cover arcs must fill the circle")
        self._cache: dict = {}  # never written: bench/run.py reads its len (ROADMAP direction 8)
        # per-letter tables, built once: F_a^-1 (pull_step) and the letter
        # pullback F_a^-1(C_a) (pull_step); the tables below the constructor
        # are each read by one command and built on its first use
        self._inverses = [f.inverse() for f in self.transforms]
        self._letter_pulls = [image(g, c) for g, c in zip(self._inverses, self.cover)]
        self._pull_table = _PullbackTable(alphabet.size)
        self._pull_lock = threading.Lock()

    @cached_property
    def _gaps(self) -> list[ArcSet]:
        """Per follower state, the points that no legal letter's closed cover
        arc holds: the cover gaps of a word in its own coordinates (verify)."""
        return [_uncovered(c for c, nxt in zip(self.cover, row) if nxt is not None)
                for row in self.subshift.transitions]

    @cached_property
    def _parabolic_scales(self) -> list[float | None]:
        """Per letter, the scale that makes F_a exactly parabolic, or None
        (encode's runs)."""
        return [transforms.parabolic_scale(f) for f in self.transforms]

    @cached_property
    def _decode_rows(self) -> tuple[tuple[list[float], list, tuple[tuple, ...]], ...]:
        """Per follower state, decode's table (cuts, picks, row).

        The row lists the state's candidates: one entry per legal letter,
        in letter order, (a, next state, closed arcs, alpha, beta, conj
        beta, conj alpha).  The arcs are those of cl C_a, each as (start,
        length, length + EPS_ANGLE), the full circle as the one arc
        (0, 2*pi), which holds every point; the four numbers are the
        entries of F_a^-1 and their conjugates.  Decode's letter choice is
        _first_fit of the row, and the sorted cuts and the picks, one more
        than the cuts, are _decode_cuts' of the row: a point x in
        [0, 2*pi) takes picks[bisect_right(cuts, x)], _first_fit on an
        interval that passes the width test, or None, where decode calls
        _first_fit at x itself.
        """
        letters = [(tuple((s, l, l + EPS_ANGLE) for s, l in _arcs(c.closure())),
                    g.alpha, g.beta, g.beta.conjugate(), g.alpha.conjugate())
                   for g, c in zip(self._inverses, self.cover)]
        rows = (tuple((a, nxt) + letters[a] for a, nxt in enumerate(row) if nxt is not None)
                for row in self.subshift.transitions)
        return tuple((*_decode_cuts(row), row) for row in rows)

    # -- refined sets ---------------------------------------------------------

    def _leaves(self, state: int, a: int, i: int) -> IllegalPrefix:
        """The error for digit a at position i of a word, after a prefix of
        the interval shift with follower state `state`: IllegalPrefix where
        the subshift forbids a there, else EmptyRefinedSet, the step having
        emptied the pullback state.  Every reader of a word raises it."""
        digit = f"digit {self.alphabet.symbols[a]!r} at position {i}"
        if self.subshift.transitions[state][a] is None:
            return IllegalPrefix(f"{digit} leaves the language")
        return EmptyRefinedSet(f"{digit} refines to the empty set")

    def _shift_entry(self, word) -> tuple[ArcSet, transforms.DiscMoebius]:
        """(pullback state Z_w, word map F_w) of one word of the interval
        shift that a public query asks for (min_expansion and
        representable_interval), read by Alphabet.word, stepped from the
        root as the walk steps it (the follower move, then _walk_step) and
        stored nowhere.  The first digit that leaves the shift raises
        _leaves' error.  The walks carry their own entries, and verify
        reads its prefix set's from them, so neither calls it."""
        entry, state = _ROOT, self.subshift.initial
        for i, a in enumerate(self.alphabet.word(word)):
            nxt = self.subshift.transitions[state][a]
            if nxt is None or (entry := self._walk_step(entry, a)) is None:
                raise self._leaves(state, a, i)
            state = nxt
        return entry

    def word_transform(self, word) -> transforms.DiscMoebius:
        """Composition of the letter maps along the word, in the order
        _walk_step composes them; any word has one, in the interval shift
        or not."""
        maps = (self.transforms[a] for a in self.alphabet.word(word))
        return reduce(transforms.DiscMoebius.compose, maps, _ROOT[1])

    # -- the pullback step ------------------------------------------------------

    def pull_step(self, z: ArcSet, a: int) -> ArcSet:
        """One pullback step Z -> F_a^-1(Z) ∩ F_a^-1(C_a).

        A word's pullback state Z_w = F_w^-1(R(w)) steps to Z_wa along the
        next letter a, since R(wa) = R(w) ∩ F_w(C_a).  The inverse maps and
        the letter pullbacks F_a^-1(C_a) are the spec's tables, built with it.

        Z_wa = F_a^-1(Z_w ∩ C_a), so a step where no arc of z meets an arc
        of C_a, both taken closed (_meets), returns the empty set and maps
        nothing; a full z or a full C_a always maps.  The closed arcs of C_a
        are cl C_a but for gaps no wider than EPS_ANGLE, which no arc of z
        fits in.  The mapped path would have returned the empty set too.
        The forward test errs by at most the rounding of (s1 - s2) % 2*pi,
        about 1e-15 rad.  F_a^-1 stretches that by at most
        (|alpha| + |beta|)^2, and the float images carry errors of a few ulps
        times the same factor.  So every piece the mapped path could form
        from such a step is a few 1e-15 rad times that factor wide: far
        below EPS_ANGLE, and dropped, for letters with |beta| up to about
        100 (the builtins' are at most 1).  For a letter so extreme that its
        float images are noise at that width, the early exit gives the exact
        answer of the identity on the stored floats.  No step of the
        builtins, their turned covers, the perturbed builtins up to r = 1e8
        or 300 random systems is known where the two paths differ.
        """
        c = self.cover[a]
        if not (z.full or c.full or _meets(z.arcs, c.arcs)):
            return ArcSet.empty()
        return image(self._inverses[a], z).intersect(self._letter_pulls[a])

    def _pull_edge(self, table: _PullbackTable, sid: int, a: int) -> tuple[_PullbackTable, int] | None:
        """Take the step from pair sid of `table` along a: the follower
        move, then pull_step.

        Returns None when the subshift forbids a there or the step empties
        the set, and stores nothing then.  Else returns the table to go on
        in and the target pair's id there: `table` itself with the edge
        filled in, or, once `table` is full, a fresh table that becomes the
        spec's.
        """
        state, z = table.states[sid]
        state = self.subshift.transitions[state][a]
        if state is None or (z := self.pull_step(z, a)).is_empty:
            return None
        with self._pull_lock:
            nid = table.intern((state, z))
            if nid is None:
                table = self._pull_table = _PullbackTable(self.alphabet.size)
                return table, table.intern((state, z))
            table.rows[sid][a] = nid
            return table, nid

    # -- the interval shift -----------------------------------------------------

    def _walk_step(self, entry, a: int):
        """(Z_wa, F_wa) from the entry (Z_w, F_w) of w, or None where Z_wa is
        empty and wa leaves the interval shift."""
        z, f = entry
        z = self.pull_step(z, a)
        return None if z.is_empty else (z, f.compose(self.transforms[a]))

    def interval_shift_levels(self, n_max: int | None = None):
        """Yield the levels 0..n_max of the interval shift (every level when
        n_max is None): the legal words with nonempty pullback states, as
        lexicographic (word, follower state, (Z_w, F_w)) triples, one list
        per level, each entry stepped from its parent's.  An entry dropped
        from a level before the next is taken is not extended."""
        return walk(self.subshift, n_max, "interval-shift enumeration", _ROOT,
                    self._walk_step)

    def compatibility_violations(self, level) -> list[tuple[Word, tuple[tuple[float, float], ...]]]:
        """Words of one walked level whose refined closure is not the union
        of their legal one-letter extensions', each paired with the gap arcs
        the extensions fail to cover.  The gaps are Z_w less the closed
        cover arcs of the letters legal after w, carried onto the circle by
        F_w; those no longer than EPS_COMPAT are dropped."""
        violations = []
        for word, state, (z, f) in level:
            rest = z.intersect(self._gaps[state])
            if rest.is_empty:
                continue
            gaps = tuple(g for g in _arcs(image(f, rest)) if g[1] > EPS_COMPAT)
            if gaps:
                violations.append((word, gaps))
        return violations

    # -- expansion bounds ---------------------------------------------------------

    def min_expansion(self, word) -> float:
        """Minimum inverse-derivative modulus of the word map over the
        closed refined set, q(w) = min 1/|F_w'(y)| over cl Z_w
        (_least_expansion), for a word of the interval shift: a word
        outside it raises as in _shift_entry."""
        return _least_expansion(*self._shift_entry(word))

    def _dive_bounds(self, n_max: int) -> tuple[list[float], dict[int, list], dict[int, float]]:
        """Upper bounds on Q_0..Q_n_max: the q of the words met by descending
        from the root, each time to the interval-shift child of least q (the
        first letter on a tie); +inf past a word that has no such child.

        Also returns the steps the descent took, for the level walk to reuse:
        keyed by the id of each entry it stepped from, that entry's children,
        one per letter, None where the subshift forbids the letter or the
        step empties the set; and keyed by the id of each child that is not
        None, its q.  Every such entry is the root or a stored child, so it
        stays alive with the dicts and its id names it alone."""
        upper = [1.0] + [math.inf] * n_max
        stepped: dict[int, list] = {}
        known_q: dict[int, float] = {}
        entry, state = _ROOT, self.subshift.initial
        for m in range(1, n_max + 1):
            row = self.subshift.transitions[state]
            children = stepped[id(entry)] = [None if nxt is None else self._walk_step(entry, a)
                                             for a, nxt in enumerate(row)]
            for child in children:
                if child is not None:
                    known_q[id(child)] = _least_expansion(*child)
            best = min(((known_q[id(child)], a, child)
                        for a, child in enumerate(children) if child is not None), default=None)
            if best is None:
                break
            upper[m], a, entry = best
            state = row[a]
        return upper, stepped, known_q

    def expansion_rate_bound(self, n_max: int) -> ExpansionRateBound:
        """Best n-th-root lower bound over levels 1..n_max, with diagnostics.

        Q_n is the least q(w) = _least_expansion(Z_w, F_w) over the
        interval-shift words of length n.  The chain rule gives
        F_u^-1(R(uv)) within R(v), so q(uv) >= q(u)*Q_|v|, and the levels
        are walked by branch and bound on it.  A greedy descent first gives
        upper bounds U_m >= Q_m, and the walk takes the descent's steps from
        it rather than stepping those words again.
        After level k the lower bounds L_j are Q_j for j <= k and
        max_i L_i*L_(j-i) beyond; a word u of level k is not extended when
        q(u)*L_(m-k) > U_m*(1 + EPS_PRUNE) for every m in k+1..n_max.
        The invariant that keeps every Q_n exact: the computed q satisfy
        the chain-rule bound within the relative slack EPS_PRUNE, so no cut
        word has an extension attaining a level's minimum, and that
        minimum is read from the same _least_expansion as in a full walk.
        Cut words are dropped from their level, so the walk does not
        extend them.
        """
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        upper, stepped, known_q = self._dive_bounds(n_max)

        def step(entry, a):  # _walk_step, read from the descent where it went
            children = stepped.get(id(entry))
            return self._walk_step(entry, a) if children is None else children[a]

        lower = [1.0]   # exact Q_0..Q_k of the levels walked so far
        levels = walk(self.subshift, n_max, "interval-shift enumeration", _ROOT, step)
        next(levels)  # level 0, the empty word
        table = []
        for n, level in enumerate(levels, 1):
            qs = [_least_expansion(*entry) if (q := known_q.get(id(entry))) is None else q
                  for _, _, entry in level]
            q = min(qs, default=math.inf)
            table.append((n, q))
            lower.append(q)
            if qs and n < n_max:
                bound = _extension_bound(lower, upper)
                level[:] = [item for item, qw in zip(level, qs) if not qw > bound]
        best, best_n = -math.inf, 0
        for n, q in table:
            if math.isinf(q):
                continue
            root = q ** (1.0 / n)
            if root > best:
                best, best_n = root, n
        warnings = []
        if any(math.isinf(q) for _, q in table):
            warnings.append("some language levels are empty; their entries were ignored")
        if best_n and abs(best - 1.0) <= EPS_ONE:
            # rounding noise around a rate of exactly 1 is no certificate
            best = 1.0
            warnings.append(f"the rate equals 1 within EPS_ONE ({EPS_ONE:g}); "
                            f"no expansion beyond 1 is certified")
        elif best_n and best < 1.0:
            warnings.append(
                f"Q estimate {best:.6g} < 1: expansion certificates fail at every "
                f"depth up to {n_max}; this cover cannot certify the system and the "
                f"representation map may degenerate on it"
            )
        return ExpansionRateBound(lower_bound=best, n_achieving=best_n, table=table,
                                  warnings=warnings)

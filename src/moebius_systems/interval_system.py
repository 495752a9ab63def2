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
it; R(w) = F_w(Z_w) is formed on demand.

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
from functools import cached_property

from . import transforms
from .arcs import EPS_ANGLE, ArcSet, _least_on, _uncovered, covers_circle, expansion_geometry, image
from .errors import EmptyRefinedSet
from .subshift import Alphabet, Subshift, Word, last_level, walk
from .transforms import TAU

EPS_COMPAT = 1e-8   # endpoint tolerance for the cover-extension identity
EPS_ONE = 1e-9      # band around an expansion bound of exactly 1
EPS_PRUNE = 1e-9    # slack on q(uv) >= q(u)*Q_|v|; min_expansion is within 3e-12 of a 60-digit product
_PULL_TABLE_CAP = 4096  # interned pullback states per table before a fresh one starts
_CACHE_CAP = 1_000_000  # memoised one-word queries per spec before a fresh memo starts


@dataclass
class PrefixSetVerdict:
    """Outcome of checking a candidate prefix set B."""

    passed: bool
    missing_prefix: list[Word] = field(default_factory=list)
    not_contained: list[Word] = field(default_factory=list)


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


class _PullbackTable:
    """Pullback states interned by exact equality, with transitions filled
    lazily: rows[sid][a] stays None until that step is first taken.
    State 0 is the full circle and state 1 the empty set."""

    __slots__ = ("states", "index", "rows")

    def __init__(self, size: int):
        self.states = [ArcSet.full_circle(), ArcSet.empty()]
        self.index = {z: i for i, z in enumerate(self.states)}
        self.rows: list[list[int | None]] = [[None] * size, [1] * size]

    def intern(self, z: ArcSet) -> int | None:
        """Id of z, added if new; None when z is new and the table is full."""
        sid = self.index.get(z)
        if sid is None and len(self.states) < _PULL_TABLE_CAP:
            sid = len(self.states)
            self.states.append(z)
            self.rows.append([None] * len(self.rows[0]))
            self.index[z] = sid
        return sid


class NumberSystemSpec:
    """Alphabet -> disc map, alphabet -> cover arcs, plus a subshift.

    The level walk carries each word's pullback state and word map, a
    one-word query steps them from the root, and encode's pullback states
    are interned in a bounded table filled under a lock; values are pure,
    so concurrent use returns the same results as serial execution.
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
        self._root = (ArcSet.full_circle(), transforms.identity())  # (Z, F) of the empty word
        self._cache: dict[Word, tuple[ArcSet, transforms.DiscMoebius]] = {}
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
    def _decode_rows(self) -> tuple[tuple[tuple, ...], ...]:
        """Per follower state, decode's candidates: one entry per legal
        letter, in letter order, (a, next state, closed arcs, alpha, beta,
        conj beta, conj alpha).  The arcs are those of cl C_a, each as
        (start, length, length + EPS_ANGLE), the full circle as the one
        arc (0, 2*pi), which holds every point; the four numbers are the
        entries of F_a^-1 and their conjugates."""
        letters = [(tuple((s, l, l + EPS_ANGLE) for s, l in _arcs(c.closure())),
                    g.alpha, g.beta, g.beta.conjugate(), g.alpha.conjugate())
                   for g, c in zip(self._inverses, self.cover)]
        return tuple(tuple((a, nxt) + letters[a] for a, nxt in enumerate(row) if nxt is not None)
                     for row in self.subshift.transitions)

    # -- refined sets ---------------------------------------------------------

    def _entry(self, word: Word) -> tuple[ArcSet, transforms.DiscMoebius]:
        """(pullback state Z_w, word map F_w) of one word that a public query
        asks for (refined_set, word_transform, min_expansion,
        representable_interval, check_prefix_set's B), stepped from the root
        and memoised by whole word; past _CACHE_CAP words the memo starts
        afresh.  The walks carry their own entries and never read it; the
        memo stays only because the benchmark reads `_cache`."""
        entry = self._cache.get(word)
        if entry is None:
            entry = self._root
            for a in word:
                z, f = entry
                entry = (self.pull_step(z, a), f.compose(self.transforms[a]))
            if len(self._cache) >= _CACHE_CAP:
                self._cache = {}
            self._cache[word] = entry
        return entry

    def refined_set(self, word) -> ArcSet:
        """The refined set R(w) = C_w1 ∩ F_w1(C_w2) ∩ ... ∩ F_w'(C_wn) of the
        cover arcs along `word`, formed as F_w(Z_w): for a legal word, the
        circle points whose expansions can start with it.  It ignores the
        subshift, so a forbidden word can have a nonempty R(w) (binary's
        `11-` does); it is empty once narrower than EPS_ANGLE though Z_w is
        not."""
        z, f = self._entry(self.alphabet.word(word))
        return image(f, z)

    def word_transform(self, word) -> transforms.DiscMoebius:
        """Composition of the letter maps along the word."""
        return self._entry(self.alphabet.word(word))[1]

    # -- the pullback step ------------------------------------------------------

    def pull_step(self, z: ArcSet, a: int) -> ArcSet:
        """One pullback step Z -> F_a^-1(Z) ∩ F_a^-1(C_a).

        A word's pullback state Z_w = F_w^-1(R(w)) steps to Z_wa along the
        next letter a, since R(wa) = R(w) ∩ F_w(C_a).  The inverse maps and
        the letter pullbacks F_a^-1(C_a) are the spec's tables, built with it.
        """
        return image(self._inverses[a], z).intersect(self._letter_pulls[a])

    def _pull_edge(self, table: _PullbackTable, sid: int, a: int) -> tuple[_PullbackTable, int]:
        """Take the step from state sid of `table` along a by pull_step.

        Returns the table to go on in and the target state's id there:
        `table` itself with the edge filled in, or, once `table` is full,
        the spec's current table (a fresh one if need be).
        """
        z = self.pull_step(table.states[sid], a)
        with self._pull_lock:
            nid = table.intern(z)
            if nid is not None:
                table.rows[sid][a] = nid
                return table, nid
            fresh = self._pull_table
            if fresh is table or len(fresh.states) >= _PULL_TABLE_CAP:
                fresh = self._pull_table = _PullbackTable(self.alphabet.size)
            return fresh, fresh.intern(z)

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
        return walk(self.subshift, n_max, "interval-shift enumeration", self._root,
                    self._walk_step)

    def interval_shift_language(self, n: int) -> list[Word]:
        """Legal length-n words whose refined sets are nonempty, lexicographic."""
        return last_level(self.interval_shift_levels(n))

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
        (_least_expansion)."""
        word = self.alphabet.word(word)
        z, f = self._entry(word)
        if z.is_empty:
            raise EmptyRefinedSet(f"word {word} has an empty refined set")
        return _least_expansion(z, f)

    def level_min_expansion(self, n: int) -> float:
        """Minimum of min_expansion over all interval-shift words of length n
        (1.0 at n = 0, the empty word); +inf when that level is empty."""
        if n < 0:
            raise ValueError(f"level n must be >= 0, got {n}")
        return self.expansion_rate_bound(n).table[-1][1] if n else 1.0

    def _dive_bounds(self, n_max: int) -> list[float]:
        """Upper bounds on Q_0..Q_n_max: the q of the words met by descending
        from the root, each time to the interval-shift child of least q (the
        first letter on a tie); +inf past a word that has no such child."""
        upper = [1.0] + [math.inf] * n_max
        entry, state = self._root, self.subshift.initial
        for m in range(1, n_max + 1):
            children = [(_least_expansion(*child), a, nxt, child)
                        for a, nxt in enumerate(self.subshift.transitions[state])
                        if nxt is not None
                        and (child := self._walk_step(entry, a)) is not None]
            if not children:
                break
            upper[m], _, state, entry = min(children)
        return upper

    def expansion_rate_bound(self, n_max: int) -> ExpansionRateBound:
        """Best n-th-root lower bound over levels 1..n_max, with diagnostics.

        Q_n is the least q(w) = _least_expansion(Z_w, F_w) over the
        interval-shift words of length n.  The chain rule gives
        F_u^-1(R(uv)) within R(v), so q(uv) >= q(u)*Q_|v|, and the levels
        are walked by branch and bound on it.  A greedy descent first gives upper bounds U_m >= Q_m.
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
        upper = self._dive_bounds(n_max)
        lower = [1.0]   # exact Q_0..Q_k of the levels walked so far
        levels = self.interval_shift_levels(n_max)
        next(levels)  # level 0, the empty word
        table = []
        for n, level in enumerate(levels, 1):
            qs = [_least_expansion(z, f) for _, _, (z, f) in level]
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

    # -- prefix sets -----------------------------------------------------------------

    def check_prefix_set(self, words_b, language=None) -> PrefixSetVerdict:
        """Check a candidate prefix set B: every interval-shift word of
        length max|b| must start with some b, and each b's refined set must
        sit inside the expansion interval V(F_b) of its word map, read as
        Z_b within U(F_b), which F_b carries onto V(F_b).  `language`, the
        interval-shift words of length max|b|, is enumerated when not given."""
        b_words = [self.alphabet.word(b) for b in words_b]
        if not b_words:
            raise ValueError("prefix set must be nonempty")
        verdict = PrefixSetVerdict(passed=True)
        if language is None:
            language = self.interval_shift_language(max(len(b) for b in b_words))
        for w in language:
            if not any(w[: len(b)] == b for b in b_words):
                verdict.missing_prefix.append(w)
        for b in b_words:
            z, f = self._entry(b)
            u = ArcSet.empty() if f.is_rotation else expansion_geometry(f).u_interval
            if not z.intersect(u.complement()).is_empty:
                verdict.not_contained.append(b)
        verdict.passed = not verdict.missing_prefix and not verdict.not_contained
        return verdict

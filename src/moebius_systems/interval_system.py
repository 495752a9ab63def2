"""Interval almost covers, refined sets, and expansion bounds.

A number system candidate is an alphabet of disc maps together with a
family of open arc sets whose closures fill the circle, and a subshift
restricting the admissible digit strings.  Refining a cover along a word
intersects the base arcs pulled forward through the word's prefix maps;
words whose refinement is empty carry no representable points and drop
out of the interval shift.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from . import transforms
from .arcs import (
    ArcSet,
    EPS_ANGLE,
    closed_difference,
    covers_circle,
    expansion_interval,
    image,
    min_inverse_derivative,
)
from .errors import DepthCapExceeded, EmptyRefinedSet
from .subshift import Alphabet, Subshift, Word, _pruned_words
from .transforms import TAU

EPS_COMPAT = 1e-8   # endpoint tolerance for the cover-extension identity
EPS_ONE = 1e-9      # band around an expansion bound of exactly 1
_PULL_TABLE_CAP = 4096  # interned pullback states per table before a fresh one starts


@dataclass
class CompatibilityReport:
    """Outcome of checking that covers extend along legal digits."""

    depth: int
    checked: int
    violations: list[tuple[Word, tuple[tuple[float, float], ...]]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class PrefixSetVerdict:
    """Outcome of checking a candidate prefix set B."""

    passed: bool
    missing_prefix: list[Word] = field(default_factory=list)
    not_contained: list[tuple[Word, tuple[tuple[float, float], ...]]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


@dataclass
class ExpansionRateBound:
    """Certified lower bound on the asymptotic expansion rate.

    The per-level minima are supermultiplicative, so every n-th root is a
    lower bound for the limit rate; the best one over 1..n_max is kept.
    """

    lower_bound: float
    n_achieving: int
    table: list[tuple[int, float]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


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

    refined_set computations are cached per word (prefixes are shared
    heavily by enumerations), and encode's pullback states are interned
    in a bounded table filled under a lock; values are pure, so
    concurrent use returns the same results as serial execution.
    """

    def __init__(self, alphabet: Alphabet, transforms_by_symbol, cover_by_symbol,
                 subshift: Subshift | None = None, name: str = "",
                 depth_cap: int = 32, cache_cap: int = 1_000_000):
        self.name = name
        self.alphabet = alphabet
        if subshift is None:
            subshift = Subshift(alphabet, ())
        if subshift.alphabet != alphabet:
            raise ValueError("subshift alphabet differs from the system alphabet")
        self.subshift = subshift
        self.depth_cap = depth_cap
        self.cache_cap = cache_cap
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
        self.automaton = subshift.follower_automaton()
        self._cache: dict[Word, tuple[ArcSet, transforms.DiscMoebius]] = {
            (): (ArcSet.full_circle(), transforms.identity())
        }
        self._letter_pulls: list[tuple[transforms.DiscMoebius, ArcSet]] | None = None
        self._pull_table = _PullbackTable(alphabet.size)
        self._pull_lock = threading.Lock()

    # -- refined sets ---------------------------------------------------------

    def _entry(self, word: Word) -> tuple[ArcSet, transforms.DiscMoebius]:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        if len(word) > self.depth_cap:
            raise DepthCapExceeded(f"|word| = {len(word)} exceeds depth cap {self.depth_cap}")
        start = 0
        entry = self._cache[()]
        for k in range(len(word) - 1, 0, -1):
            hit = self._cache.get(word[:k])
            if hit is not None:
                entry, start = hit, k
                break
        for i in range(start, len(word)):
            a = word[i]
            refined, f = entry
            entry = (
                refined.intersect(image(f, self.cover[a])),
                f.compose(self.transforms[a]),
            )
            self._cache[word[: i + 1]] = entry
        if len(self._cache) > self.cache_cap:
            self._evict()
        return entry

    def _evict(self):
        drop = len(self._cache) // 10 + 1
        for key in list(self._cache.keys()):
            if key == ():
                continue
            del self._cache[key]
            drop -= 1
            if drop == 0:
                break

    def refined_set(self, word) -> ArcSet:
        """The set of circle points whose expansions can start with `word`."""
        return self._entry(self._as_word(word))[0]

    def word_transform(self, word) -> transforms.DiscMoebius:
        """Composition of the letter maps along the word."""
        return self._entry(self._as_word(word))[1]

    def word_expansion_interval(self, word) -> ArcSet:
        """Expansion interval of the composed word map (empty for rotations)."""
        return expansion_interval(self.word_transform(word))

    def _as_word(self, word) -> Word:
        if isinstance(word, tuple):
            return word
        return self.alphabet.word(word)

    # -- the pullback step ------------------------------------------------------

    def pull_step(self, z: ArcSet, a: int) -> ArcSet:
        """One pullback step Z -> F_a^-1(Z) ∩ F_a^-1(C_a).

        A word's refined set pulled back through its word map updates by
        this step along the next letter a, and is empty exactly when the
        extended word's refined set is.  The letter pullbacks F_a^-1(C_a)
        are computed once, on first use.
        """
        letters = self._letter_pulls
        if letters is None:
            inverses = [f.inverse() for f in self.transforms]
            letters = self._letter_pulls = [(g, image(g, c)) for g, c in zip(inverses, self.cover)]
        inverse, pulled = letters[a]
        return image(inverse, z).intersect(pulled)

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

    def interval_shift_language(self, n: int, budget: int = 10_000_000) -> list[Word]:
        """Legal length-n words whose refined sets are nonempty, lexicographic."""
        return _pruned_words(self.automaton, n, budget, "interval-shift enumeration",
                             keep=lambda w: not self.refined_set(w).is_empty)

    def legal_extensions(self, word: Word) -> list[int]:
        """Symbols a with word+a still legal in the subshift language."""
        state = self.automaton.initial
        for a in word:
            state = self.automaton.step(state, a)
            if state is None:
                return []
        return [a for a in range(self.alphabet.size) if self.automaton.step(state, a) is not None]

    def compatibility_level(self, m: int, budget: int = 10_000_000):
        """Violations of the extension identity among words of length m.

        Returns (words_checked, violations) where each violation pairs the
        word with the gap arcs its extensions fail to cover.
        """
        violations = []
        words = self.interval_shift_language(m, budget)
        for word in words:
            lhs = self.refined_set(word).closure()
            rhs_open = ArcSet.empty()
            for a in self.legal_extensions(word):
                rhs_open = rhs_open.union(self.refined_set(word + (a,)))
            gaps = tuple(
                g for g in closed_difference(lhs, rhs_open.closure())
                if g[1] > EPS_COMPAT
            )
            if gaps:
                violations.append((word, gaps))
        return len(words), violations

    def compatibility_check(self, depth: int, budget: int = 10_000_000) -> CompatibilityReport:
        """Verify that each refined closure is the union of its legal
        one-letter extensions, for all interval-shift words up to `depth`.

        Violating words are reported with the uncovered gap arcs.
        """
        report = CompatibilityReport(depth=depth, checked=0)
        for m in range(0, depth + 1):
            checked, violations = self.compatibility_level(m, budget)
            report.checked += checked
            report.violations.extend(violations)
        return report

    # -- expansion bounds ---------------------------------------------------------

    def min_expansion(self, word) -> float:
        """Minimum inverse-derivative modulus of the word map over the
        closed refined set of the word."""
        word = self._as_word(word)
        refined, f = self._entry(word)
        if refined.is_empty:
            raise EmptyRefinedSet(f"word {word} has an empty refined set")
        return min_inverse_derivative(f, refined.closure())

    def level_min_expansion(self, n: int, budget: int = 10_000_000) -> float:
        """Minimum of min_expansion over all interval-shift words of length n;
        +inf when that level of the language is empty."""
        words = self.interval_shift_language(n, budget)
        if not words:
            return math.inf
        return min(self.min_expansion(w) for w in words)

    def expansion_rate_bound(self, n_max: int, budget: int = 10_000_000) -> ExpansionRateBound:
        """Best n-th-root lower bound over levels 1..n_max, with diagnostics."""
        table = []
        best, best_n = -math.inf, 0
        for n in range(1, n_max + 1):
            q = self.level_min_expansion(n, budget)
            table.append((n, q))
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

    def check_prefix_set(self, words_b, budget: int = 10_000_000) -> PrefixSetVerdict:
        """Check a candidate prefix set B: every interval-shift word of
        length max|b| must start with some b, and each b's refined set must
        sit inside the expansion interval of its word map."""
        b_words = [self._as_word(b) for b in words_b]
        if not b_words:
            raise ValueError("prefix set must be nonempty")
        verdict = PrefixSetVerdict(passed=True)
        max_len = max(len(b) for b in b_words)
        for w in self.interval_shift_language(max_len, budget):
            if not any(w[: len(b)] == b for b in b_words):
                verdict.missing_prefix.append(w)
        for b in b_words:
            refined = self.refined_set(b)
            if refined.is_empty:
                continue
            expansion = self.word_expansion_interval(b)
            leak = refined.intersect(expansion.complement())
            if leak.full:
                verdict.not_contained.append((b, ((0.0, TAU),)))
                continue
            gaps = tuple((s, l) for s, l in leak.arcs if l > EPS_ANGLE)
            if gaps:
                verdict.not_contained.append((b, gaps))
                continue
            if closed_difference(refined.closure(), expansion.closure()):
                verdict.warnings.append(
                    f"refined set of {self.alphabet.format(b)} touches the boundary of "
                    f"its expansion interval; containment holds only as open sets"
                )
        verdict.passed = not verdict.missing_prefix and not verdict.not_contained
        return verdict

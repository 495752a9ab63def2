"""Alphabets, words, and subshifts of finite type given by forbidden factors.

Words are tuples of symbol indices.  Membership is factor-avoidance: a
word is in the language iff no forbidden word occurs in it.  For
one-sided shifts this over-approximates extendability when a state is a
dead end; the interval-system refinement (nonempty refined sets) is the
authoritative filter downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceeded

Word = tuple[int, ...]

BUDGET = 10_000_000  # words one language walk may visit before BudgetExceeded


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("symbol names must be unique")
        object.__setattr__(self, "symbols", tuple(self.symbols))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, name: str) -> int:
        return self.symbols.index(name)

    def word(self, text) -> Word:
        """Parse a word from a sequence of names or from a string.

        Strings are tokenized greedily by longest symbol name, so
        multi-character names like '1-' parse unambiguously.
        """
        if not isinstance(text, str):
            return tuple(self.index(t) for t in text)
        by_len = sorted(self.symbols, key=len, reverse=True)
        out = []
        i = 0
        while i < len(text):
            for name in by_len:
                if text.startswith(name, i):
                    out.append(self.index(name))
                    i += len(name)
                    break
            else:
                raise ValueError(f"cannot tokenize {text[i:]!r} over {self.symbols}")
        return tuple(out)

    def format(self, word: Word, unicode_bars: bool = False) -> str:
        names = [self.symbols[i] for i in word]
        if unicode_bars:
            names = [n[:-1] + "̄" if n.endswith("-") else n for n in names]
        return "".join(names)


@dataclass(frozen=True)
class Subshift:
    """Subshift of finite type over an alphabet, via forbidden factors."""

    alphabet: Alphabet
    forbidden: tuple[Word, ...] = ()

    def __post_init__(self):
        seen = []
        for w in self.forbidden:
            w = tuple(w)
            if not w:
                raise ValueError("forbidden words must be nonempty")
            if any(i < 0 or i >= self.alphabet.size for i in w):
                raise ValueError(f"forbidden word {w} uses symbols outside the alphabet")
            if w not in seen:
                seen.append(w)
        object.__setattr__(self, "forbidden", tuple(sorted(seen)))

    @classmethod
    def from_words(cls, alphabet: Alphabet, words) -> "Subshift":
        return cls(alphabet, tuple(alphabet.word(w) for w in words))

    def language(self, n: int) -> list[Word]:
        """All legal words of length n, lexicographic."""
        return last_level(walk(self.follower_automaton(), n, "language enumeration"))

    def follower_automaton(self) -> "FollowerAutomaton":
        return FollowerAutomaton(self)


class FollowerAutomaton:
    """Deterministic automaton accepting exactly the factor-avoiding words.

    States are the proper prefixes of forbidden words (the live suffix
    context); a None transition is the reject sink.  With no forbidden
    words this is the one-state automaton accepting everything.
    """

    def __init__(self, subshift: Subshift):
        self.subshift = subshift
        prefixes = {()}
        for f in subshift.forbidden:
            for k in range(1, len(f)):
                prefixes.add(f[:k])
        self.states: list[Word] = sorted(prefixes, key=lambda p: (len(p), p))
        index = {p: i for i, p in enumerate(self.states)}
        k = subshift.alphabet.size
        forbidden = set(subshift.forbidden)
        self.transitions: list[list[int | None]] = []
        for p in self.states:
            row: list[int | None] = []
            for a in range(k):
                w = p + (a,)
                if any(w[len(w) - len(f):] == f for f in forbidden):
                    row.append(None)
                    continue
                for j in range(len(w) + 1):
                    if w[j:] in index:
                        row.append(index[w[j:]])
                        break
            self.transitions.append(row)
        self.initial = index[()]

    @property
    def n_states(self) -> int:
        return len(self.states)

    def step(self, state: int, symbol: int) -> int | None:
        return self.transitions[state][symbol]


def walk(auto: FollowerAutomaton, n_max: int | None, what: str, keep=None):
    """Yield the levels 0..n_max of the automaton's language (every level
    when n_max is None; the caller stops taking them).

    Each level is a list of (word, state) pairs in lexicographic order,
    state being the follower state after the word.  A level extends the
    pairs of the one before it, so a branch is cut for good as soon as the
    automaton rejects it or keep(word) is false; more than BUDGET words
    over all levels raise BudgetExceeded, naming the enumeration as
    `what`.  n_max < 0 raises ValueError (no word has that length).
    """
    if n_max is not None and n_max < 0:
        raise ValueError(f"{what} needs a word length n >= 0, got {n_max}")
    level = [((), auto.initial)]
    count = 1
    for depth in itertools.count():
        yield level
        if depth == n_max:
            return
        longer = []
        for word, state in level:
            for a, nxt in enumerate(auto.transitions[state]):
                if nxt is None:
                    continue
                w = word + (a,)
                if keep is None or keep(w):
                    count += 1
                    if count > BUDGET:
                        raise BudgetExceeded(f"{what} exceeded {BUDGET} candidates")
                    longer.append((w, nxt))
        level = longer


def last_level(levels) -> list[Word]:
    """The words of the last level a walk yields."""
    for level in levels:
        pass
    return [word for word, _ in level]

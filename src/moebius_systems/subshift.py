"""Alphabets, words, and subshifts of finite type given by forbidden factors.

Words are tuples of symbol indices.  Membership is factor-avoidance: a
word is in the language iff no forbidden word occurs in it.  For
one-sided shifts this over-approximates extendability when a state is a
dead end; the interval-system refinement (nonempty refined sets) is the
authoritative filter downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded

Word = tuple[int, ...]


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

    def in_language(self, word: Word) -> bool:
        """No forbidden word occurs as a factor of `word`."""
        n = len(word)
        for f in self.forbidden:
            m = len(f)
            if m > n:
                continue
            for i in range(n - m + 1):
                if word[i:i + m] == f:
                    return False
        return True

    def language(self, n: int, budget: int = 10_000_000) -> list[Word]:
        """All legal words of length n, lexicographic, by pruned DFS."""
        return _pruned_words(self.follower_automaton(), n, budget, "language enumeration")

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

    def accepts(self, word: Word) -> bool:
        state = self.initial
        for a in word:
            state = self.transitions[state][a]
            if state is None:
                return False
        return True


def _pruned_words(auto: FollowerAutomaton, n: int, budget: int, what: str,
                  keep=None) -> list[Word]:
    """Length-n words accepted by the automaton, lexicographic, by DFS.

    A branch is cut as soon as the automaton rejects it or keep(word) is
    false for its current prefix; more than `budget` visited prefixes
    raise BudgetExceeded, naming the enumeration as `what`.
    """
    out: list[Word] = []
    count = 0
    letters = range(auto.subshift.alphabet.size - 1, -1, -1)
    stack = [((), auto.initial)]
    while stack:
        word, state = stack.pop()
        count += 1
        if count > budget:
            raise BudgetExceeded(f"{what} exceeded {budget} candidates")
        if len(word) == n:
            out.append(word)
            continue
        for a in letters:
            nxt = auto.step(state, a)
            if nxt is None:
                continue
            longer = word + (a,)
            if keep is None or keep(longer):
                stack.append((longer, nxt))
    return out

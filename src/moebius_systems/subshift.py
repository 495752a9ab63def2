"""Alphabets, words, and subshifts of finite type given by forbidden factors.

Words are tuples of symbol indices.  Membership is factor-avoidance: a
word is in the language iff no forbidden word occurs in it.  For
one-sided shifts this over-approximates extendability when a state is a
dead end; the interval-system refinement (nonempty refined sets) is the
authoritative filter downstream.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .errors import BudgetExceeded

Word = tuple[int, ...]

BUDGET = 10_000_000  # words one language walk may visit before BudgetExceeded


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols) or "" in self.symbols:
            raise ValueError("symbol names must be unique and nonempty")
        object.__setattr__(self, "symbols", tuple(self.symbols))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def word(self, text) -> Word:
        """The symbol indices of a word, read by the one rule of every entry point.

        A string is tokenized greedily, longest symbol name first, so
        multi-character names like '1-' parse unambiguously.  Any other
        iterable must be all symbol names or all symbol indices 0..size-1;
        anything else raises ValueError naming the item and the alphabet.
        """
        if type(text) is tuple:
            try:  # a tuple of indices, checked at C speed
                if not text or max(bytes(text)) < len(self.symbols):
                    return text
            except (TypeError, ValueError):
                pass  # names, or an item that is no index in 0..255
        if isinstance(text, str):
            name = "|".join(map(re.escape, sorted(self.symbols, key=len, reverse=True)))
            end = re.match(f"(?:{name})*", text).end()  # the greedy tokens' extent
            if end < len(text):
                raise ValueError(f"cannot tokenize {text[end:]!r} over {self.symbols}")
            return tuple(map(self.symbols.index, re.findall(name, text)))
        try:
            items = tuple(text)
        except TypeError:
            raise ValueError(f"cannot read {text!r} as a word over {self.symbols}") from None
        names = bool(items) and isinstance(items[0], str)
        size = len(self.symbols)
        for a in items:
            if a not in self.symbols if names else not (isinstance(a, int) and 0 <= a < size):
                kind = "a symbol name" if names else f"a symbol index in 0..{size - 1}"
                raise ValueError(f"item {a!r} of word {text!r} is not {kind} (a word is all "
                                 f"names or all indices); the alphabet is {self.symbols}")
        return tuple(map(self.symbols.index, items)) if names else items

    def format(self, word: Word, unicode_bars: bool = False) -> str:
        names = [self.symbols[i] for i in word]
        if unicode_bars:
            names = [n[:-1] + "̄" if n.endswith("-") else n for n in names]
        return "".join(names)


@dataclass(frozen=True)
class Subshift:
    """Subshift of finite type over an alphabet, via forbidden factors,
    each read by Alphabet.word, and its own follower automaton, built once:
    `states` are the proper prefixes of forbidden words, shortest first, so
    `initial`, the empty context, is 0; transitions[state][a] is the state
    after letter a, or None where a forbidden factor ends.  The tables take
    no part in equality or hashing."""

    alphabet: Alphabet
    forbidden: tuple[Word, ...] = ()
    states: tuple[Word, ...] = field(init=False, compare=False, repr=False)
    transitions: tuple[tuple[int | None, ...], ...] = field(init=False, compare=False, repr=False)
    initial = 0  # a class constant, not a field: the empty context

    def __post_init__(self):
        seen = []
        for w in self.forbidden:
            w = self.alphabet.word(w)
            if not w:
                raise ValueError("forbidden words must be nonempty")
            if w not in seen:
                seen.append(w)
        forbidden = tuple(sorted(seen))
        states = sorted({f[:k] for f in forbidden for k in range(len(f))} | {()},
                        key=lambda p: (len(p), p))
        index = {p: i for i, p in enumerate(states)}
        transitions = []
        for p in states:
            row: list[int | None] = []
            for a in range(self.alphabet.size):
                w = p + (a,)
                if any(w[len(w) - len(f):] == f for f in forbidden):
                    row.append(None)
                else:  # the longest suffix of w that is a state
                    row.append(next(index[w[j:]] for j in range(len(w) + 1) if w[j:] in index))
            transitions.append(tuple(row))
        object.__setattr__(self, "forbidden", forbidden)
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "transitions", tuple(transitions))

    def language(self, n: int) -> list[Word]:
        """All legal words of length n, lexicographic."""
        return last_level(walk(self, n, "language enumeration"))


def walk(subshift: Subshift, n_max: int | None, what: str, root=(), step=lambda value, a: value):
    """Yield the levels 0..n_max of the subshift's language (every level
    when n_max is None; the caller stops taking them).

    Each level is a list of (word, state, value) triples in lexicographic
    order, state being the follower state after the word, read from
    subshift.transitions, and value the empty word's `root` stepped along
    the word: a child's value is step(parent's value, a), and a None
    value cuts the branch.  A level extends the triples of the one before
    it, so a branch is cut for good as soon as the subshift rejects it or
    its value is None; an entry the caller drops from a level before
    taking the next is not extended either.  By default every value is
    `root` and only the subshift cuts.  More than BUDGET words over all
    levels raise BudgetExceeded, naming the enumeration as `what`.
    n_max < 0 raises ValueError (no word has that length).
    """
    if n_max is not None and n_max < 0:
        raise ValueError(f"{what} needs a word length n >= 0, got {n_max}")
    level = [((), subshift.initial, root)]
    count = 1
    for depth in itertools.count():
        yield level
        if depth == n_max:
            return
        longer = []
        for word, state, value in level:
            for a, nxt in enumerate(subshift.transitions[state]):
                if nxt is None:
                    continue
                child = step(value, a)
                if child is not None:
                    count += 1
                    if count > BUDGET:
                        raise BudgetExceeded(f"{what} exceeded {BUDGET} candidates")
                    longer.append((word + (a,), nxt, child))
        level = longer


def last_level(levels) -> list[Word]:
    """The words of the last level a walk yields."""
    for level in levels:
        pass
    return [word for word, _, _ in level]

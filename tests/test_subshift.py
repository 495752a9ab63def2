"""Words, forbidden-factor languages, and the follower automaton."""

import itertools
import random

import pytest

from moebius_systems.errors import BudgetExceeded
from moebius_systems import subshift
from moebius_systems.subshift import Alphabet, Subshift
from reference import follower_accepts, in_language


def three_parabolic_shift():
    alph = Alphabet(("a", "b", "c"))
    return Subshift(alph, ["ac", "ba", "cb"])


def cf_shift():
    alph = Alphabet(("1-", "0", "1"))
    return Subshift(alph, ["00", "11-", "1-1", "101", "1-01-"])


def test_alphabet_tokenizes_multichar_names():
    alph = Alphabet(("1-", "0", "1"))
    assert alph.word("1-01") == (0, 1, 2)
    assert alph.word("11-") == (2, 0)
    assert alph.format((0, 1, 2)) == "1-01"
    assert alph.format((0,), unicode_bars=True) == "1̄"
    with pytest.raises(ValueError):
        alph.word("2")


def test_tokenizing_is_greedy_and_names_are_nonempty():
    # "abc" is also a + bc, but the longest name is taken first, as always
    alph = Alphabet(("ab", "a", "bc"))
    assert alph.word("aab") == (1, 0)
    with pytest.raises(ValueError, match="cannot tokenize 'c' over"):
        alph.word("abc")
    with pytest.raises(ValueError, match="cannot tokenize 'xab' over"):
        alph.word("abxab")
    # an empty name used to make the tokenizer loop forever
    with pytest.raises(ValueError, match="nonempty"):
        Alphabet(("", "a"))


def test_in_language_examples():
    cf = cf_shift()
    assert not in_language(cf, cf.alphabet.word("00"))
    assert in_language(cf, ())
    p3 = three_parabolic_shift()
    assert in_language(p3, p3.alphabet.word("ab"))
    assert not in_language(p3, p3.alphabet.word("ac"))
    assert not in_language(p3, p3.alphabet.word("bacb"))  # factor "ac"


def test_language_counts():
    p3 = three_parabolic_shift()
    assert [p3.alphabet.format(w) for w in p3.language(1)] == ["a", "b", "c"]
    assert len(p3.language(2)) == 6  # nine pairs minus three forbidden
    assert p3.language(0) == [()]


def test_language_matches_brute_force():
    p3 = three_parabolic_shift()
    for n in range(0, 6):
        brute = [w for w in itertools.product(range(3), repeat=n) if in_language(p3, w)]
        assert p3.language(n) == brute


def test_language_budget(monkeypatch):
    monkeypatch.setattr(subshift, "BUDGET", 100)
    full = Subshift(Alphabet(("0", "1")), ())
    with pytest.raises(BudgetExceeded):
        full.language(20)


def test_factoriality():
    rng = random.Random(42)
    cf = cf_shift()
    words = cf.language(7)
    for _ in range(200):
        w = rng.choice(words)
        i = rng.randint(0, len(w))
        j = rng.randint(i, len(w))
        assert in_language(cf, w[i:j])


def test_language_submultiplicative():
    cf = cf_shift()
    sizes = {n: len(cf.language(n)) for n in range(0, 11)}
    for n in range(1, 6):
        for m in range(1, 6):
            assert sizes[n + m] <= sizes[n] * sizes[m]


def test_golden_mean_automaton():
    golden = Subshift(Alphabet(("0", "1")), ["11"])
    auto = golden.follower_automaton()
    assert auto.n_states == 2
    assert follower_accepts(auto, (0, 1, 0, 1, 0))
    assert not follower_accepts(auto, (1, 1))


def test_free_shift_automaton():
    free = Subshift(Alphabet(("x", "y")), ())
    auto = free.follower_automaton()
    assert auto.n_states == 1
    assert follower_accepts(auto, (0, 1, 1, 0, 1))


def test_three_parabolic_automaton_size():
    auto = three_parabolic_shift().follower_automaton()
    assert auto.n_states <= 4


@pytest.mark.parametrize("shift", [three_parabolic_shift(), cf_shift()])
def test_automaton_agrees_with_in_language(shift):
    auto = shift.follower_automaton()
    k = shift.alphabet.size
    for n in range(0, 7):
        for w in itertools.product(range(k), repeat=n):
            assert follower_accepts(auto, w) == in_language(shift, w)


def test_forbidden_validation():
    alph = Alphabet(("a", "b"))
    with pytest.raises(ValueError):
        Subshift(alph, ((),))
    with pytest.raises(ValueError):
        Subshift(alph, ((5,),))


def test_negative_word_length_rejected(monkeypatch):
    with pytest.raises(ValueError, match="n >= 0"):
        cf_shift().language(-1)
    # a budget of 1 would stop any walk at its second word, so only a
    # check made before the walk can raise ValueError here
    monkeypatch.setattr(subshift, "BUDGET", 1)
    with pytest.raises(ValueError, match="n >= 0"):
        cf_shift().language(-1)


import random

import pytest
from hypothesis import given, settings, strategies as st

from cogrowth.errors import PreconditionError, WordParseError
from cogrowth.words import (
    MAX_WORD_LENGTH,
    Alphabet,
    WhiteheadAutomorphism,
    apply_whitehead,
    cyclic_reduce,
    format_word,
    free_reduce,
    inverse_word,
    is_cyclically_reduced,
    letter_key,
    parse_word,
    sigma,
)
from corpus_sweep import random_whitehead

AB4 = Alphabet(("x", "y", "z", "t"))


def letters(rank=4):
    return st.integers(1, rank).flatmap(lambda g: st.sampled_from([g, -g]))


def words(rank=4, max_size=30):
    return st.lists(letters(rank), max_size=max_size).map(tuple)


def naive_reduce_to_fixpoint(word):
    # single-pass cancellation, repeated until nothing changes
    w = list(word)
    while True:
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                del w[i : i + 2]
                break
        else:
            return tuple(w)


def test_reduce_single_cancellation():
    assert free_reduce(parse_word("xXy", AB4)) == parse_word("y", AB4)


def test_reduce_empty():
    assert free_reduce(()) == ()


@given(words())
def test_reduce_matches_fixpoint_oracle(w):
    assert free_reduce(w) == naive_reduce_to_fixpoint(w)


@given(words())
def test_reduce_idempotent_and_nonincreasing(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert len(r) <= len(w)
    assert all(a != -b for a, b in zip(r, r[1:]))


def test_cyclic_reduce_one_layer():
    core, conj = cyclic_reduce(parse_word("yxY", AB4))
    assert core == parse_word("x", AB4)
    assert conj == parse_word("y", AB4)


@pytest.mark.parametrize("n", [0, 1, 2, 8000])
def test_cyclic_reduce_strips_a_long_conjugator(n):
    # x^n y X^n is y conjugated by x^n, whatever the length of x^n
    x, y = parse_word("x", AB4), parse_word("y", AB4)
    assert cyclic_reduce(x * n + y + inverse_word(x * n)) == (y, x * n)


def test_cyclic_reduce_already_reduced():
    core, conj = cyclic_reduce(parse_word("yX", AB4))
    assert core == parse_word("yX", AB4) and conj == ()


@given(words(max_size=12), words(max_size=6))
def test_cyclic_reduce_of_conjugate(w, g):
    core, conj = cyclic_reduce(g + w + inverse_word(g))
    expected, _ = cyclic_reduce(w)
    # equal up to cyclic rotation
    if not expected:
        assert core == ()
    else:
        rotations = {
            expected[r:] + expected[:r] for r in range(len(expected))
        }
        assert core in rotations
    # recombination gives back the original element
    assert free_reduce(conj + core + inverse_word(conj)) == free_reduce(g + w + inverse_word(g))


EXAMPLE_PHI = WhiteheadAutomorphism(2, frozenset({1, -4}))  # ({x, t^-1}, y)


def test_whitehead_letter_images():
    assert apply_whitehead(EXAMPLE_PHI, parse_word("x", AB4)) == parse_word("yx", AB4)
    assert apply_whitehead(EXAMPLE_PHI, parse_word("t", AB4)) == parse_word("tY", AB4)
    assert apply_whitehead(EXAMPLE_PHI, parse_word("y", AB4)) == parse_word("y", AB4)
    assert apply_whitehead(EXAMPLE_PHI, parse_word("z", AB4)) == parse_word("z", AB4)


def test_whitehead_on_length_five_generator():
    image = apply_whitehead(EXAMPLE_PHI, parse_word("yzYzt", AB4))
    assert image == parse_word("yzYztY", AB4)
    core, _ = cyclic_reduce(image)
    assert core == parse_word("zYzt", AB4)


def test_whitehead_fixes_own_letter():
    for phi in (EXAMPLE_PHI, WhiteheadAutomorphism(-3, frozenset({1, 2, -1}))):
        assert apply_whitehead(phi, (phi.a,)) == (phi.a,)
        assert apply_whitehead(phi, (-phi.a,)) == (-phi.a,)


def test_whitehead_rejects_bad_side_set():
    with pytest.raises(PreconditionError):
        WhiteheadAutomorphism(2, frozenset({2, 1}))
    with pytest.raises(PreconditionError):
        WhiteheadAutomorphism(2, frozenset({-2}))


def test_inverse_automorphism_property():
    # (A, a) followed by (A, a^-1) is the identity on reduced words
    rng = random.Random(7)
    for _ in range(1000):
        phi = random_whitehead(rng, 4)
        w = free_reduce(
            tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 20)))
        )
        inverse = WhiteheadAutomorphism(-phi.a, phi.members)
        assert apply_whitehead(inverse, apply_whitehead(phi, w)) == w


@given(words(max_size=15), words(max_size=15), st.integers(0, 10**6))
@settings(max_examples=200)
def test_homomorphism_property(u, v, seed):
    phi = random_whitehead(random.Random(seed), 4)
    left = apply_whitehead(phi, free_reduce(u + v))
    right = free_reduce(apply_whitehead(phi, free_reduce(u)) + apply_whitehead(phi, free_reduce(v)))
    assert left == right


@given(words())
def test_format_parse_roundtrip(w):
    assert parse_word(format_word(w, AB4), AB4) == w


def test_parse_explicit_syntax():
    assert parse_word("y x^-1", AB4) == parse_word("yX", AB4)
    assert parse_word("x^3", AB4) == (1, 1, 1)
    assert parse_word("x^-2 t", AB4) == (-1, -1, 4)
    assert parse_word("1", AB4) == ()
    assert format_word((), AB4) == "1"


def test_parse_errors_carry_column():
    with pytest.raises(WordParseError) as err:
        parse_word("xy]z", AB4)
    assert err.value.column == 3
    with pytest.raises(WordParseError):
        parse_word("x^0", AB4)
    for text in ("x^a", "x^"):
        with pytest.raises(WordParseError, match="bad exponent") as err:
            parse_word(text, AB4)
        assert err.value.column == 1
    # an unknown generator, in either syntax and either case, at its column
    for text, column in [("q", 1), ("xwy", 2), ("xWy", 2), ("x qq^2", 3), ("x y w", 5)]:
        with pytest.raises(WordParseError, match="unknown generator") as err:
            parse_word(text, AB4)
        assert err.value.column == column
        assert str(err.value).endswith(f"(column {column})")


def test_parse_caps_the_word_length():
    ab = Alphabet(("x", "y"))
    assert len(parse_word("x^3 y^-2", ab)) == 5
    for text in ("x^99999999999", f"x^{MAX_WORD_LENGTH} y"):
        with pytest.raises(WordParseError):
            parse_word(text, ab)


def test_alphabet_spec_syntaxes():
    assert Alphabet.from_spec("x,y,z,t") == Alphabet.from_spec("xyzt")
    assert Alphabet.from_spec("ab").rank == 2


def test_alphabet_validation():
    with pytest.raises(WordParseError):
        Alphabet(("x",))
    with pytest.raises(WordParseError):
        Alphabet(("x", "x"))
    with pytest.raises(WordParseError):
        Alphabet(("x", "Y"))


def test_letter_order_is_generator_then_sign():
    assert sorted(sigma(2), key=letter_key) == [1, -1, 2, -2]
    assert sigma(4) == (1, -1, 2, -2, 3, -3, 4, -4)
    # the order table against a key computed from the letter, at every rank
    oracle = lambda l: (abs(l), l < 0)
    for rank in range(2, 27):
        letters = [g * sign for g in range(1, rank + 1) for sign in (-1, 1)]
        expected = sorted(letters, key=oracle)
        assert sorted(letters, key=letter_key) == expected
        assert list(sigma(rank)) == expected
        for u in letters:
            for v in letters:
                assert (letter_key(u) < letter_key(v)) == (oracle(u) < oracle(v))


def test_cyclically_reduced_predicate():
    assert is_cyclically_reduced(parse_word("yX", AB4))
    assert not is_cyclically_reduced(parse_word("yxY", AB4))
    assert not is_cyclically_reduced(parse_word("yxXz", AB4))
    assert is_cyclically_reduced(())
    assert is_cyclically_reduced((3,))

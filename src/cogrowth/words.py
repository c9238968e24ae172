"""Letters, words, free/cyclic reduction, and Whitehead automorphisms.

A letter is a signed integer: ``+i`` is the i-th generator (1-based) and
``-i`` its inverse.  A word is a tuple of letters.  Both are plain
immutable values, safe to share and to use as dict keys.

Two text syntaxes are supported.  The compact one writes generators as
their lowercase names and inverses as the uppercase names ("yX" is
y * x^-1).  The explicit one separates letters with whitespace and marks
exponents with a caret ("y x^-1").  Parsing and printing round-trip
exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import PreconditionError, WordParseError

Letter = int
Word = tuple[int, ...]

# longest word the explicit syntax may spell, so a huge exponent fails to parse
MAX_WORD_LENGTH = 10**6


def sigma(rank: int) -> tuple[Letter, ...]:
    """All 2*rank letters in the global order: x1, x1^-1, x2, x2^-1, ..."""
    out = []
    for g in range(1, rank + 1):
        out.extend((g, -g))
    return tuple(out)


# The global order of letters: by generator index, positive before
# inverse (x1, x1^-1, x2, ...).  It is the tie-breaker of every
# enumeration downstream (vertex discovery, state orderings, cut-vertex
# search).  One table holds it for every letter of an alphabet (at most
# 26 generators, named by distinct lowercase letters), and the sort key
# is a lookup into it, so a sort makes no Python-level call per letter.
_LETTER_ORDER = {letter: i for i, letter in enumerate(sigma(26))}
letter_key = _LETTER_ORDER.__getitem__


class _Value:
    """An immutable value whose fields are its class's `__slots__`, each
    set once in `__init__` through `object.__setattr__`.  Values of one
    class with equal fields are equal and hash alike.

    Slots, not a named tuple: on CPython 3.11 a slot reads as fast as a
    dataclass field and a named tuple's field about twice as slowly, and
    `build_core` reads `Alphabet.rank`, `apply_whitehead` the fields of
    its automorphism, once per letter.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Alphabet(_Value):
    """Ordered generator names for a free group of rank >= 2.

    Names must be distinct single lowercase ASCII letters so that the
    compact uppercase-inverse syntax is unambiguous.  Any iterable of
    names is kept as a tuple: ``Alphabet("xyz") == Alphabet(("x", "y", "z"))``.
    """

    __slots__ = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(names) < 2:
            raise WordParseError("alphabet needs rank >= 2")
        for n in names:
            if len(n) != 1 or not ("a" <= n <= "z"):
                raise WordParseError(f"alphabet name {n!r} is not a lowercase letter")
        if len(set(names)) != len(names):
            raise WordParseError("alphabet names must be pairwise distinct")
        object.__setattr__(self, "names", names)

    @property
    def rank(self) -> int:
        return len(self.names)

    @classmethod
    def from_spec(cls, spec: str) -> "Alphabet":
        """Parse "xyzt" or "x,y,z,t" into an alphabet."""
        names = spec.split(",") if "," in spec else list(spec.strip())
        return cls(tuple(n.strip() for n in names))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise WordParseError(f"unknown generator {name!r}") from None

    def spell(self, letter: Letter) -> str:
        name = self.names[abs(letter) - 1]
        return name if letter > 0 else name.upper()

    def spell_caret(self, letter: Letter) -> str:
        name = self.names[abs(letter) - 1]
        return name if letter > 0 else name + "^-1"


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse either word syntax; raises WordParseError with a column."""
    text = text.strip()
    if not text or text == "1":
        return ()
    if any(c.isspace() for c in text) or "^" in text or "*" in text:
        return _parse_explicit(text, alphabet)
    letters = []
    for col, ch in enumerate(text, start=1):
        if not ("a" <= ch <= "z" or "A" <= ch <= "Z"):
            raise WordParseError(f"unexpected character {ch!r}", column=col)
        letters.append(_letter(ch, alphabet, col))
    return tuple(letters)


def _letter(name: str, alphabet: Alphabet, col: int) -> Letter:
    """The letter a generator name spells, its inverse when uppercase;
    an unknown name raises WordParseError at column `col`."""
    try:
        if "A" <= name <= "Z":
            return -alphabet.index(name.lower())
        return alphabet.index(name)
    except WordParseError as exc:
        raise WordParseError(str(exc), column=col) from None


def _parse_explicit(text: str, alphabet: Alphabet) -> Word:
    letters: list[int] = []
    col = 0
    for token in text.replace("*", " ").split():
        col = text.index(token, col) + 1
        name, caret, exp = token.partition("^")
        base = _letter(name, alphabet, col)
        if caret:
            try:
                power = int(exp)
            except ValueError:
                raise WordParseError(f"bad exponent {exp!r}", column=col) from None
            if power == 0:
                raise WordParseError("zero exponent", column=col)
        else:
            power = 1
        if len(letters) + abs(power) > MAX_WORD_LENGTH:
            raise WordParseError(
                f"word longer than {MAX_WORD_LENGTH} letters", column=col
            )
        letters.extend([base if power > 0 else -base] * abs(power))
        col += len(token) - 1
    return tuple(letters)


def format_word(word: Sequence[Letter], alphabet: Alphabet) -> str:
    """Compact rendering; the empty word prints as "1"."""
    if not word:
        return "1"
    return "".join(alphabet.spell(l) for l in word)


def free_reduce(word: Iterable[Letter]) -> Word:
    """The unique freely reduced word equal to the input; idempotent."""
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def is_cyclically_reduced(word: Sequence[Letter]) -> bool:
    """No letter is followed by its inverse, and the last is not the
    inverse of the first."""
    if len(word) > 1 and word[0] == -word[-1]:
        return False
    return all(a != -b for a, b in zip(word, word[1:]))


def inverse_word(word: Sequence[Letter]) -> Word:
    return tuple(-l for l in reversed(word))


def cyclic_reduce(word: Iterable[Letter]) -> tuple[Word, Word]:
    """Split a word as conjugator * core * conjugator^-1.

    The core is cyclically reduced and the original word freely reduces
    to the recombination.  For an already cyclically reduced word the
    conjugator is empty.
    """
    w = free_reduce(word)
    i, j = 0, len(w) - 1
    while i < j and w[i] == -w[j]:
        i, j = i + 1, j - 1
    return w[i : j + 1], w[:i]


class WhiteheadAutomorphism(_Value):
    """The automorphism (A, a): a maps to itself and every other
    generator picks up ``a`` on the left iff it lies in A and ``a^-1``
    on the right iff its inverse lies in A.

    The inverse automorphism is (A, a^-1).  A is kept as a frozenset.
    """

    __slots__ = ("a", "members")

    def __init__(self, a: Letter, members: Iterable[Letter]):
        members = frozenset(members)
        if a == 0:
            raise PreconditionError("multiplier letter must be nonzero")
        if a in members or -a in members:
            raise PreconditionError("A must avoid the multiplier and its inverse")
        if 0 in members:
            raise PreconditionError("letters are nonzero integers")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "members", members)

    def letter_image(self, letter: Letter) -> Word:
        if abs(letter) == abs(self.a):
            return (letter,)
        g = abs(letter)
        img = []
        if g in self.members:
            img.append(self.a)
        img.append(g)
        if -g in self.members:
            img.append(-self.a)
        if letter < 0:
            img = [-l for l in reversed(img)]
        return tuple(img)

    def format(self, alphabet: Alphabet) -> str:
        inside = ",".join(
            alphabet.spell(l) for l in sorted(self.members, key=letter_key)
        )
        return f"({{{inside}}}, {alphabet.spell(self.a)})"


def apply_whitehead(phi: WhiteheadAutomorphism, word: Iterable[Letter]) -> Word:
    """Image of a word under (A, a), freely reduced."""
    out: list[int] = []
    for letter in word:
        for l in phi.letter_image(letter):
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(l)
    return tuple(out)

"""Reduced words in free groups and endomorphisms given on generators.

Words are stored as tuples of signed generator indices (+i for the i-th
generator, -i for its inverse) and are always freely reduced.  A ``Word`` is
the named tuple (rank, letters), compared and hashed in C; ``len`` is its
letter count, and like ``Mat`` it refuses a tuple's ``+``, repetition and
ordering (``exactmat._ValueTuple``).  The public ``Word`` constructor checks
every letter and reduces; products, inverses and substitution images of
checked words are one ``tuple.__new__`` that skips the letter scan (a
product cancels only at the junction of its two reduced factors), but keeps
the rank check and the ``WORD_CAP`` check.
Endomorphisms are given by the images of the generators; automorphisms are
certified by an explicit inverse witness, never by a decision procedure.

The module also ships the fixture data used elsewhere in the package: the
basis-conjugating generators of McCool's subgroup of Aut(F_n), the rank-2
action on F_3 whose two generators fix a_1, a_2 and multiply a_3 by a_i, and
the shift/conjugation action on F_{n+1} (generators a_1..a_n, b).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from operator import neg

from .exactmat import Mat, _ValueTuple

#: Hard cap on word length; composed substitutions hitting this are a bug
#: in the caller, not something to silently truncate.
WORD_CAP = 10 ** 6


class WordLengthError(ValueError):
    pass


class RankMismatch(ValueError):
    pass


def _reduce(letters):
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


class Word(_ValueTuple, namedtuple("Word", "rank letters")):
    """A freely reduced word in the free group of the given rank."""

    __slots__ = ()

    def __new__(cls, rank: int, letters: tuple):
        if len(letters) > WORD_CAP:
            raise WordLengthError("word length %d exceeds cap %d" % (len(letters), WORD_CAP))
        for a in letters:
            if not isinstance(a, int) or a == 0 or abs(a) > rank:
                raise ValueError("letter %r out of range for rank %d" % (a, rank))
        return _word(rank, _reduce(letters))

    @staticmethod
    def identity(rank: int) -> "Word":
        return Word(rank, ())

    @staticmethod
    def generator(rank: int, i: int) -> "Word":
        return Word(rank, (i,))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        rank, a = self
        other_rank, b = other
        if other_rank != rank:
            raise RankMismatch("ranks differ: %d vs %d" % (rank, other_rank))
        if len(a) + len(b) > WORD_CAP:
            raise WordLengthError("word length %d exceeds cap %d" % (len(a) + len(b), WORD_CAP))
        k = 0
        top = min(len(a), len(b))
        while k < top and a[-1 - k] == -b[k]:
            k += 1
        return _word(rank, a[:len(a) - k] + b[k:] if k else a + b)

    def inverse(self) -> "Word":
        rank, letters = self
        return _word(rank, tuple(map(neg, reversed(letters))))

    def __len__(self):
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self):
        return format_word(self)


def _word(rank: int, letters: tuple) -> Word:
    """A Word from letters already known to be in range and freely reduced."""
    return tuple.__new__(Word, (rank, letters))


def exponent_vector(w: Word) -> tuple:
    """Image of w in H_1 = Z^rank (exponent sum per generator)."""
    sums = [0] * w.rank
    for a in w.letters:
        sums[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(sums)


def magnus_degree2(w: Word):
    """Degree-<=2 coefficients of the Magnus expansion of w.

    Maps a_i to 1 + X_i and a_i^-1 to 1 - X_i + X_i^2 and multiplies out,
    truncating at degree 2.  Returns (vec, mat) where vec[i] is the X_i
    coefficient and mat[i][j] the X_i X_j coefficient.  A word lies in the
    k-th lower central subgroup exactly when all coefficients in degrees
    1..k-1 vanish, so (vec, mat) decides membership in gamma_2 and gamma_3.
    """
    n = w.rank
    vec = [0] * n
    mat = [[0] * n for _ in range(n)]
    for a in w.letters:
        g = abs(a) - 1
        eps = 1 if a > 0 else -1
        # (1 + V + M) * (1 + eps X_g + delta X_g^2), delta = 1 for inverses
        for i in range(n):
            mat[i][g] += vec[i] * eps
        if eps < 0:
            mat[g][g] += 1
        vec[g] += eps
    return tuple(vec), tuple(tuple(row) for row in mat)


def lcs_depth2(w: Word) -> int:
    """Largest k <= 3 with w in gamma_k; 3 means gamma_3 or deeper."""
    vec, mat = magnus_degree2(w)
    if any(vec):
        return 1
    if any(any(row) for row in mat):
        return 2
    return 3


@dataclass(frozen=True)
class EndoSpec:
    """An endomorphism of F_rank given by the images of the generators."""

    rank: int
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise RankMismatch("need %d images, got %d" % (self.rank, len(self.images)))
        for im in self.images:
            if not isinstance(im, Word) or im.rank != self.rank:
                raise RankMismatch("images must be rank-%d words" % self.rank)
        # the image of each signed letter, so apply only looks letters up
        subst = {}
        for i, im in enumerate(self.images, 1):
            subst[i] = im.letters
            subst[-i] = tuple(map(neg, reversed(im.letters)))
        object.__setattr__(self, "_subst", subst)

    @staticmethod
    def identity(rank: int) -> "EndoSpec":
        return EndoSpec(rank, tuple(Word.generator(rank, i) for i in range(1, rank + 1)))

    def apply(self, w: Word) -> Word:
        if w.rank != self.rank:
            raise RankMismatch("ranks differ: %d vs %d" % (self.rank, w.rank))
        subst = self._subst
        letters = []
        for a in w.letters:
            letters += subst[a]
            if len(letters) > WORD_CAP:
                raise WordLengthError("substitution exceeded the %d-letter cap" % WORD_CAP)
        return _word(self.rank, _reduce(letters))

    def compose(self, other: "EndoSpec") -> "EndoSpec":
        """self after other: (self.compose(other))(w) = self(other(w))."""
        if other.rank != self.rank:
            raise RankMismatch("ranks differ: %d vs %d" % (self.rank, other.rank))
        return EndoSpec(self.rank, tuple(self.apply(im) for im in other.images))

    def abelianize(self) -> Mat:
        """Induced matrix on H_1; column j is the exponent vector of images[j]."""
        cols = [exponent_vector(im) for im in self.images]
        return Mat(tuple(cols[j][i] for i in range(self.rank) for j in range(self.rank)))


def verify_automorphism(e: EndoSpec, e_inv: EndoSpec) -> bool:
    """True iff e and e_inv compose to the identity on every generator."""
    if e.rank != e_inv.rank:
        raise RankMismatch("ranks differ: %d vs %d" % (e.rank, e_inv.rank))
    gens = [Word.generator(e.rank, i) for i in range(1, e.rank + 1)]
    return all(e.apply(e_inv.apply(g)) == g for g in gens) and all(
        e_inv.apply(e.apply(g)) == g for g in gens
    )


def _basis_conjugation(n, i, j, e):
    """a_i -> a_j^e a_i a_j^-e on F_n, for e = +-1, fixing the other generators."""
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError("need 1 <= i != j <= n, got i=%d j=%d n=%d" % (i, j, n))
    images = [Word.generator(n, k) for k in range(1, n + 1)]
    images[i - 1] = Word(n, (e * j, i, -e * j))
    return EndoSpec(n, tuple(images))


def mccool_generator(n: int, i: int, j: int) -> EndoSpec:
    """The basis-conjugating automorphism a_i -> a_j a_i a_j^-1 of F_n."""
    return _basis_conjugation(n, i, j, 1)


def mccool_inverse(n: int, i: int, j: int) -> EndoSpec:
    """Inverse witness a_i -> a_j^-1 a_i a_j for mccool_generator(n, i, j)."""
    return _basis_conjugation(n, i, j, -1)


def poison_action():
    """The two rank-3 automorphisms fixing a_1, a_2 and sending a_3 to a_3 a_i,
    with their inverse witnesses.  Returns ((phi1, phi1_inv), (phi2, phi2_inv)).
    """
    pairs = []
    for i in (1, 2):
        fwd = EndoSpec(3, (Word(3, (1,)), Word(3, (2,)), Word(3, (3, i))))
        inv = EndoSpec(3, (Word(3, (1,)), Word(3, (2,)), Word(3, (3, -i))))
        pairs.append((fwd, inv))
    return tuple(pairs)


def example_shift_action(n: int):
    """The pair (x, y) of automorphisms of F_{n+1} (generators a_1..a_n, b):

    x: a_q -> a_{q+1} for q < n, a_n -> b a_1 b^-1, b -> b
    y: a_q -> a_1 a_q a_1^-1,    b -> a_1 b a_1^-1
    """
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    rank = n + 1
    b = rank
    x_images = []
    for q in range(1, n):
        x_images.append(Word.generator(rank, q + 1))
    x_images.append(Word(rank, (b, 1, -b)))
    x_images.append(Word.generator(rank, b))
    x = EndoSpec(rank, tuple(x_images))
    # y conjugates everything by a_1 (a_1 itself reduces back to a_1)
    y = EndoSpec(rank, tuple(Word(rank, (1, q, -1)) for q in range(1, rank + 1)))
    return x, y


def example_shift_inverses(n: int):
    """Inverse witnesses (x_inv, y_inv) for example_shift_action(n)."""
    rank = n + 1
    b = rank
    x_images = [Word(rank, (-b, n, b))]
    for q in range(2, n + 1):
        x_images.append(Word.generator(rank, q - 1))
    x_images.append(Word.generator(rank, b))
    x_inv = EndoSpec(rank, tuple(x_images))
    y_inv = EndoSpec(rank, tuple(Word(rank, (-1, q, 1)) for q in range(1, rank + 1)))
    return x_inv, y_inv


def default_names(rank: int):
    return ["a%d" % i for i in range(1, rank + 1)]


def format_word(w: Word, names=None) -> str:
    """Text form ``"a1 a2^-1 b"``; the empty word prints as ``"1"``."""
    if names is None:
        names = default_names(w.rank)
    if not w.letters:
        return "1"
    toks = []
    for a in w.letters:
        name = names[abs(a) - 1]
        toks.append(name if a > 0 else name + "^-1")
    return " ".join(toks)


def parse_word(text: str, rank: int, names=None) -> Word:
    """Parse whitespace-separated tokens (``^-1`` marks inverses)."""
    if names is None:
        names = default_names(rank)
    index = {name: i + 1 for i, name in enumerate(names)}
    letters = []
    text = text.strip()
    if text in ("", "1"):
        return Word.identity(rank)
    for tok in text.split():
        inv = tok.endswith("^-1")
        name = tok[:-3] if inv else tok
        if name not in index:
            raise ValueError("unknown generator %r (names: %s)" % (name, names))
        letters.append(-index[name] if inv else index[name])
    return Word(rank, tuple(letters))

import random

import pytest
from hypothesis import given, settings, strategies as st

from filtra.exactmat import Mat
from filtra.freegroup import (
    EndoSpec,
    RankMismatch,
    WORD_CAP,
    Word,
    WordLengthError,
    example_shift_action,
    example_shift_inverses,
    exponent_vector,
    format_word,
    poison_action,
    lcs_depth2,
    magnus_degree2,
    mccool_generator,
    mccool_inverse,
    parse_word,
    verify_automorphism,
)


def w(rank, *letters):
    return Word(rank, tuple(letters))


letters3 = st.lists(st.integers(-3, 3).filter(lambda a: a != 0), max_size=14)


def reduce_random_order(letters, rng):
    # cancel an arbitrary adjacent inverse pair until none remain
    letters = list(letters)
    while True:
        spots = [i for i in range(len(letters) - 1) if letters[i] == -letters[i + 1]]
        if not spots:
            return tuple(letters)
        i = rng.choice(spots)
        del letters[i:i + 2]


def test_reduction_examples():
    assert w(3, 1, -1).is_identity()
    assert w(3, 1, 2) * w(3, -2, 3) == w(3, 1, 3)
    assert w(3, 3) * w(3, 1) == w(3, 3, 1)


@settings(max_examples=120)
@given(letters3, st.integers(0, 10 ** 6))
def test_reduction_confluent(letters, seed):
    rng = random.Random(seed)
    assert Word(3, tuple(letters)).letters == reduce_random_order(letters, rng)


def test_inverse():
    u = w(2, 1, 2, -1)
    assert (u * u.inverse()).is_identity()


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        w(2, 1) * w(3, 1)
    with pytest.raises(RankMismatch):
        EndoSpec.identity(2).apply(w(3, 1))


@settings(max_examples=80)
@given(letters3, letters3)
def test_endo_apply_is_homomorphism(lu, lv):
    e = mccool_generator(3, 1, 2)
    u, v = Word(3, tuple(lu)), Word(3, tuple(lv))
    assert e.apply(u * v) == e.apply(u) * e.apply(v)


def test_endo_examples():
    (phi1, phi1_inv), (phi2, phi2_inv) = poison_action()
    assert EndoSpec.identity(3).apply(w(3, 1, -2, 3)) == w(3, 1, -2, 3)
    assert phi1.apply(w(3, 3)) == w(3, 3, 1)
    assert phi2.apply(w(3, 3)) == w(3, 3, 2)
    x, y = example_shift_action(2)
    b = 3
    assert x.apply(w(3, 2)) == w(3, b, 1, -b)
    assert y.apply(w(3, b)) == w(3, 1, b, -1)


def test_verify_automorphism_fixtures():
    ident = EndoSpec.identity(4)
    assert verify_automorphism(ident, ident)
    (phi1, phi1_inv), (phi2, phi2_inv) = poison_action()
    assert verify_automorphism(phi1, phi1_inv)
    assert verify_automorphism(phi2, phi2_inv)
    assert not verify_automorphism(phi1, phi2_inv)
    for n in (1, 2, 3, 4):
        x, y = example_shift_action(n)
        x_inv, y_inv = example_shift_inverses(n)
        assert verify_automorphism(x, x_inv)
        assert verify_automorphism(y, y_inv)


def test_mccool_generators():
    e = mccool_generator(3, 1, 2)
    assert e.images[0] == w(3, 2, 1, -2)
    assert e.images[1] == w(3, 2)
    assert e.images[2] == w(3, 3)
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                assert verify_automorphism(mccool_generator(n, i, j), mccool_inverse(n, i, j))
                assert mccool_generator(n, i, j).abelianize() == Mat.identity(n)
    with pytest.raises(ValueError):
        mccool_generator(3, 2, 2)
    with pytest.raises(ValueError):
        mccool_generator(3, 0, 1)


def test_abelianize_examples():
    assert EndoSpec.identity(3).abelianize() == Mat.identity(3)
    (phi1, _), (phi2, _) = poison_action()
    m1 = phi1.abelianize()
    assert m1 != Mat.identity(3)
    expected = (1, 0, 1, 0, 1, 0, 0, 0, 1)
    assert m1.entries == expected
    assert phi2.abelianize().entries == (1, 0, 0, 0, 1, 1, 0, 0, 1)
    _, y = example_shift_action(3)
    assert y.abelianize() == Mat.identity(4)


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_abelianize_functorial(seed):
    rng = random.Random(seed)
    pool = [mccool_generator(3, 1, 2), mccool_generator(3, 2, 3), poison_action()[0][0], poison_action()[1][0]]
    e, f = rng.choice(pool), rng.choice(pool)
    assert e.compose(f).abelianize() == e.abelianize() * f.abelianize()


def test_magnus_and_depth():
    assert lcs_depth2(w(3, 1)) == 1
    comm = w(3, 1, 2, -1, -2)
    assert exponent_vector(comm) == (0, 0, 0)
    assert lcs_depth2(comm) == 2
    deep = comm * w(3, 3) * comm.inverse() * w(3, -3)   # [[a1,a2],a3]
    assert lcs_depth2(deep) == 3
    vec, mat = magnus_degree2(comm)
    assert vec == (0, 0, 0)
    assert mat[0][1] == 1 and mat[1][0] == -1


def test_word_cap():
    # doubling endomorphism blows past the cap quickly
    e = EndoSpec(1, (w(1, 1, 1),))
    word = w(1, 1)
    with pytest.raises(WordLengthError):
        for _ in range(25):
            word = e.apply(word)


def test_word_product_cap():
    half = Word(1, (1,) * (WORD_CAP // 2))
    assert len(half * half) == WORD_CAP
    with pytest.raises(WordLengthError):
        half * half * w(1, 1)
    with pytest.raises(WordLengthError):
        w(1, 1) * (half * half)


def test_parse_format():
    assert format_word(w(3, 1, -2, 3)) == "a1 a2^-1 a3"
    assert parse_word("a1 a2^-1 a3", 3) == w(3, 1, -2, 3)
    assert parse_word("1", 3).is_identity()
    assert format_word(Word.identity(2), ["phi1", "phi2"]) == "1"
    assert parse_word("b a1 b^-1", 3, ["a1", "a2", "b"]) == w(3, 3, 1, -3)
    with pytest.raises(ValueError):
        parse_word("zz", 3)


@pytest.mark.parametrize("rank, letters, text", [
    (1, (1, 1, -1, 1), "a1 a1"), (2, (1, -2, 2, 2, -1), "a1 a2 a1^-1"), (3, (3, -1, 2), "a3 a1^-1 a2"),
])
def test_value_contract(rank, letters, text):
    u, twin = Word(rank, letters), Word(rank, list(letters))
    assert u == twin and hash(u) == hash(twin)
    assert u != Word(rank + 1, letters)
    assert len(u) == len(u.letters) == len(text.split()) and str(u) == text
    for field in ("rank", "letters"):
        with pytest.raises(AttributeError):
            setattr(u, field, getattr(twin, field))
    for refused in (lambda: u + twin, lambda: 2 * u, lambda: u * 2, lambda: Mat.identity(rank) * u,
                    lambda: (0,) + u, lambda: u + (0,), lambda: u < twin, lambda: u <= twin, lambda: u > twin,
                    lambda: u >= twin, lambda: sorted([u, twin])):
        with pytest.raises(TypeError):
            refused()
    assert not hasattr(u, "__dict__")

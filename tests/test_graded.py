import itertools
import random

import pytest

from filtra.exactmat import _FLAT_ID, _flat_inv, _flat_mul
from filtra.graded import (
    GradedClass,
    GradedError,
    basis_class,
    bracket,
    bracket_from_lifts,
    class_add,
    class_neg,
    class_of,
    lift,
    power_map,
    verify_relation_table,
    zero_class,
)
from filtra.filtration import WordSampler


def random_kernel_element(p, level, t_exp, rng):
    """A random flat determinant-one matrix mod p^t_exp congruent to I mod
    p^level: a word of length 1..4 in the canonical lifts at that level."""
    m = p ** t_exp
    names = ["A", "B"] if p == 2 else ["A", "B", "D"]
    lifts = [lift(basis_class(p, level, name), t_exp) for name in names]
    alphabet = lifts + [_flat_inv(g, m) for g in lifts]
    return WordSampler(alphabet, lambda x, y: _flat_mul(x, y, m), 4).draw(rng, 1)[0][0]


def basis_matrices(p, q):
    """The four standard level-q matrices, flat mod p^{q+1}."""
    t = p ** q
    m = p ** (q + 1)
    return {
        "A": (1, t, 0, 1),
        "B": (1, 0, t, 1),
        "C": ((1 + t) % m, t, -t % m, (1 - t) % m),
        "D": ((1 + t) % m, 0, 0, (1 - t) % m),
    }


def _neg(x):
    return tuple(-e for e in x)


def test_class_of_basis_and_mixed():
    for p in (3, 5):
        for q in (1, 2, 3, 4):
            m = p ** (q + 1)
            mats = basis_matrices(p, q)
            assert class_of(mats["A"], p, q) == basis_class(p, q, "A")
            assert class_of(mats["B"], p, q) == basis_class(p, q, "B")
            assert class_of(mats["D"], p, q) == basis_class(p, q, "D")
            assert class_of(mats["C"], p, q) == GradedClass(p, q, (1, -1, 1))
            prod = _flat_mul(_flat_mul(mats["B"], mats["C"], m), _flat_inv(mats["A"], m), m)
            assert class_of(prod, p, q) == class_of(mats["D"], p, q)


def test_class_of_sign_normalization():
    for p, q in ((3, 1), (3, 2), (2, 1), (2, 2), (2, 3)):
        mats = basis_matrices(p, q)
        for name in ("A", "B"):
            assert class_of(_neg(mats[name]), p, q) == class_of(mats[name], p, q)


def test_class_of_additive():
    rng = random.Random("additive")
    for p, q in ((3, 1), (3, 2), (5, 1), (2, 2)):
        m = p ** (q + 1)
        for _ in range(40):
            m1 = random_kernel_element(p, q, q + 1, rng)
            m2 = random_kernel_element(p, q, q + 1, rng)
            assert class_of(_flat_mul(m1, m2, m), p, q) == class_add(class_of(m1, p, q), class_of(m2, p, q))


def test_class_of_errors():
    mats = basis_matrices(3, 1)
    with pytest.raises(GradedError):
        class_of(mats["A"], 3, 2)       # not in the kernel one level deeper
    with pytest.raises(GradedError):
        class_of((1, 1, 0, 1), 3, 1)    # not in the kernel
    with pytest.raises(GradedError):
        class_of((2, 0, 0, 1), 3, 1)    # determinant 2 mod 9
    with pytest.raises(GradedError):
        GradedClass(3, 0, (0, 0, 0))
    with pytest.raises(GradedError):
        GradedClass(2, 1, (0, 0, 0))
    # only exact integers: a float level or coordinate would reach bracket
    # as a misleading determinant failure
    for q, coords in ((1.0, (1, 0, 0)), (1, (1.5, 0, 0)), (1, (1, 0.0, 0))):
        with pytest.raises(GradedError, match="level must be|exact integers"):
            GradedClass(3, q, coords)
    with pytest.raises(GradedError, match="level must be"):
        class_of(_FLAT_ID, 3, 1.0)
    # nor a float matrix entry or target exponent, which would print as a
    # float class or return a float lift
    with pytest.raises(GradedError, match="entries must be exact integers"):
        class_of((1.0, 3, 0, 1), 3, 1)
    with pytest.raises(GradedError, match="target exponent must be an exact integer"):
        lift(basis_class(3, 1, "A"), 3.0)
    with pytest.raises(GradedError, match="too small"):
        lift(basis_class(3, 1, "A"), 1)


@pytest.mark.parametrize("p", [0, 1, 4, -3, 1048583, 3.0])
def test_graded_class_rejects_bad_primes(p):
    # the rule of exactmat.Modulus: a prime below 2^20
    with pytest.raises(GradedError, match="prime below 2"):
        GradedClass(p, 1, (1, 0, 0))


@pytest.mark.parametrize("p", [0, 1, 4, 9, 1048583])
def test_class_of_rejects_bad_primes(p):
    # I is in every kernel, so only the prime check can refuse it
    with pytest.raises(GradedError, match="prime below 2"):
        class_of(_FLAT_ID, p, 1)


def test_combined_classes_match_the_checked_constructor():
    # class_add and class_neg skip the constructor's checks; their results
    # are still reduced GradedClasses equal to the checked ones
    rng = random.Random("combined")
    for p, q in ((2, 1), (2, 3), (3, 1), (5, 2), (7, 4), (1048573, 1)):
        size = 2 if p == 2 else 3
        for _ in range(30):
            v1 = [rng.randrange(-3 * p, 3 * p) for _ in range(size)]
            v2 = [rng.randrange(-3 * p, 3 * p) for _ in range(size)]
            c1, c2 = GradedClass(p, q, v1), GradedClass(p, q, v2)
            for got, want in ((class_add(c1, c2), GradedClass(p, q, [a + b for a, b in zip(v1, v2)])),
                              (class_neg(c1), GradedClass(p, q, [-a for a in v1]))):
                assert type(got) is GradedClass and got == want
                assert all(0 <= c < p for c in got.coords) and str(got) == str(want)


def test_lift_examples():
    assert lift(zero_class(3, 1), 2) == _FLAT_ID
    assert lift(basis_class(3, 1, "A"), 4) == (1, 3, 0, 1)
    assert lift(GradedClass(3, 1, (0, 0, 1)), 3) == (4, 0, 0, 7)
    for p, q in ((3, 1), (3, 2), (5, 1), (2, 1), (2, 3)):
        m = p ** (q + 1)
        for coords in ([(1, 0)] if p == 2 else [(1, 0, 0), (2, 1, 2), (0, 1, 1)]):
            c = GradedClass(p, q, tuple(coords))
            a, b, cc, d = x = lift(c, q + 1)
            assert (a * d - b * cc) % m == 1 and all(0 <= e < m for e in x)
            assert class_of(x, p, q) == c
    # the closed form is the product (1, a p^q; 0, 1)(1, 0; b p^q, 1) diag(u^d, u^-d)
    for p, q in itertools.product((2, 3, 5), (1, 2, 3)):
        pq, u = p ** q, 1 + p ** q
        for t, coords in itertools.product((q + 1, q + 3), itertools.product(range(p), repeat=2 if p == 2 else 3)):
            m = p ** t
            a, b, d = coords + (0,) * (3 - len(coords))
            unipotent = _flat_mul((1, a * pq, 0, 1), (1, 0, b * pq, 1), m)
            want = _flat_mul(unipotent, (pow(u, d, m), 0, 0, pow(u, -d, m)), m)
            assert lift(GradedClass(p, q, coords), t) == want, (p, q, t, coords)


def test_bracket_relation_examples():
    for p in (3, 5):
        d = basis_class(p, 2, "D")
        assert bracket(basis_class(p, 1, "A"), basis_class(p, 1, "B")) == d
        assert bracket(basis_class(p, 1, "A"), basis_class(p, 1, "D")) == GradedClass(p, 2, (-2, 0, 0))
        assert bracket(basis_class(p, 1, "B"), basis_class(p, 1, "D")) == GradedClass(p, 2, (0, 2, 0))
        assert bracket(basis_class(p, 1, "A"), basis_class(p, 2, "A")) == zero_class(p, 3)
    assert bracket(basis_class(2, 1, "A"), basis_class(2, 1, "B")) == zero_class(2, 2)


def test_power_map_examples():
    for p in (3, 5):
        for name in ("A", "B", "D"):
            assert power_map(basis_class(p, 1, name)) == basis_class(p, 2, name)
    assert power_map(zero_class(3, 1)) == zero_class(3, 2)
    assert power_map(basis_class(2, 2, "A")) == basis_class(2, 3, "A")
    assert power_map(basis_class(2, 2, "B")) == basis_class(2, 3, "B")


def test_bracket_lift_independent():
    rng = random.Random("welldef")
    p = 3
    cells = [(q, s) for q in range(1, 4) for s in range(1, 4) if q + s <= 4]
    for q, s in cells:
        for _ in range(40):
            c1 = GradedClass(p, q, tuple(rng.randrange(p) for _ in range(3)))
            c2 = GradedClass(p, s, tuple(rng.randrange(p) for _ in range(3)))
            expected = bracket(c1, c2)
            t = q + s + 1
            l1 = _flat_mul(lift(c1, t), random_kernel_element(p, q + 1, t, rng), p ** t)
            l2 = _flat_mul(lift(c2, t), random_kernel_element(p, s + 1, t, rng), p ** t)
            assert bracket_from_lifts(l1, l2, p, q, s) == expected
            # (x1 x2)(x2 x1)^-1 is the four-factor commutator x1 x2 x1^-1 x2^-1
            m = p ** t
            four = _flat_mul(_flat_mul(l1, l2, m), _flat_mul(_flat_inv(l1, m), _flat_inv(l2, m), m), m)
            assert bracket_from_lifts(l1, l2, p, q, s) == class_of(four, p, q + s)


def test_antisymmetry():
    for p in (3, 5):
        for n1 in ("A", "B", "D"):
            for n2 in ("A", "B", "D"):
                lhs = bracket(basis_class(p, 1, n1), basis_class(p, 2, n2))
                rhs = class_neg(bracket(basis_class(p, 2, n2), basis_class(p, 1, n1)))
                assert lhs == rhs


def test_verify_relation_table():
    for p in (3, 5):
        report = verify_relation_table(p, 4)
        assert report["ok"], report
    report2 = verify_relation_table(2, 4)
    assert report2["ok"], report2
    # a table with no cell checks nothing, and a float level reaches no layer
    for q_max in (-1, 0, 1, 2.5, 3.0, "3", None):
        with pytest.raises(GradedError, match="q_max must be an integer >= 2"):
            verify_relation_table(3, q_max)
    stats = {}
    assert verify_relation_table(3, 2, stats=stats)["ok"] and stats == {"brackets": 45}


def test_kernel_order_matches_coordinates():
    # layer sizes from the coordinate model agree with enumeration
    from quotient_tables import kernel_enumerate

    for p, rank in ((3, 3), (5, 3), (2, 2)):
        for q in (1, 2):
            table = kernel_enumerate(p, q, q + 1, "pgamma")
            assert table.order == p ** rank
            assert table.exponent() == p

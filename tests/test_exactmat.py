import random

import pytest
from hypothesis import given, settings, strategies as st

from filtra.exactmat import (
    DimensionMismatch,
    IntMat,
    MatrixError,
    ModMat,
    Modulus,
    ModulusMismatch,
    NonInvertible,
    PslClass,
    format_matrix,
    parse_matrix,
    psl_class,
    reduce_mod,
)
from filtra.exactmat import _adjugate, _adjugate_n, _det, _det_bareiss, _det_n, _mat_mul, _mat_mul_n

M9 = Modulus(3, 2)
M27 = Modulus(3, 3)


def imat(*rows):
    return IntMat(tuple(tuple(r) for r in rows))


def mmat(modulus, *rows):
    return ModMat(tuple(tuple(r) for r in rows), modulus)


# -- elementary-word strategies for special (det 1) matrices -----------------

def special_word(rng, modulus=None, length=6):
    out = IntMat.identity(2) if modulus is None else ModMat.identity(2, modulus)
    for _ in range(length):
        c = rng.randint(-4, 4)
        rows = ((1, c), (0, 1)) if rng.random() < 0.5 else ((1, 0), (c, 1))
        t = IntMat(rows) if modulus is None else ModMat(rows, modulus)
        out = out * t
    return out


elementary_steps = st.lists(
    st.tuples(st.booleans(), st.integers(-3, 3)), min_size=0, max_size=6
)


def build_special(steps, modulus=None):
    out = IntMat.identity(2) if modulus is None else ModMat.identity(2, modulus)
    for upper, c in steps:
        rows = ((1, c), (0, 1)) if upper else ((1, 0), (c, 1))
        out = out * (IntMat(rows) if modulus is None else ModMat(rows, modulus))
    return out


def test_modulus_validation():
    assert Modulus(3, 2).m == 9
    with pytest.raises(ValueError):
        Modulus(4, 1)
    with pytest.raises(ValueError):
        Modulus(3, 0)
    with pytest.raises(ValueError):
        Modulus(1 << 21, 1)


def test_mul_identity_and_examples():
    a1 = imat((1, 3), (0, 1))
    assert IntMat.identity(2) * a1 == a1
    assert a1 * a1 == imat((1, 6), (0, 1))
    # the mixed product lands on the diagonal coset representative mod 9
    b1 = mmat(M9, (1, 0), (3, 1))
    c1 = mmat(M9, (4, 3), (-3, -2))
    a1m = mmat(M9, (1, 3), (0, 1))
    assert b1 * c1 * a1m.inverse() == mmat(M9, (4, 0), (0, 7))
    assert a1m * a1m == mmat(M9, (1, 6), (0, 1))
    assert a1m * a1m * a1m == ModMat.identity(2, M9)


def test_mul_dimension_and_modulus_errors():
    with pytest.raises(DimensionMismatch):
        imat((1, 0), (0, 1)) * IntMat.identity(3)
    with pytest.raises(ModulusMismatch):
        ModMat.identity(2, M9) * ModMat.identity(2, M27)


def test_inverse_examples():
    assert IntMat.identity(2).inverse() == IntMat.identity(2)
    a = imat((1, 3), (0, 1))
    assert a.inverse() == imat((1, -3), (0, 1))
    am = mmat(M9, (1, 3), (0, 1))
    inv = am.inverse()
    assert inv == mmat(M9, (1, 6), (0, 1))
    assert am * inv == ModMat.identity(2, M9)
    assert inv * am == ModMat.identity(2, M9)
    # a determinant -1 integer matrix is a unit too
    flip = imat((0, 1), (1, 0))
    assert flip.inverse() == flip
    with pytest.raises(NonInvertible):
        imat((2, 0), (0, 2)).inverse()
    with pytest.raises(NonInvertible):
        mmat(M9, (3, 0), (0, 3)).inverse()


def test_inverse_two_sided_many_random():
    # 1000 random special matrices per modulus, exact two-sided inverses
    for modulus in (M9, M27, Modulus(2, 3), Modulus(5, 2)):
        rng = random.Random("inv:%s" % modulus)
        one = ModMat.identity(2, modulus)
        for _ in range(1000):
            m = special_word(rng, modulus)
            assert m.det() == 1
            inv = m.inverse()
            assert m * inv == one and inv * m == one


def test_reduce_examples_and_homomorphism():
    assert reduce_mod(imat((1, 9), (0, 1)), M9) == ModMat.identity(2, M9)
    assert reduce_mod(imat((1, 3), (0, 1)), M9) == mmat(M9, (1, 3), (0, 1))
    assert reduce_mod(imat((-1, 0), (0, -1)), M9) == mmat(M9, (8, 0), (0, 8))
    rng = random.Random("reducehom")
    for _ in range(300):
        a = special_word(rng)
        b = special_word(rng)
        assert reduce_mod(a * b, M27) == reduce_mod(a, M27) * reduce_mod(b, M27)


def test_special_tag_preserved():
    rng = random.Random("special")
    for _ in range(100):
        a, b = special_word(rng), special_word(rng)
        assert a.is_special and b.is_special and (a * b).is_special
        assert reduce_mod(a, M9).is_special


def test_psl_examples():
    m = mmat(M9, (1, 3), (0, 1))
    assert psl_class(m) == psl_class(-m)
    assert psl_class(mmat(M9, (8, 0), (0, 8))) == psl_class(ModMat.identity(2, M9))
    # characteristic 2: the sign quotient is injective on the 6 matrices
    m2 = Modulus(2, 1)
    seen = set()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    mat = mmat(m2, (a, b), (c, d))
                    if mat.det() == 1:
                        seen.add(psl_class(mat))
    assert len(seen) == 6
    with pytest.raises(MatrixError):
        psl_class(mmat(M9, (2, 0), (0, 2)))


def test_psl_class_constructor_normalises_and_checks():
    deep = Modulus(3, 6)
    minus_i = mmat(deep, (-1, 0), (0, -1))
    # either sign builds the same class, hashed alike
    assert PslClass(minus_i) == psl_class(minus_i) == PslClass(ModMat.identity(2, deep))
    assert hash(PslClass(minus_i)) == hash(PslClass.identity(2, deep))
    assert PslClass(minus_i).rep == ModMat.identity(2, deep)
    m = mmat(M9, (8, 6), (0, 8))
    assert PslClass(m) == PslClass(-m) and PslClass(m).rep == -m
    with pytest.raises(MatrixError):
        PslClass(mmat(deep, (28, 0), (0, 1)))


def test_psl_product_well_defined():
    rng = random.Random("pslprod")
    for _ in range(300):
        a = special_word(rng, M27)
        b = special_word(rng, M27)
        expected = psl_class(a * b)
        for sa in (a, -a):
            for sb in (b, -b):
                assert psl_class(sa) * psl_class(sb) == expected


@settings(max_examples=60)
@given(elementary_steps, elementary_steps, elementary_steps)
def test_associativity(s1, s2, s3):
    a, b, c = (build_special(s, M27) for s in (s1, s2, s3))
    assert (a * b) * c == a * (b * c)
    ai, bi, ci = (build_special(s) for s in (s1, s2, s3))
    assert (ai * bi) * ci == ai * (bi * ci)


def test_det_bareiss_matches_cofactor():
    rng = random.Random("bareiss")
    from filtra.exactmat import _det_bareiss, _det_cofactor

    for n in (2, 3, 4, 5, 6):
        for _ in range(30):
            rows = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            assert _det_bareiss(rows) == _det_cofactor(rows)


def test_pow_and_neg():
    a = imat((1, 3), (0, 1))
    assert a ** 4 == imat((1, 12), (0, 1))
    assert a ** 0 == IntMat.identity(2)
    assert a ** -2 == imat((1, -6), (0, 1))
    assert -mmat(M9, (1, 0), (0, 1)) == mmat(M9, (8, 0), (0, 8))


def test_parse_format_roundtrip():
    text = "1,3;0,1"
    assert format_matrix(parse_matrix(text)) == text
    assert parse_matrix(text, M9) == mmat(M9, (1, 3), (0, 1))
    assert format_matrix(parse_matrix("-1,0;0,-1", M9)) == "8,0;0,8"
    with pytest.raises(MatrixError):
        parse_matrix("1,x;0,1")
    with pytest.raises(DimensionMismatch):
        parse_matrix("1,2,3;4,5,6")


# -- differential test: n = 2 closed forms against the generic n x n paths ---

def _sl2_word(rng, length):
    out = ((1, 0), (0, 1))
    for _ in range(length):
        c = rng.randint(-50, 50)
        step = ((1, c), (0, 1)) if rng.random() < 0.5 else ((1, 0), (c, 1))
        out = _mat_mul_n(out, step, 2)
    return out


def _assert_validated(x):
    # an arithmetic result must equal its fully validated re-construction
    if isinstance(x, IntMat):
        assert IntMat(x.entries) == x
    else:
        m = x.modulus.m
        assert all(0 <= e < m for row in x.entries for e in row)
        assert ModMat(x.entries, x.modulus) == x
    assert type(x.entries) is tuple and all(type(row) is tuple for row in x.entries)


def test_closed_forms_match_generic_2x2():
    rng = random.Random("closed-forms")
    moduli = [None] + [Modulus(p, r) for p in (2, 3, 5) for r in range(1, 5)]
    for k in range(200):
        modulus = moduli[k % len(moduli)]
        a, b = _sl2_word(rng, rng.randint(0, 8)), _sl2_word(rng, rng.randint(0, 8))
        if rng.random() < 0.25:
            a = _mat_mul_n(a, ((0, 1), (1, 0)), 2)   # det -1
        assert _mat_mul(a, b, 2) == _mat_mul_n(a, b, 2)
        assert _det(a) == _det_n(a) == _det_bareiss(a)
        assert _adjugate(a) == _adjugate_n(a)
        if modulus is None:
            x, y = IntMat(a), IntMat(b)
            expected_inv = IntMat(_adjugate_n(a)) if _det_n(a) == 1 else -IntMat(_adjugate_n(a))
            expected_prod = IntMat(_mat_mul_n(a, b, 2))
        else:
            x, y = ModMat(a, modulus), ModMat(b, modulus)
            dinv = pow(_det_n(a), -1, modulus.m)
            expected_inv = ModMat(tuple(tuple(dinv * e for e in row) for row in _adjugate_n(a)), modulus)
            expected_prod = ModMat(_mat_mul_n(a, b, 2), modulus)
        assert x.det() == (_det_n(a) if modulus is None else _det_n(a) % modulus.m)
        results = [x * y, x.inverse(), -x, x ** 3, x ** -2]
        assert results[0] == expected_prod
        assert results[1] == expected_inv
        assert x * results[1] == (IntMat.identity(2) if modulus is None else ModMat.identity(2, modulus))
        for z in results:
            _assert_validated(z)


def test_generic_path_results_validated():
    rng = random.Random("generic-nxn")
    for modulus in (None, Modulus(2, 2), Modulus(3, 2)):
        for _ in range(20):
            rows = tuple(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3))
            x = IntMat(rows) if modulus is None else ModMat(rows, modulus)
            _assert_validated(x * x)
            _assert_validated(-x)
        unit = IntMat(((1, 2, 0), (0, 1, 0), (3, 0, 1)))
        if modulus is None:
            u, one = unit, IntMat.identity(3)
        else:
            u, one = reduce_mod(unit, modulus), ModMat.identity(3, modulus)
        _assert_validated(u.inverse())
        assert u * u.inverse() == one


def test_fast_paths_keep_their_errors():
    with pytest.raises(DimensionMismatch):
        IntMat.identity(2) * IntMat.identity(3)
    with pytest.raises(DimensionMismatch):
        ModMat.identity(3, M9) * ModMat.identity(2, M9)
    with pytest.raises(ModulusMismatch):
        mmat(M9, (1, 3), (0, 1)) * mmat(M27, (1, 3), (0, 1))
    with pytest.raises(NonInvertible):
        imat((2, 1), (1, 2)).inverse()
    with pytest.raises(NonInvertible):
        mmat(Modulus(5, 2), (5, 1), (0, 5)).inverse()
    with pytest.raises(NonInvertible):
        (imat((1, 0), (0, 1)) * imat((2, 0), (0, 1))).inverse()

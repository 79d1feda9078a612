import random

import pytest
from hypothesis import given, settings, strategies as st

from filtra.exactmat import (
    DimensionMismatch,
    Mat,
    MatrixError,
    Modulus,
    ModulusMismatch,
    NonInvertible,
    format_matrix,
    parse_matrix,
)
from filtra.exactmat import (
    _adjugate, _adjugate_n, _det, _det_bareiss, _flat_mul, _flat_mul_z, _flat_pow, _mat_mul, _sign_normal,
)

M9 = Modulus(3, 2)
M27 = Modulus(3, 3)


def imat(*entries):
    return Mat(entries)


def mmat(modulus, *entries):
    return Mat(entries, modulus)


# -- elementary-word strategies for special (det 1) matrices -----------------

def special_word(rng, modulus=None, length=6):
    out = Mat.identity(2, modulus)
    for _ in range(length):
        c = rng.randint(-4, 4)
        entries = (1, c, 0, 1) if rng.random() < 0.5 else (1, 0, c, 1)
        out = out * Mat(entries, modulus)
    return out


elementary_steps = st.lists(
    st.tuples(st.booleans(), st.integers(-3, 3)), min_size=0, max_size=6
)


def build_special(steps, modulus=None):
    out = Mat.identity(2, modulus)
    for upper, c in steps:
        entries = (1, c, 0, 1) if upper else (1, 0, c, 1)
        out = out * Mat(entries, modulus)
    return out


def test_modulus_validation():
    assert Modulus(3, 2).m == 9
    with pytest.raises(ValueError):
        Modulus(4, 1)
    with pytest.raises(ValueError):
        Modulus(3, 0)
    with pytest.raises(ValueError):
        Modulus(1 << 21, 1)
    # only exact integers: Modulus(3.0, 2) would build m = 9.0 and print float entries
    for p, r in ((3.0, 2), (3.0, 1), (3, 2.0), (3, "2")):
        with pytest.raises(ValueError, match="prime below 2|exponent must be an integer"):
            Modulus(p, r)


def test_mul_identity_and_examples():
    a1 = imat(1, 3, 0, 1)
    assert Mat.identity(2) * a1 == a1
    assert a1 * a1 == imat(1, 6, 0, 1)
    # the mixed product lands on the diagonal coset representative mod 9
    b1 = mmat(M9, 1, 0, 3, 1)
    c1 = mmat(M9, 4, 3, -3, -2)
    a1m = mmat(M9, 1, 3, 0, 1)
    assert b1 * c1 * a1m.inverse() == mmat(M9, 4, 0, 0, 7)
    assert a1m * a1m == mmat(M9, 1, 6, 0, 1)
    assert a1m * a1m * a1m == Mat.identity(2, M9)


def test_mul_dimension_and_modulus_errors():
    with pytest.raises(DimensionMismatch):
        imat(1, 0, 0, 1) * Mat.identity(3)
    with pytest.raises(ModulusMismatch):
        Mat.identity(2, M9) * Mat.identity(2, M27)
    # Z and Z/p^r are two rings too
    with pytest.raises(ModulusMismatch):
        Mat.identity(2) * Mat.identity(2, M9)


def test_inverse_examples():
    assert Mat.identity(2).inverse() == Mat.identity(2)
    a = imat(1, 3, 0, 1)
    assert a.inverse() == imat(1, -3, 0, 1)
    am = mmat(M9, 1, 3, 0, 1)
    inv = am.inverse()
    assert inv == mmat(M9, 1, 6, 0, 1)
    assert am * inv == Mat.identity(2, M9)
    assert inv * am == Mat.identity(2, M9)
    # only determinant one is inverted: not det -1 over Z, nor the unit det 2 mod 9
    flip = imat(0, 1, 1, 0)
    with pytest.raises(NonInvertible):
        flip.inverse()
    with pytest.raises(NonInvertible):
        mmat(M9, 2, 0, 0, 1).inverse()
    with pytest.raises(NonInvertible):
        imat(2, 0, 0, 2).inverse()
    with pytest.raises(NonInvertible):
        mmat(M9, 3, 0, 0, 3).inverse()


def test_inverse_two_sided_many_random():
    # 1000 random special matrices per modulus, exact two-sided inverses
    for modulus in (M9, M27, Modulus(2, 3), Modulus(5, 2)):
        rng = random.Random("inv:%s" % modulus)
        one = Mat.identity(2, modulus)
        for _ in range(1000):
            m = special_word(rng, modulus)
            assert m.det() == 1
            inv = m.inverse()
            assert m * inv == one and inv * m == one


def test_inverse_is_kept_and_invisible():
    # a matrix is inverted once: its inverse is kept, keeps the matrix as its
    # own inverse, and equals a fresh inverse; equality, hash and repr do
    # not see what is kept
    for modulus in (None, M9, Modulus(2, 2)):
        for entries in ((1, 3, 0, 1), (1, 2, 0, 0, 1, 0, 3, 0, 1)):
            a, twin = Mat(entries, modulus), Mat(entries, modulus)
            inv = a.inverse()
            assert a.inverse() is inv and inv.inverse() is a
            assert inv == Mat(entries, modulus).inverse()
            assert a == twin and hash(a) == hash(twin) and repr(a) == repr(twin)
            assert repr(inv) == repr(Mat(inv.entries, modulus))


def test_reduce_examples_and_homomorphism():
    # reducing mod p^r is re-reading the entries over the smaller ring
    assert Mat(imat(1, 9, 0, 1).entries, M9) == Mat.identity(2, M9)
    assert Mat(imat(1, 3, 0, 1).entries, M9) == mmat(M9, 1, 3, 0, 1)
    assert Mat(imat(-1, 0, 0, -1).entries, M9) == mmat(M9, 8, 0, 0, 8)
    rng = random.Random("reducehom")
    for _ in range(300):
        a = special_word(rng)
        b = special_word(rng)
        assert Mat((a * b).entries, M27) == Mat(a.entries, M27) * Mat(b.entries, M27)


def test_special_tag_preserved():
    rng = random.Random("special")
    for _ in range(100):
        a, b = special_word(rng), special_word(rng)
        assert a.det() == 1 and b.det() == 1 and (a * b).det() == 1
        assert Mat(a.entries, M9).det() == 1


def test_psl_examples():
    m = (1, 3, 0, 1)
    assert _sign_normal(m) == _sign_normal((-1, -3, 0, -1)) == (-1, -3, 0, -1)
    assert _sign_normal((-1, 0, 0, -1)) == _sign_normal((1, 0, 0, 1))
    assert _sign_normal((0, 1, -1, 0)) == (0, -1, 1, 0)


def test_psl_product_well_defined():
    rng = random.Random("pslprod")
    for _ in range(300):
        a = special_word(rng).entries
        b = special_word(rng).entries
        expected = _sign_normal(_flat_mul_z(a, b))
        for sa in (a, tuple(-e for e in a)):
            for sb in (b, tuple(-e for e in b)):
                assert _sign_normal(_flat_mul_z(sa, sb)) == expected


@settings(max_examples=60)
@given(elementary_steps, elementary_steps, elementary_steps)
def test_associativity(s1, s2, s3):
    a, b, c = (build_special(s, M27) for s in (s1, s2, s3))
    assert (a * b) * c == a * (b * c)
    ai, bi, ci = (build_special(s) for s in (s1, s2, s3))
    assert (ai * bi) * ci == ai * (bi * ci)


def _det_cofactor(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for c in range(n):
        minor = [row[:c] + row[c + 1:] for row in rows[1:]]
        term = rows[0][c] * _det_cofactor(minor)
        total += term if c % 2 == 0 else -term
    return total


def test_det_bareiss_matches_cofactor():
    rng = random.Random("bareiss")
    for n in (2, 3, 4, 5, 6):
        for _ in range(30):
            entries = tuple(rng.randint(-9, 9) for _ in range(n * n))
            rows = [entries[i:i + n] for i in range(0, n * n, n)]
            assert _det_bareiss(entries) == _det_cofactor(rows)


def test_flat_pow():
    a = (1, 3, 0, 1)
    assert _flat_pow(a, 4, 9) == (1, 3, 0, 1)
    assert _flat_pow(a, 4, 100) == (1, 12, 0, 1)
    assert _flat_pow(a, 0, 9) == (1, 0, 0, 1)


def test_parse_format_roundtrip():
    text = "1,3;0,1"
    assert format_matrix(parse_matrix(text).entries) == str(parse_matrix(text)) == text
    assert parse_matrix(text, M9) == mmat(M9, 1, 3, 0, 1)
    assert format_matrix(parse_matrix("-1,0;0,-1", M9).entries) == "8,0;0,8"
    with pytest.raises(MatrixError):
        parse_matrix("1,x;0,1")
    with pytest.raises(DimensionMismatch):
        parse_matrix("1,2,3;4,5,6")
    # four entries in ragged rows are not read as a 2x2 matrix
    for ragged in ("1,2,3;4", "1;2,3,4"):
        with pytest.raises(DimensionMismatch):
            parse_matrix(ragged)


def test_format_parse_roundtrip_every_size():
    rng = random.Random("roundtrip")
    for n in range(1, 6):
        for _ in range(20):
            rows = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
            text = ";".join(",".join(str(e) for e in row) for row in rows)
            a = parse_matrix(text)
            assert a.n == n and a.entries == tuple(e for row in rows for e in row)
            assert format_matrix(a.entries) == str(a) == text


def test_constructor_takes_only_flat_square_entries():
    for entries in ((), (1, 2, 3), (1, 0, 0, 0, 1)):
        with pytest.raises(DimensionMismatch):
            Mat(entries)
    # rows nested as tuples are refused, never read as a smaller matrix
    with pytest.raises(DimensionMismatch):
        Mat(((1, 0), (0, 1)))
    with pytest.raises(DimensionMismatch):
        Mat(((1, 0), (0, 1)), M9)
    for nested in (((5,),), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))):
        with pytest.raises(MatrixError):
            Mat(nested)
    for bad in ((1, 0, 0, 1.0), (1, "0", 0, 1), (1, None, 0, 1)):
        with pytest.raises(MatrixError):
            Mat(bad)
    assert Mat([1, 2, 3, 4]).entries == (1, 2, 3, 4) and Mat((7,)).n == 1


# -- differential test: n = 2 closed forms against the generic n x n paths ---

def _sl2_word(rng, length):
    out = (1, 0, 0, 1)
    for _ in range(length):
        c = rng.randint(-50, 50)
        step = (1, c, 0, 1) if rng.random() < 0.5 else (1, 0, c, 1)
        out = _mat_mul(out, step)
    return out


def _assert_validated(x):
    # an arithmetic result must equal its fully validated re-construction
    if x.modulus is not None:
        m = x.modulus.m
        assert all(0 <= e < m for e in x.entries)
    assert Mat(x.entries, x.modulus) == x
    assert type(x.entries) is tuple and all(type(e) is int for e in x.entries)


def test_closed_forms_match_generic_2x2():
    rng = random.Random("closed-forms")
    moduli = [None] + [Modulus(p, r) for p in (2, 3, 5) for r in range(1, 5)]
    for k in range(200):
        modulus = moduli[k % len(moduli)]
        a, b = _sl2_word(rng, rng.randint(0, 8)), _sl2_word(rng, rng.randint(0, 8))
        if rng.random() < 0.25:
            a = _mat_mul(a, (0, 1, 1, 0))   # det -1
        # the flat kernel against the generic n x n loop, over Z and mod m
        product = _mat_mul(a, b)
        assert _flat_mul_z(a, b) == product
        if modulus is not None:
            assert _flat_mul(a, b, modulus.m) == tuple(e % modulus.m for e in product)
        det = _det_bareiss(a)
        assert _det(a) == det
        assert _adjugate(a) == _adjugate_n(a)
        x, y = Mat(a, modulus), Mat(b, modulus)
        expected_prod = Mat(product, modulus)
        assert x.det() == (det if modulus is None else det % modulus.m)
        results = [x * y]
        assert results[0] == expected_prod
        if x.det() != 1:
            # a det -1 draw (mod 2 its determinant is 1, and it is inverted)
            with pytest.raises(NonInvertible):
                x.inverse()
        else:
            results.append(x.inverse())
            assert results[1] == Mat(_adjugate_n(a), modulus)
            assert x * results[1] == Mat.identity(2, modulus)
        if modulus is not None:
            m = modulus.m
            cube = _flat_mul(_flat_mul(x.entries, x.entries, m), x.entries, m)
            assert _flat_pow(x.entries, 3, m) == cube == (x * x * x).entries
        for z in results:
            _assert_validated(z)


def test_generic_path_results_validated():
    rng = random.Random("generic-nxn")
    for modulus in (None, Modulus(2, 2), Modulus(3, 2)):
        for _ in range(20):
            x = Mat(tuple(rng.randint(-9, 9) for _ in range(9)), modulus)
            _assert_validated(x * x)
        u, one = Mat((1, 2, 0, 0, 1, 0, 3, 0, 1), modulus), Mat.identity(3, modulus)
        _assert_validated(u.inverse())
        assert u * u.inverse() == one


def test_fast_paths_keep_their_errors():
    with pytest.raises(DimensionMismatch):
        Mat.identity(2) * Mat.identity(3)
    with pytest.raises(DimensionMismatch):
        Mat.identity(3, M9) * Mat.identity(2, M9)
    with pytest.raises(ModulusMismatch):
        mmat(M9, 1, 3, 0, 1) * mmat(M27, 1, 3, 0, 1)
    with pytest.raises(NonInvertible):
        imat(2, 1, 1, 2).inverse()
    with pytest.raises(NonInvertible):
        mmat(Modulus(5, 2), 5, 1, 0, 5).inverse()
    with pytest.raises(NonInvertible):
        (imat(1, 0, 0, 1) * imat(2, 0, 0, 1)).inverse()


# -- the value contract of a Mat ----------------------------------------------

@pytest.mark.parametrize("modulus", [None, M9])
@pytest.mark.parametrize("entries, over_z, mod_9", [
    ((10,), "10", "1"), ((1, 3, 0, 1), "1,3;0,1", "1,3;0,1"),
    ((1, 2, 0, 0, 1, 10, 3, 0, 1), "1,2,0;0,1,10;3,0,1", "1,2,0;0,1,1;3,0,1"),
])
def test_value_contract(modulus, entries, over_z, mod_9):
    a, twin = Mat(entries, modulus), Mat(list(entries), modulus)
    assert a == twin and hash(a) == hash(twin)
    assert a != Mat(entries, M27 if modulus is None else None)
    assert str(a) == (over_z if modulus is None else mod_9)
    for field in ("entries", "modulus"):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(twin, field))
    for refused in (lambda: a + twin, lambda: 3 * a, lambda: a * 3, lambda: (0,) + a, lambda: a + (0,),
                    lambda: a < twin, lambda: a <= twin, lambda: a > twin, lambda: a >= twin,
                    lambda: sorted([a, twin])):
        with pytest.raises(TypeError):
            refused()

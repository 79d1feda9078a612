import random

import pytest

from filtra.exactmat import Mat, Modulus
from filtra.linrep import (
    DeltaElem,
    LinRepError,
    act,
    ball_injectivity,
    center_scalars,
    delta_eq_mod_center,
    delta_identity,
    delta_mul,
    is_scalar,
    random_sl,
    rho,
    verify_faithful,
)

M9 = Modulus(3, 2)
A1 = Mat((1, 3, 0, 1), M9)
B1 = Mat((1, 0, 3, 1), M9)
I2 = Mat.identity(2, M9)


def matrix_unit(n, k, l, modulus):
    return Mat(tuple(1 if (i, j) == (k, l) else 0 for i in range(n) for j in range(n)), modulus)


def delta_inv(u):
    """(alpha, x)^-1 = (alpha^-1, alpha x^-1 alpha^-1)."""
    ainv = u.gamma.inverse()
    return DeltaElem(ainv, u.gamma * u.y.inverse() * ainv)


def verify_action(u, v, mats):
    """Check (u v)(M) = u(v(M)) pointwise on the given test matrices."""
    uv = delta_mul(u, v)
    failures = sum(1 for m in mats if act(uv, m) != act(u, act(v, m)))
    return {"samples": len(mats), "failures": failures, "ok": failures == 0}


def test_delta_mul_examples():
    u = DeltaElem(A1, B1)
    assert delta_mul(delta_identity(2, M9), u) == u
    v = DeltaElem(B1, A1)
    prod = delta_mul(u, v)
    assert prod.gamma == A1 * B1
    assert prod.y == B1.inverse() * B1 * B1 * A1  # beta^-1 x beta y with x = B1, beta = B1
    inv = delta_inv(u)
    assert inv == DeltaElem(A1.inverse(), A1 * B1.inverse() * A1.inverse())
    assert delta_mul(u, inv) == delta_identity(2, M9)
    assert delta_mul(inv, u) == delta_identity(2, M9)


def test_delta_backend_mismatch():
    with pytest.raises(LinRepError):
        DeltaElem(A1, Mat.identity(2))
    with pytest.raises(LinRepError):
        DeltaElem(A1, Mat.identity(3, M9))
    with pytest.raises(LinRepError):
        DeltaElem(A1, Mat.identity(2, Modulus(3, 3)))


def test_rho_identity_and_columns():
    assert rho(delta_identity(2, M9)) == Mat.identity(4, M9)
    u = DeltaElem(A1, I2)
    mat = rho(u)
    for k in range(2):
        for l in range(2):
            e = matrix_unit(2, k, l, M9)
            image = A1 * e * A1.inverse()
            col = k * 2 + l
            assert mat.entries[col::4] == image.entries


def test_rho_golden_matrix():
    # row-major matrix-unit ordering pins the 4x4 matrix bit-exactly
    u = DeltaElem(A1, B1)
    expected = (
        1, 0, 3, 0,
        6, 1, 0, 3,
        3, 0, 1, 0,
        0, 3, 6, 1,
    )
    assert rho(u).entries == expected


def test_rho_at_identity_matrix_detects_y():
    u = DeltaElem(A1, B1)
    assert act(u, I2) == A1 * B1 * A1.inverse()
    assert act(u, I2) != I2
    v = DeltaElem(A1, I2)
    assert act(v, I2) == I2


def test_left_action_order_regression():
    # (u v)(M) = u(v(M)); the other composition order disagrees on this witness
    u = DeltaElem(Mat((3, 8, 7, 1), M9), Mat((3, 7, 8, 7), M9))
    v = DeltaElem(Mat((1, 6, 2, 4), M9), Mat((1, 2, 0, 1), M9))
    m = Mat((1, 2, 6, 4), M9)
    uv = delta_mul(u, v)
    assert act(uv, m) == act(u, act(v, m))
    assert act(uv, m) != act(v, act(u, m))
    assert rho(uv) == rho(u) * rho(v)


def test_verify_action_batches():
    rng = random.Random("linrep-action")
    mats = [random_sl(2, M9, rng) for _ in range(500)]
    u = DeltaElem(random_sl(2, M9, rng), random_sl(2, M9, rng))
    v = DeltaElem(random_sl(2, M9, rng), random_sl(2, M9, rng))
    assert verify_action(u, v, mats)["ok"]
    # integral backend: entries built from words in the level-3 unipotents
    from filtra.filtration import flat_congruence_basis

    a, b, _ = (Mat(x) for x in flat_congruence_basis(3, 1))
    gens = [a, b, a.inverse(), b.inverse()]

    def word():
        out = Mat.identity(2)
        for _ in range(rng.randint(1, 5)):
            out = out * rng.choice(gens)
        return out

    ints = [word() for _ in range(100)]
    ui = DeltaElem(word(), word())
    vi = DeltaElem(word(), word())
    assert verify_action(ui, vi, ints)["ok"]


def test_delta_mul_associative_on_samples():
    rng = random.Random("delta-assoc")
    for _ in range(200):
        u, v, w = (
            DeltaElem(random_sl(2, M9, rng), random_sl(2, M9, rng)) for _ in range(3)
        )
        assert delta_mul(delta_mul(u, v), w) == delta_mul(u, delta_mul(v, w))


def test_scalar_commutation_equivalence():
    # rho(gamma, I) is the identity exactly when gamma commutes with every
    # matrix unit, i.e. when gamma is scalar
    rng = random.Random("scalar-comm")
    ident = rho(delta_identity(2, M9))
    units = [matrix_unit(2, k, l, M9) for k in range(2) for l in range(2)]
    for _ in range(100):
        g = random_sl(2, M9, rng)
        fixes_units = all(g * e == e * g for e in units)
        assert fixes_units == is_scalar(g)
        assert (rho(DeltaElem(g, I2)) == ident) == fixes_units


def test_center_scalars():
    assert center_scalars(2, M9) == [1, 8]
    assert center_scalars(2, Modulus(3, 3)) == [1, 26]
    assert center_scalars(3, Modulus(2, 2)) == [1]
    assert center_scalars(2, None) == [1, -1]
    assert center_scalars(3, None) == [1]


def test_scalar_center_probes():
    for lam in center_scalars(2, M9):
        probe = DeltaElem(Mat((lam, 0, 0, lam), M9), I2)
        assert rho(probe) == Mat.identity(4, M9)
        assert is_scalar(probe.gamma)
        assert delta_eq_mod_center(probe, delta_identity(2, M9), center_scalars(2, M9))


def test_verify_faithful_small():
    for n, modulus in ((2, M9), (2, Modulus(3, 3)), (3, Modulus(2, 2))):
        report = verify_faithful(n, modulus, 120, seed=5)
        assert report["ok"], report
        assert report["hom_failures"] == 0
        assert report["kernel_probes"]["violations"] == 0


def test_ball_injectivity_small():
    report = ball_injectivity(3, 1, 3, radius=2, seed=3)
    assert report["ok"] and report["collisions"] == 0
    # 37 elements: all 1,369 pairs are under the pair cap and checked
    assert report["ball_size"] == 37 and report["pairs"] == 37 ** 2


def test_delta_rejects_non_sl_components():
    with pytest.raises(LinRepError):
        DeltaElem(Mat((2, 0, 0, 1), M9), I2)
    with pytest.raises(LinRepError):
        DeltaElem(I2, Mat((1, 1, 0, 4), M9))
    with pytest.raises(LinRepError):
        DeltaElem(Mat((-1, 0, 0, 1)), Mat.identity(2))
    assert DeltaElem(Mat((8, 0, 0, 8), M9), I2).gamma.det() == 1

import pytest

from filtra.exactmat import IntMat, Modulus, ModMat
from filtra.filtration import congruence_basis
from filtra.freegroup import Word, poison_action
from filtra.holomorph import (
    BackendMismatch,
    FreeGroupAction,
    MatrixConjugation,
    SemiElem,
    comm_via_mul,
    conj_via_mul,
    semi_comm,
    semi_conj,
    semi_eq,
    semi_id,
    semi_inv,
    semi_mul,
    verify_holomorph_identities,
)

M9 = Modulus(3, 2)
A1 = ModMat(((1, 3), (0, 1)), M9)
B1 = ModMat(((1, 0), (3, 1)), M9)
I2 = ModMat.identity(2, M9)
ACT = MatrixConjugation(I2, I2)
TRIV = MatrixConjugation(I2, I2, trivial=True)


def test_trivial_action_is_direct_product():
    a, b = SemiElem(A1, B1), SemiElem(B1, A1)
    prod = semi_mul(a, b, TRIV)
    assert prod.f == A1 * B1 and prod.x == B1 * A1


def test_identity_element():
    b = SemiElem(A1, B1)
    assert semi_eq(semi_mul(semi_id(ACT), b, ACT), b, ACT)
    assert semi_eq(semi_mul(b, semi_id(ACT), ACT), b, ACT)


def test_semi_mul_conjugation_example():
    # (A1, B1) * (A1, B1) = (A1^2, A1^-1 B1 A1 * B1), evaluated exactly
    prod = semi_mul(SemiElem(A1, B1), SemiElem(A1, B1), ACT)
    assert prod.f == A1 * A1
    assert prod.x == A1.inverse() * B1 * A1 * B1


def test_semi_inv_examples():
    assert semi_inv(SemiElem(I2, B1), ACT) == SemiElem(I2, B1.inverse())
    assert semi_inv(SemiElem(A1, I2), ACT) == SemiElem(A1.inverse(), I2)
    a = SemiElem(A1, B1)
    inv = semi_inv(a, ACT)
    assert inv == SemiElem(A1.inverse(), A1 * B1.inverse() * A1.inverse())
    assert semi_eq(semi_mul(a, inv, ACT), semi_id(ACT), ACT)
    assert semi_eq(semi_mul(inv, a, ACT), semi_id(ACT), ACT)


def test_semi_conj_examples():
    a = SemiElem(A1, I2)
    b = SemiElem(I2, B1)
    assert semi_eq(semi_conj(semi_id(ACT), b, ACT), b, ACT)
    assert semi_eq(semi_conj(a, semi_id(ACT), ACT), semi_id(ACT), ACT)
    # conjugating the pi part by (f, 1) twists by f; by (f, 1)^-1 twists by f^-1
    assert semi_conj(a, b, ACT) == SemiElem(I2, A1 * B1 * A1.inverse())
    assert semi_conj(semi_inv(a, ACT), b, ACT) == SemiElem(I2, A1.inverse() * B1 * A1)
    assert semi_eq(semi_conj(a, b, ACT), conj_via_mul(a, b, ACT), ACT)


def test_semi_comm_examples():
    a = SemiElem(A1, B1)
    b = SemiElem(B1, A1)
    assert semi_eq(semi_comm(a, a, ACT), semi_id(ACT), ACT)
    assert semi_eq(semi_comm(semi_id(ACT), b, ACT), semi_id(ACT), ACT)
    assert semi_eq(semi_comm(a, b, ACT), comm_via_mul(a, b, ACT), ACT)


def test_identities_congruence_backend():
    act = MatrixConjugation(IntMat.identity(2), IntMat.identity(2), psl_pi=True)
    gens = list(congruence_basis(3, 1).values())
    report = verify_holomorph_identities(act, gens, gens, 200, seed=11)
    assert report["ok"], report


def test_identities_free_backend():
    act = FreeGroupAction(2, 3, poison_action())
    gamma_gens = [Word.generator(2, 1), Word.generator(2, 2)]
    pi_gens = [Word.generator(3, i) for i in (1, 2, 3)]
    report = verify_holomorph_identities(act, gamma_gens, pi_gens, 200, seed=11, radius=5)
    assert report["ok"], report


def test_free_action_application_order():
    act = FreeGroupAction(2, 3, poison_action())
    f = Word(2, (1, 2))          # phi1 phi2
    a3 = Word.generator(3, 3)
    # phi(f) = phi1 after phi2, so a3 -> a3 a2 -> a3 a1 a2
    assert act.apply(f, a3) == Word(3, (3, 1, 2))


def test_psl_normalization_in_equality():
    act = MatrixConjugation(I2, I2, psl_pi=True)
    x = SemiElem(A1, B1)
    y = SemiElem(A1, -B1)
    assert semi_eq(x, y, act)
    assert not semi_eq(x, y, ACT)


def test_action_axioms_both_backends():
    import random

    from filtra.holomorph import random_element

    backends = []
    gens = list(congruence_basis(3, 1).values())
    int_act = MatrixConjugation(IntMat.identity(2), IntMat.identity(2), psl_pi=True)
    backends.append((int_act, gens, gens))
    free = FreeGroupAction(2, 3, poison_action())
    backends.append((free, [Word.generator(2, 1), Word.generator(2, 2)],
                     [Word.generator(3, i) for i in (1, 2, 3)]))
    for act, ggens, pgens in backends:
        rng = random.Random("axioms")
        galpha = ggens + [act.gamma_inv(f) for f in ggens]
        palpha = pgens + [act.pi_inv(x) for x in pgens]
        for _ in range(80):
            f = random_element(galpha, act.gamma_mul, act.gamma_id(), rng, 4)
            g = random_element(galpha, act.gamma_mul, act.gamma_id(), rng, 4)
            x = random_element(palpha, act.pi_mul, act.pi_id(), rng, 4)
            assert act.pi_eq(act.apply(act.gamma_id(), x), x)
            assert act.pi_eq(act.apply(act.gamma_mul(f, g), x), act.apply(f, act.apply(g, x)))


def test_matrix_backend_needs_one_element_type():
    with pytest.raises(BackendMismatch):
        MatrixConjugation((1, 0, 0, 1), IntMat.identity(2))
    flat = MatrixConjugation((1, 0, 0, 1), (1, 0, 0, 1), psl_pi=True)
    x = (1, 3, 0, 1)
    assert flat.pi_eq(flat.apply((0, -1, 1, 0), x), (1, 0, -3, 1))
    assert flat.pi_eq(x, (-1, -3, 0, -1))

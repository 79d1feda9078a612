import threading

import pytest

from filtra.exactmat import _FLAT_ID, _flat_inv_z, _flat_mul_z
from filtra.filtration import flat_congruence_basis
from filtra.freegroup import Word, poison_action
from filtra.holomorph import (
    _LAWS,
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

class TrivialConjugation(MatrixConjugation):
    def apply(self, f, x):
        return x


A1 = (1, 3, 0, 1)
B1 = (1, 0, 3, 1)
I2 = _FLAT_ID
ACT = MatrixConjugation()
TRIV = TrivialConjugation()


def mul(*xs):
    out = I2
    for x in xs:
        out = _flat_mul_z(out, x)
    return out


inv = _flat_inv_z


def neg(x):
    return tuple(-e for e in x)


def test_trivial_action_is_direct_product():
    a, b = SemiElem(A1, B1), SemiElem(B1, A1)
    prod = semi_mul(a, b, TRIV)
    assert prod.f == mul(A1, B1) and prod.x == mul(B1, A1)
    c, d = SemiElem(I2, A1), SemiElem(B1, I2)
    assert semi_mul(c, d, TRIV).x == A1 != semi_mul(c, d, ACT).x


def test_identity_element():
    b = SemiElem(A1, B1)
    assert semi_eq(semi_mul(semi_id(ACT), b, ACT), b, ACT)
    assert semi_eq(semi_mul(b, semi_id(ACT), ACT), b, ACT)


def test_semi_mul_conjugation_example():
    # (A1, B1) * (A1, B1) = (A1^2, A1^-1 B1 A1 * B1), evaluated exactly
    prod = semi_mul(SemiElem(A1, B1), SemiElem(A1, B1), ACT)
    assert prod.f == mul(A1, A1)
    assert prod.x == mul(inv(A1), B1, A1, B1)


def test_semi_inv_examples():
    assert semi_inv(SemiElem(I2, B1), ACT) == SemiElem(I2, inv(B1))
    assert semi_inv(SemiElem(A1, I2), ACT) == SemiElem(inv(A1), I2)
    a = SemiElem(A1, B1)
    ainv = semi_inv(a, ACT)
    assert ainv == SemiElem(inv(A1), mul(A1, inv(B1), inv(A1)))
    assert semi_eq(semi_mul(a, ainv, ACT), semi_id(ACT), ACT)
    assert semi_eq(semi_mul(ainv, a, ACT), semi_id(ACT), ACT)


def test_semi_conj_examples():
    a = SemiElem(A1, I2)
    b = SemiElem(I2, B1)
    assert semi_eq(semi_conj(semi_id(ACT), b, ACT), b, ACT)
    assert semi_eq(semi_conj(a, semi_id(ACT), ACT), semi_id(ACT), ACT)
    # conjugating the pi part by (f, 1) twists by f; by (f, 1)^-1 twists by f^-1
    assert semi_conj(a, b, ACT) == SemiElem(I2, mul(A1, B1, inv(A1)))
    assert semi_conj(semi_inv(a, ACT), b, ACT) == SemiElem(I2, mul(inv(A1), B1, A1))
    assert semi_eq(semi_conj(a, b, ACT), conj_via_mul(a, b, ACT), ACT)


def test_semi_comm_examples():
    a = SemiElem(A1, B1)
    b = SemiElem(B1, A1)
    assert semi_eq(semi_comm(a, a, ACT), semi_id(ACT), ACT)
    assert semi_eq(semi_comm(semi_id(ACT), b, ACT), semi_id(ACT), ACT)
    assert semi_eq(semi_comm(a, b, ACT), comm_via_mul(a, b, ACT), ACT)


def test_identities_congruence_backend():
    gens = flat_congruence_basis(3, 1)
    report = verify_holomorph_identities(ACT, gens, gens, 200, seed=11, radius=4)
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


def test_pairs_are_immutable_values():
    a = SemiElem(A1, B1)
    assert (a.f, a.x) == (A1, B1)
    assert a == SemiElem(A1, B1) and a != SemiElem(B1, A1)
    assert hash(a) == hash(SemiElem(A1, B1))
    for name in ("f", "x", "y"):
        with pytest.raises(AttributeError):
            setattr(a, name, I2)
    assert a == SemiElem(A1, B1)


def test_psl_normalization_in_equality():
    # pi is compared up to sign, Gamma exactly
    x = SemiElem(A1, B1)
    assert semi_eq(x, SemiElem(A1, neg(B1)), ACT)
    assert not semi_eq(x, SemiElem(neg(A1), B1), ACT)


def test_action_axioms_both_backends():
    import random

    from filtra.filtration import WordSampler

    backends = []
    gens = flat_congruence_basis(3, 1)
    backends.append((ACT, gens, gens))
    free = FreeGroupAction(2, 3, poison_action())
    backends.append((free, [Word.generator(2, 1), Word.generator(2, 2)],
                     [Word.generator(3, i) for i in (1, 2, 3)]))
    for act, ggens, pgens in backends:
        rng = random.Random("axioms")
        gwords = WordSampler(ggens + [act.gamma.inv(f) for f in ggens], act.gamma.mul, 4)
        pwords = WordSampler(pgens + [act.pi.inv(x) for x in pgens], act.pi.mul, 4)
        for _ in range(80):
            (f, _), (g, _) = gwords.draw(rng, 2)
            (x, _), = pwords.draw(rng, 1)
            assert act.pi.eq(act.apply(act.gamma.identity, x), x)
            assert act.pi.eq(act.apply(act.gamma.mul(f, g), x), act.apply(f, act.apply(g, x)))


def test_matrix_backend_needs_one_element_type():
    # the flat SL2(Z) kernel is the only backend: nothing to choose
    with pytest.raises(TypeError):
        MatrixConjugation(I2, I2)
    flat = MatrixConjugation()
    x = (1, 3, 0, 1)
    assert flat.pi.eq(flat.apply((0, -1, 1, 0), x), (1, 0, -3, 1))
    assert flat.pi.eq(x, (-1, -3, 0, -1))


# -- the samples split over processes -------------------------------------------

ASSOCIATIVITY = _LAWS["associativity"]


def _matrix_run(count=200):
    gens = flat_congruence_basis(3, 1)
    return ACT, gens, gens, count, 11, 4


def _free_run(count=200):
    gamma_gens, pi_gens = [Word.generator(2, i) for i in (1, 2)], [Word.generator(3, i) for i in (1, 2, 3)]
    return FreeGroupAction(2, 3, poison_action()), gamma_gens, pi_gens, count, 11, 5


#: backend -> (its run, an associativity law that also fails on a subset of
#: the draws, that law's failures at one process before the split)
_DRAWN_FAULTS = {
    "matrix": (_matrix_run, lambda act, a, b, c: (a.f[1] + b.x[2]) % 5 != 0 and ASSOCIATIVITY(act, a, b, c), 52),
    "free": (_free_run, lambda act, a, b, c: a.f.letters[:1] != (2,) and ASSOCIATIVITY(act, a, b, c), 53),
}


@pytest.mark.parametrize("backend", sorted(_DRAWN_FAULTS))
def test_split_samples_keep_the_stream(monkeypatch, on_cpus, backend):
    # every process makes every draw of the one seeded stream and builds only
    # its own samples: a law that fails on some draws fails as often on 1, 2,
    # 3 and 4 processes, as often as before the split, so a reseeded, shifted
    # or misadvanced share would show
    make, law, failures = _DRAWN_FAULTS[backend]
    monkeypatch.setitem(_LAWS, "associativity", law)
    for cpus in (1, 2, 3, 4):
        report, processes = on_cpus(cpus, verify_holomorph_identities, *make())
        counts = {check["id"]: check["failures"] for check in report["checks"]}
        assert processes == cpus
        assert counts == {**dict.fromkeys(_LAWS, 0), "associativity": failures} and not report["ok"]


@pytest.mark.parametrize("owner", [0, 1])
def test_a_law_error_reaches_the_caller(monkeypatch, on_cpus, owner):
    # of two samples on two processes, this one checks the first and a child
    # the second: a law that raises on either raises here, as in one
    # process, and leaves no child behind
    seen = []
    monkeypatch.setitem(_LAWS, "inverse_formula", lambda act, a, b, c: seen.append(a) or True)
    on_cpus(1, verify_holomorph_identities, *_matrix_run(2))
    assert len(seen) == 2 and seen[0] != seen[1]

    def law(act, a, b, c):
        if a == seen[owner]:
            raise ValueError("law fault")
        return True

    monkeypatch.setitem(_LAWS, "inverse_formula", law)
    for cpus in (1, 2):
        with pytest.raises(ValueError, match="law fault"):
            on_cpus(cpus, verify_holomorph_identities, *_matrix_run(2))


def test_a_second_thread_keeps_one_process(on_cpus):
    # a forked child would hold only the calling thread, so the laws are
    # checked in this process while another thread is alive
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        report, processes = on_cpus(4, verify_holomorph_identities, *_free_run(40))
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert processes == 1
    assert report == on_cpus(4, verify_holomorph_identities, *_free_run(40))[0]

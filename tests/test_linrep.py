import random
import threading

import pytest

import filtra.linrep
from filtra.exactmat import Mat, Modulus
from filtra.holomorph import _LAWS, semi_eq, semi_id, semi_inv, semi_mul
from filtra.linrep import (
    LinRepError,
    RingConjugation,
    act,
    ball_injectivity,
    center_scalars,
    pair,
    random_sl,
    rho,
    verify_faithful,
)

M9 = Modulus(3, 2)
A1 = Mat((1, 3, 0, 1), M9)
B1 = Mat((1, 0, 3, 1), M9)
I2 = Mat.identity(2, M9)
CONJ = RingConjugation(2, M9)


def matrix_unit(n, k, l, modulus):
    return Mat(tuple(1 if (i, j) == (k, l) else 0 for i in range(n) for j in range(n)), modulus)


def verify_action(u, v, mats, conj):
    """Check (u v)(M) = u(v(M)) pointwise on the given test matrices."""
    uv = semi_mul(u, v, conj)
    failures = sum(1 for m in mats if act(uv, m) != act(u, act(v, m)))
    return {"samples": len(mats), "failures": failures, "ok": failures == 0}


def test_pair_product_examples():
    u = pair(A1, B1)
    assert semi_mul(semi_id(CONJ), u, CONJ) == u
    v = pair(B1, A1)
    prod = semi_mul(u, v, CONJ)
    assert prod.f == A1 * B1
    assert prod.x == B1.inverse() * B1 * B1 * A1  # beta^-1 x beta y with x = B1, beta = B1
    # (alpha, x)^-1 = (alpha^-1, alpha x^-1 alpha^-1)
    inv = semi_inv(u, CONJ)
    assert inv == pair(A1.inverse(), A1 * B1.inverse() * A1.inverse())
    assert semi_mul(u, inv, CONJ) == semi_id(CONJ)
    assert semi_mul(inv, u, CONJ) == semi_id(CONJ)


def test_delta_backend_mismatch():
    with pytest.raises(LinRepError):
        pair(A1, Mat.identity(2))
    with pytest.raises(LinRepError):
        pair(A1, Mat.identity(3, M9))
    with pytest.raises(LinRepError):
        pair(A1, Mat.identity(2, Modulus(3, 3)))


def test_rho_identity_and_columns():
    assert rho(semi_id(CONJ)) == Mat.identity(4, M9)
    u = pair(A1, I2)
    mat = rho(u)
    for k in range(2):
        for l in range(2):
            e = matrix_unit(2, k, l, M9)
            image = A1 * e * A1.inverse()
            col = k * 2 + l
            assert mat.entries[col::4] == image.entries


def test_rho_golden_matrix():
    # row-major matrix-unit ordering pins the 4x4 matrix bit-exactly
    u = pair(A1, B1)
    expected = (
        1, 0, 3, 0,
        6, 1, 0, 3,
        3, 0, 1, 0,
        0, 3, 6, 1,
    )
    assert rho(u).entries == expected


def test_rho_at_identity_matrix_detects_y():
    u = pair(A1, B1)
    assert act(u, I2) == A1 * B1 * A1.inverse()
    assert act(u, I2) != I2
    v = pair(A1, I2)
    assert act(v, I2) == I2


def test_left_action_order_regression():
    # (u v)(M) = u(v(M)); the other composition order disagrees on this witness
    u = pair(Mat((3, 8, 7, 1), M9), Mat((3, 7, 8, 7), M9))
    v = pair(Mat((1, 6, 2, 4), M9), Mat((1, 2, 0, 1), M9))
    m = Mat((1, 2, 6, 4), M9)
    uv = semi_mul(u, v, CONJ)
    assert act(uv, m) == act(u, act(v, m))
    assert act(uv, m) != act(v, act(u, m))
    assert rho(uv) == rho(u) * rho(v)


def test_verify_action_batches():
    rng = random.Random("linrep-action")
    mats = [random_sl(2, M9, rng) for _ in range(500)]
    u = pair(random_sl(2, M9, rng), random_sl(2, M9, rng))
    v = pair(random_sl(2, M9, rng), random_sl(2, M9, rng))
    assert verify_action(u, v, mats, CONJ)["ok"]
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
    ui = pair(word(), word())
    vi = pair(word(), word())
    assert verify_action(ui, vi, ints, RingConjugation(2, None))["ok"]


def test_ring_conjugation_obeys_the_holomorph_laws():
    # the seven laws of holomorph-identities, associativity among them, on
    # the rep's extension over two modular rings and over Z
    for n, modulus in ((2, M9), (3, Modulus(2, 2)), (2, None), (3, None)):
        conj = RingConjugation(n, modulus)
        rng = random.Random("ring-laws:%d:%s" % (n, modulus))
        for _ in range(100):
            a, b, c = (pair(random_sl(n, modulus, rng), random_sl(n, modulus, rng)) for _ in range(3))
            failed = [name for name, law in _LAWS.items() if not law(conj, a, b, c)]
            assert not failed, (n, modulus, failed)


def test_scalar_commutation_equivalence():
    # rho(gamma, I) is the identity exactly when gamma commutes with every
    # matrix unit, i.e. when gamma is scalar
    rng = random.Random("scalar-comm")
    ident = rho(semi_id(CONJ))
    units = [matrix_unit(2, k, l, M9) for k in range(2) for l in range(2)]
    for _ in range(100):
        g = random_sl(2, M9, rng)
        fixes_units = all(g * e == e * g for e in units)
        assert fixes_units == CONJ.gamma.eq(g, I2)
        assert (rho(pair(g, I2)) == ident) == fixes_units


def test_center_scalars():
    assert center_scalars(2, M9) == [1, 8]
    assert center_scalars(2, Modulus(3, 3)) == [1, 26]
    assert center_scalars(3, Modulus(2, 2)) == [1]
    assert center_scalars(2, None) == [1, -1]
    assert center_scalars(3, None) == [1]


def test_scalar_center_probes():
    for lam in center_scalars(2, M9):
        probe = pair(Mat((lam, 0, 0, lam), M9), I2)
        assert rho(probe) == Mat.identity(4, M9)
        assert CONJ.gamma.eq(probe.f, I2)
        assert semi_eq(probe, semi_id(CONJ), CONJ)


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
        pair(Mat((2, 0, 0, 1), M9), I2)
    with pytest.raises(LinRepError):
        pair(I2, Mat((1, 1, 0, 4), M9))
    with pytest.raises(LinRepError):
        pair(Mat((-1, 0, 0, 1)), Mat.identity(2))
    assert pair(Mat((8, 0, 0, 8), M9), I2).f.det() == 1


# -- the samples split over processes -------------------------------------------

RHO, ACT = rho, act

#: (n, ring) -> the counters hom_failures, left_action_failures and
#: kernel_probes of 120 samples at seed 5 under the draw-dependent faults of
#: ``test_split_samples_keep_the_stream``, at one process before the split
_DRAWN_FAULT_COUNTS = {
    (2, M9): (74, 23, {"center_order": 2, "hits": 33, "violations": 31}),
    (3, Modulus(2, 2)): (62, 21, {"center_order": 1, "hits": 27, "violations": 26}),
    (2, None): (72, 19, {"center_order": 2, "hits": 44, "violations": 42}),
    (3, None): (63, 28, {"center_order": 1, "hits": 28, "violations": 27}),
}


@pytest.mark.parametrize("ring", list(_DRAWN_FAULT_COUNTS), ids=["n2-mod9", "n3-mod4", "n2-Z", "n3-Z"])
def test_split_samples_keep_the_stream(monkeypatch, on_cpus, ring):
    # every process makes every draw of the one seeded stream and builds only
    # its own samples: a rho and an action that fail on some draws move all
    # four counters by as much on 1, 2, 3 and 4 processes as before the
    # split, so a reseeded, shifted or misadvanced share would show
    monkeypatch.setattr(filtra.linrep, "rho", lambda u: (
        Mat.identity(u.f.n ** 2, u.f.modulus) if u.x.entries[1] % 3 == 1 else RHO(u)))
    monkeypatch.setattr(filtra.linrep, "act", lambda u, m: m if m.entries[0] % 4 == 2 else ACT(u, m))
    for cpus in (1, 2, 3, 4):
        report, processes = on_cpus(cpus, verify_faithful, *ring, 120, 5)
        assert processes == cpus and not report["ok"]
        assert (report["hom_failures"], report["left_action_failures"], report["kernel_probes"]) == \
            _DRAWN_FAULT_COUNTS[ring]


def test_no_sample_runs_on_one_process(on_cpus):
    report, processes = on_cpus(4, verify_faithful, 2, M9, 0, 5)
    assert report["ok"] and report["samples"] == 0 and processes == 1


@pytest.mark.parametrize("owner", [0, 1])
def test_a_rho_error_reaches_the_caller(monkeypatch, on_cpus, owner):
    # of two samples on two processes, this one checks the first and a child
    # the second: a rho that raises on either sample's u raises here, as in
    # one process, and leaves no child behind.  rho sees the identity, then
    # u, v and uv of each sample
    seen = []
    monkeypatch.setattr(filtra.linrep, "rho", lambda u: seen.append(u) or RHO(u))
    on_cpus(1, verify_faithful, 2, M9, 2, 5)
    assert seen[1] != seen[4]
    target = seen[1 + 3 * owner]

    def raising(u):
        if u == target:
            raise ValueError("rho fault")
        return RHO(u)

    monkeypatch.setattr(filtra.linrep, "rho", raising)
    for cpus in (1, 2):
        with pytest.raises(ValueError, match="rho fault"):
            on_cpus(cpus, verify_faithful, 2, M9, 2, 5)


def test_a_second_thread_keeps_one_process(on_cpus):
    # a forked child would hold only the calling thread, so the samples are
    # checked in this process while another thread is alive
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        report, processes = on_cpus(4, verify_faithful, 2, M9, 40, 5)
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert processes == 1
    assert report == on_cpus(4, verify_faithful, 2, M9, 40, 5)[0]

"""Independent brute-force oracles for the delicate group computations.

These deliberately avoid the shortcuts used by the implementation (normal
closures from generating sets, p-power order climbing, canonical lifts) and
recompute the same quantities by exhaustive enumeration over all pairs.
"""

import random

import pytest

from filtra.exactmat import IntMat, Modulus, ModMat, NonInvertible, _FLAT_ID, _flat, _flat_inv_z
from filtra.filtration import (
    FiltrationSpec,
    congruence_basis,
    exact_congruence_exponent,
    kernel_enumerate,
    level_of,
)
from filtra.graded import GradedClass, basis_class, class_add, class_of, zero_class
from filtra.holomorph import MatrixConjugation


def brute_frattini_rank(table):
    """d(G) from Phi(G) generated by every p-th power and every commutator,
    with the subgroup closure done over the full generator set."""
    elems = table.elements
    gens = set()
    for x in elems:
        gens.add(table.power(x, table.p))
    for x in elems:
        xinv = table.inv(x)
        for y in elems:
            gens.add(table.mul(table.mul(x, y), table.mul(xinv, table.inv(y))))
    gens.discard(table.identity)
    frat = {table.identity}
    frontier = [table.identity]
    gens = sorted(gens)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = table.mul(cur, g)
            if nxt not in frat:
                frat.add(nxt)
                frontier.append(nxt)
    quotient = table.order // len(frat)
    d = 0
    while quotient > 1:
        quotient //= table.p
        d += 1
    return d


def brute_exponent(table):
    worst = 1
    for x in table.elements:
        k = 1
        y = x
        while y != table.identity:
            y = table.mul(y, x)
            k += 1
        worst = max(worst, k)
    return worst


def test_frattini_rank_matches_bruteforce():
    for p, i, j, family in ((3, 1, 2, "pgamma"), (3, 1, 3, "pgamma"),
                            (2, 1, 3, "gamma"), (2, 1, 2, "pgamma")):
        table = kernel_enumerate(p, i, j, family)
        assert table.minimal_generators() == brute_frattini_rank(table)


def test_exponent_matches_bruteforce():
    for p, i, j, family in ((3, 1, 2, "pgamma"), (3, 1, 3, "gamma"), (2, 1, 3, "pgamma")):
        table = kernel_enumerate(p, i, j, family)
        assert table.exponent() == brute_exponent(table)


def test_bracket_by_exhaustive_coset_pairing():
    # [A_1, B_1] = D_2 for every pair of representatives, not just the
    # canonical lifts: enumerate the whole level-1 kernel mod 27 and pick
    # the full cosets of A_1 and B_1 over the level-2 kernel.
    p = 3
    table = kernel_enumerate(p, 1, 3, "gamma")
    mod = Modulus(p, 3)

    def coset_of(cls):
        members = []
        for e in table.elements:
            m = ModMat((e[:2], e[2:]), mod)
            # class at level 1 needs the reduction mod p^2
            red = ModMat(m.entries, Modulus(p, 2))
            if class_of(red, 1) == cls:
                members.append(m)
        return members

    a_reps = coset_of(basis_class(p, 1, "A"))
    b_reps = coset_of(basis_class(p, 1, "B"))
    assert len(a_reps) == len(b_reps) == 27
    want = basis_class(p, 2, "D")
    for u in a_reps:
        for v in b_reps:
            comm = u * v * u.inverse() * v.inverse()
            assert class_of(comm, 2) == want


def test_layer_addition_by_exhaustive_table():
    # the coordinate map is an isomorphism onto the layer: bijective and
    # additive over the entire enumerated kernel
    for p in (3, 2):
        table = kernel_enumerate(p, 2, 3, "pgamma")
        mod = Modulus(p, 3)
        seen = {}
        for e in table.elements:
            cls = class_of(ModMat((e[:2], e[2:]), mod), 2)
            assert cls.coords not in seen
            seen[cls.coords] = e
        assert len(seen) == table.order
        assert zero_class(p, 2).coords in seen
        for c1, e1 in seen.items():
            for c2, e2 in seen.items():
                prod = table.mul(e1, e2)
                got = class_of(ModMat((prod[:2], prod[2:]), mod), 2)
                want = class_add(GradedClass(p, 2, c1), GradedClass(p, 2, c2))
                assert got == want


def brute_congruence_exponent(rows, p, cap, allow_sign):
    """Largest e <= cap with every entry of M - sI divisible by p^e for one
    admissible sign s, tested entry by entry with %."""
    n = len(rows)
    signs = (1, -1) if allow_sign else (1,)
    best = 0
    for e in range(cap + 1):
        q = p ** e
        if any(all((rows[i][j] - (s if i == j else 0)) % q == 0 for i in range(n) for j in range(n))
               for s in signs):
            best = e
    return best


def _sl2_words(rng, p):
    """A seeded SL2(Z) element: a word in the depth-q basis (q = 0 gives the
    unipotent generators of SL2(Z) itself), sometimes negated."""
    basis = list(congruence_basis(p, rng.randint(0, 3)).values())
    alphabet = basis + [m.inverse() for m in basis]
    out = IntMat.identity(2)
    for _ in range(rng.randint(0, 7)):
        out = out * rng.choice(alphabet)
    return -out if rng.random() < 0.2 else out


def test_flat_backend_matches_intmat_backend():
    rng = random.Random("flat-backend")
    flat_act = MatrixConjugation(_FLAT_ID, _FLAT_ID, psl_pi=True)
    int_act = MatrixConjugation(IntMat.identity(2), IntMat.identity(2), psl_pi=True)
    for k in range(500):
        p = (2, 3, 5)[k % 3]
        u, v = _sl2_words(rng, p), _sl2_words(rng, p)
        fu, fv = _flat(u), _flat(v)
        assert flat_act.gamma_mul(fu, fv) == flat_act.pi_mul(fu, fv) == _flat(int_act.gamma_mul(u, v))
        assert flat_act.gamma_inv(fu) == flat_act.pi_inv(fu) == _flat(int_act.gamma_inv(u))
        assert flat_act.apply(fu, fv) == _flat(int_act.apply(u, v))
        assert flat_act.pi_norm(fv) == _flat(int_act.pi_norm(v))
        for family in ("gamma", "pgamma"):
            spec = FiltrationSpec(family, p, 1, 3)
            cap_exp = spec.r0 + spec.depth_cap + 1
            e = brute_congruence_exponent(v.entries, p, cap_exp, spec.allow_sign)
            want = e - spec.r0 if e >= spec.r0 else -1
            assert level_of(fv, spec) == level_of(v, spec) == want
            assert level_of(ModMat(v.entries, Modulus(p, cap_exp)), spec) == want
    with pytest.raises(NonInvertible):
        _flat_inv_z((2, 0, 0, 1))
    with pytest.raises(NonInvertible):
        IntMat(((2, 0), (0, 1))).inverse()


def test_gcd_valuation_matches_bruteforce():
    rng = random.Random("gcd-valuation")
    for _ in range(600):
        p = rng.choice((2, 3, 5))
        cap = rng.choice((3, 6))
        sign = rng.choice((1, -1))
        depth = rng.randint(0, 7)
        noise = [[rng.choice((0, rng.randint(-20, 20))) for _ in range(2)] for _ in range(2)]
        rows = tuple(
            tuple((sign if i == j else 0) + p ** depth * noise[i][j] for j in range(2)) for i in range(2)
        )
        for allow_sign in (False, True):
            want = brute_congruence_exponent(rows, p, cap, allow_sign)
            assert exact_congruence_exponent(_flat(IntMat(rows)), p, allow_sign, bail=cap) == want

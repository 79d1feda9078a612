"""Independent brute-force oracles for the delicate group computations.

These deliberately avoid the shortcuts used by the implementation (normal
closures from generating sets, p-power order climbing, canonical lifts) and
recompute the same quantities by exhaustive enumeration over all pairs.
"""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random

import pytest

from filtra import filtration, graded, holomorph, linrep
from filtra.exactmat import (
    _FLAT_ID, Mat, Modulus, NonInvertible, _adjugate_n, _flat_inv, _flat_inv_z, _flat_mul, _flat_mul_z, _mat_mul,
)
from filtra.filtration import (
    FAMILIES,
    FiltrationSpec,
    WordSampler,
    check_p_congruence,
    flat_congruence_basis,
    level_of,
    tower_invariants,
    _prime_powers,
    _scalar_subgroup,
    _valuation_to_identity,
)
from filtra.freegroup import EndoSpec, Word, lcs_depth2, mccool_generator, mccool_inverse, poison_action
from filtra.graded import (
    GradedClass, GradedError, basis_class, bracket, bracket_from_lifts, class_add, class_neg, class_of, lift,
    power_map, zero_class,
)
from filtra.holomorph import BackendMismatch, FreeGroupAction, MatrixConjugation, SemiElem
from filtra.linrep import _sample_pairs, center_scalars, pair, random_sl, rho
from filtra.stability import CONSTRUCTIVE_LIMIT, congruence_extension, product_filtration_check, sample_level
from quotient_tables import NotPGroup, QuotientTable, clear_table_cache, kernel_enumerate
from test_graded import _neg, random_kernel_element


def brute_frattini(table):
    """Phi(G) generated by every p-th power and every commutator, with the
    subgroup closure done over the full generator set."""
    elems = table.elements
    gens = set()
    for x in elems:
        gens.add(table.power(x, table.p))
    inverses = [table.inv(x) for x in elems]
    for x, xinv in zip(elems, inverses):
        for y, yinv in zip(elems, inverses):
            gens.add(table.mul(table.mul(x, y), table.mul(xinv, yinv)))
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
    return frat


def brute_frattini_rank(table):
    """d(G) = log_p |G / Phi(G)| with Phi(G) from ``brute_frattini``."""
    quotient = table.order // len(brute_frattini(table))
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


def brute_enumerate(p, i, j, family):
    """Every I + p^i N with N over Z/p^{j-i}, kept when det = 1 mod p^j,
    then normalized over the scalars lam = 1 mod p^i with lam^2 = 1."""
    pi_, pj = p ** i, p ** j
    scalars = [lam for lam in range(1, pj, pi_) if lam * lam % pj == 1] if family == "pgamma" else [1]
    out = set()
    for n00, b, c, n11 in itertools.product(range(0, pj, pi_), repeat=4):
        a, d = 1 + n00, 1 + n11
        if (a * d - b * c) % pj == 1:
            out.add(min(tuple(lam * e % pj for e in (a, b, c, d)) for lam in scalars))
    return out


def test_enumeration_matches_determinant_filter():
    checked = 0
    for family in FAMILIES:
        for p in (2, 3, 5, 7):
            for i in (1, 2, 3):
                for j in range(i + 1, i + 5):
                    if p ** (4 * (j - i)) > 10 ** 5:
                        continue
                    table = kernel_enumerate(p, i, j, family)
                    assert len(set(table.elements)) == table.order
                    assert set(table.elements) == brute_enumerate(p, i, j, family)
                    checked += 1
    assert checked == 48


# every table of both families with at most 4096 elements at i = 1, 2
SMALL_TABLES = [(p, i, j, family) for family in FAMILIES for p in (2, 3, 5, 7) for i in (1, 2)
                for j in range(i + 1, i + 5) if p ** (3 * (j - i)) <= 4096]


def _bfs_closure(table, gens):
    seen = {table.identity}
    frontier = [table.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = table.mul(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def scratch_greedy_generators(table):
    """The greedy search re-closing the picked elements from the identity
    after every pick."""
    gens = []
    have = {table.identity}
    for x in table.elements:
        if x not in have:
            gens.append(x)
            have = _bfs_closure(table, gens)
            if len(have) == table.order:
                break
    return gens


def element_order(table, x):
    """The order of x, climbing by repeated p-th powers (orders are
    p-powers), one element at a time."""
    k = 1
    y = x
    while y != table.identity:
        y = table.power(y, table.p)
        k *= table.p
        if k > table.order:
            raise NotPGroup("element order is not a p-power")
    return k


def test_memoised_exponent_matches_element_orders():
    for case in SMALL_TABLES:
        t = kernel_enumerate(*case)
        fresh = QuotientTable(t.p, t.i, t.j, t.family, t.elements, t.scalars)
        assert fresh.exponent() == max(element_order(fresh, x) for x in fresh.elements)
    # -I mod 9 has order 2, which no chain of cubes reaches
    odd = QuotientTable(3, 1, 2, "gamma", [(1, 0, 0, 1), (8, 0, 0, 8)], (1,))
    with pytest.raises(NotPGroup):
        odd.exponent()


def test_incremental_greedy_generators_match_scratch_closures():
    for case in SMALL_TABLES:
        t = kernel_enumerate(*case)
        gens = t.greedy_generators()
        assert gens == scratch_greedy_generators(t)
        assert len(t._closure(gens)) == len(_bfs_closure(t, gens)) == t.order
        # the cached list is handed out as a copy
        gens.append(t.identity)
        assert t.greedy_generators() == scratch_greedy_generators(t)


def test_derived_subgroup_matches_commutators_with_generators():
    # [G, G] is generated by the [x, g] with x in G and g a generator: that
    # subgroup is normal, since [x, g]^y = [xy, g][y, g]^-1, and every
    # generator is central modulo it.  At (2, 1, 5, pgamma) the commutators
    # of the generators alone generate a subgroup of order 4 out of 16.
    for case in SMALL_TABLES:
        t = kernel_enumerate(*case)
        gens = t.greedy_generators()
        comms = {t.mul(t.mul(x, g), t.mul(t.inv(x), t.inv(g))) for x in t.elements for g in gens}
        assert t._commutator_subgroup(gens) == _bfs_closure(t, sorted(comms))


def test_generating_sets_unchanged():
    rows = []
    for case in SMALL_TABLES:
        t = kernel_enumerate(*case)
        d, gens = t.minimal_generators(), t.generating_set()
        assert len(gens) == d and len(_bfs_closure(t, gens)) == t.order
        if t.order <= 128:
            assert d == brute_frattini_rank(t)
        rows.append((case, d, gens))
    # value taken before the generator search became incremental
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "092b1b0844b4305a07fd3f165e70d8481297791a61be35e87a0a13108ea85db2"


def coset_span_generating_set(table):
    """(d, picks) the way tables computed them before the Frattini subgroup:
    a coset map onto G/[G, G], the p-th power classes in it, and a vector
    space span over those classes, picking the first elements in sorted
    order that leave the span.  [G, G] is closed from every [x, g] with g a
    greedy generator."""
    gens = table.greedy_generators()
    mul, inv = table.mul, table.inv
    derived = sorted(_bfs_closure(table, sorted(
        {mul(mul(x, g), mul(inv(x), inv(g))) for x in table.elements for g in gens})))
    coset = {}
    for g in table.elements:
        if g not in coset:
            members = [mul(g, s) for s in derived]
            rep = min(members)
            for x in members:
                coset[x] = rep
    reps = sorted(set(coset.values()))
    ppowers = sorted({coset[table.power(r, table.p)] for r in reps})
    d = 0
    index = len(reps) // len(ppowers)
    while index > 1:
        index //= table.p
        d += 1

    def amul(r1, r2):
        return coset[mul(r1, r2)]

    vmap = {}
    for r in reps:
        if r not in vmap:
            members = [amul(r, s) for s in ppowers]
            rep = min(members)
            for x in members:
                vmap[x] = rep

    def v_of(x):
        return vmap[coset[x]]

    picked = []
    span_v = {v_of(table.identity)}
    for x in table.elements:
        if len(picked) == d:
            break
        vx = v_of(x)
        if vx not in span_v:
            picked.append(x)
            grown = set(span_v)
            for cur in span_v:
                for _ in range(table.p - 1):
                    cur = vmap[amul(cur, vx)]
                    grown.add(cur)
            span_v = grown
    return d, picked


def test_frattini_picks_match_coset_span_oracle():
    for case in SMALL_TABLES:
        t = kernel_enumerate(*case)
        d, picks = coset_span_generating_set(t)
        assert t.generating_set() == picks, case
        assert t.minimal_generators() == d == len(picks)
        gens = t.greedy_generators()
        commutative = all(t.mul(a, b) == t.mul(b, a) for a in gens for b in gens)
        assert t.is_elementary_abelian() == (commutative and t.exponent() == t.p)
        if t.order <= 512:
            assert t._frattini_basis()[0] == len(brute_frattini(t)), case
    trivial = QuotientTable(3, 1, 2, "gamma", [(1, 0, 0, 1)], (1,))
    assert not trivial.is_elementary_abelian()
    with pytest.raises(NotPGroup):
        QuotientTable(3, 1, 2, "gamma", [(1, 0, 0, 1), (8, 0, 0, 8)], (1,)).minimal_generators()


def test_bracket_by_exhaustive_coset_pairing():
    # [A_1, B_1] = D_2 for every pair of representatives, not just the
    # canonical lifts: enumerate the whole level-1 kernel mod 27 and pick
    # the full cosets of A_1 and B_1 over the level-2 kernel.
    p = 3
    table = kernel_enumerate(p, 1, 3, "gamma")

    def coset_of(cls):
        # class at level 1 reads the element mod p^2
        return [e for e in table.elements if class_of(e, p, 1) == cls]

    a_reps = coset_of(basis_class(p, 1, "A"))
    b_reps = coset_of(basis_class(p, 1, "B"))
    assert len(a_reps) == len(b_reps) == 27
    want = basis_class(p, 2, "D")
    for u in a_reps:
        for v in b_reps:
            comm = table.mul(table.mul(u, v), table.mul(table.inv(u), table.inv(v)))
            assert class_of(comm, p, 2) == want


def test_layer_addition_by_exhaustive_table():
    # the coordinate map is an isomorphism onto the layer: bijective and
    # additive over the entire enumerated kernel
    for p in (3, 2):
        table = kernel_enumerate(p, 2, 3, "pgamma")
        seen = {}
        for e in table.elements:
            cls = class_of(e, p, 2)
            assert cls.coords not in seen
            seen[cls.coords] = e
        assert len(seen) == table.order
        assert zero_class(p, 2).coords in seen
        for c1, e1 in seen.items():
            for c2, e2 in seen.items():
                got = class_of(table.mul(e1, e2), p, 2)
                want = class_add(GradedClass(p, 2, c1), GradedClass(p, 2, c2))
                assert got == want


# -- reference: the graded layer maps computed with Mat arithmetic -----------

def _ref_pow(m, k):
    out = Mat.identity(2, m.modulus)
    for _ in range(k):
        out = out * m
    return out


def ref_class_of(m, q):
    mod = m.modulus
    p = mod.p
    if mod.r != q + 1:
        raise GradedError("expected a matrix mod %d^%d, got modulus %s" % (p, q + 1, mod))
    if m.det() != 1:
        raise GradedError("expected det = 1 mod %d, got %d" % (mod.m, m.det()))
    pq = p ** q

    def offset(mat):
        diffs = [e - one for e, one in zip(mat.entries, (1, 0, 0, 1))]
        if all(d % pq == 0 for d in diffs):
            return tuple((d // pq) % p for d in diffs)
        return None

    n = offset(m)
    if n is None:
        n = offset(Mat(tuple(-e for e in m.entries), mod))
    if n is None:
        raise GradedError("matrix is not congruent to +-I mod %d^%d" % (p, q))
    n00, n01, n10, n11 = n
    if p == 2:
        return GradedClass(p, q, (n01, n10))
    return GradedClass(p, q, (n01, n10, n00))


def ref_lift(c, t_exp):
    p, q = c.p, c.q
    mod = Modulus(p, t_exp)
    pq = p ** q
    a, b, d = (c.coords + (0,)) if p == 2 else c.coords
    out = Mat((1, a * pq, 0, 1), mod) * Mat((1, 0, b * pq, 1), mod)
    if d:
        u = (1 + pq) % mod.m
        out = out * _ref_pow(Mat((u, 0, 0, pow(u, -1, mod.m)), mod), d)
    return out


def ref_bracket_from_lifts(m1, m2, q, s):
    return ref_class_of(m1 * m2 * m1.inverse() * m2.inverse(), q + s)


def ref_power_map(c):
    return ref_class_of(_ref_pow(ref_lift(c, c.q + 2), c.p), c.q + 1)


def _as_modmat(x, p, r):
    return Mat(x, Modulus(p, r))


def _all_classes(p, q):
    return [GradedClass(p, q, v) for v in itertools.product(range(p), repeat=2 if p == 2 else 3)]


def test_flat_graded_matches_modmat_graded_on_every_class():
    for p in (2, 3, 5):
        for q in (1, 2, 3):
            classes = _all_classes(p, q)
            for c in classes:
                for t in (q + 1, q + 2):
                    x = lift(c, t)
                    assert _as_modmat(x, p, t) == ref_lift(c, t)
                # both signs of every lift, read at level q
                x = lift(c, q + 1)
                for y in (x, _neg(x)):
                    assert class_of(y, p, q) == ref_class_of(_as_modmat(y, p, q + 1), q) == c
                assert power_map(c) == ref_power_map(c)
            for s in range(1, 4 - q):
                t = q + s + 1
                # every class on both sides; each c1 meets every p-th c2
                others = _all_classes(p, s)
                for i, c1 in enumerate(classes):
                    for c2 in others[i % p::p]:
                        x1, x2 = lift(c1, t), lift(c2, t)
                        want = ref_bracket_from_lifts(_as_modmat(x1, p, t), _as_modmat(x2, p, t), q, s)
                        assert bracket(c1, c2) == bracket_from_lifts(_neg(x1), x2, p, q, s) == want


def test_flat_graded_matches_modmat_graded_on_perturbed_lifts():
    rng = random.Random("graded-oracle")
    p = 3
    for q, s in [(q, s) for q in range(1, 4) for s in range(1, 4) if q + s <= 4]:
        t = q + s + 1
        m = p ** t
        for _ in range(200):
            c1 = GradedClass(p, q, tuple(rng.randrange(p) for _ in range(3)))
            c2 = GradedClass(p, s, tuple(rng.randrange(p) for _ in range(3)))
            x1 = _flat_mul(lift(c1, t), random_kernel_element(p, q + 1, t, rng), m)
            x2 = _flat_mul(lift(c2, t), random_kernel_element(p, s + 1, t, rng), m)
            if rng.random() < 0.5:
                x1 = _neg(x1)
            want = ref_bracket_from_lifts(_as_modmat(x1, p, t), _as_modmat(x2, p, t), q, s)
            assert bracket_from_lifts(x1, x2, p, q, s) == want == bracket(c1, c2)
            comm = _flat_mul(_flat_mul(x1, x2, m), _flat_mul(_flat_inv(x1, m), _flat_inv(x2, m), m), m)
            assert class_of(comm, p, q + s) == want
            assert class_of(x1, p, q) == ref_class_of(_as_modmat(x1, p, q + 1), q) == c1


def brute_congruence_exponent(entries, p, cap, allow_sign):
    """Largest e <= cap with every entry of M - sI divisible by p^e for one
    admissible sign s, tested entry by entry with % on the flat entries."""
    n = math.isqrt(len(entries))
    signs = (1, -1) if allow_sign else (1,)
    best = 0
    for e in range(cap + 1):
        q = p ** e
        if any(all((entries[i * n + j] - (s if i == j else 0)) % q == 0 for i in range(n) for j in range(n))
               for s in signs):
            best = e
    return best


def _sl2_words(rng, p):
    """A seeded SL2(Z) element: a word in the depth-q basis (q = 0 gives the
    unipotent generators of SL2(Z) itself), sometimes negated."""
    basis = [Mat(x) for x in flat_congruence_basis(p, rng.randint(0, 3))]
    alphabet = basis + [m.inverse() for m in basis]
    out = Mat.identity(2)
    for _ in range(rng.randint(0, 7)):
        out = out * rng.choice(alphabet)
    return Mat(tuple(-e for e in out.entries)) if rng.random() < 0.2 else out


def test_flat_backend_matches_intmat_backend():
    rng = random.Random("flat-backend")
    flat_act = MatrixConjugation()
    for k in range(500):
        p = (2, 3, 5)[k % 3]
        u, v = _sl2_words(rng, p), _sl2_words(rng, p)
        fu, fv = u.entries, v.entries
        assert flat_act.gamma.mul(fu, fv) == flat_act.pi.mul(fu, fv) == (u * v).entries
        assert flat_act.gamma.inv(fu) == flat_act.pi.inv(fu) == u.inverse().entries
        assert flat_act.apply(fu, fv) == (u * v * u.inverse()).entries
        assert flat_act.pi.norm(fv) == min(fv, tuple(-e for e in fv))
        for family in ("gamma", "pgamma"):
            spec = FiltrationSpec(family, p, 1, 3)
            cap_exp = spec.r0 + spec.depth_cap + 1
            e = brute_congruence_exponent(v.entries, p, cap_exp, spec.allow_sign)
            want = e - spec.r0 if e >= spec.r0 else -1
            assert level_of(fv, spec) == want
    with pytest.raises(NonInvertible):
        _flat_inv_z((2, 0, 0, 1))
    with pytest.raises(NonInvertible):
        Mat((2, 0, 0, 1)).inverse()


def test_fused_conjugation_matches_two_products():
    # apply(f, x) computes f x f^-1 in one step; the two-product form and the
    # inverse's determinant check are the reference
    rng = random.Random("fused-conjugation")
    act = MatrixConjugation()
    for k in range(2000):
        p = (2, 3, 5)[k % 3]
        f, x = _sl2_words(rng, p).entries, _sl2_words(rng, p).entries
        assert act.apply(f, x) == _flat_mul_z(_flat_mul_z(f, x), _flat_inv_z(f))
    for f in ((2, 0, 0, 1), (1, 1, 1, 1), (-1, 0, 0, 1)):
        with pytest.raises(NonInvertible) as fused:
            act.apply(f, (1, 3, 0, 1))
        with pytest.raises(NonInvertible) as reference:
            _flat_inv_z(f)
        assert str(fused.value) == str(reference.value)


def test_gcd_valuation_matches_bruteforce():
    rng = random.Random("gcd-valuation")
    for _ in range(600):
        p = rng.choice((2, 3, 5))
        cap = rng.choice((3, 6))
        sign = rng.choice((1, -1))
        depth = rng.randint(0, 7)
        noise = [[rng.choice((0, rng.randint(-20, 20))) for _ in range(2)] for _ in range(2)]
        entries = tuple((sign if i == j else 0) + p ** depth * noise[i][j] for i in range(2) for j in range(2))
        a, b, c, d = entries
        top, exponents = _prime_powers(p, cap)
        for allow_sign in (False, True):
            want = brute_congruence_exponent(entries, p, cap, allow_sign)
            assert _valuation_to_identity(math.gcd(b, c, d - a, top), a, exponents, allow_sign) == want


def matrix_unit(n, k, l, modulus):
    return Mat(tuple(1 if (i, j) == (k, l) else 0 for i in range(n) for j in range(n)), modulus)


def rho_by_matrix_units(u):
    """rho(u) column by column: column k*n + l is gamma (y E_kl) gamma^-1
    flattened row-major, with 2n^2 generic products."""
    gamma, y = u
    n, modulus = gamma.n, gamma.modulus
    ginv = Mat(gamma.entries, modulus).inverse()   # a fresh copy, so no kept inverse is read
    cols = []
    for k in range(n):
        for l in range(n):
            image = gamma * (y * matrix_unit(n, k, l, modulus)) * ginv
            cols.append(image.entries)
    return Mat(tuple(cols[c][r] for r in range(n * n) for c in range(n * n)), modulus)


def random_sl_by_transvections(n, modulus, rng, length=8):
    """The product of explicit transvection matrices, with random_sl's draws."""
    out = Mat.identity(n, modulus)
    bound = 3 if modulus is None else modulus.m - 1
    for _ in range(length):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(1, max(bound, 1))
        entries = tuple((1 if a == b else 0) + (c if (a, b) == (i, j) else 0) for a in range(n) for b in range(n))
        out = out * Mat(entries, modulus)
    return out


REP_RINGS = ((2, Modulus(3, 2)), (2, Modulus(3, 3)), (3, Modulus(2, 2)), (3, None), (4, Modulus(5, 1)))


def test_kronecker_rho_matches_matrix_units():
    for n, modulus in REP_RINGS:
        rng = random.Random("kron:%s:%s" % (n, modulus))
        for _ in range(300):
            u = pair(random_sl(n, modulus, rng), random_sl(n, modulus, rng))
            assert rho(u) == rho_by_matrix_units(u)


def test_column_op_random_sl_matches_transvection_product(monkeypatch):
    # n = 1 and Z/2 draw from ranges of one value, which still consume bits;
    # a sample another process owns only draws its transvections, and must
    # leave the stream where building the matrix does
    edge = ((1, None), (1, Modulus(2, 1)), (2, Modulus(2, 1)), (3, Modulus(2, 1)))
    for n, modulus in REP_RINGS + ((2, None), (4, None)) + edge:
        for length in (1, 8, 20):
            monkeypatch.setattr(linrep, "_TRANSVECTIONS", length)
            fast, slow, skipped = (random.Random("sl:%s:%s" % (n, length)) for _ in range(3))
            for _ in range(100):
                assert random_sl(n, modulus, fast) == random_sl_by_transvections(n, modulus, slow, length)
                linrep._transvections(n, modulus, skipped)
                assert fast.getstate() == slow.getstate() == skipped.getstate()


def center_scalars_by_loop(n, m):
    """Every unit lam mod m with lam^n = 1 mod m, by trying each residue."""
    return [lam for lam in range(1, m) if math.gcd(lam, m) == 1 and pow(lam, n, m) == 1]


def center_scalars_by_lifting_loop(n, p, r):
    """The roots mod p, lifted one power of p at a time by trying each of
    the p candidates lam + t p^k."""
    roots = [lam for lam in range(1, p) if pow(lam, n, p) == 1]
    step = p
    for _ in range(r - 1):
        nxt = step * p
        roots = [lift for lam in roots for lift in range(lam, nxt, step) if pow(lift, n, nxt) == 1]
        step = nxt
    return sorted(roots)


def test_lifted_center_scalars_match_every_residue():
    for p in (2, 3, 5, 7, 11, 101):
        r = 1
        while p ** r <= 5000:
            for n in range(1, 9):
                assert center_scalars(n, Modulus(p, r)) == center_scalars_by_loop(n, p ** r), (p, r, n)
            r += 1
    # past the residue loop's reach, against the loop over every candidate lift
    for p, r in ((2, 12), (3, 8), (7, 5), (10007, 4)):
        for n in range(1, 9):
            assert center_scalars(n, Modulus(p, r)) == center_scalars_by_lifting_loop(n, p, r), (p, r, n)


def pairs_by_list(ball, cap, rng):
    """Every pair of the ball listed, then ``cap`` of them sampled."""
    pairs = [(g, y) for g in ball for y in ball]
    if len(pairs) > cap:
        pairs = rng.sample(pairs, cap)
    return pairs


def test_pair_indices_sample_the_pairs_of_the_list():
    # drawing indices into the ball^2 pairs consumes the stream and picks
    # the pairs that sampling the listed pairs did: at the ball sizes of
    # rep-ball at p = 3, base 1, radius 1 to 4 (7, 37, 187, 937) with the
    # command's cap, at sizes whose square brackets that cap (63, 64, 65),
    # and at caps around each small size's square
    for size in (7, 37, 63, 64, 65, 187, 937):
        ball = [("x", i) for i in range(size)]
        caps = (1, 5, 4000, size * size - 1, size * size) if size < 100 else (4000,)
        for cap in caps:
            for seed in range(5):
                fast, slow = random.Random("ball:%d" % seed), random.Random("ball:%d" % seed)
                assert _sample_pairs(ball, cap, fast) == pairs_by_list(ball, cap, slow), (size, cap, seed)
                assert fast.getstate() == slow.getstate()


def mat_mul_by_loops(a, b, n):
    out = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i * n + j] += a[i * n + k] * b[k * n + j]
    return tuple(out)


# -- the n x n kernels on seeded random_sl draws, n = 1..5 ---------------------

KERNEL_RINGS = [(n, modulus) for n in range(1, 6) for modulus in (None, Modulus(2, 3), Modulus(3, 2), Modulus(5, 1))]


def sl_draws(label, n, modulus, count):
    rng = random.Random("%s:%s:%s" % (label, n, modulus))
    return [random_sl(n, modulus, rng) for _ in range(count)]


def det_by_permutations(entries, n):
    """The Leibniz sum over the permutations of range(n); 1 at n = 0."""
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(entries[i * n + perm[i]] for i in range(n))
    return total


def adjugate_by_cofactors(entries, n):
    """adj[i][j] = (-1)^(i+j) times the determinant of the matrix without
    row j and column i."""
    return tuple((-1) ** (i + j) * det_by_permutations(
        [entries[k * n + l] for k in range(n) if k != j for l in range(n) if l != i], n - 1)
        for i in range(n) for j in range(n))


def test_mat_mul_n_matches_triple_loop():
    # on random entries, then on consecutive seeded random_sl draws
    rng = random.Random("mat-mul-n")
    for n, modulus in KERNEL_RINGS:
        bound = 10 ** 12 if modulus is None else modulus.m - 1
        low = -bound if modulus is None else 0
        pairs = [[tuple(rng.randint(low, bound) for _ in range(n * n)) for _ in range(2)] for _ in range(60)]
        draws = [m.entries for m in sl_draws("mul", n, modulus, 30)]
        for a, b in pairs + list(zip(draws, draws[1:])):
            want = mat_mul_by_loops(a, b, n)
            assert _mat_mul(a, b) == want
            assert (Mat(a, modulus) * Mat(b, modulus)).entries == Mat(want, modulus).entries


def test_adjugate_matches_cofactors_on_sl_draws():
    for n, modulus in KERNEL_RINGS:
        for m in sl_draws("adj", n, modulus, 20):
            adj = _adjugate_n(m.entries)
            assert adj == adjugate_by_cofactors(m.entries, n)
            det = det_by_permutations(m.entries, n)
            scalar = tuple(det if i == j else 0 for i in range(n) for j in range(n))
            assert mat_mul_by_loops(adj, m.entries, n) == scalar == mat_mul_by_loops(m.entries, adj, n)


def test_rho_matches_its_entry_formula_on_sl_draws():
    # [i*n + j][k*n + l] = (gamma y)[i][k] * (gamma^-1)[l][j], with gamma y by
    # the triple loop and gamma^-1 its cofactor adjugate (det gamma = 1)
    for n, modulus in KERNEL_RINGS:
        draws = sl_draws("rho", n, modulus, 20)
        for gamma, y in zip(draws[::2], draws[1::2]):
            a = mat_mul_by_loops(gamma.entries, y.entries, n)
            b = adjugate_by_cofactors(gamma.entries, n)
            want = tuple(a[i * n + k] * b[l * n + j] for i, j, k, l in itertools.product(range(n), repeat=4))
            assert rho(pair(gamma, y)) == Mat(want, modulus)


def _random_word(rng, rank):
    return Word(rank, tuple(rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(rng.randint(0, 12))))


def test_fast_word_operations_match_constructor():
    rng = random.Random("fast-words")
    endos = [mccool_generator(3, 1, 2), mccool_generator(3, 3, 1), poison_action()[0][0], poison_action()[1][1]]
    for _ in range(2000):
        u, v = _random_word(rng, 3), _random_word(rng, 3)
        if rng.random() < 0.5:
            # force cancellation at the junction, possibly of all of u
            v = Word(3, tuple(-a for a in reversed(u.letters[rng.randint(0, len(u)):])) + v.letters)
        assert (u * v).letters == Word(3, u.letters + v.letters).letters
        assert u.inverse().letters == Word(3, tuple(-a for a in reversed(u.letters))).letters
        e = rng.choice(endos + [EndoSpec(3, tuple(_random_word(rng, 3) for _ in range(3)))])
        spelled = []
        for a in u.letters:
            im = e.images[abs(a) - 1].letters
            spelled.extend(im if a > 0 else [-b for b in reversed(im)])
        assert e.apply(u).letters == Word(3, tuple(spelled)).letters


def apply_letter_by_letter(act, f, x):
    """phi(f)(x) with the automorphism of each letter applied in turn,
    rightmost first."""
    out = x
    for a in reversed(f.letters):
        out = act.pairs[abs(a) - 1][0 if a > 0 else 1].apply(out)
    return out


def test_composed_action_matches_letter_by_letter():
    mccool = FreeGroupAction(3, 3, [(mccool_generator(3, i, j), mccool_inverse(3, i, j))
                                    for i, j in ((1, 2), (2, 3), (3, 1))])
    poison = FreeGroupAction(2, 3, poison_action())
    rng = random.Random("composed-action")
    for act in (poison, mccool):
        gamma_rank, pi_rank = act.ranks
        words = [Word.identity(gamma_rank)] + [_random_word(rng, gamma_rank) for _ in range(150)]
        for f in words + words:
            x = _random_word(rng, pi_rank)
            assert act.apply(f, x) == apply_letter_by_letter(act, f, x)
        # kept: the one-letter words, and each word asked for with its prefixes
        kept = {f.letters[:k] for f in words for k in range(1, len(f) + 1)}
        kept |= {(a,) for i in range(1, gamma_rank + 1) for a in (i, -i)}
        assert set(act._phi) == kept
    # phi(a1 a2) = phi1 o phi2 sends a3 to a3 a1 a2; phi2 o phi1 gives a3 a2 a1
    a3 = Word.generator(3, 3)
    assert poison.apply(Word(2, (1, 2)), a3).letters == (3, 1, 2)
    assert poison.apply(Word(2, (-2, -1)), a3).letters == (3, -2, -1)
    for f, x in ((Word(3, (1,)), a3), (Word(2, (1, 2)), Word.generator(2, 1)), (Word(2, ()), Word(4, ()))):
        with pytest.raises(BackendMismatch):
            poison.apply(f, x)


def test_tower_certificate_matches_enumerated_tables():
    # every quotient with at most 10^5 elements at i <= 3, in both families:
    # the certificate answers exactly what the table reports
    checked = 0
    for family in FAMILIES:
        for p in (2, 3, 5):
            for i in (1, 2, 3):
                j = i + 1
                while p ** (3 * (j - i)) <= 10 ** 5:
                    table = kernel_enumerate(p, i, j, family)
                    expected = dict(table.to_dict(), p_group=table.is_p_group())
                    assert tower_invariants(p, i, j, family) == expected, (p, i, j, family)
                    checked += 1
                    j += 1
    clear_table_cache()
    assert checked == 60


def scalar_subgroup_by_loop(p, i, j):
    """Every lam = 1 + p^i mu mod p^j, mu < p^{j-i}, with lam^2 = 1 mod p^j."""
    pi_, pj = p ** i, p ** j
    return tuple(
        lam for mu in range(p ** (j - i)) if ((lam := (1 + pi_ * mu) % pj) * lam) % pj == 1
    )


def test_scalar_subgroup_closed_form_matches_loop():
    for p in (2, 3):
        for i in range(1, 9):
            for j in range(i + 1, i + 9):
                assert _scalar_subgroup(p, i, j) == scalar_subgroup_by_loop(p, i, j), (p, i, j)


def constructive_by_closure(gamma_q, pi_q):
    """The generating sets of the two quotient tables, closed under the
    product (u1, v1)(u2, v2) = (u1 u2, u2^-1 v1 u2 v2) of the extension
    breadth first, counted against the product order."""
    gamma_table, pi_table = kernel_enumerate(*gamma_q), kernel_enumerate(*pi_q)
    mp = pi_table.m
    gens = [(u, pi_table.identity) for u in gamma_table.generating_set()]
    gens += [(gamma_table.identity, v) for v in pi_table.generating_set()]

    def pair_mul(a, b):
        (u1, v1), (u2, v2) = a, b
        u2red = tuple(e % mp for e in u2)
        twisted = _flat_mul(_flat_mul(_flat_inv(u2red, mp), v1, mp), u2red, mp)
        return gamma_table.mul(u1, u2), pi_table.mul(pi_table.canon(twisted), v2)

    seen = {(gamma_table.identity, pi_table.identity)}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = pair_mul(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return {"generators_used": len(gens), "generated": len(seen), "target": gamma_table.order * pi_table.order}


def test_certified_constructive_block_matches_closure():
    # every cell r + s <= 3 of the suite at p in {2, 3}: where the product
    # has at most CONSTRUCTIVE_LIMIT elements and the Gamma modulus reaches
    # the pi modulus, closing the generators reproduces the block (the
    # largest closure, 2^16 pairs at p = 2, takes seconds); at s0 < r0 the
    # Gamma modulus falls short and there is no block
    closed = 0
    for p in (2, 3):
        for r0, s0 in ((1, 1), (2, 1)):
            ext = congruence_extension(p, r0, s0, cap=3)
            for r in range(3):
                for s in range(1, 4 - r):
                    bound = product_filtration_check(ext, r, s, 1, 0).meta["generator_bound"]
                    gamma_q, pi_q = ext.quotients(r, s)
                    if bound["gamma_order"] * bound["pi_order"] > CONSTRUCTIVE_LIMIT or gamma_q[2] < pi_q[2]:
                        assert bound["constructive"] is None and "pass" not in bound
                        continue
                    assert bound["constructive"] == constructive_by_closure(gamma_q, pi_q), (p, r0, s0, r, s)
                    assert bound["pass"]
                    closed += 1
    clear_table_cache()
    assert closed == 9


def test_tower_certificate_checks_its_arguments():
    for args in ((3, 2, 2, "gamma"), (3, 0, 2, "gamma"), (6, 1, 2, "gamma"), (3, 1, 2, "sl")):
        with pytest.raises(ValueError):
            tower_invariants(*args)


def _mutations():
    basis = filtration.flat_congruence_basis
    power = filtration._flat_pow
    coords = filtration.layer_offset

    def reread(change):
        return lambda x, p, q: None if (c := coords(x, p, q)) is None else change(c, p)

    return {
        "lift C replaced by A B": ("flat_congruence_basis",
                                   lambda p, q: basis(p, q)[:2] + [_flat_mul_z(*basis(p, q)[:2])]),
        "lift of determinant 1 + p^q": ("flat_congruence_basis",
                                        lambda p, q: basis(p, q)[:2] + [(1 + p ** q, 0, 0, 1)]),
        "lifts one level too deep": ("flat_congruence_basis", lambda p, q: basis(p, q + 1)),
        "power map x -> x^(p+1)": ("_flat_pow", lambda x, k, m: power(x, k + 1, m)),
        "power map x -> x^(p^2)": ("_flat_pow", lambda x, k, m: power(power(x, k, m), k, m)),
        "layer map drops the diagonal": ("layer_offset", reread(lambda c, p: c[:2] + (0, 0))),
        "layer map not additive": ("layer_offset", reread(lambda c, p: (c[0], c[1], (c[2] + c[0] * c[1]) % p, c[3]))),
        "identity not reduced mod p^j": ("_FLAT_ID", (-1, 0, 0, -1)),
    }


@pytest.mark.parametrize("name", sorted(_mutations()))
def test_tower_certificate_refuses_mutations(monkeypatch, name):
    attr, broken = _mutations()[name]
    cases = [(2, "pgamma"), (2, "gamma"), (3, "gamma"), (5, "gamma")]
    for p, family in cases:
        tower_invariants(p, 1, 4, family)
    monkeypatch.setattr(filtration, attr, broken)
    for p, family in cases:
        with pytest.raises(RuntimeError):
            tower_invariants(p, 1, 4, family)


def _valuation_mutations():
    # the helper reads its exponent off the table {p^e: e for e <= N}, whose
    # N + 1 entries give the cap N
    valuation = filtration._valuation_to_identity
    return {
        "one factor of p too many":
            lambda g, corner, exps, sign: min(valuation(g, corner, exps, sign) + 1, len(exps) - 1),
        "saturates one short": lambda g, corner, exps, sign: min(valuation(g, corner, exps, sign), len(exps) - 2),
        "sign ignored": lambda g, corner, exps, sign: valuation(g, corner, exps, False),
    }


@pytest.mark.parametrize("name, family, p", [
    ("one factor of p too many", "gamma", 3),
    ("saturates one short", "gamma", 3),
    ("sign ignored", "pgamma", 2),
])
def test_truncation_check_refuses_broken_level_of(monkeypatch, name, family, p):
    # level_of reads its exponent with _valuation_to_identity; the
    # truncation check divides the entries itself, so a broken helper
    # shows as failures (j_max = 0 leaves the tower certificate out).  The
    # first run fills the spec's table of powers, which the broken helper
    # then reads: the spec caches constants, never the helper.  400 words
    # instead of the check's 60 make every mutant show
    spec = FiltrationSpec(family, p, 1, 3)
    monkeypatch.setattr(filtration, "TRUNCATION_SAMPLES", 400)
    assert check_p_congruence(spec, 0, 3, seed=1)["ok"]
    monkeypatch.setattr(filtration, "_valuation_to_identity", _valuation_mutations()[name])
    result = check_p_congruence(spec, 0, 3, seed=1)
    assert not result["ok"] and result["truncation_check"]["failures"]


def valuation_by_factor_loop(g, corner, p, cap, allow_sign):
    """The level helper before its table of powers: for each sign one gcd,
    whose factors of p are then divided off one at a time up to the cap."""
    best = 0
    for sign in ((1, -1) if allow_sign else (1,)):
        h = math.gcd(g, corner - sign)
        v = 0
        while v < cap and h % p == 0:
            h //= p
            v += 1
        best = max(best, v)
    return best


def level_by_factor_loop(x, spec):
    a, b, c, d = x
    v = valuation_by_factor_loop(math.gcd(b, c, d - a), a, spec.p, spec.r0 + spec.depth_cap + 1, spec.allow_sign)
    return v - spec.r0 if v >= spec.r0 else -1


def _elements_at_exponent(p, e, rng):
    """Determinant-one flat tuples congruent to I mod p^e and not mod
    p^(e+1), with their negatives, some with negative entries: the depth-e
    basis, and each basis element times a random word one or two exponents
    deeper."""
    out = []
    for x in flat_congruence_basis(p, e):
        deeper = flat_congruence_basis(p, e + rng.randint(1, 2))
        w = x
        for _ in range(rng.randint(1, 4)):
            y = rng.choice(deeper)
            w = _flat_mul_z(w, y if rng.random() < 0.5 else _flat_inv_z(y))
        out += [x, w]
    return out + [tuple(-v for v in x) for x in out]


def test_table_level_matches_factor_loop():
    # p in {2, 3, 5, 7}, both families, several r0 and caps: every exponent
    # from 0 (outside the level-0 group) to two past the deepest one read,
    # r0 + cap + 1, so elements exactly at the cap and at cap + 1 are among
    # them, each sign, and +-I, where the gcd of the off-identity entries is 0.
    # The bound level function spec.level, and each side of the congruence
    # extension on its own family, measure the same levels
    rng = random.Random("table-level")
    checked = 0
    for p in (2, 3, 5, 7):
        for r0 in (1, 2, 3):
            for cap in (0, 1, 3, 5):
                deepest = r0 + cap + 1
                elements = [(1, 0, 0, 1), (-1, 0, 0, -1), (2, 1, 1, 1), (-3, -2, -1, -1)]
                for e in range(deepest + 3):
                    elements += _elements_at_exponent(p, e, rng)
                ext = congruence_extension(p, r0, r0, cap)
                for family in FAMILIES:
                    spec = FiltrationSpec(family, p, r0, cap)
                    levels = [level_of(x, spec) for x in elements]
                    assert levels == [level_by_factor_loop(x, spec) for x in elements], (p, r0, cap, family)
                    assert levels == [spec.level(x) for x in elements], (p, r0, cap, family)
                    side = ext.gamma if family == "gamma" else ext.pi
                    assert levels == [side.level(x) for x in elements], (p, r0, cap, family)
                    assert {cap, cap + 1, -1} <= set(levels)
                    for x in elements:
                        a, b, c, d = x
                        for bail in (0, 1, deepest - 1, deepest, deepest + 2):
                            top, exponents = _prime_powers(p, bail)
                            got = _valuation_to_identity(math.gcd(b, c, d - a, top), a, exponents, spec.allow_sign)
                            assert got == valuation_by_factor_loop(math.gcd(b, c, d - a), a, p, bail, spec.allow_sign)
                    checked += len(elements)
    assert checked > 4000
    # the bound level function refuses what level_of refuses, with its messages
    spec = FiltrationSpec("pgamma", 3, 1, 3)
    for measure in (functools.partial(level_of, spec=spec), spec.level):
        with pytest.raises(TypeError, match=r"level_of expects a flat 2x2 tuple \(a, b, c, d\), got <class 'list'>"):
            measure([1, 0, 0, 1])
        with pytest.raises(ValueError, match="expected determinant 1, got 2"):
            measure((2, 0, 0, 1))


def random_element(alphabet, mul, rng, radius):
    """The word sampler before its table: a length from ``rng.randint``,
    then one ``rng.choice`` per letter, multiplied out from the first."""
    length = rng.randint(1, radius)
    out = rng.choice(alphabet)
    for _ in range(length - 1):
        out = mul(out, rng.choice(alphabet))
    return out


def _sampler_cases():
    """(alphabet, product, identity, level function): flat tuples over Z
    with 4, 6, 8 and 24 letters, free-group words with 4, 6 and 8."""
    flat = [m for q in (1, 2, 3, 4) for m in flat_congruence_basis(3, q)]
    measure = functools.partial(level_of, spec=FiltrationSpec("gamma", 3, 1, 3))
    cases = []
    for gens in (flat[:2], flat[:3], flat[:2] + flat[3:5], flat):
        cases.append((gens + [_flat_inv_z(m) for m in gens], _flat_mul_z, _FLAT_ID, measure))
    for rank in (2, 3, 4):
        words = [Word.generator(rank, i) for i in range(1, rank + 1)]
        cases.append((words + [w.inverse() for w in words], Word.__mul__, Word.identity(rank), lcs_depth2))
    return cases


def test_random_element_matches_identity_first_product():
    # the table-backed sampler draws each letter with one getrandbits call
    # and reuses short words: the same stream, elements and levels as the
    # randint/choice draw, which in turn equals multiplying the letters onto
    # the identity
    def identity_first(alphabet, mul, identity, rng, radius):
        out = identity
        for _ in range(rng.randint(1, radius)):
            out = mul(out, rng.choice(alphabet))
        return out

    for alphabet, mul, ident, measure in _sampler_cases():
        assert len(alphabet) in (4, 6, 8, 24)
        for radius in range(1, 7):
            sampler = WordSampler(alphabet, mul, radius, measure)
            new, old, skipped = (random.Random("sampler:%d" % radius) for _ in range(3))
            for batch in (0, 1, 2, 40, 1, 150):
                # advancing past a batch consumes its draws and builds nothing
                before = sampler.drawn, sampler.hits, dict(sampler._table)
                sampler.advance(skipped, batch)
                assert (sampler.drawn, sampler.hits, sampler._table) == before
                pairs = sampler.draw(new, batch)
                assert skipped.getstate() == new.getstate()
                assert len(pairs) == batch
                for w, level in pairs:
                    want = random_element(alphabet, mul, old, radius)
                    assert w == want and level == measure(want)
            assert sampler.drawn == 194
            assert new.random() == old.random()
        unmeasured = WordSampler(alphabet, mul, 6)
        new, old, first = (random.Random("sampler") for _ in range(3))
        for _ in range(200):
            (w, level), = unmeasured.draw(new, 1)
            assert level is None
            assert w == random_element(alphabet, mul, old, 6) == identity_first(alphabet, mul, ident, first, 6)
        assert new.random() == old.random() == first.random()


def test_sampler_refuses_what_randint_and_choice_refuse():
    # an empty alphabet or radius 0 would make the rejection loop spin
    alphabet, mul, _, _ = _sampler_cases()[0]
    for args in (([], 3), (alphabet, 0)):
        with pytest.raises(ValueError):
            WordSampler(args[0], mul, args[1])
    # past six letters a word would need more than one product of two entries
    with pytest.raises(ValueError):
        WordSampler(alphabet, mul, 7)


def test_sampler_hits_count_repeated_short_words():
    # with radius 1 every word is one letter: all but the first draw of each
    # letter come from the table
    alphabet, mul, _, measure = _sampler_cases()[1]
    sampler = WordSampler(alphabet, mul, 1, measure)
    words = [w for w, _ in sampler.draw(random.Random("hits"), 50)]
    assert sampler.hits == 50 - len(set(words)) > 0


def test_sample_level_counts_zero_and_one():
    # count 0 gives nothing and count 1 the identity alone; neither draws
    ext = congruence_extension(3, 1, 1, cap=2)
    for side in ("gamma", "pi"):
        ident, cap = getattr(ext.act, side).identity, getattr(ext, side).cap
        for level in (0, 2):
            rng = random.Random("counts")
            assert sample_level(ext, side, level, 0, rng) == []
            assert sample_level(ext, side, level, 1, rng) == [(ident, cap + 1)]
            assert rng.random() == random.Random("counts").random()
    assert ext.sampler_stats() == {"samples_drawn": 0, "short_word_hits": 0}


#: [X_q, Y_s] for basis classes X, Y, as coordinates at level q + s, keyed by
#: the number of coordinates: sl_2's structure constants for odd p, each row
#: a pair and its reverse, and zero at p = 2.  Written out by hand, as the
#: reference for the commutators of ``graded.SL2_BASIS``.
_BASIS_BRACKETS = {
    3: {
        "AB": (0, 0, 1), "BA": (0, 0, -1),
        "AD": (-2, 0, 0), "DA": (2, 0, 0),
        "BD": (0, 2, 0), "DB": (0, -2, 0),
        "AA": (0, 0, 0), "BB": (0, 0, 0), "DD": (0, 0, 0),
    },
    2: {"AB": (0, 0), "BA": (0, 0), "AA": (0, 0), "BB": (0, 0)},
}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_matrix_brackets_reproduce_the_hand_written_table(p):
    table = _BASIS_BRACKETS[graded.rank(p)]
    for q in (1, 2, 5):
        predicted = {(n1, n2): graded.read(graded.matrix_bracket(graded.SL2_BASIS[n1], graded.SL2_BASIS[n2]), p, q)
                     for n1, n2 in table}
        assert predicted == {(n1, n2): GradedClass(p, q, coords) for (n1, n2), coords in table.items()}


def _offset(c):
    """N for a class c: its coordinates times the matrices ``graded.SL2_BASIS``."""
    return tuple(sum(x * n[i] for x, n in zip(c.coords, graded.SL2_BASIS.values())) for i in range(4))


def _bracket_rule_mismatches():
    """The seeded class pairs, about a thousand over p in {2, 3, 5, 7} and
    q, s <= 3, whose group bracket is not the class of the matrix
    commutator [N(c1), N(c2)] at level q + s."""
    rng = random.Random("sl2 rule")
    mismatches = []
    for p, q, s in itertools.product((2, 3, 5, 7), (1, 2, 3), (1, 2, 3)):
        for _ in range(28):
            c1, c2 = (GradedClass(p, level, [rng.randrange(p) for _ in range(graded.rank(p))]) for level in (q, s))
            if graded.bracket(c1, c2) != graded.read(graded.matrix_bracket(_offset(c1), _offset(c2)), p, q + s):
                mismatches.append((c1, c2))
    return mismatches


def test_bracket_is_the_matrix_commutator_on_random_classes(monkeypatch):
    assert _bracket_rule_mismatches() == []
    # a commutator read as N2 N1 - N1 N2 is negated, which odd p sees
    pairing = graded.matrix_bracket
    monkeypatch.setattr(graded, "matrix_bracket", lambda n1, n2: pairing(n2, n1))
    assert {c1.p for c1, _ in _bracket_rule_mismatches()} == {3, 5, 7}


def _relation_mutations():
    """name -> (graded attribute, broken stand-in, the relations that must fail)."""
    pairing, power, predict = graded.bracket, graded.power_map, graded.matrix_bracket

    def squared(c):
        return GradedClass(c.p, c.q, tuple(x * x for x in c.coords))

    def swapped(n):
        return (n[0], n[2], n[1], n[3])

    def ordered(c1, c2):
        return pairing(c1, c2) if (c1.q, c1.coords) <= (c2.q, c2.coords) else pairing(c2, c1)

    return {
        "bracket negated": ("bracket", lambda c1, c2: class_neg(pairing(c1, c2)), {"basis_brackets"}),
        "bracket of squared coordinates": ("bracket", lambda c1, c2: pairing(squared(c1), squared(c2)),
                                           {"bilinearity_on_bases"}),
        "bracket symmetric": ("bracket", ordered,
                              {"basis_brackets", "bilinearity_on_bases", "antisymmetry_on_bases"}),
        "power map drops the diagonal": ("power_map",
                                         lambda c: GradedClass(c.p, c.q + 1, power(c).coords[:2] + (0,)),
                                         {"power_map_shifts_basis"}),
        "prediction with N01 and N10 swapped": ("matrix_bracket",
                                                lambda n1, n2: swapped(predict(n1, n2)), {"basis_brackets"}),
    }


@pytest.mark.parametrize("name", sorted(_relation_mutations()))
def test_relation_table_refuses_mutations(monkeypatch, name):
    attr, broken, laws = _relation_mutations()[name]
    assert graded.verify_relation_table(3, 4)["ok"]
    monkeypatch.setattr(graded, attr, broken)
    report = graded.verify_relation_table(3, 4)
    assert not report["ok"]
    assert {rel["id"] for rel in report["relations"] if rel["failures"]} == laws
    assert all(rel["pass"] == (not rel["failures"]) for rel in report["relations"])


def unshared_relation_table(p, q_max):
    """``verify_relation_table`` with every bracket computed where it is
    used, by ``graded.bracket``: the loops as they were before the table
    bracketed each distinct pair once."""
    names = ["A", "B"] if p == 2 else ["A", "B", "D"]
    cells = [(q, s) for q in range(1, q_max) for s in range(1, q_max) if q + s <= q_max]
    bracket_failures = []
    for q, s in cells:
        for (n1, n2), coords in _BASIS_BRACKETS[len(names)].items():
            got = graded.bracket(basis_class(p, q, n1), basis_class(p, s, n2))
            want = GradedClass(p, q + s, coords)
            if got != want:
                bracket_failures.append({"cell": [q, s], "pair": [n1, n2], "got": str(got), "want": str(want)})
    power_failures = []
    for q, name in itertools.product(range(1, q_max), names):
        got = graded.power_map(basis_class(p, q, name))
        want = basis_class(p, q + 1, name)
        if got != want:
            power_failures.append({"q": q, "name": name, "got": str(got), "want": str(want)})
    bilin_failures = []
    anti_failures = []
    for q, s in cells:
        at_q = [basis_class(p, q, n) for n in names]
        at_s = [basis_class(p, s, n) for n in names]
        for c1, c1b, c2 in itertools.product(at_q, at_q, at_s):
            if graded.bracket(class_add(c1, c1b), c2) != class_add(graded.bracket(c1, c2), graded.bracket(c1b, c2)):
                bilin_failures.append({"cell": [q, s], "slot": "left", "args": [str(c1), str(c1b), str(c2)]})
        for c1, c2, c2b in itertools.product(at_q, at_s, at_s):
            if graded.bracket(c1, class_add(c2, c2b)) != class_add(graded.bracket(c1, c2), graded.bracket(c1, c2b)):
                bilin_failures.append({"cell": [q, s], "slot": "right", "args": [str(c1), str(c2), str(c2b)]})
        for c1, c2 in itertools.product(at_q, at_s):
            if graded.bracket(c1, c2) != class_neg(graded.bracket(c2, c1)):
                anti_failures.append({"cell": [q, s], "args": [str(c1), str(c2)]})
    relations = [
        {"id": "basis_brackets", "cells": len(cells), "failures": bracket_failures},
        {"id": "power_map_shifts_basis", "cells": q_max - 1, "failures": power_failures},
        {"id": "bilinearity_on_bases", "cells": len(cells), "failures": bilin_failures},
        {"id": "antisymmetry_on_bases", "cells": len(cells), "failures": anti_failures},
    ]
    for rel in relations:
        rel["pass"] = not rel["failures"]
    return {"p": p, "q_max": q_max, "relations": relations, "ok": all(rel["pass"] for rel in relations)}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_relation_table_matches_unshared_brackets(monkeypatch, p):
    for q_max in (2, 3, 5, 6):
        assert graded.verify_relation_table(p, q_max) == unshared_relation_table(p, q_max), q_max
    # each distinct pair is bracketed once: 12 (p = 2) or 45 pairs at the
    # one cell of q_max 2, and 120 or 450 over the ten cells of q_max 5
    calls = []
    pairing = graded.bracket
    with monkeypatch.context() as patch:
        patch.setattr(graded, "bracket", lambda c1, c2: calls.append((c1, c2)) or pairing(c1, c2))
        for q_max, want in ((2, 12 if p == 2 else 45), (5, 120 if p == 2 else 450)):
            calls.clear()
            graded.verify_relation_table(p, q_max)
            assert len(calls) == len(set(calls)) == want, q_max
    if p == 2:
        return   # the mutants build three coordinates
    # each mutant's failures are reported alike, in the same order
    for attr, broken, _ in _relation_mutations().values():
        if attr == "matrix_bracket":
            continue   # the oracle reads its own table, not the prediction
        with monkeypatch.context() as patch:
            patch.setattr(graded, attr, broken)
            assert graded.verify_relation_table(p, 3) == unshared_relation_table(p, 3), attr


def _holomorph_backends():
    """(action, Gamma generators, pi generators, radius) of both backends."""
    gens = flat_congruence_basis(3, 1)
    free = FreeGroupAction(2, 3, poison_action())
    words = [Word.generator(2, 1), Word.generator(2, 2)], [Word.generator(3, i) for i in (1, 2, 3)]
    return [(MatrixConjugation(), gens, gens, 4), (free, *words, 5)]


def _identity_mutations():
    """name -> (what to replace, broken stand-in built from the action and
    the original, the laws that must fail on both backends)."""
    def twisted_by_g(act, mul):
        return lambda a, b, _: SemiElem(act.gamma.mul(a.f, b.f), act.pi.mul(act.apply(b.f, a.x), b.x))

    def gamma_reversed(act, mul):
        return lambda a, b, _: SemiElem(act.gamma.mul(b.f, a.f), mul(a, b, act).x)

    def pi_reversed(act, mul):
        return lambda a, b, _: SemiElem(mul(a, b, act).f, act.pi.mul(b.x, act.apply(act.gamma.inv(b.f), a.x)))

    return {
        "inverse without the action": (
            "semi_inv", lambda act, inv: lambda a, _: SemiElem(act.gamma.inv(a.f), act.pi.inv(a.x)),
            {"inverse_formula", "conjugation_closed_form", "commutator_closed_form"}),
        "conjugation with the factors swapped": (
            "semi_conj", lambda act, conj: lambda a, b, _: conj(b, a, act), {"conjugation_closed_form"}),
        "commutator with the factors swapped": (
            "semi_comm", lambda act, comm: lambda a, b, _: comm(b, a, act), {"commutator_closed_form"}),
        "product twisted by g": ("semi_mul", twisted_by_g, {
            "inverse_formula", "conjugation_by_inverse", "conjugation_closed_form", "commutator_closed_form",
            "associativity"}),
        "Gamma parts multiplied in reverse": ("semi_mul", gamma_reversed, {
            "conjugation_closed_form", "commutator_closed_form", "associativity", "projection_hom"}),
        "pi parts multiplied in reverse": ("semi_mul", pi_reversed, {
            "conjugation_closed_form", "commutator_closed_form", "inclusion_hom"}),
        "action by f^-1": ("apply", lambda act, apply: lambda f, x: apply(act.gamma.inv(f), x), {"associativity"}),
        "action not multiplicative on pi": ("apply", lambda act, apply: lambda f, x: act.pi.mul(apply(f, x), x), {
            "inverse_formula", "associativity", "inclusion_hom"}),
    }


@pytest.mark.parametrize("name", sorted(_identity_mutations()))
def test_holomorph_identities_refuse_mutations(monkeypatch, name):
    attr, make, laws = _identity_mutations()[name]
    for act, gamma_gens, pi_gens, radius in _holomorph_backends():
        assert holomorph.verify_holomorph_identities(act, gamma_gens, pi_gens, 40, 7, radius)["ok"]
        with monkeypatch.context() as patch:
            if attr == "apply":
                patch.setattr(act, "apply", make(act, act.apply))
            else:
                patch.setattr(holomorph, attr, make(act, getattr(holomorph, attr)))
            report = holomorph.verify_holomorph_identities(act, gamma_gens, pi_gens, 40, 7, radius)
        assert not report["ok"]
        assert {check["id"] for check in report["checks"] if check["failures"]} == laws, type(act).__name__
        assert all(check["pass"] == (not check["failures"]) for check in report["checks"])


def test_every_law_has_a_mutant():
    relations = {rel["id"] for rel in graded.verify_relation_table(3, 2)["relations"]}
    assert set().union(*(laws for _, _, laws in _relation_mutations().values())) == relations
    act, gamma_gens, pi_gens, radius = _holomorph_backends()[0]
    report = holomorph.verify_holomorph_identities(act, gamma_gens, pi_gens, 0, 0, radius=4)
    checks = {check["id"] for check in report["checks"]}
    assert len(relations) == 4 and len(checks) == 7
    assert set().union(*(laws for _, _, laws in _identity_mutations().values())) == checks


def _report_digest(out):
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_law_and_tower_grids_keep_their_digests():
    # digests of the relation tables, the identity reports and the tower
    # certificates over a grid each, recorded before the relation table and
    # the identities each read their laws from one table.  An identity
    # report holds only counts, so its digest pins that no law fails at any
    # seed and that count 0 still lists all seven laws
    tables = [graded.verify_relation_table(p, q) for p in (2, 3, 5) for q in range(2, 17)]
    assert _report_digest(tables) == "d515c7972ad52fcab68cb2bc93077ae8036f7188ac984f079f113f1c38c9f939"
    cong, free = _holomorph_backends()
    for count, digest in ((300, "b019f0fd171fdf14d0166ac473e7e1c3715f02b44fe1933b5bcd4f38413ce01f"),
                          (0, "c1effd5706812350bfc10e44be51c7e1af8e2ec87d9726f8c5443c73d9f5c1c3")):
        reports = []
        for seed in range(6):
            for p in (2, 3, 5):
                gens = flat_congruence_basis(p, 1)
                reports.append(holomorph.verify_holomorph_identities(cong[0], gens, gens, count, seed, radius=4))
            reports.append(holomorph.verify_holomorph_identities(*free[:3], count, seed, free[3]))
        assert _report_digest(reports) == digest, count
    towers = [tower_invariants(p, i, j, family) for p in (2, 3, 5, 7, 1048573) for i in range(1, 6)
              for j in range(i + 1, i + 8) for family in ("gamma", "pgamma")]
    assert _report_digest(towers) == "d84bc0aaf1c5f342c7f5974a7bf589131ee172900fd356c81c0872f3446f5c91"


def test_rep_grid_keeps_its_digest():
    # faithfulness reports and ball checks over a grid of rings, recorded
    # before the rep's pairs became holomorph pairs under RingConjugation
    rings = (None, Modulus(2, 2), Modulus(2, 3), Modulus(3, 2), Modulus(5, 1))
    out = {"faithful": [linrep.verify_faithful(n, m, 40, seed) for n in (1, 2, 3) for m in rings for seed in (0, 1)],
           "ball": [linrep.ball_injectivity(p, 1, t, 2, 0) for p in (2, 3, 5) for t in (2, 3, 4)]}
    assert _report_digest(out) == "9e9e230897d1957e3aecc8906004e0d85e9ad1870c74c46b6e2710955fde117f"


def _faithful_mutations():
    """name -> (owner, attribute, broken stand-in for it)."""
    def product(pi_part):
        return lambda a, b, act: SemiElem(act.gamma.mul(a.f, b.f), pi_part(a, b, act))

    return {
        "twist on the right": (linrep, "semi_mul", product(
            lambda a, b, act: act.pi.mul(b.x, act.apply(act.gamma.inv(b.f), a.x)))),
        "untwisted": (linrep, "semi_mul", product(lambda a, b, act: act.pi.mul(a.x, b.x))),
        "twist by g": (linrep, "semi_mul", product(lambda a, b, act: act.pi.mul(act.apply(b.f, a.x), b.x))),
        "conjugation by f^-1": (linrep.RingConjugation, "apply", lambda self, f, x: f.inverse() * x * f),
    }


@pytest.mark.parametrize("name", sorted(_faithful_mutations()))
def test_faithfulness_suite_refuses_mutations(monkeypatch, name):
    # rho and act read the pair itself, the product comes from
    # holomorph.semi_mul under RingConjugation: a wrong product law breaks
    # both the homomorphism and the left action
    owner, attr, broken = _faithful_mutations()[name]
    for n, modulus in ((2, Modulus(3, 2)), (3, Modulus(2, 2)), (2, None)):
        assert linrep.verify_faithful(n, modulus, 60, 1)["ok"]
        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, broken)
            report = linrep.verify_faithful(n, modulus, 60, 1)
        assert report["hom_failures"] > 0 and report["left_action_failures"] > 0, (n, modulus)
        assert not report["ok"]


def test_faithfulness_centre_is_the_gamma_comparison(monkeypatch):
    # "trivial modulo the centre" is RingConjugation's Gamma comparison
    # alone: with exact equality on Gamma the probe (8I, I) at Z/9 counts
    build = linrep.RingConjugation.__init__

    def exact_gamma(self, n, modulus):
        build(self, n, modulus)
        self.gamma = dataclasses.replace(self.gamma, norm=None)

    assert linrep.verify_faithful(2, Modulus(3, 2), 20, 0)["ok"]
    monkeypatch.setattr(linrep.RingConjugation, "__init__", exact_gamma)
    report = linrep.verify_faithful(2, Modulus(3, 2), 20, 0)
    assert report["kernel_probes"]["violations"] == 1 and not report["ok"]


def _sign_class_count(p, i, j):
    """The {M, -M} classes of SL(2, Z/p^j) whose members are +-I mod p^i,
    by brute force over every entry in those residue classes."""
    m, step = p ** j, p ** i
    classes = set()
    for s in (1, -1):
        diag = range(s % step, m, step)
        off = range(0, m, step)
        for a, b, c, d in itertools.product(diag, off, off, diag):
            if (a * d - b * c) % m == 1:
                classes.add(min((a, b, c, d), (-a % m, -b % m, -c % m, -d % m)))
    return len(classes)


# At p = 2, q >= 2 the certificate divides by every central scalar lambda
# with lambda^2 = 1 mod 2^j, not by +-I alone, so it does not answer for the
# chain level_of measures (ROADMAP item 9).
_TWO_DEFINITIONS = pytest.mark.xfail(strict=True, reason="pgamma at p = 2 quotients by more than +-I")


@pytest.mark.parametrize("p, i, j", [
    (3, 1, 2), (3, 1, 3), (2, 1, 2),
    pytest.param(2, 1, 3, marks=_TWO_DEFINITIONS), pytest.param(2, 2, 3, marks=_TWO_DEFINITIONS),
    pytest.param(2, 2, 4, marks=_TWO_DEFINITIONS), pytest.param(2, 3, 4, marks=_TWO_DEFINITIONS),
])
def test_pgamma_certificate_matches_sign_class_quotients(p, i, j):
    assert tower_invariants(p, i, j, "pgamma")["order"] == _sign_class_count(p, i, j)

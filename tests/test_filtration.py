import random

import pytest

from filtra.exactmat import IntMat, Modulus, ModMat, PslClass, parse_matrix, psl_class
from filtra.filtration import (
    FiltrationSpec,
    GuardError,
    check_p_congruence,
    congruence_basis,
    kernel_enumerate,
    level_of,
)

PG3 = FiltrationSpec("pgamma", 3, 1, 3)
G3 = FiltrationSpec("gamma", 3, 1, 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        FiltrationSpec("other", 3)
    with pytest.raises(ValueError):
        FiltrationSpec("gamma", 4)
    with pytest.raises(ValueError):
        FiltrationSpec("gamma", 3, 0)


def _is_saturated(level, spec):
    return type(level) is int and level == spec.depth_cap + 1


def test_level_of_examples():
    assert _is_saturated(level_of(IntMat.identity(2), PG3), PG3)
    assert level_of(parse_matrix("1,3;0,1"), PG3) == 0
    assert level_of(parse_matrix("1,9;0,1"), PG3) == 1
    assert _is_saturated(level_of(parse_matrix("-1,0;0,-1"), PG3), PG3)
    assert level_of(parse_matrix("-1,0;0,-1"), G3) == -1
    assert level_of(parse_matrix("1,1;0,1"), PG3) == -1
    # negated deep element: sign class only in the pgamma family
    m = parse_matrix("-1,-9;0,-1")
    assert level_of(m, PG3) == 1
    assert level_of(m, G3) == -1


def test_level_of_modular_inputs():
    deep = Modulus(3, PG3.r0 + PG3.depth_cap + 1)
    assert level_of(ModMat(((1, 9), (0, 1)), deep), PG3) == 1
    assert _is_saturated(level_of(psl_class(ModMat(((-1, 0), (0, -1)), deep)), PG3), PG3)
    with pytest.raises(GuardError):
        level_of(ModMat.identity(2, Modulus(3, 2)), PG3)
    with pytest.raises(ValueError):
        level_of(ModMat.identity(2, Modulus(5, 6)), PG3)
    with pytest.raises(ValueError):
        level_of(IntMat.identity(3), PG3)
    with pytest.raises(ValueError):
        level_of(parse_matrix("2,0;0,2"), PG3)


def test_level_of_rejects_sign_class_in_gamma_family():
    # {M, -M} has no gamma level: -I is in the pgamma chain but not in Gamma(3)
    deep = Modulus(3, 6)
    minus_i = psl_class(ModMat(((-1, 0), (0, -1)), deep))
    assert _is_saturated(level_of(minus_i, PG3), PG3)
    with pytest.raises(ValueError):
        level_of(minus_i, G3)


def test_level_of_checks_modular_determinant():
    deep = Modulus(3, 6)
    with pytest.raises(ValueError):
        level_of(ModMat(((28, 0), (0, 1)), deep), PG3)
    with pytest.raises(ValueError):
        level_of(PslClass(ModMat(((28, 0), (0, 1)), deep)), PG3)
    with pytest.raises(ValueError):
        level_of((28, 0, 0, 1), PG3)
    assert level_of(ModMat(((28, 0), (0, 703)), deep), PG3) == 2   # 28 * 703 = 1 mod 729


def test_kernel_enumerate_odd_prime():
    t = kernel_enumerate(3, 1, 2, "pgamma")
    assert t.order == 27 and t.exponent() == 3 and t.is_elementary_abelian()
    assert t.minimal_generators() == 3
    tg = kernel_enumerate(3, 1, 2, "gamma")
    assert tg.order == 27 and tg.minimal_generators() == 3


def test_kernel_enumerate_p2():
    for q in (1, 2, 3):
        t = kernel_enumerate(2, q, q + 1, "pgamma")
        assert t.order == 4 and t.exponent() == 2 and t.minimal_generators() == 2
    # without the scalar identification the kernel keeps its third direction
    tg = kernel_enumerate(2, 2, 3, "gamma")
    assert tg.order == 8 and tg.minimal_generators() == 3


def test_kernel_orders_match_formula():
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        tg = kernel_enumerate(3, i, j, "gamma")
        assert tg.order == 3 ** (3 * (j - i))
        tp = kernel_enumerate(3, i, j, "pgamma")
        assert tp.order == tg.order  # no scalar identification at odd p
    for (i, j) in ((1, 2), (2, 3)):
        tg = kernel_enumerate(2, i, j, "gamma")
        tp = kernel_enumerate(2, i, j, "pgamma")
        assert tg.order == 2 ** (3 * (j - i))
        assert tp.order == tg.order // len(tp.scalars)


def test_kernel_enumerate_single_layer_structure():
    # one layer at a time: elementary abelian of rank 3 (odd p) or 2 (p=2)
    for p, rank in ((3, 3), (5, 3), (2, 2)):
        t = kernel_enumerate(p, 1, 2, "pgamma")
        assert t.is_elementary_abelian()
        assert t.minimal_generators() == rank


def test_generating_set_sizes():
    t = kernel_enumerate(3, 1, 3, "pgamma")
    gens = t.generating_set()
    assert len(gens) == t.minimal_generators() == 3
    closure = t._closure(gens)
    assert len(closure) == t.order


def test_kernel_enumerate_guard():
    with pytest.raises(GuardError):
        kernel_enumerate(3, 1, 6)
    with pytest.raises(ValueError):
        kernel_enumerate(3, 2, 2)
    with pytest.raises(ValueError):
        kernel_enumerate(6, 1, 2)


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("FILTRA_MAX_ENUM", "10")
    with pytest.raises(GuardError):
        kernel_enumerate(3, 2, 3)
    monkeypatch.setenv("FILTRA_MAX_ENUM", str(10 ** 8))
    t = kernel_enumerate(3, 2, 3)
    assert t.order == 27
    # the guard also refuses a table that is already cached
    monkeypatch.setenv("FILTRA_MAX_ENUM", "10")
    with pytest.raises(GuardError):
        kernel_enumerate(3, 2, 3)


def test_guard_counts_determinant_one_triples(monkeypatch):
    # the work is p^{3(j-i)} triples (a, b, c): 27 for (3, 2, 3)
    monkeypatch.setenv("FILTRA_MAX_ENUM", "27")
    assert kernel_enumerate(3, 2, 3).order == 27
    monkeypatch.setenv("FILTRA_MAX_ENUM", "26")
    with pytest.raises(GuardError):
        kernel_enumerate(3, 2, 3)


def test_subgroup_and_normality_invariants():
    rng = random.Random("invariants")
    gens = []
    for level in range(3):
        gens.extend(congruence_basis(3, 1 + level).values())
    gens += [g.inverse() for g in gens]
    ambient = [
        parse_matrix("1,0;0,-1"),
        parse_matrix("0,1;-1,0"),
        parse_matrix("1,1;0,1"),
    ]
    for _ in range(200):
        x = IntMat.identity(2)
        y = IntMat.identity(2)
        for _ in range(rng.randint(1, 5)):
            x = x * rng.choice(gens)
            y = y * rng.choice(gens)
        lx, ly = level_of(x, PG3), level_of(y, PG3)
        assert level_of(x * y, PG3) >= min(lx, ly)
        g = IntMat.identity(2)
        for _ in range(rng.randint(1, 3)):
            g = g * rng.choice(ambient)
        conj = g * x * g.inverse()
        assert level_of(conj, PG3) == lx


def test_check_p_congruence_bound():
    for spec in (PG3, G3):
        report = check_p_congruence(spec, 3, 3)
        assert report["ok"], report
        assert all(pair["d"] == 3 for pair in report["pairs"])
    report = check_p_congruence(PG3, 3, 2)
    assert not report["ok"]
    failing = [pair for pair in report["pairs"] if not pair["pass"]]
    assert failing[0]["levels"] == [0, 1]
    assert not report["truncation_check"]["failures"]


def test_minimal_generators_trivial_group():
    from filtra.filtration import QuotientTable

    table = QuotientTable(3, 1, 2, "gamma", [(1, 0, 0, 1)], (1,))
    assert table.order == 1
    assert table.minimal_generators() == 0
    assert table.generating_set() == []


def test_quotient_table_identity_and_membership():
    t = kernel_enumerate(3, 1, 2, "pgamma")
    assert t.identity in t.elements
    x = t.elements[1]
    assert t.mul(x, t.inv(x)) == t.identity
    assert t.power(x, t.exponent()) == t.identity
    mats = t.matrices()
    assert len(mats) == t.order
    assert all(m.det() == 1 for m in mats)


def test_table_cache_returns_one_table_until_cleared():
    from filtra.filtration import clear_table_cache

    t = kernel_enumerate(3, 1, 2, "gamma")
    assert kernel_enumerate(3, 1, 2, "gamma") is t
    clear_table_cache()
    fresh = kernel_enumerate(3, 1, 2, "gamma")
    assert fresh is not t and fresh.elements == t.elements

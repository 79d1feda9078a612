import random

import pytest

from filtra.exactmat import Mat, Modulus, _FLAT_ID, _flat_inv_z, _flat_mul_z, _parse_flat_sl2
from filtra.filtration import (
    FiltrationSpec,
    GuardError,
    check_p_congruence,
    flat_congruence_basis,
    level_of,
)
from quotient_tables import kernel_enumerate

PG3 = FiltrationSpec("pgamma", 3, 1, 3)
G3 = FiltrationSpec("gamma", 3, 1, 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        FiltrationSpec("other", 3, 1, 4)
    with pytest.raises(ValueError):
        FiltrationSpec("gamma", 4, 1, 4)
    with pytest.raises(ValueError):
        FiltrationSpec("gamma", 3, 0, 4)
    with pytest.raises(ValueError):
        FiltrationSpec("gamma", 3, 1, -1)
    # only exact integers: a float p, r0 or depth cap would reach the levels
    for args in ((3.0, 1, 4), (3, 1.0, 4), (3, 1, 4.0)):
        with pytest.raises(ValueError, match="prime below 2|must be an integer"):
            FiltrationSpec("gamma", *args)


def _is_saturated(level, spec):
    return type(level) is int and level == spec.depth_cap + 1


def test_level_of_examples():
    flat = _parse_flat_sl2
    assert _is_saturated(level_of(_FLAT_ID, PG3), PG3)
    assert level_of(flat("1,3;0,1"), PG3) == 0
    assert level_of(flat("1,9;0,1"), PG3) == 1
    assert _is_saturated(level_of(flat("-1,0;0,-1"), PG3), PG3)
    assert level_of(flat("-1,0;0,-1"), G3) == -1
    assert level_of(flat("1,1;0,1"), PG3) == -1
    # negated deep element: sign class only in the pgamma family
    m = flat("-1,-9;0,-1")
    assert level_of(m, PG3) == 1
    assert level_of(m, G3) == -1


def test_level_of_modular_inputs():
    # only flat SL2(Z) tuples have a level; matrix objects are refused
    deep = Modulus(3, PG3.r0 + PG3.depth_cap + 1)
    for x in (Mat((1, 9, 0, 1), deep), Mat.identity(2), Mat.identity(3), [1, 0, 0, 1]):
        with pytest.raises(TypeError):
            level_of(x, PG3)
    with pytest.raises(ValueError):
        level_of((2, 0, 0, 2), PG3)


def test_level_of_rejects_sign_class_in_gamma_family():
    # -I is in the pgamma chain at every depth but not in Gamma(3)
    minus_i = (-1, 0, 0, -1)
    assert _is_saturated(level_of(minus_i, PG3), PG3)
    assert level_of(minus_i, G3) == -1
    assert level_of((-1, -27, 0, -1), G3) == -1


def test_level_of_checks_modular_determinant():
    # det 28 = 1 mod 27 is still not det 1: levels live in SL2(Z)
    with pytest.raises(ValueError):
        level_of((28, 0, 0, 1), PG3)
    with pytest.raises(ValueError):
        level_of((28, 0, 0, 703), PG3)
    assert level_of((28, 27, -27, -26), PG3) == 2   # 28 * -26 + 27 * 27 = 1


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
    mul = _flat_mul_z
    gens = []
    for level in range(3):
        gens.extend(flat_congruence_basis(3, 1 + level))
    gens += [_flat_inv_z(g) for g in gens]
    ambient = [_parse_flat_sl2("0,1;-1,0"), _parse_flat_sl2("1,1;0,1")]
    for _ in range(200):
        x = _FLAT_ID
        y = _FLAT_ID
        for _ in range(rng.randint(1, 5)):
            x = mul(x, rng.choice(gens))
            y = mul(y, rng.choice(gens))
        lx, ly = level_of(x, PG3), level_of(y, PG3)
        assert level_of(mul(x, y), PG3) >= min(lx, ly)
        g = _FLAT_ID
        for _ in range(rng.randint(1, 3)):
            g = mul(g, rng.choice(ambient))
        conj = mul(mul(g, x), _flat_inv_z(g))
        assert level_of(conj, PG3) == lx
        # conjugation by diag(1, -1), its own inverse, keeps the level too
        assert level_of(mul(mul((1, 0, 0, -1), x), (1, 0, 0, -1)), PG3) == lx


def test_check_p_congruence_bound():
    for spec in (PG3, G3):
        report = check_p_congruence(spec, 3, 3, seed=2715)
        assert report["ok"], report
        assert all(pair["d"] == 3 for pair in report["pairs"])
    report = check_p_congruence(PG3, 3, 2, seed=2715)
    assert not report["ok"]
    failing = [pair for pair in report["pairs"] if not pair["pass"]]
    assert failing[0]["levels"] == [0, 1]
    assert not report["truncation_check"]["failures"]


def test_minimal_generators_trivial_group():
    from quotient_tables import QuotientTable

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
    assert len(t.elements) == t.order
    assert all((a * d - b * c) % t.m == 1 for a, b, c, d in t.elements)


def test_table_cache_returns_one_table_until_cleared():
    from quotient_tables import clear_table_cache

    t = kernel_enumerate(3, 1, 2, "gamma")
    assert kernel_enumerate(3, 1, 2, "gamma") is t
    clear_table_cache()
    fresh = kernel_enumerate(3, 1, 2, "gamma")
    assert fresh is not t and fresh.elements == t.elements

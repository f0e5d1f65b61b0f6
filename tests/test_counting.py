import random
from fractions import Fraction

import pytest

from latcount.errors import EmptyReport, ResidueBudgetExceeded
from latcount.interval import RealInterval, log2_fraction
from latcount.liedata import root_system
from latcount.counting import (
    BoundParams,
    distinct_prime_count,
    gaussian_binomial,
    lower_growth_assemble,
    rank_bound_gl,
    sn_composition_bound,
    sn_rank_bound,
    subgroup_count_elem_abelian,
    upper_growth_assemble,
)

from oracles import subgroup_count_brute

A1 = root_system("A", 1)


def test_gaussian_binomial_pins():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(5, 5, 7) == 1
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 1, 1)


def test_gaussian_binomial_symmetry():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 8)
        j = rng.randint(0, n)
        p = rng.choice([2, 3, 5, 7])
        assert gaussian_binomial(n, j, p) == gaussian_binomial(n, n - j, p)


def test_subgroup_counts_match_brute_force():
    for p in (2, 3):
        for d in range(1, 5):
            assert subgroup_count_elem_abelian(p, d) == subgroup_count_brute(p, d)
    assert subgroup_count_elem_abelian(2, 3) == 16
    assert subgroup_count_elem_abelian(2, 4) == 67
    for p in (2, 3, 5, 11):
        assert subgroup_count_elem_abelian(p, 1) == 2


def test_subgroup_count_dominates_quarter_square():
    for p in (2, 3, 5, 7):
        for d in range(1, 9):
            assert subgroup_count_elem_abelian(p, d) >= p ** (d * d // 4)
    with pytest.raises(ValueError):
        subgroup_count_elem_abelian(2, 0)


def test_chain_bound_pins():
    assert sn_composition_bound(5, 3, 10, 2) == 1500
    assert sn_rank_bound(12, 3) == 12 ** 6
    assert sn_rank_bound(1, 5) == 1
    assert rank_bound_gl(2, 1) == 8
    assert rank_bound_gl(2, 3) == 24
    assert rank_bound_gl(1, 1) == 2
    with pytest.raises(ValueError):
        sn_composition_bound(0, 1, 1, 0)
    with pytest.raises(ValueError):
        sn_rank_bound(0, 1)
    with pytest.raises(ValueError):
        rank_bound_gl(0, 1)


def test_distinct_prime_count():
    pins = {1: 0, 2: 1, 12: 2, 100: 2, 720: 3, 1009: 1, 1024: 1, 30030: 6}
    for n, nu in pins.items():
        assert distinct_prime_count(n) == nu
    with pytest.raises(ValueError):
        distinct_prime_count(0)


def test_bound_params_validation():
    p = BoundParams()
    assert p.as_dict() == {
        "C": 1, "C1": 1, "C2": 1, "c4": 1, "f1": 1, "s_embed": 2,
    }
    assert p.defaulted == ("C", "C1", "C2", "c4", "f1", "s_embed")
    assert type(BoundParams(C=2).C) is Fraction
    BoundParams(C1=Fraction(0))
    BoundParams(c4=Fraction(0))
    for bad in (
        dict(C=0), dict(C2=0), dict(f1=0),
        dict(C1=Fraction(-1)), dict(c4=Fraction(-1)), dict(s_embed=0),
    ):
        with pytest.raises(ValueError):
            BoundParams(**bad)


def test_bound_params_from_config():
    p = BoundParams.from_config({"C1": "1/2", "s_embed": 3, "c4": 0.25})
    assert p.C1 == Fraction(1, 2)
    assert p.c4 == Fraction(1, 4)
    assert p.s_embed == 3
    assert p.defaulted == ("C", "C2", "f1")
    with pytest.raises(ValueError):
        BoundParams.from_config({"C9": 1})


def _c1_martinet():
    return RealInterval(Fraction("11480.34"), Fraction("11480.37"))


def test_lower_growth_martinet_shape():
    rep = lower_growth_assemble(_c1_martinet(), A1, 3, 0, [20, 40, 80])
    assert rep.c3 == 27
    assert rep.p_prime == 3 and rep.lie_name == "A1"
    assert rep.c2_exponent == Fraction(1, 4)
    # with c4 = 0 and even degrees, c2 is exactly 3^(1/4)
    assert rep.c2.lo ** 4 <= 3 <= rep.c2.hi ** 4
    assert [r.degree for r in rep.rows] == [20, 40, 80]
    assert all(r.included for r in rep.rows)
    assert rep.rows[0].subgroup_exponent == 100
    assert rep.rows[0].index_bound == 27 ** 20
    assert rep.rows[0].covolume_bound.encloses(
        RealInterval(Fraction("11480.34") ** 20, Fraction("11480.37") ** 20)
    )
    assert Fraction("0.0011907") < rep.a.lo
    assert rep.a.hi < Fraction("0.0011908")


def test_lower_growth_discount():
    rep = lower_growth_assemble(_c1_martinet(), A1, 3, 1, [20, 40, 80])
    assert [r.net_count_exponent for r in rep.rows] == [80, 360, 1520]
    assert rep.c2_exponent == Fraction(1, 5)
    partial = lower_growth_assemble(_c1_martinet(), A1, 3, 1, [2, 20])
    assert [r.included for r in partial.rows] == [False, True]
    assert len(partial.included_rows()) == 1
    with pytest.raises(EmptyReport):
        lower_growth_assemble(_c1_martinet(), A1, 3, 1000, [20, 40, 80])


def test_lower_growth_rejections():
    c1 = _c1_martinet()
    with pytest.raises(ValueError):
        lower_growth_assemble(c1, A1, 4, 0, [20])
    with pytest.raises(ValueError):
        lower_growth_assemble(c1, A1, 3, -1, [20])
    with pytest.raises(EmptyReport):
        lower_growth_assemble(c1, A1, 3, 0, [])
    with pytest.raises(ValueError):
        lower_growth_assemble(c1, A1, 3, 0, [20, 20])
    with pytest.raises(ValueError):
        lower_growth_assemble(c1, A1, 3, 0, [40, 20])
    with pytest.raises(ValueError):
        lower_growth_assemble(RealInterval.point(1), A1, 3, 0, [20])


def test_lower_growth_a_decreases_in_c1():
    base = lower_growth_assemble(_c1_martinet(), A1, 3, 0, [20, 40, 80])
    doubled = lower_growth_assemble(_c1_martinet() * 2, A1, 3, 0, [20, 40, 80])
    assert doubled.a.hi < base.a.lo


def test_upper_growth_pin():
    params = BoundParams()
    ub = upper_growth_assemble(100, params, [(2, 1), (3, 1)])
    assert ub.nu == 2
    assert ub.rank_sum == 16
    assert ub.quotient_exponent == 19
    assert ub.B == 35
    assert "= 35" in ub.breakdown()
    assert upper_growth_assemble(100, params, []).B == 3


def test_upper_growth_budget():
    params = BoundParams()
    with pytest.raises(ResidueBudgetExceeded):
        upper_growth_assemble(100, params, [(2, 20)])
    # boundary: budget^2 <= x exactly
    half = BoundParams(C1=Fraction(1, 2))
    assert upper_growth_assemble(4, half, [(2, 1)]).B > 0
    with pytest.raises(ResidueBudgetExceeded):
        upper_growth_assemble(4, half, [(3, 1)])
    zero = BoundParams(C1=Fraction(0))
    assert upper_growth_assemble(100, zero, []).B == 3
    with pytest.raises(ResidueBudgetExceeded):
        upper_growth_assemble(100, zero, [(2, 1)])


def test_upper_growth_rejections():
    params = BoundParams()
    with pytest.raises(ValueError):
        upper_growth_assemble(1, params, [])
    with pytest.raises(ValueError):
        upper_growth_assemble(100, params, [(4, 1)])
    with pytest.raises(ValueError):
        upper_growth_assemble(100, params, [(2, 0)])


def test_upper_growth_ratio_decays_over_decades():
    params = BoundParams()
    prev = None
    for k in range(2, 7):
        x = 10 ** k
        ub = upper_growth_assemble(x, params, [(2, 1), (3, 1)])
        assert ub.B == 35  # nu(10^k) = 2 for every k
        ratio = RealInterval.point(ub.B).div(log2_fraction(x, 96), 80)
        if prev is not None:
            assert ratio.hi < prev.lo
        prev = ratio
    first = RealInterval.point(35).div(log2_fraction(100, 96), 80)
    assert Fraction("5.2680") < first.lo and first.hi < Fraction("5.2681")

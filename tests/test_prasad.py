from fractions import Fraction

import pytest

from latcount.interval import RealInterval
from latcount.liedata import OUTER_2, outer2_signs, parse_type, root_system, with_form
from latcount.numfield import field_from_polynomial
from latcount.pisot_tower import (
    fixed_signature_sequence,
    quadratic_extension,
    tower_lookup,
)
from latcount.prasad import (
    CovolumeResult,
    abs_norm_bound,
    covolume,
    covolume_synthetic,
    covolume_upper_c1,
    dedekind_zeta_partial,
    finite_group_order,
    local_factor,
    prime_splitting,
)

from oracles import (
    bernoulli,
    dirichlet_l2_bracket,
    pi_bracket,
    sl2_order_brute,
    sp4_order_f2,
    su3_order_f2,
    zeta2_bracket,
    zeta_even_bracket,
)

A1 = root_system("A", 1)
C2 = root_system("C", 2)


def test_orders_match_brute_force():
    for q in (2, 3, 4, 5):
        assert finite_group_order(A1, q) == sl2_order_brute(q)
    assert finite_group_order(C2, 2) == sp4_order_f2()


def test_outer_order_su3():
    outer_a2 = with_form(root_system("A", 2), OUTER_2)
    signs = outer2_signs(outer_a2)
    assert finite_group_order(outer_a2, 2, signs) == su3_order_f2() == 216


def test_order_pins_and_divisibility():
    a2 = root_system("A", 2)
    assert finite_group_order(a2, 2) == 168
    assert finite_group_order(a2, 3) == 5616
    for data in (A1, C2, a2, root_system("G", 2)):
        n_pos = (data.dim - data.rank) // 2
        for q in (2, 3, 4):
            assert finite_group_order(data, q) % q ** n_pos == 0


def test_order_rejections():
    with pytest.raises(ValueError):
        finite_group_order(A1, 1)
    with pytest.raises(ValueError):
        finite_group_order(C2, 2, signs=(-1,))
    with pytest.raises(ValueError):
        finite_group_order(A1, 2, signs=(0,))


def test_local_factor():
    assert local_factor(A1, 2) == Fraction(4, 3)
    assert local_factor(A1, 4) == Fraction(16, 15)
    assert local_factor(C2, 2) == Fraction(64, 45)
    for q in (2, 3, 5):
        assert local_factor(C2, q) > 1


def test_prime_splitting_golden():
    k = field_from_polynomial("x^2-x-1", known_disc=5)
    inert = prime_splitting(k, 2)
    assert inert.residue_degrees == (2,) and not inert.ramified
    ram = prime_splitting(k, 5)
    assert ram.ramified and not ram.conservative
    split = prime_splitting(k, 11)
    assert split.residue_degrees == (1, 1)


def test_prime_splitting_conservative_flag():
    # x^2-5 has disc(Z[theta]) = 20; with the true field disc 5 supplied,
    # p = 2 is an index obstruction only
    with_disc = field_from_polynomial("x^2-5", known_disc=5)
    sp = prime_splitting(with_disc, 2)
    assert sp.ramified and sp.conservative
    without = field_from_polynomial("x^2-5")
    sp2 = prime_splitting(without, 2)
    assert sp2.ramified and not sp2.conservative


def test_prime_splitting_cubic():
    k = field_from_polynomial("x^3-x-1")
    assert prime_splitting(k, 23).ramified
    assert prime_splitting(k, 2).residue_degrees == (3,)
    for p in (3, 7, 13, 29):
        sp = prime_splitting(k, p)
        assert sum(sp.residue_degrees) == 3


def test_zeta_rationals_pi_squared_over_six():
    q = field_from_polynomial("x-1")
    iv = dedekind_zeta_partial(q, 2, 10 ** 4)
    oracle = RealInterval(*zeta2_bracket(5000))
    assert iv.intersect(oracle) is not None
    assert iv.width() < Fraction(1, 10 ** 3)
    with pytest.raises(ValueError):
        dedekind_zeta_partial(q, 1, 100)
    with pytest.raises(ValueError):
        dedekind_zeta_partial(q, 2, 1)


def test_zeta_nesting():
    q = field_from_polynomial("x-1")
    k = field_from_polynomial("x^2-x-1", known_disc=5)
    for field in (q, k):
        coarse = dedekind_zeta_partial(field, 2, 10 ** 3)
        fine = dedekind_zeta_partial(field, 2, 10 ** 4)
        assert coarse.encloses(fine)


def test_zeta_large_s_bernoulli_oracle():
    # for large s the outward rounding, not the tail, sets the width
    q = field_from_polynomial("x-1")
    pi = pi_bracket()
    assert RealInterval(*zeta2_bracket(4000)).encloses(
        RealInterval(*zeta_even_bracket(2, pi))
    )
    for s in range(2, 31, 2):
        zeta = RealInterval(*zeta_even_bracket(s, pi))
        coarse = dedekind_zeta_partial(q, s, 10 ** 3)
        fine = dedekind_zeta_partial(q, s, 10 ** 4)
        assert coarse.encloses(zeta) and fine.encloses(zeta), s
        assert coarse.encloses(fine), s


def test_zeta_golden_against_dirichlet_factorization():
    # zeta_k(2) = zeta(2) L(2, chi_5) for k = Q(sqrt 5)
    k = field_from_polynomial("x^2-x-1", known_disc=5)
    iv = dedekind_zeta_partial(k, 2, 10 ** 4)
    chi5 = (0, 1, -1, -1, 1)
    oracle = RealInterval(*zeta2_bracket(4000)) * RealInterval(
        *dirichlet_l2_bracket(chi5, 5, 4000)
    )
    assert iv.intersect(oracle) is not None


def test_covolume_rationals_a1():
    q = field_from_polynomial("x-1")
    res = covolume(q, None, A1, prime_bound=10 ** 4)
    assert res.value.contains(Fraction(1, 24))
    assert res.value.width() < Fraction(1, 10 ** 4)
    assert res.factor_product().encloses(res.value)
    assert res.disc_factor.contains(1)
    assert res.prime_bound_used == 10 ** 4
    # the same pass snapshots the bound-1000 value, which must nest
    assert res.coarse_value.encloses(res.value)
    assert covolume(q, None, A1, prime_bound=1000).value == res.coarse_value
    assert covolume(q, None, A1, prime_bound=100).coarse_value is None


@pytest.mark.parametrize(
    "family, rank",
    [("A", 1), ("B", 2), ("G", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("E", 7), ("E", 8)],
)
def test_covolume_over_q_contains_bernoulli_closed_form(family, rank):
    # every exponent is odd, so covolume = prod |zeta(-m_i)| / 2^rank with
    # zeta(-m) = -B_(m+1) / (m+1); a tiny (2 pi)^-N must not collapse lo to 0
    data = root_system(family, rank)
    res = covolume(field_from_polynomial("x-1"), None, data, prime_bound=10 ** 4)
    exact = Fraction(1, 1 << rank)
    for m in data.exponents:
        exact *= abs(bernoulli(m + 1)) / (m + 1)
    assert res.value.contains(exact)
    assert res.value.lo > 0


def test_covolume_lambda_bracket():
    q = field_from_polynomial("x-1")
    res = covolume(q, None, A1, p0=2, prime_bound=10 ** 3)
    assert res.lambda_bound.lo == 1 and res.lambda_bound.hi == 8
    assert res.value.hi <= res.factor_product().hi


def test_covolume_outer_needs_extension():
    k = field_from_polynomial("x^2-x-1", known_disc=5)
    outer_a2 = with_form(root_system("A", 2), OUTER_2)
    with pytest.raises(ValueError):
        covolume(k, None, outer_a2, prime_bound=100)
    theta = k.element([0, 1])
    ext = quadratic_extension(k, theta)
    assert abs_norm_bound(ext) == 1
    res = covolume(k, ext, outer_a2, prime_bound=100)
    # 5^(dim/2) = 625 times the bracket [1, (4^d |N|)^(s/2)] = [1, 1024]
    assert res.disc_factor.lo == 625
    assert res.disc_factor.hi == 640000


def test_c1_martinet_pin():
    entry = tower_lookup("martinet")[0]
    c1 = covolume_upper_c1(entry.rd_constant, A1, 2)
    assert Fraction("11480.34") < c1.lo
    assert c1.hi < Fraction("11480.37")
    # pi^2 cancels in the A1, p0 = 2 case: c1 = c0^(3/2) / 3
    closed = entry.rd_constant.pow_frac(Fraction(3, 2), 160) * Fraction(1, 3)
    assert c1.intersect(closed) is not None
    with pytest.raises(ValueError):
        covolume_upper_c1(entry.rd_constant, with_form(root_system("A", 2), OUTER_2), 2)


def test_synthetic_upper_endpoint_matches_c1_power():
    entry = tower_lookup("martinet")[0]
    seq = fixed_signature_sequence(entry, t=1, levels=3)
    c1 = covolume_upper_c1(seq[0].rd_bound, A1, 2)
    for synth in seq:
        res = covolume_synthetic(synth.rd_bound, synth.degree, A1, 2)
        assert isinstance(res, CovolumeResult)
        assert res.value.hi == c1.hi ** synth.degree
        assert res.value.lo > 0
        assert res.lambda_bound.lo == 1
        assert res.euler_factor.lo == 1


@pytest.mark.parametrize("tower", ["golod-shafarevich", "martinet", "hajir-maire"])
@pytest.mark.parametrize("type_name", ["A1", "A2", "B3", "G2", "D5", "E8"])
def test_synthetic_value_is_factor_product_and_c1_power(tower, type_name):
    # the value is built from the per-degree ends, not as a product of powers
    entry = tower_lookup(tower)[0]
    data = parse_type(type_name)
    c1 = covolume_upper_c1(entry.rd_constant, data, 2)
    for level in range(3):
        d = entry.base_degree << level
        res = covolume_synthetic(entry.rd_constant, d, data, 2)
        assert res.value == res.factor_product()
        assert res.value.hi == c1.hi ** d


def test_synthetic_euler_true_value_inside():
    # the bracketed Euler range [1, (pi^2/6)^(d r)] must hold a concrete
    # zeta product: zeta(2) for the rationals sits inside [1, pi^2/6]
    entry = tower_lookup("martinet")[0]
    synth = fixed_signature_sequence(entry, t=1, levels=1)[0]
    res = covolume_synthetic(synth.rd_bound, synth.degree, A1, 2)
    z2 = RealInterval(*zeta2_bracket(2000))
    assert res.euler_factor.lo <= z2.lo
    per_degree_hi = RealInterval.point(res.euler_factor.hi).nth_root(
        synth.degree, 64
    )
    assert z2.hi <= per_degree_hi.hi * (1 + Fraction(1, 10 ** 6))

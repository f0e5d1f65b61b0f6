from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, reject, settings, strategies as st
from mpmath import libmp, mp

from latcount import prasad
from latcount.cli import entry
from latcount.errors import ReduciblePolynomial
from latcount.interval import (
    RealInterval,
    _character_classes,
    _hurwitz_l_values,
    cyclic_zeta_intervals,
    pi_interval,
    zeta_interval,
)
from latcount.liedata import (
    dump_table,
    outer2_signs,
    outer_form,
    parse_type,
    root_system,
)
from latcount.numfield import field_from_polynomial
from latcount.pisot_tower import (
    fixed_signature_sequence,
    quadratic_extension,
    tower_catalog,
    tower_lookup,
)
from latcount.polymod import distinct_degree_degrees, prime_list
from latcount.prasad import (
    CLOSED_FORM_MAX_CONDUCTOR,
    CovolumeResult,
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
    cyclic_cubic_zeta_neg,
    dirichlet_l2_bracket,
    pi_bracket,
    quadratic_field_disc,
    siegel_zeta_neg,
    sl2_order_brute,
    squarefree_core,
    sp4_order_f2,
    su3_order_f2,
    zeta2_bracket,
    zeta_even_bracket,
    zeta2_l3_chi_minus3_bracket,
)

A1 = root_system("A", 1)
C2 = root_system("C", 2)


def test_orders_match_brute_force():
    for q in (2, 3, 4, 5):
        assert finite_group_order(A1, q) == sl2_order_brute(q)
    assert finite_group_order(C2, 2) == sp4_order_f2()


def test_outer_order_su3():
    outer_a2 = outer_form(root_system("A", 2))
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
    assert prime_splitting(k, 2) == (2,)
    assert prime_splitting(k, 5) == ()
    assert prime_splitting(k, 11) == (1, 1)


def test_prime_splitting_cubic():
    k = field_from_polynomial("x^3-x-1")
    assert prime_splitting(k, 23) == ()
    expected = {2: (3,), 3: (3,), 5: (1, 2), 7: (1, 2), 11: (1, 2), 13: (3,),
                29: (3,), 59: (1, 1, 1)}
    for p, degs in expected.items():
        assert prime_splitting(k, p) == degs, p


def _chi(disc, p):
    """The Kronecker symbol (disc/p) as a bool, for p not dividing disc."""
    return disc % 8 == 1 if p == 2 else pow(disc, (p - 1) // 2, p) == 1


def _assert_splitting_matches_ddf(k, primes):
    # () exactly at the primes dividing disc(Z[theta]), known_disc or not
    for p in primes:
        expected = () if k.zk_disc % p == 0 else distinct_degree_degrees(k.min_poly.coefficients, p)
        assert prime_splitting(k, p) == expected, p


# (polynomial, known_disc).  x^2-x-1 (D = 5) and x^2-x-3 (D = 13) are 5 mod 8,
# so 2 is inert; x^2+x+2 (D = -7) is 1 mod 8, so 2 splits.  x^3+2x+1
# (D = -59 = 5 mod 8) gives the (1, 2) pattern at p = 2, and x^3-x-1 leaves
# its (D/p) = +1 primes to the distinct-degree path.  The other cubics are
# cyclic, D = m^2, split by residue class mod m: x^3-3x+1 and x^3-x^2-4x-1
# (m = 9, 13), x^3-3x^2-6x-1 (m = 27, conductor 9, index 3), x^3-3x^2-16x-1
# (m = 133 = 7*19, where "p splits iff p is a cube mod m" is wrong) and
# x^3-3x^2-18x-8 (m = 126, conductor 63: 2 divides only the index, and its
# splitting is still reported unknown).  x^4+8x+12 has D = 576^2 but Galois
# group A4, so its residue degrees are not a function of p mod 576.
SPLITTING_CORPUS = [
    ("x^2-x-1", None), ("x^2-82", None), ("x^2+x+1", None), ("x^2+x+2", None),
    ("x^2-x-3", None), ("x^2-45", 5), ("x^3-x-1", None), ("x^3-3x+1", None),
    ("x^3-x^2-4x-1", None), ("x^3+2x+1", None), ("x^3-3x^2-6x-1", 81),
    ("x^3-3x^2-16x-1", None), ("x^3-3x^2-18x-8", 3969), ("x^4+8x+12", None),
]


@pytest.mark.parametrize("poly, known_disc", SPLITTING_CORPUS)
def test_prime_splitting_matches_distinct_degree(poly, known_disc):
    k = field_from_polynomial(poly, known_disc=known_disc)
    _assert_splitting_matches_ddf(k, prime_list(2 * 10 ** 4))


def test_cyclic_cubic_splitting_does_not_depend_on_prime_order():
    primes = prime_list(2 * 10 ** 4)
    descending = field_from_polynomial("x^3-3x^2-16x-1")
    _assert_splitting_matches_ddf(descending, primes[::-1])
    ascending = field_from_polynomial("x^3-3x^2-16x-1")
    for p in primes:
        prime_splitting(ascending, p)
    assert len(ascending.frobenius_classes) == 108  # phi(133)
    assert descending.frobenius_classes == ascending.frobenius_classes


@pytest.mark.parametrize("poly, classes", [
    ("x^2-82", 160), ("x^2+x+2", 6), ("x^2-45", 48), ("x^2+x+100001", 0),
])
def test_quadratic_splitting_is_kept_per_class_mod_disc(poly, classes):
    # (D/p) depends on p mod |D| alone, so one class per unit mod |D|, kept
    # only while |D| <= 2^16 (D = -400003 keeps none)
    k = field_from_polynomial(poly)
    unramified = [p for p in prime_list(10 ** 4) if k.zk_disc % p]
    expected = [(1, 1) if _chi(k.zk_disc, p) else (2,) for p in unramified]
    assert [prime_splitting(k, p) for p in unramified] == expected
    assert len(k.frobenius_classes) == classes  # phi(|D|) or 0


@pytest.mark.parametrize("poly, known_disc", [
    ("x^2-45", 5), ("x^2-5", 5), ("x^3-3x^2-18x-8", 3969),
])
def test_euler_factor_does_not_read_known_disc(poly, known_disc):
    # each known_disc differs from disc(Z[theta]); the Euler pass reads only
    # disc(Z[theta]), so the primes dividing just the index stay unknown
    data = parse_type("A2")
    told = field_from_polynomial(poly, known_disc=known_disc)
    untold = field_from_polynomial(poly)
    assert told.abs_disc != untold.abs_disc
    bounds = [100, 2000]
    assert prasad.euler_product_E(told, data, bounds) == prasad.euler_product_E(untold, data, bounds)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(f=st.lists(st.integers(-30, 30), min_size=2, max_size=3).map(lambda f: f + [1]))
def test_prime_splitting_matches_distinct_degree_random(f):
    try:
        k = field_from_polynomial(f)
    except ReduciblePolynomial:
        reject()
    _assert_splitting_matches_ddf(k, prime_list(2000))


def _count_ddf(monkeypatch):
    calls = []

    def counted(f, p):
        calls.append(p)
        return distinct_degree_degrees(f, p)

    monkeypatch.setattr(prasad, "distinct_degree_degrees", counted)
    return calls


@pytest.mark.parametrize("field", ["Q", "x^2-x-1", "x^2-82", "x^2+x+1"])
def test_covolume_of_degree_at_most_two_skips_distinct_degree(monkeypatch, capsys, field):
    calls = _count_ddf(monkeypatch)
    assert entry(["covolume", "--field", field, "--type", "A1", "--prime-bound", "10000"]) == 0
    assert calls == []


@pytest.mark.parametrize("field", ["x^3-x-1", "x^3+2x+1", "x^3-x^2-4x-1"])
def test_cubic_covolume_factors_only_primes_with_square_discriminant(
    monkeypatch, capsys, field
):
    # the inner forms of a cyclic cubic of conductor 13 visit no prime, so
    # there the outer A2 keeps the Euler pass
    calls = _count_ddf(monkeypatch)
    disc = field_from_polynomial(field).zk_disc
    outer = ["--outer", "--alpha=0,1,0"] if disc > 0 and isqrt(disc) ** 2 == disc else []
    argv = ["covolume", "--field", field, "--type", "A2", "--prime-bound", "10000", *outer]
    assert entry(argv) == 0
    unramified = [p for p in prime_list(10 ** 4) if disc % p]
    m = isqrt(disc) if disc > 0 else 0
    if m * m == disc:
        # cyclic: one factorization per residue class mod m, at its first prime
        first = {}
        for p in unramified:
            first.setdefault(p % m, p)
        assert calls == sorted(first.values()) and len(calls) == 12
    else:
        assert calls == [p for p in unramified if _chi(disc, p)]


@pytest.mark.parametrize("field, euler", [
    ("x^2-x-28", "[1.9462250911, 1.946225091101]"),
    ("x^3-x-1", "[1.105797525919, 1.112759829069]"),
    ("x^3+2x+1", "[1.471619479643, 1.473772479974]"),
    ("x^3-x^2-4x-1", "[1.16691147756, 1.166911477561]"),  # the closed form
    ("x^3-3x^2-16x-1", "[1.121317035807, 1.121317035808]"),  # conductor 19, the closed form
])
def test_covolume_euler_factor_golden(capsys, field, euler):
    assert entry(["covolume", "--field", field, "--type", "A1", "--prime-bound", "10000"]) == 0
    assert f"euler_factor: {euler}\n" in capsys.readouterr().out


def test_covolume_euler_factor_golden_at_default_bound(capsys):
    # an outer form over the cyclic cubic takes the Euler pass; the inner A2
    # is exact from the Hurwitz series at its odd s, inside the pass's
    # bracket [1.19089671068, 1.214019284824] at this bound
    argv = ["covolume", "--field", "x^3-x^2-4x-1", "--type", "A2"]
    assert entry([*argv, "--outer", "--alpha=0,1,0"]) == 0
    assert "euler_factor: [1.128594856437, 1.214019284824]\n" in capsys.readouterr().out
    assert entry(argv) == 0
    assert "euler_factor: [1.198531875465, 1.198531875466]\n" in capsys.readouterr().out


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
    # over Q the zeta values do not depend on the bound, so the bound-1000
    # snapshot is the value itself
    assert res.coarse_value == res.value
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
    # the zeta values are exact to the working precision, not to a prime bound
    assert res.value.width() < res.value.lo / 2 ** 100


def _refuse(*args):
    raise AssertionError("the prime loop ran")


def _count_passes(monkeypatch):
    """The list that gains one entry per call of prasad._zeta_pass."""
    calls = []
    euler_pass = prasad._zeta_pass
    monkeypatch.setattr(prasad, "_zeta_pass", lambda *a: calls.append(1) or euler_pass(*a))
    return calls


@pytest.mark.parametrize("argv", [
    "--type E8",
    "--type A1 --prime-bound 1000",
    "--type G2 --p0 3",
    "--type A2 --outer --alpha -3 --s-param 5",
])
def test_covolume_over_q_visits_no_prime(monkeypatch, capsys, argv):
    monkeypatch.setattr(prasad, "_zeta_pass", _refuse)
    monkeypatch.setattr(prasad, "prime_list", _refuse)
    assert entry(["covolume", "--field", "Q", *argv.split()]) == 0
    out = capsys.readouterr().out
    assert "\nnesting_check: ok\n" in out and "\nprime_bound_used: " in out


@pytest.mark.parametrize("type_name", ["A3", "B2", "G2", "E6", "E8"])
def test_covolume_over_q_is_the_same_at_every_bound(type_name):
    q = field_from_polynomial("x-1")
    data = parse_type(type_name)
    res = covolume(q, None, data, prime_bound=10 ** 5)
    assert res.coarse_value == res.value
    assert covolume(q, None, data, prime_bound=100).value == res.value


# ------------------------------------------------ real quadratic closed form

def _real_quadratic_presentations() -> list:
    """50 monic quadratics of real quadratic fields, 22 of them non-maximal:
    x^2 - d and x^2 - 9d, and x^2 - x - (d-1)/4 where d = 1 mod 4, over
    squarefree d, and x^2-45, x^2-24, x^2-5 and x^2-188.  Every x^2 - d with
    d = 1 mod 4 and every x^2 - 9d is non-maximal as well."""
    polys = ["x^2-45", "x^2-24", "x^2-5", "x^2-188"]
    for d in range(2, 46):
        if squarefree_core(d) == d:
            polys.append(f"x^2-{d}")
            if d % 4 == 1:
                polys.append(f"x^2-x-{(d - 1) // 4}")
            if d < 20:
                polys.append(f"x^2-{9 * d}")
    return list(dict.fromkeys(polys))


REAL_QUADRATICS = _real_quadratic_presentations()


@pytest.mark.parametrize("poly", REAL_QUADRATICS)
def test_real_quadratic_covolume_is_siegels_value(poly):
    # over a totally real K of degree 2 an all-odd type has covolume
    # prod |zeta_K(-m_i)| / 2^(2 rank): zeta_K(-1)/4 for A1, and
    # zeta_K(-1) zeta_K(-3)/16 for B2, from Siegel's sigma_1 and sigma_3 sums
    k = field_from_polynomial(poly)
    dk = quadratic_field_disc(k.zk_disc)
    assert k.conductors == (dk,)
    z1, z3 = siegel_zeta_neg(dk, 1), siegel_zeta_neg(dk, 3)
    a1 = covolume(k, None, A1, prime_bound=1000)
    assert a1.value.contains(z1 / 4) and a1.value.width() < a1.value.lo / 2 ** 100
    assert a1.coarse_value == a1.value
    b2 = covolume(k, None, parse_type("B2"), prime_bound=100)
    assert b2.value.contains(z1 * z3 / 16) and b2.value.width() < b2.value.lo / 2 ** 90


@pytest.mark.parametrize("poly", ["x^2-x-1", "x^2-2", "x^2-45", "x^2-188", "x^2-x-28", "x^2-24",
                                  "x^3+x^2-2x-1", "x^3-3x+1", "x^3-x^2-4x-1", "x^3-2x^2-5x-1",
                                  "x^3-4x^2-7x-1"])
def test_closed_form_lies_inside_the_euler_pass(poly):
    k = field_from_polynomial(poly)
    closed = cyclic_zeta_intervals(*k.conductors, k.degree, [2, 4, 6], 144)
    (euler,) = prasad._zeta_pass(k, [2, 4, 6], [10 ** 4], 144)
    for s in (2, 4, 6):
        assert euler[s].encloses(closed[s]), s
        assert closed[s].width() < Fraction(1, 2 ** 140)


@pytest.mark.parametrize("type_name", ["A1", "B2", "G2", "E8"])
def test_presentations_of_one_field_give_one_covolume(type_name):
    data = parse_type(type_name)
    values = [covolume(field_from_polynomial(poly), None, data, prime_bound=100).value
              for poly in ("x^2-5", "x^2-x-1", "x^2-45")]
    assert values[0] == values[1] == values[2]


@pytest.mark.parametrize("argv", [
    "--type A1",
    "--type G2 --prime-bound 1000",
    "--type D4 --outer --alpha=-1,1",
])
def test_real_quadratic_at_even_s_visits_no_prime(monkeypatch, capsys, argv):
    monkeypatch.setattr(prasad, "_zeta_pass", _refuse)
    monkeypatch.setattr(prasad, "prime_list", _refuse)
    assert entry(["covolume", "--field", "x^2-x-1", *argv.split()]) == 0
    assert "\nnesting_check: ok\n" in capsys.readouterr().out


@pytest.mark.parametrize("poly, type_name, dk", [
    ("x^2+3", "A1", -3),  # imaginary: the Hurwitz series
    ("x^2-45", "A2", 5),  # odd s: the Hurwitz series at s = 3
    ("x^2-400196", "A1", 100049),  # d_K past CLOSED_FORM_MAX_CONDUCTOR, non-maximal
])
def test_euler_pass_fields_take_the_disc_factor_of_d_k(monkeypatch, poly, type_name, dk):
    # every quadratic takes the disc factor of d_K; the Euler pass runs only
    # past the closed-form conductor cap
    calls = _count_passes(monkeypatch)
    k, data = field_from_polynomial(poly), parse_type(type_name)
    res = covolume(k, None, data, prime_bound=1000)
    assert abs(k.zk_disc) != abs(dk) and k.conductors == (dk,)
    assert calls == ([1] if abs(dk) > CLOSED_FORM_MAX_CONDUCTOR else [])
    wp = k.precision + 16
    assert res.disc_factor == RealInterval.point(abs(dk)).pow_frac(Fraction(data.dim, 2), wp)
    if dk > CLOSED_FORM_MAX_CONDUCTOR:
        assert res.value.contains(siegel_zeta_neg(dk, 1) / 4)


# ------------------------------------------------ cyclic cubic closed form

# poly -> (coefficients, constant first; conductor f; zeta_K(-1)): x^3+x^2-2x-1
# and x^3-3x+1 (f = 7 and 9), and the Shanks cubics x^3 - a x^2 - (a+3) x - 1
# for a = 1, 2 and 4, whose disc(Z[theta]) is (a^2 + 3a + 9)^2
CYCLIC_CUBICS = {
    "x^3+x^2-2x-1": ([-1, -2, 1, 1], 7, Fraction(-1, 21)),
    "x^3-3x+1": ([1, -3, 0, 1], 9, Fraction(-1, 9)),
    "x^3-x^2-4x-1": ([-1, -4, -1, 1], 13, Fraction(-1, 3)),
    "x^3-2x^2-5x-1": ([-1, -5, -2, 1], 19, Fraction(-1)),
    "x^3-4x^2-7x-1": ([-1, -7, -4, 1], 37, Fraction(-7)),
}


@pytest.mark.parametrize("poly", CYCLIC_CUBICS)
def test_cyclic_cubic_covolume_is_the_bernoulli_value(poly):
    # over a totally real cubic an all-odd type has covolume
    # prod |zeta_K(-m_i)| / 2^(3 rank); the oracle takes chi from root counts
    coeffs, f, z1 = CYCLIC_CUBICS[poly]
    k = field_from_polynomial(poly)
    assert k.zk_disc == f * f and k.conductors == (f,)
    zeta_neg = {m: cyclic_cubic_zeta_neg(coeffs, f, m + 1) for m in (1, 3, 5)}
    assert zeta_neg[1] == z1
    a1 = covolume(k, None, A1, prime_bound=1000)
    assert a1.value.contains(abs(z1) / 8) and a1.value.width() < a1.value.lo / 2 ** 100
    assert a1.coarse_value == a1.value
    for type_name, m in (("B2", 3), ("G2", 5)):
        res = covolume(k, None, parse_type(type_name), prime_bound=100)
        exact = abs(zeta_neg[1] * zeta_neg[m]) / 64
        assert res.value.contains(exact) and res.value.width() < res.value.lo / 2 ** 90


@pytest.mark.parametrize("argv", [
    "x^3+x^2-2x-1 --type A1",
    "x^3-3x+1 --type G2 --prime-bound 1000",
    "x^3-4x^2-7x-1 --type E8",
])
def test_cyclic_cubic_at_even_s_visits_no_prime(monkeypatch, capsys, argv):
    monkeypatch.setattr(prasad, "_zeta_pass", _refuse)
    monkeypatch.setattr(prasad, "prime_list", _refuse)
    assert entry(["covolume", "--field", *argv.split()]) == 0
    assert "\nnesting_check: ok\n" in capsys.readouterr().out


@pytest.mark.parametrize("poly, type_name", [
    ("x^3-6x^2-9x-1", "A1"),  # d_K = 63^2: conductor 63, of two cubic fields
    ("x^3-x-1", "A1"),  # not cyclic
])
def test_other_cubics_take_the_euler_pass(monkeypatch, poly, type_name):
    calls = _count_passes(monkeypatch)
    covolume(field_from_polynomial(poly), None, parse_type(type_name), prime_bound=1000)
    assert calls == [1]


def test_a_cubic_of_several_conductors_takes_the_hull_of_their_discs(monkeypatch):
    # 189 = 27 7: Dedekind's criterion fails at 3, so v_3(f) is 0 or 2, and
    # holds at 7, so v_7(f) = 1: the conductor is 7 or 63, d_K is 49 or 3969,
    # and the pass runs
    calls = _count_passes(monkeypatch)
    k = field_from_polynomial("x^3+15x^2+12x-1")
    assert k.zk_disc == 189 ** 2 and k.conductors == (7, 63)
    assert k.abs_disc_range == (7 ** 2, 63 ** 2)
    res = covolume(k, None, A1, prime_bound=100)
    assert res.disc_factor.lo == 343 and res.disc_factor.hi == 250047  # 7^3, 63^3
    assert calls == [1]


def test_a_maximal_cubic_order_certifies_d_k(monkeypatch):
    # 63 = 7 9 allows the conductors 7, 9 and 63, but Dedekind's criterion
    # holds at 3 and 7, so Z[theta] is maximal and d_K = 63^2; conductor 63
    # belongs to two cubic fields, so the pass runs
    calls = _count_passes(monkeypatch)
    k = field_from_polynomial("x^3-6x^2-9x-1")
    assert k.conductors == (63,)
    assert k.abs_disc_range == (63 ** 2, 63 ** 2)
    res = covolume(k, None, A1, prime_bound=100)
    assert res.disc_factor == RealInterval.point(63 ** 3)
    assert calls == [1]


def test_shanks_a3_is_the_conductor_9_field(monkeypatch):
    # x^3-3x^2-6x-1 has disc(Z[theta]) = 27^2, and 27 allows conductor 9 alone:
    # the field of x^3-3x+1, whose A1 covolume is 1/72, from the closed form
    k = field_from_polynomial("x^3-3x^2-6x-1")
    assert k.zk_disc == 27 ** 2 and k.conductors == (9,)
    assert k.abs_disc_range == (81, 81)
    monkeypatch.setattr(prasad, "_zeta_pass", _refuse)
    shanks = covolume(k, None, A1, prime_bound=100)
    assert shanks.value == covolume(field_from_polynomial("x^3-3x+1"), None, A1).value
    assert shanks.value.contains(Fraction(1, 72))


def test_a_failed_criterion_narrows_the_conductor_prime_by_prime(monkeypatch):
    # x^3-3x^2-16x-1: 133 = 7 19, the criterion fails at 7 and holds at 19,
    # so the conductor is 19 alone and zeta_K(2) comes from the closed form:
    # the A1 covolume is |zeta_K(-1)| / 8 = 1/8, that of x^3-2x^2-5x-1
    monkeypatch.setattr(prasad, "_zeta_pass", _refuse)
    k = field_from_polynomial("x^3-3x^2-16x-1")
    assert k.conductors == (19,)
    res = covolume(k, None, A1)
    assert res.value.contains(Fraction(1, 8)) and res.value.width() < res.value.lo / 2 ** 100
    assert res.value == covolume(field_from_polynomial("x^3-2x^2-5x-1"), None, A1).value


@pytest.mark.parametrize("f, order, s", [(27, 3, 2), (91, 3, 2), (5, 3, 2), (-7, 3, 3), (7, 4, 2)])
def test_cyclic_zeta_refuses_what_it_cannot_serve(f, order, s):
    # 27 is no conductor, 91 = 7 13 that of four cubic fields, 5 is not 1 mod
    # 3; then a cubic character cannot be odd, and an order the kernel has
    # no character for
    with pytest.raises(ValueError):
        cyclic_zeta_intervals(f, order, [s], 64)


def test_imaginary_non_maximal_bracket_contains_the_truth():
    # covolume of A1 over Q(sqrt -3) = 3^(3/2) (2 pi)^-4 zeta(2) L(2, chi_-3),
    # about 0.004285; disc(Z[theta]) = -12 for x^2+3 would put it at 8 times that
    res = covolume(field_from_polynomial("x^2+3"), None, A1, prime_bound=10 ** 4)
    with mp.workprec(400):
        third = mp.mpf(1) / 3
        l2 = (mp.zeta(2, third) - mp.zeta(2, 2 * third)) / 9
        value = Fraction(*libmp.to_rational((mp.sqrt(27) * l2 / (96 * mp.pi ** 2))._mpf_))
    assert res.value.encloses(RealInterval(value * (1 - Fraction(1, 2 ** 300)),
                                           value * (1 + Fraction(1, 2 ** 300))))
    assert res.value.width() < res.value.lo / 2 ** 100


# ------------------------------------------------ Hurwitz series

# L(2, chi_-4) (Catalan's G) and L(2, chi_-3) to 40 decimals
CATALAN_40 = Fraction("0.9159655941772190150546035149323841107741")
L2_CHI_MINUS3_40 = Fraction("0.7813024128964862968671874296240923563651")


def _l_values(f, order, s, prec=144):
    """prod_chi L(s, chi) from the Hurwitz series alone, at any parity."""
    return _hurwitz_l_values(f, _character_classes(f, order), [s], prec)[s]


@pytest.mark.parametrize("f, digits", [(-4, CATALAN_40), (-3, L2_CHI_MINUS3_40)])
def test_hurwitz_series_gives_catalan_and_l2_chi_minus3(f, digits):
    l2 = _l_values(f, 2, 2)
    assert l2.intersect(RealInterval(digits, digits + Fraction(1, 10 ** 40))) is not None
    assert l2.width() < Fraction(1, 2 ** 140)


def test_hurwitz_series_at_a_matching_parity_is_the_closed_form():
    # L(3, chi_-4) = pi^3 / 32, and the even s of a real field, which the
    # Bernoulli closed form serves, from the series instead
    pi = pi_interval(160)
    assert _l_values(-4, 2, 3).intersect((pi ** 3) * Fraction(1, 32)) is not None
    for f, order in ((5, 2), (13, 2), (7, 3), (9, 3)):
        for s in (2, 4):
            series = zeta_interval(s, 144) * _l_values(f, order, s)
            closed = cyclic_zeta_intervals(f, order, [s], 144)[s]
            assert series.intersect(closed) is not None, (f, s)


@pytest.mark.parametrize("a", range(1, 61))
def test_imaginary_quadratic_series_lies_inside_the_euler_pass(a):
    k = field_from_polynomial(f"x^2+{a}")
    series = cyclic_zeta_intervals(*k.conductors, k.degree, range(2, 7), 144)
    (euler,) = prasad._zeta_pass(k, range(2, 7), [10 ** 4], 144)
    for s in range(2, 7):
        assert euler[s].encloses(series[s]), s
        assert series[s].width() < Fraction(1, 2 ** 140)


@pytest.mark.parametrize("poly", CYCLIC_CUBICS)
def test_cyclic_cubic_series_at_odd_s_lies_inside_the_euler_pass(poly):
    k = field_from_polynomial(poly)
    series = cyclic_zeta_intervals(*k.conductors, k.degree, [3, 5], 144)
    (euler,) = prasad._zeta_pass(k, [3, 5], [10 ** 4], 144)
    for s in (3, 5):
        assert euler[s].encloses(series[s]), s
        assert series[s].width() < Fraction(1, 2 ** 140)


@pytest.mark.parametrize("argv", [
    "x^2+7 --type A1",
    "x^2+3 --type A2",
    "x^2+1 --type E8",
    "x^2-5 --type A2",
    "x^3+x^2-2x-1 --type A2",
    "x^3-3x^2-6x-1 --type A1",
])
def test_imaginary_fields_and_odd_s_visit_no_prime(monkeypatch, capsys, argv):
    monkeypatch.setattr(prasad, "_zeta_pass", _refuse)
    monkeypatch.setattr(prasad, "prime_list", _refuse)
    assert entry(["covolume", "--field", *argv.split()]) == 0
    assert "\nnesting_check: ok\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    "x^2-5 --type A2 --outer --alpha 1,1",  # an outer form keeps the pass
    "x^3+x^2-2x-1 --type A2 --outer --alpha=0,1,0",
    "x^2+1299 --type A1",  # d_K = -1299: 1299 160 + 160^2 / 2 > SERIES_MAX_WORK
    "x^2+7 --type A1 --prec 2048",  # 2080^2 / 2 > SERIES_MAX_WORK
])
def test_outer_forms_and_work_past_the_cap_take_the_euler_pass(monkeypatch, capsys, argv):
    calls = _count_passes(monkeypatch)
    assert entry(["covolume", "--field", *argv.split(), "--prime-bound", "1000"]) == 0
    assert calls == [1]


def test_covolume_lambda_bracket():
    q = field_from_polynomial("x-1")
    res = covolume(q, None, A1, p0=2, prime_bound=10 ** 3)
    assert res.lambda_bound.lo == 1 and res.lambda_bound.hi == 8
    assert res.value.hi <= res.factor_product().hi


def test_covolume_outer_needs_extension():
    k = field_from_polynomial("x^2-x-1", known_disc=5)
    outer_a2 = outer_form(root_system("A", 2))
    with pytest.raises(ValueError):
        covolume(k, None, outer_a2, prime_bound=100)
    theta = k.element([0, 1])
    ext = quadratic_extension(k, theta)
    assert ext.disc_bound == 400
    res = covolume(k, ext, outer_a2, prime_bound=100)
    # 5^(dim/2) = 625 times the bracket [1, (4^d |N|)^(s/2)] = [1, 1024]
    assert res.disc_factor.lo == 625
    assert res.disc_factor.hi == 640000


def test_outer_euler_factor_contains_the_twisted_product(capsys):
    # outer A2 over Q split by Q(sqrt -3): the factor at the exponent 2 is
    # L(3, chi_-3), enclosed by [zeta(6)/zeta(3), zeta(3)]; the true product
    # zeta(2) L(3, chi_-3) = 1.4541... lies below zeta(2) zeta(3) = 1.9773...
    exact = RealInterval(*zeta2_l3_chi_minus3_bracket())
    assert Fraction("1.4541") < exact.lo < exact.hi < Fraction("1.4542")
    outer_a2 = outer_form(root_system("A", 2))
    q = field_from_polynomial("x-1")
    coarse, fine = prasad.euler_product_E(q, outer_a2, [10 ** 3, 10 ** 4])
    assert fine.encloses(exact) and coarse.encloses(fine)
    assert entry(["covolume", "--field", "Q", "--type", "A2", "--outer", "--alpha", "-3",
                  "--s-param", "5", "--prime-bound", "10000"]) == 0
    assert "\neuler_factor: [1.392165592104, 1.977304350298]\n" in capsys.readouterr().out
    # outer D4 twists one of its two exponents 3: the lower end is then
    # zeta(2) zeta(6) zeta(8), not zeta(2) zeta(6) zeta(8)^2 / zeta(4)
    outer_d4 = outer_form(root_system("D", 4))
    (euler,) = prasad.euler_product_E(q, outer_d4, [10 ** 4])
    pi = pi_bracket()
    z2, z6, z8 = (zeta_even_bracket(s, pi) for s in (2, 6, 8))
    assert z2[0] * z6[0] < euler.lo < z2[1] * z6[1] * z8[1]


def test_c1_martinet_pin():
    entry = tower_lookup("martinet")[0]
    c1 = covolume_upper_c1(entry.rd_constant, A1, 2)
    assert Fraction("11480.34") < c1.lo
    assert c1.hi < Fraction("11480.37")
    # pi^2 cancels in the A1, p0 = 2 case: c1 = c0^(3/2) / 3
    closed = entry.rd_constant.pow_frac(Fraction(3, 2), 160) * Fraction(1, 3)
    assert c1.intersect(closed) is not None
    with pytest.raises(ValueError):
        covolume_upper_c1(entry.rd_constant, outer_form(root_system("A", 2)), 2)


def _c1_reference(c0: Fraction, data, prec: int) -> Fraction:
    """c0^(dim/2) prod m_i!/(2 pi)^(m_i+1) 2^dim prod zeta(m_i+1), by mpmath at
    4 * prec bits."""
    with mp.workprec(4 * prec):
        value = (mp.mpf(c0.numerator) / c0.denominator) ** (mp.mpf(data.dim) / 2) * 2 ** data.dim
        for m in data.exponents:
            value *= mp.factorial(m) / (2 * mp.pi) ** (m + 1) * mp.zeta(m + 1)
        return Fraction(*libmp.to_rational(value._mpf_))


@pytest.mark.parametrize("entry", tower_catalog(None), ids=lambda e: e.name)
def test_c1_encloses_the_zeta_product_bound(entry):
    # the per-degree Euler bound is prod_i zeta(m_i + 1), since zeta_K(s) <=
    # zeta(s)^d; c1 must hold that bound at both ends of the tower's rd_constant
    for row in dump_table(12):
        data = parse_type(f"{row['family']}{row['rank']}")
        c1 = covolume_upper_c1(entry.rd_constant, data, 2)
        slack = Fraction(1, 2 ** 480)
        assert c1.lo <= _c1_reference(entry.rd_constant.lo, data, 128) * (1 + slack), data.name
        assert _c1_reference(entry.rd_constant.hi, data, 128) * (1 - slack) <= c1.hi, data.name


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

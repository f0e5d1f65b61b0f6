import random
from fractions import Fraction
from math import ceil, isqrt

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import libmp, mp

from latcount.errors import (
    AlphaPossiblySquare,
    AlphaZero,
    InvalidT,
    NotTotallyReal,
    PrecisionExhausted,
    ReduciblePolynomial,
    SearchExhausted,
    SignUncertifiable,
)
from latcount.interval import RealInterval
import latcount.numfield as numfield
from latcount.numfield import (
    element_norm,
    evaluate_at_embeddings,
    field_from_polynomial,
    minkowski_degree_bound,
)
from latcount.pisot_tower import (
    _norm_cap,
    _within_norm_cap,
    certified_signs,
    delta_for_field,
    delta_universal,
    find_pisot,
    fixed_signature_sequence,
    pisot_product_alpha,
    quadratic_extension,
    reverify_certificate,
    splitting_pattern,
    tower_catalog,
    tower_degrees,
    tower_lookup,
)


def _golden():
    return field_from_polynomial("x^2-x-1", known_disc=5)


def _assert_pisot_shape(cert):
    k = cert.field
    d = k.degree
    big = cert.enclosures[cert.place_index]
    assert big.lo > 1
    for j, iv in enumerate(cert.enclosures):
        if j != cert.place_index:
            assert iv.hi < 1 and iv.lo > -1
    # v1 <= 2^(d-1) sqrt(D), compared via squares to stay exact
    assert big.hi ** 2 <= 4 ** (d - 1) * k.abs_disc


def test_golden_certificate():
    k = _golden()
    cert = find_pisot(k)
    assert cert.element.coords == (1, -1)
    assert cert.norm_one_minus == -1
    _assert_pisot_shape(cert)
    assert Fraction("8.20") < cert.delta_bound.lo
    assert cert.delta_bound.hi < Fraction("8.22")
    assert reverify_certificate(cert)


def _mp_cap(d, D, prec):
    """3^(d-1) sqrt(D) + (3/2)^(d-1) as mpmath computes it at prec bits."""
    with mp.workprec(prec):
        cap = 3 ** (d - 1) * mp.sqrt(D) + mp.mpf(1.5) ** (d - 1)
    return Fraction(*libmp.to_rational(cap._mpf_))


@st.composite
def norm_cap_cases(draw):
    """(n1, d, D): n1 anywhere in [0, 2 cap] or on the 2^-64 grid next to it."""
    d = draw(st.integers(2, 8))
    D = draw(st.one_of(st.integers(2, 10 ** 6), st.integers(2, 1000).map(lambda r: r * r)))
    cap = _mp_cap(d, D, 64)
    n1 = draw(st.one_of(
        st.fractions(0, ceil(2 * cap), max_denominator=10 ** 6),
        st.integers(-8, 8).map(lambda j: Fraction(round(cap * 2 ** 64) + j, 2 ** 64)),
    ))
    return n1, d, D


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=norm_cap_cases(), prec=st.sampled_from((64, 128, 512)))
def test_norm_cap_exact_and_enclosed(case, prec):
    # n1 is 2^-64 away from an irrational cap by far more than the 4x
    # reference error; a square D makes the cap a dyadic that mpmath hits
    n1, d, D = case
    ref = _mp_cap(d, D, 4 * max(prec, 64))
    assert _within_norm_cap(n1, d, D) == (n1 <= ref)
    cap = _norm_cap(d, D, prec)
    slack = ref / 2 ** (4 * prec - 16)
    assert cap.lo - slack <= ref <= cap.hi + slack
    assert cap.width() <= Fraction(4, 2 ** prec)
    if isqrt(D) ** 2 == D:
        exact = 3 ** (d - 1) * isqrt(D) + Fraction(3, 2) ** (d - 1)
        assert cap.lo == cap.hi == exact
        assert _within_norm_cap(exact, d, D)
        assert not _within_norm_cap(exact + Fraction(1, 2 ** 64), d, D)


@pytest.mark.parametrize("a", range(-1, 5))
def test_shanks_delta_bound_is_exact(a):
    # x^3 - a x^2 - (a+3) x - 1 has disc (a^2+3a+9)^2, so the cap is rational
    k = field_from_polynomial([-1, -(a + 3), -a, 1])
    cert = find_pisot(k)
    assert cert.delta_bound.lo == cert.delta_bound.hi == 9 * (a * a + 3 * a + 9) + Fraction(9, 4)


@pytest.mark.parametrize("poly", ["x^2-x-1", "x^3-x^2-3x+1", "x^4-4x^2+2"])
@pytest.mark.parametrize("prec", [64, 128, 512])
def test_delta_bound_encloses_cap(poly, prec):
    k = field_from_polynomial(poly)
    cert = find_pisot(k, precision=prec)
    ref = _mp_cap(k.degree, k.abs_disc, 4 * cert.precision)
    slack = ref / 2 ** (4 * cert.precision - 16)
    assert cert.delta_bound.lo - slack <= ref <= cert.delta_bound.hi + slack
    assert cert.delta_bound.width() <= Fraction(4, 2 ** cert.precision)


def test_certificate_other_place():
    k = _golden()
    cert = find_pisot(k, place_index=1)
    _assert_pisot_shape(cert)
    assert reverify_certificate(cert)
    with pytest.raises(ValueError):
        find_pisot(k, place_index=2)


def test_sqrt3_certificate():
    k = field_from_polynomial("x^2-3", known_disc=12)
    cert = find_pisot(k)
    _assert_pisot_shape(cert)
    assert cert.norm_one_minus == element_norm(1 - cert.element)
    assert reverify_certificate(cert)


def test_not_totally_real():
    with pytest.raises(NotTotallyReal):
        find_pisot(field_from_polynomial("x^2+1"))
    with pytest.raises(NotTotallyReal):
        find_pisot(field_from_polynomial("x-1"))
    with pytest.raises(NotTotallyReal):
        pisot_product_alpha(field_from_polynomial("x^2+1"), 1)


def test_random_quartic_certificates():
    rng = random.Random(501)
    done = 0
    for _ in range(200):
        a = rng.randint(3, 12)
        b = rng.randint(1, (a * a) // 4 - 1) if a * a > 4 else 1
        try:
            k = field_from_polynomial([b, 0, -a, 0, 1])
        except ReduciblePolynomial:
            continue
        if k.signature != (4, 0):
            continue
        try:
            cert = find_pisot(k, search_radius=3)
        except SearchExhausted:
            continue
        _assert_pisot_shape(cert)
        assert reverify_certificate(cert)
        done += 1
        if done == 6:
            return
    raise AssertionError(f"only {done} quartic certificates found")


def test_certified_signs_and_pattern():
    k = _golden()
    theta = k.element([0, 1])
    assert certified_signs(k, theta) == (-1, 1)
    assert splitting_pattern(k, theta) == ("nonsplit", "split")
    assert certified_signs(k, k.element([2, -1])) == (1, 1)
    with pytest.raises(AlphaZero):
        certified_signs(k, k.zero())


def test_exhausted_precision_errors_print_coordinates(monkeypatch):
    k = _golden()  # built first: its known_disc runs the budgeted degree bound
    monkeypatch.setattr(numfield, "_MAX_REFINE_ROUNDS", 0)
    with pytest.raises(PrecisionExhausted) as exc:
        find_pisot(k)
    assert str(exc.value) == "pisot certification of 1,-1"
    with pytest.raises(SignUncertifiable) as exc:
        certified_signs(k, k.element([Fraction(1, 2), -1]))
    assert str(exc.value) == "sign of 1/2,-1 straddles zero"
    with pytest.raises(PrecisionExhausted) as exc:
        evaluate_at_embeddings(k.element([1, -1]), 64)
    assert str(exc.value) == "embedding images at 64 bits"
    with pytest.raises(PrecisionExhausted) as exc:
        minkowski_degree_bound(5)
    assert str(exc.value) == "degree bound for |disc| = 5"


def test_product_alpha_sign_counts():
    k = _golden()
    for t in (1, 2):
        alpha, signs = pisot_product_alpha(k, t)
        assert sum(1 for s in signs if s < 0) == t
        assert splitting_pattern(k, alpha).count("nonsplit") == t
    with pytest.raises(InvalidT):
        pisot_product_alpha(k, 0)
    with pytest.raises(InvalidT):
        pisot_product_alpha(k, 3)


def test_quadratic_extension_golden():
    k = _golden()
    theta = k.element([0, 1])
    ext = quadratic_extension(k, theta)
    assert ext.t == 1
    assert ext.disc_bound == 400           # ceil(D^2 4^d |N|) = 25 * 16 * 1
    assert ext.sign_pattern == (-1, 1)
    # rd cap is the better of the two routes; here the disc route wins
    assert Fraction("4.47") < ext.rd_bound.lo
    assert ext.rd_bound.hi < Fraction("4.48")
    assert ext.rd_bound.hi ** (2 * k.degree) <= ext.disc_bound + 1


def test_quadratic_extension_rationals():
    q = field_from_polynomial("x-1")
    ext = quadratic_extension(q, q.element([-1]))
    assert ext.t == 1
    assert ext.disc_bound == 4             # 1 * 4 * |N(-1)|
    assert ext.rd_bound.lo <= 2 <= ext.rd_bound.hi ** 2 * 2


def test_quadratic_extension_rejections():
    k = _golden()
    with pytest.raises(AlphaZero):
        quadratic_extension(k, k.zero())
    theta = k.element([0, 1])
    with pytest.raises(AlphaPossiblySquare):
        quadratic_extension(k, theta * theta)
    with pytest.raises(AlphaPossiblySquare):
        quadratic_extension(k, k.element([4, 0]))


def test_nonsplit_counts_match_t_random():
    rng = random.Random(907)
    fields = [
        _golden(),
        field_from_polynomial("x^2-3", known_disc=12),
        field_from_polynomial("x^2-x-3"),
    ]
    for _ in range(30):
        k = rng.choice(fields)
        t = rng.randint(1, k.degree)
        alpha, _ = pisot_product_alpha(k, t)
        ext = quadratic_extension(k, alpha)
        assert ext.t == t
        assert ext.sign_pattern.count(-1) == t


def test_delta_values():
    k = _golden()
    d_field = delta_for_field(k, 96)
    assert Fraction("1.30") < d_field.lo and d_field.hi < Fraction("1.31")
    # defining inequality: 3^(d-1) sqrt(D) + (3/2)^(d-1) <= D^delta
    lhs = RealInterval.point(5).sqrt(160) * 3 + Fraction(3, 2)
    rhs = RealInterval.point(5).pow_interval(d_field, 160)
    assert lhs.lo <= rhs.hi
    d_univ = delta_universal(96)
    assert Fraction("2.93") < d_univ.lo and d_univ.hi < Fraction("2.94")
    assert d_univ.lo > d_field.hi


def test_tower_catalog():
    entries = tower_catalog()
    names = {e.name for e in entries}
    assert {"martinet", "hajir-maire", "golod-shafarevich"} <= names
    for e in entries:
        assert e.rd_constant.lo > 1
        assert e.base_degree >= 1
    martinet = tower_lookup("martinet")[0]
    assert martinet.rd_constant.lo > 1058 and martinet.rd_constant.hi < 1059
    assert tower_lookup("no-such-tower") == []


def test_tower_degrees_double():
    entry = tower_lookup("martinet")[0]
    degs = tower_degrees(entry, 4)
    assert len(degs) == 4
    assert all(b == 2 * a for a, b in zip(degs, degs[1:]))
    assert degs[0] == entry.base_degree


def test_fixed_signature_sequence_level_independent():
    entry = tower_lookup("martinet")[0]
    seq = fixed_signature_sequence(entry, t=1, levels=3)
    assert len(seq) == 3
    assert [s.level for s in seq] == [0, 1, 2]
    assert [s.degree for s in seq] == [2 * d for d in tower_degrees(entry, 3)]
    assert all(s.r2 == 1 for s in seq)
    first = seq[0].rd_bound
    assert all(s.rd_bound == first for s in seq[1:])
    with pytest.raises(InvalidT):
        fixed_signature_sequence(entry, t=0)

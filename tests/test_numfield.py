import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from latcount.errors import (
    InvalidDiscriminant,
    ReduciblePolynomial,
    SearchExhausted,
)
from latcount.interval import RealInterval
import latcount.numfield as numfield
from latcount.numfield import (
    Polynomial,
    catalog_lookup,
    derived_minkowski_C,
    dump_field_catalog,
    element_norm,
    evaluate_at_embeddings,
    field_from_polynomial,
    load_field_catalog,
    minkowski_degree_bound,
    minkowski_norm_bound,
    minkowski_witness,
    poly_discriminant,
    root_discriminant,
    _sign_at,
)
from latcount.polymod import distinct_degree_degrees

from oracles import discriminant_oracle


def _random_poly(rng):
    d = rng.randint(1, 6)
    lead = rng.choice([c for c in range(-20, 21) if c])
    return Polynomial(tuple(rng.randint(-20, 20) for _ in range(d)) + (lead,))


def test_discriminant_matches_sylvester_oracle():
    rng = random.Random(1009)
    for _ in range(100):
        poly = _random_poly(rng)
        got = poly_discriminant(poly)
        want = discriminant_oracle(poly.coefficients)
        assert Fraction(got) == want, (poly.coefficients, got, want)


def test_discriminant_pins():
    assert poly_discriminant(Polynomial((-5, 0, 1))) == 20
    assert poly_discriminant(Polynomial((1, 0, 1))) == -4
    assert poly_discriminant(Polynomial((-1, -1, 0, 1))) == -23
    assert poly_discriminant(Polynomial((-1, -1, 1))) == 5


def test_signatures():
    assert field_from_polynomial("x^2-5").signature == (2, 0)
    assert field_from_polynomial("x^2+1").signature == (0, 1)
    k = field_from_polynomial("x^3-x-1")
    assert k.signature == (1, 1)
    assert k.disc == -23


def test_reducible_rejected():
    for spec in ("x^2-1", "x^2-4", "x^4+4", "x^3-x", "x^6-1"):
        with pytest.raises(ReduciblePolynomial):
            field_from_polynomial(spec)


def test_irreducible_accepted_without_rational_roots():
    # x^4+1 has no rational roots or linear factors; the certificate must
    # come from the conjugate-product subset test, not root search
    k = field_from_polynomial("x^4+1")
    assert k.degree == 4 and k.signature == (0, 2)
    assert field_from_polynomial("x^4-10x^2+1").signature == (4, 0)


def test_modular_patterns_skip_primes_dividing_disc(monkeypatch):
    # disc(x^4+1) = 256: the screen must never factor mod 2, where x^4+1 = (x+1)^4
    factored = []

    def checked_ddf(f, p):
        assert 256 % p != 0, p
        factored.append(p)
        return distinct_degree_degrees(f, p)

    monkeypatch.setattr(numfield, "distinct_degree_degrees", checked_ddf)
    assert field_from_polynomial("x^4+1").degree == 4
    assert factored == [3, 5, 7, 11, 13, 17, 19, 23]


# minimal polynomials of 2 cos(2 pi / n), constant coefficient first
PSI = {
    13: (-1, 3, 6, -4, -5, 1, 1),
    21: (1, -8, 8, 6, -6, -1, 1),
    56: (1, 0, -24, 0, 86, 0, -104, 0, 53, 0, -12, 0, 1),
    72: (1, 0, -36, 0, 105, 0, -112, 0, 54, 0, -12, 0, 1),
    84: (1, 0, -16, 0, 60, 0, -78, 0, 44, 0, -11, 0, 1),
}


@pytest.mark.parametrize("n", (56, 72, 84))
def test_real_cyclotomic_degree_12_irreducible(n):
    # totally real of degree 12: the subset test meets every size 1..6
    k = field_from_polynomial(PSI[n])
    assert k.signature == (12, 0)


def test_real_cyclotomic_product_has_degree_6_factor():
    f = [0] * 13
    for i, a in enumerate(PSI[13]):
        for j, b in enumerate(PSI[21]):
            f[i + j] += a * b
    with pytest.raises(ReduciblePolynomial, match="has factor of degree 6"):
        field_from_polynomial(f)


def test_known_disc_validation():
    assert field_from_polynomial("x^2-5", known_disc=5).disc == 5
    assert field_from_polynomial("x^2-12", known_disc=12).disc == 12
    assert field_from_polynomial("x^3-3x+1", known_disc=81).disc == 81
    with pytest.raises(InvalidDiscriminant):
        field_from_polynomial("x^2-5", known_disc=-5)   # wrong sign
    with pytest.raises(InvalidDiscriminant):
        field_from_polynomial("x^2-5", known_disc=3)    # not a divisor
    with pytest.raises(InvalidDiscriminant):
        field_from_polynomial("x^2-5", known_disc=10)   # quotient 2 not square
    # divisors with a square quotient that no field of the degree can have
    for spec, disc in (
        ("x^2+1", -1),      # 3 mod 4 (Stickelberger), |disc| < 3
        ("x^2-12", 3),      # 3 mod 4
        ("x^3-3x+1", 1),    # |disc| < 3
        ("x^3-3x+1", 9),    # cubic fields have |disc| >= 23
        ("x-1", 7),         # the rationals have disc 1
    ):
        with pytest.raises(InvalidDiscriminant):
            field_from_polynomial(spec, known_disc=disc)


def test_norm_multiplicative():
    rng = random.Random(77)
    for spec in ("x^2-x-1", "x^3-x-1"):
        k = field_from_polynomial(spec)
        d = k.degree
        for _ in range(40):
            a = k.element([rng.randint(-6, 6) for _ in range(d)])
            b = k.element([rng.randint(-6, 6) for _ in range(d)])
            assert element_norm(a * b) == element_norm(a) * element_norm(b)


def test_norm_contained_in_embedding_product():
    rng = random.Random(78)
    k = field_from_polynomial("x^3-x-1")
    for _ in range(20):
        e = k.element([rng.randint(-4, 4) for _ in range(3)])
        places = evaluate_at_embeddings(e, 96)
        iv = RealInterval.point(1)
        for r in places[: k.r1]:
            iv = iv * r
        for b in places[k.r1 :]:
            iv = iv * b.abs_sq()
        assert iv.contains(element_norm(e))


def test_embedding_images_narrow_and_nested():
    k = field_from_polynomial("x^3-x-1")
    e = k.element([1, 2, -1])
    coarse = evaluate_at_embeddings(e, 80)
    fine = evaluate_at_embeddings(e, 160)
    r = coarse[0]
    assert r.width() <= Fraction(1, 2 ** 79)
    assert r.encloses(fine[0])
    cb, fb = coarse[1], fine[1]
    assert cb.re.encloses(fb.re) and cb.im.encloses(fb.im)


def test_field_embeddings_nest_and_sort():
    k = field_from_polynomial("x^4-10x^2+1", 96)
    reals96, _ = k.embeddings(96)
    reals192, _ = k.embeddings(192)
    assert all(a.encloses(b) for a, b in zip(reals96, reals192))
    mids = [iv.mid() for iv in reals96]
    assert mids == sorted(mids)


def test_minkowski_bound_sqrt5():
    k = field_from_polynomial("x^2-5", known_disc=5)
    bound = minkowski_norm_bound(k, 128)
    # true value is sqrt(5)/2; compare squared endpoints exactly
    assert bound.lo > 0
    assert bound.lo ** 2 <= Fraction(5, 4) <= bound.hi ** 2
    assert bound.width() < Fraction(1, 10 ** 10)


def test_minkowski_degree_bound():
    assert minkowski_degree_bound(5) == 2
    assert minkowski_degree_bound(3) == 2
    assert minkowski_degree_bound(10 ** 6) == 10
    with pytest.raises(InvalidDiscriminant):
        minkowski_degree_bound(2)


def test_degree_bound_consistent_with_floor():
    # every catalog field must satisfy d <= bound(|disc|)
    for entry in load_field_catalog():
        k = entry.build(96)
        if k.abs_disc >= 3:
            assert k.degree <= minkowski_degree_bound(k.abs_disc)


def test_derived_constant():
    c = derived_minkowski_C(96)
    assert Fraction("1.53603730") < c.lo
    assert c.hi < Fraction("1.53603731")
    assert c.width() < Fraction(1, 10 ** 6)


def test_root_discriminant():
    k = field_from_polynomial("x^2-5", known_disc=5)
    rd = root_discriminant(k, 128)
    assert rd.lo ** 2 <= 5 <= rd.hi ** 2
    assert rd.width() < Fraction(1, 2 ** 100)
    # 5^(1/2) and 125^(1/6) enclose the same real, so certified intervals
    # must intersect
    base = RealInterval.point(5).nth_root(2, 128)
    lifted = RealInterval.point(5 ** 3).nth_root(6, 128)
    assert base.intersect(lifted) is not None


def test_minkowski_witness_golden():
    k = field_from_polynomial("x^2-x-1", known_disc=5)
    el, n = minkowski_witness(k, radius=5)
    bound = minkowski_norm_bound(k, 128)
    assert n == abs(element_norm(el))
    assert n <= bound.lo
    with pytest.raises(SearchExhausted):
        minkowski_witness(k, radius=0)


def test_catalog_roundtrip():
    entries = load_field_catalog()
    names = {e.name for e in entries}
    assert {"Q", "golden", "gauss"} <= names
    k = catalog_lookup("golden")
    assert k.disc == 5 and k.signature == (2, 0)
    assert catalog_lookup("no-such-field") is None
    text = dump_field_catalog(entries)
    assert '"min_poly"' in text and '"golden"' in text


def test_polynomial_parsing():
    assert Polynomial.from_string("x^3 - 2*x + 7").coefficients == (7, -2, 0, 1)
    assert Polynomial.from_string("x-1").coefficients == (-1, 1)
    assert Polynomial.from_string("x**4 - 5").coefficients == (-5, 0, 0, 0, 1)
    assert Polynomial.from_string("2x^2+3").coefficients == (3, 0, 2)
    for bad in ("y^2-1", "", "x^2 % 3", "x^2-x^2"):
        with pytest.raises(ValueError):
            Polynomial.from_string(bad)
    assert str(Polynomial((-1, -1, 1))) == "x^2 - x - 1"


def _exact_sign(f, x):
    value = sum(Fraction(c) * x ** i for i, c in enumerate(f))
    return (value > 0) - (value < 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    f=st.lists(st.integers(-50, 50), min_size=1, max_size=9).filter(lambda f: f[-1] != 0),
    a=st.integers(-2 ** 40, 2 ** 40),
    k=st.integers(-8, 64),
    root=st.booleans(),
)
def test_sign_at_matches_exact_evaluation(f, a, k, root):
    x = a / Fraction(2) ** k
    if root:
        # (q x - p) f has the exact dyadic root x = p / q = a / 2^k
        p, q = x.numerator, x.denominator
        g = [0] * (len(f) + 1)
        for i, c in enumerate(f):
            g[i] -= p * c
            g[i + 1] += q * c
        f = g
        assert _sign_at(f, a, k) == 0
    assert _sign_at(f, a, k) == _exact_sign(f, x)


def test_embeddings_continue_from_the_finest_refined_cells(monkeypatch):
    k = field_from_polynomial("x^3-x^2-2x+1", 64)
    calls = []

    def counting_sign_at(*args):
        calls.append(args)
        return _sign_at(*args)

    monkeypatch.setattr(numfield, "_sign_at", counting_sign_at)
    reals, _ = k.embeddings(128)
    # one start sign and one bisection per bit from 64 to 128, per root
    assert len(calls) <= k.r1 * 65
    fresh, _ = field_from_polynomial("x^3-x^2-2x+1", 128).embeddings(128)
    assert [(iv.lo, iv.hi) for iv in reals] == [(iv.lo, iv.hi) for iv in fresh]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(f=st.lists(st.integers(-20, 20), min_size=2, max_size=6).map(lambda f: f + [1]))
def test_real_brackets_are_aligned_dyadic_cells(f):
    try:
        k = field_from_polynomial(f, 64)
    except ReduciblePolynomial:
        assume(False)
    cells = {(j / Fraction(2) ** e, (j + 1) / Fraction(2) ** e) for j, e in k._real_cells}
    previous = None
    for prec in (64, 128, 512):
        reals, _ = k.embeddings(prec)
        assert len(reals) == k.r1
        cell = Fraction(1, 1 << prec)
        for iv in reals:
            w = iv.width()
            # refined to the aligned 2^-prec cell, or already the narrower
            # power-of-two cell that isolated the root
            assert w == cell or (w < cell and (iv.lo, iv.hi) in cells)
            assert w.numerator == 1 and w.denominator & (w.denominator - 1) == 0
            assert (iv.lo / w).denominator == 1
            assert _exact_sign(f, iv.lo) * _exact_sign(f, iv.hi) < 0
        if previous is not None:
            assert all(a.encloses(b) for a, b in zip(previous, reals))
        previous = reals

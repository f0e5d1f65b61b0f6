import json
import random
import subprocess
import sys
from fractions import Fraction
from math import tau

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import libmp, mp

from latcount.errors import (
    LatcountError,
    PrecisionExhausted,
    ReduciblePolynomial,
    SearchExhausted,
)
from latcount.interval import ComplexBox, RealInterval, round_down, round_up
import latcount.numfield as numfield
from latcount.numfield import (
    Polynomial,
    derived_minkowski_C,
    element_norm,
    evaluate_at_embeddings,
    field_from_polynomial,
    minkowski_degree_bound,
    minkowski_norm_bound,
    minkowski_witness,
    poly_discriminant,
    root_discriminant,
    _value_at,
)
from latcount.polymod import distinct_degree_blocks, prime_list

from oracles import discriminant_oracle, real_cyclotomic


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
    # irreducibility is decided before any root is sought; x is the least factor
    with pytest.raises(ReduciblePolynomial, match=r"^x\^3 - x has factor of degree 1$"):
        field_from_polynomial("x^3-x")


def test_zero_constant_term_is_the_factor_x():
    # x (x^2 - 3x - 8): the other factor has no rational root to find instead
    for spec in ("x^3-3x^2-8x", "x^2-x"):
        poly = Polynomial.from_string(spec)
        with pytest.raises(ReduciblePolynomial, match=r"has factor of degree 1$"):
            numfield._assert_irreducible(poly, poly_discriminant(poly))


def test_reducible_input_never_reaches_the_root_finder(monkeypatch):
    def no_roots(poly, prec):
        raise AssertionError(f"root search on {poly}")

    monkeypatch.setattr(numfield, "_certified_roots", no_roots)
    # (x^2 - 2)(x^2 - 3) is refused before any root of it is sought
    with pytest.raises(ReduciblePolynomial, match="has factor of degree 2$"):
        field_from_polynomial("x^4-5x^2+6")


def test_irreducible_accepted_without_rational_roots():
    # x^4+1 has no rational roots and is reducible mod every prime; the
    # certificate must come from lifting its factors mod p and dividing by
    # their products, not from root search
    k = field_from_polynomial("x^4+1")
    assert k.degree == 4 and k.signature == (0, 2)
    assert field_from_polynomial("x^4-10x^2+1").signature == (4, 0)


def test_modular_patterns_skip_primes_dividing_disc(monkeypatch):
    # disc(x^4+1) = 256: the screen must never factor mod 2, where x^4+1 = (x+1)^4
    factored = []

    def checked_ddf(f, p):
        assert 256 % p != 0, p
        factored.append(p)
        return distinct_degree_blocks(f, p)

    monkeypatch.setattr(numfield, "distinct_degree_blocks", checked_ddf)
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
    # totally real of degree 12 with a non-cyclic Galois group: every size
    # 1..6 survives the screen, and the lifted factors decide
    k = field_from_polynomial(PSI[n])
    assert k.signature == (12, 0)


def test_real_cyclotomic_product_has_degree_6_factor():
    f = [0] * 13
    for i, a in enumerate(PSI[13]):
        for j, b in enumerate(PSI[21]):
            f[i + j] += a * b
    with pytest.raises(ReduciblePolynomial, match="has factor of degree 6"):
        field_from_polynomial(f)


@pytest.mark.parametrize("n", (65, 104, 105, 112))
def test_real_cyclotomic_degree_24_irreducible(n):
    # no d-cycle in (Z/n)^x/{+-1}: every good prime leaves factor sizes open
    assert field_from_polynomial(real_cyclotomic(n), 128).signature == (24, 0)


def test_swinnerton_dyer_degree_16_irreducible():
    # minimal polynomial of sqrt2 + sqrt3 + sqrt5 + sqrt7: only factors of
    # degree 1 and 2 at every prime, so the screen never decides
    sd = (46225, 0, -5596840, 0, 13950764, 0, -7453176, 0, 1513334, 0,
          -141912, 0, 6476, 0, -136, 0, 1)
    assert field_from_polynomial(sd).signature == (16, 0)


def test_product_names_least_factor_degree():
    # (x^2 - x + 1)(x^3 + x^2 + x + 2)(x^5 + x^4 - x^3 + x^2 + 2x - 1), no
    # rational roots; the factor of degree 2 is named, not the one of degree 3
    f = [1]
    for g in ((1, -1, 1), (2, 1, 1, 1), (-1, 2, 1, -1, 1, 1)):
        f = [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g))
             for k in range(len(f) + len(g) - 1)]
    assert f == [-2, 5, -2, 0, 7, -1, 2, 4, 0, 1, 1]
    with pytest.raises(ReduciblePolynomial, match="has factor of degree 2$"):
        field_from_polynomial(f)


def test_irreducible_when_every_prime_below_1000_divides_disc():
    # disc(x^2 - D) = 4D: the first good prime is 1009
    D = 1
    for p in prime_list(1000):
        D *= p
    assert field_from_polynomial((-D, 0, 1)).signature == (2, 0)


def test_subset_budget_exhausts(monkeypatch):
    # x^4+1 leaves two quadratic factors mod 3, so two subsets of degree 2
    monkeypatch.setattr(numfield, "_MAX_SUBSETS", 1)
    with pytest.raises(PrecisionExhausted, match="over 1 subsets"):
        field_from_polynomial("x^4+1")


def test_known_disc_validation():
    assert field_from_polynomial("x^2-5", known_disc=5).disc == 5
    assert field_from_polynomial("x^2-12", known_disc=12).disc == 12
    assert field_from_polynomial("x^3-3x+1", known_disc=81).disc == 81
    with pytest.raises(LatcountError, match=r"^known_disc sign -5 contradicts signature"):
        field_from_polynomial("x^2-5", known_disc=-5)   # wrong sign
    with pytest.raises(LatcountError, match=r"^known_disc must divide disc\(Z\[theta\]\)$"):
        field_from_polynomial("x^2-5", known_disc=3)    # not a divisor
    with pytest.raises(LatcountError, match=r"^disc\(Z\[theta\]\) / known_disc must be a positive square$"):
        field_from_polynomial("x^2-5", known_disc=10)   # quotient 2 not square
    # a quadratic's known_disc must be d_K itself, not another divisor with a
    # square quotient; past the factoring cap d_K cannot be certified
    with pytest.raises(LatcountError, match=r"^known_disc 45 is not d_K = 5 of this quadratic field$"):
        field_from_polynomial("x^2-45", known_disc=45)
    assert field_from_polynomial("x^2-45", known_disc=5).disc == 5
    with pytest.raises(LatcountError, match="past the factoring cap"):
        field_from_polynomial("x^2-1000000000000000005", known_disc=1000000000000000005)
    # zero is refused by one text, whatever the signature
    for spec in ("x^2-5", "x^2+1"):
        with pytest.raises(LatcountError, match=r"^known_disc must divide disc\(Z\[theta\]\)$"):
            field_from_polynomial(spec, known_disc=0)
    # divisors with a square quotient that no field of the degree can have
    for spec, disc, text in (
        ("x^2+1", -1, "Stickelberger"),     # 3 mod 4, |disc| < 3
        ("x^2-12", 3, "Stickelberger"),     # 3 mod 4
        ("x^3-3x+1", 1, "Minkowski"),       # |disc| < 3
        ("x^3-3x+1", 9, "Minkowski"),       # cubic fields have |disc| >= 23
        ("x-1", 7, "the rationals have disc 1, not 7"),
    ):
        with pytest.raises(LatcountError, match=text):
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
    for spec in ("x^3-3x+1", "x^4-10x^2+1"):
        k = field_from_polynomial(spec)
        for _ in range(20):
            e = k.element([rng.randint(-4, 4) for _ in range(k.degree)])
            places = evaluate_at_embeddings(e, 96)
            assert len(places) == k.degree
            iv = RealInterval.point(1)
            for r in places:
                iv = iv * r
            assert iv.contains(element_norm(e))


def test_embedding_images_narrow_and_nested():
    k = field_from_polynomial("x^3-3x+1")
    e = k.element([1, 2, -1])
    coarse = evaluate_at_embeddings(e, 80)
    fine = evaluate_at_embeddings(e, 160)
    assert len(coarse) == len(fine) == 3
    # the docstring bound with R = 2: 2^-prec (2 + 2*2) + 2^-(prec+1)
    for c, f in zip(coarse, fine):
        assert c.width() <= Fraction(13, 2 ** 81)
        assert f.width() <= Fraction(13, 2 ** 161)
        assert c.encloses(f)


def test_embedding_images_at_real_places_only():
    k = field_from_polynomial("x^3-x-1")
    (image,) = evaluate_at_embeddings(k.element([1, 2, -1]), 80)
    # 1 + 2 theta - theta^2 at the real root theta = 1.3247...
    assert Fraction(18945, 10000) < image.lo and image.hi < Fraction(18946, 10000)
    assert image.width() <= Fraction(13, 2 ** 81)  # the docstring bound with R = 2


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
    with pytest.raises(LatcountError, match=r"^degree bound needs \|disc\| >= 3$"):
        minkowski_degree_bound(2)


def test_degree_bound_consistent_with_floor():
    # every field must satisfy d <= bound(|disc|): Q, Q(sqrt 5) twice (the
    # second through Z[theta] of index 2), Q(i), Q(sqrt 3) and the cubic
    # field of discriminant -23
    cases = (
        ("x-1", None),
        ("x^2-x-1", 5),
        ("x^2-5", 5),
        ("x^2+1", -4),
        ("x^2-3", 12),
        ("x^3-x-1", -23),
    )
    for poly, known_disc in cases:
        k = field_from_polynomial(poly, 96, known_disc)
        if k.abs_disc >= 3:
            assert k.degree <= minkowski_degree_bound(k.abs_disc)


def test_derived_constant():
    c = derived_minkowski_C(96)
    assert Fraction("1.53603730") < c.lo
    assert c.hi < Fraction("1.53603731")
    assert c.width() < Fraction(1, 10 ** 6)
    # the full scan over d = 3..64 stays below 1, under the d = 2 ratio
    for d in range(3, 65):
        floor_iv = numfield._stirling_floor(d, d // 2, 80)
        assert RealInterval.point(d).div(floor_iv.log2(80), 64).hi < 1 < c.lo, d


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


def test_polynomial_parsing():
    assert Polynomial.from_string("x^3 - 2*x + 7").coefficients == (7, -2, 0, 1)
    assert Polynomial.from_string("x-1").coefficients == (-1, 1)
    assert Polynomial.from_string("x**4 - 5").coefficients == (-5, 0, 0, 0, 1)
    assert Polynomial.from_string("2x^2+3").coefficients == (3, 0, 2)
    for bad in ("y^2-1", "", "x^2 % 3", "x^2-x^2"):
        with pytest.raises(ValueError):
            Polynomial.from_string(bad)
    assert str(Polynomial((-1, -1, 1))) == "x^2 - x - 1"
    with pytest.raises(ValueError):
        Polynomial((1, 0))
    f = Polynomial((1.0, 0, 1))
    assert [type(c) for c in f.coefficients] == [int] * 3
    assert f == Polynomial((1, 0, 1)) and hash(f) == hash(Polynomial((1, 0, 1)))


def _exact_sign(f, x):
    value = sum(Fraction(c) * x ** i for i, c in enumerate(f))
    return (value > 0) - (value < 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    f=st.lists(st.integers(-50, 50), min_size=1, max_size=9).filter(lambda f: f[-1] != 0),
    x=st.integers(-2 ** 40, 2 ** 40),
    y=st.integers(-2 ** 40, 2 ** 40) | st.just(0),
    k=st.integers(-8, 64),
    root=st.booleans(),
)
def test_value_at_matches_exact_evaluation(f, x, y, k, root):
    a, b = x / Fraction(2) ** k, y / Fraction(2) ** k
    if root:
        # (q^2 z^2 - 2 q x' z + x'^2 + y'^2) f, with z0 = (x' + i y') / q = a + bi,
        # has the exact root z0
        q = max(a.denominator, b.denominator)
        xq, yq = int(a * q), int(b * q)
        g = [0] * (len(f) + 2)
        for i, c in enumerate(f):
            for j, e in enumerate((xq * xq + yq * yq, -2 * q * xq, q * q)):
                g[i + j] += c * e
        f = g
    re, im = _fraction_horner(f, a, b)
    scale = Fraction(2) ** (max(k, 0) * (len(f) - 1))
    assert _value_at(f, x, y, k) == (re * scale, im * scale)
    if root:
        assert _value_at(f, x, y, k) == (0, 0)


def _fraction_horner(coeffs, a, b):
    re = im = Fraction(0)
    for c in reversed(coeffs):
        re, im = re * a - im * b + c, re * b + im * a
    return re, im


def _fraction_boxes(poly, seeds, prec):
    """The residual-bound boxes on Fraction seeds (a, b): the reference form,
    which evaluates f and f' by a Fraction Horner and rounds on Fractions."""
    d = poly.degree
    grid = prec + 2
    boxes = []
    for a, b in seeds:
        fr, fi = _fraction_horner(poly.coefficients, a, b)
        gr, gi = _fraction_horner(poly.derivative().coefficients, a, b)
        den = gr * gr + gi * gi
        if den == 0:
            return None
        rho = RealInterval.point(d * d * (fr * fr + fi * fi) / den).nth_root(2, grid + 8).hi
        if rho > Fraction(1, 1 << grid) or b - rho <= 0:
            return None
        boxes.append(ComplexBox(
            RealInterval(round_down(a - rho, grid), round_up(a + rho, grid)),
            RealInterval(round_down(b - rho, grid), round_up(b + rho, grid)),
        ))
    for i, box in enumerate(boxes):
        if box.im.lo <= 0 or not all(box.disjoint(o) for o in boxes[i + 1:]):
            return None
    return boxes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    f=st.lists(st.integers(-30, 30), min_size=2, max_size=8).map(lambda f: f + [1]),
    F=st.sampled_from([64, 128, 256]),
    prec=st.sampled_from([8, 30, 64, 120]),
    shift=st.integers(-1, 260),
    sign=st.sampled_from([(1, 1), (1, -1), (-1, 0), (0, -1)]),
)
def test_certify_boxes_matches_the_fraction_formula(f, F, prec, shift, sign):
    poly = Polynomial(f)
    roots = numfield._aberth_roots(poly, F)
    assume(roots is not None and roots[1])
    # moving every seed by 2^shift units of 2^-F widens the radius until the
    # box is refused, or pushes a seed down onto the real axis
    step = 0 if shift < 0 else 1 << shift
    seeds = [(x + sign[0] * step, y + sign[1] * step) for x, y in roots[1]]
    got = numfield._certify_boxes(poly, seeds, F, prec)
    want = _fraction_boxes(poly, [(Fraction(x, 1 << F), Fraction(y, 1 << F)) for x, y in seeds], prec)
    assert (got is None) == (want is None)
    if got is not None:
        assert [(b.re.lo, b.re.hi, b.im.lo, b.im.hi) for b in got] == [
            (b.re.lo, b.re.hi, b.im.lo, b.im.hi) for b in want
        ]


def test_embeddings_continue_from_the_finest_refined_cells(monkeypatch):
    k = field_from_polynomial("x^3-x^2-2x+1", 64)
    calls = []

    def counting_value_at(*args):
        calls.append(args)
        return _value_at(*args)

    monkeypatch.setattr(numfield, "_value_at", counting_value_at)
    reals, _ = k.embeddings(128)
    # one evaluation at each end of each real cell
    assert len(calls) <= 2 * k.r1
    fresh, _ = field_from_polynomial("x^3-x^2-2x+1", 128).embeddings(128)
    assert [(iv.lo, iv.hi) for iv in reals] == [(iv.lo, iv.hi) for iv in fresh]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(f=st.lists(st.integers(-20, 20), min_size=2, max_size=6).map(lambda f: f + [1]))
def test_real_brackets_are_aligned_dyadic_cells(f):
    try:
        k = field_from_polynomial(f, 64)
    except ReduciblePolynomial:
        assume(False)
    assert k.r1 + 2 * k.r2 == len(f) - 1
    backwards = field_from_polynomial(f, 512)
    by_order = []
    for field, order in ((k, (64, 128, 512)), (backwards, (512, 128, 64))):
        brackets = {prec: field.embeddings(prec)[0] for prec in order}
        by_order.append(brackets)
        for prec, reals in brackets.items():
            assert len(reals) == k.r1
            for iv in reals:
                # an aligned power-of-two cell at level prec or finer
                w = iv.width()
                assert w <= Fraction(1, 1 << prec)
                assert w.numerator == 1 and w.denominator & (w.denominator - 1) == 0
                assert (iv.lo / w).denominator == 1
                assert _exact_sign(f, iv.lo) * _exact_sign(f, iv.hi) < 0
                if w < Fraction(1, 1 << prec):
                    # the first finer level: the parent cell holds another root
                    parent = iv.lo - iv.lo % (2 * w)
                    assert any(parent <= o.lo and o.hi <= parent + 2 * w for o in reals if o is not iv)
            # ascending and pairwise disjoint: neighbours share at most an end,
            # where f is not zero
            assert all(a.hi <= b.lo for a, b in zip(reals, reals[1:]))
        for coarse, fine in ((64, 128), (128, 512)):
            assert all(a.encloses(b) for a, b in zip(brackets[coarse], brackets[fine]))
    assert by_order[0] == by_order[1]


def test_clustered_roots_golden():
    # x^9 - 2(10^6 x - 1)^2 has two real roots about 1.4e-33 apart near 10^-6:
    # at 64 bits their cells sit at level 109, the first that separates them
    f = [-2, 4 * 10 ** 6, -2 * 10 ** 12, 0, 0, 0, 0, 0, 0, 1]
    want = {
        64: [(0x218def416bdb1a6d698fe68, 109), (0x218def416bdb1a6d698fe69, 109),
             (0x392fa016bae5f86cee, 64)],
        512: [
            (int(
             "10c6f7a0b5ed8d36b4c7f3458c703e069608d618633aef7131972da51320df298"
             "83146c714f6cbbfa49ed19b4fbf602de45436c9edfaabe8a9a106f78809", 16), 512),
            (int(
             "10c6f7a0b5ed8d36b4c7f34ce4402e3d5ff03fe8900a1e644dad5282e4f1d0705"
             "3627348dc9aca180ae2a5b3f2d60287c39ea6e594dbe0796a37e4cf43d9", 16), 512),
            (int(
             "392fa016bae5f86ceef9784ce9f5bc13df0a77a16047f76836cb337396c80bb0b"
             "fafaa8097b4a847ddbeba436e61a78aa897f89e4050bd6eaac67074a5a7ec7e4e", 16), 512),
        ],
    }
    for order in ((64, 512), (512, 64)):
        k = field_from_polynomial(f, order[0])
        assert k.signature == (3, 3)
        for prec in order:
            reals, _ = k.embeddings(prec)
            assert [(iv.lo, iv.hi) for iv in reals] == [
                (Fraction(j, 1 << e), Fraction(j + 1, 1 << e)) for j, e in want[prec]
            ]


def _mpf_fraction(x) -> Fraction:
    return Fraction(*libmp.to_rational(x._mpf_))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(f=st.lists(st.integers(-60, 60), min_size=2, max_size=12).map(lambda f: f + [1]))
def test_complex_boxes_hold_one_mpmath_root_each(f):
    # mpmath is the oracle here: its roots at 256 bits, polished by Newton
    # steps at 4 x 512 bits, lie within 2^-2000 of the true ones, far inside
    # every box checked
    try:
        k = field_from_polynomial(f, 64)
    except ReduciblePolynomial:
        assume(False)
    with mp.workprec(256):
        roots = mp.polyroots(f[::-1], maxsteps=200, extraprec=64)
    with mp.workprec(4 * 512):
        for _ in range(6):
            roots = [z - mp.fdiv(*mp.polyval(f[::-1], z, derivative=True)) for z in roots]
        upper = [(_mpf_fraction(z.real), _mpf_fraction(z.imag))
                 for z in roots if z.imag > mp.mpf(2) ** -512]
    assert len(upper) == k.r2
    for prec in (64, 128, 512):
        _, boxes = k.embeddings(prec)
        assert len(boxes) == k.r2
        hits = [[b for b in boxes if b.re.contains(x) and b.im.contains(y)] for x, y in upper]
        assert all(len(h) == 1 for h in hits), (prec, f)


# field and covolume reports that need complex seeds, from the line after
# defaulted_params on: a Gaussian-integer root keeps its point box, and
# places with equal real parts stay ordered by imaginary part
_NO_MPMATH_REPORTS = {
    ("field", "--poly", "x^3-x-1"): """\
# poly: x^3 - x - 1
# degree: 3
# signature: [1, 1]
# disc: -23
# rd: [2.843866979851, 2.843866979852]
# minkowski_bound: [1.356942743415, 1.356942743416]
place,kind,re_lo,re_hi,im_lo,im_hi
0,real,1.324717957244,1.324717957245,0,0
1,complex,-0.662358978623,-0.662358978622,0.562279512062,0.562279512063
""",
    ("field", "--poly", "x^2+1"): """\
# poly: x^2 + 1
# degree: 2
# signature: [0, 1]
# disc: -4
# rd: [2, 2]
# minkowski_bound: [1.273239544735, 1.273239544736]
place,kind,re_lo,re_hi,im_lo,im_hi
0,complex,0,0,1,1
""",
    ("field", "--poly", "x^4+4*x^2+2"): """\
# poly: x^4 + 4x^2 + 2
# degree: 4
# signature: [0, 2]
# disc: 2048
# rd: [6.727171322029, 6.72717132203]
# minkowski_bound: [6.877910019009, 6.87791001901]
place,kind,re_lo,re_hi,im_lo,im_hi
0,complex,-0.000000000001,0.000000000001,0.76536686473,0.765366864731
1,complex,-0.000000000001,0.000000000001,1.847759065022,1.847759065023
""",
    ("covolume", "--field", "x^2+3", "--type", "A1"): """\
# type: A1
# field: x^2 + 3
# nesting_check: ok
# value: [0.004284795203, 0.004284795204]
# disc_factor: [5.196152422706, 5.196152422707]
# arch_factor: [0.00064162389, 0.000641623891]
# euler_factor: [1.285190955484, 1.285190955485]
# lambda_bound: [1, 1]
# prime_bound_used: 100000
# note: interval at prime bound 100000 nests inside the bound-10000 interval: ok
""",
    ("covolume", "--field", "Q", "--type", "E8"): """\
# type: E8
# field: x - 1
# nesting_check: ok
# value: [13934.488526924393, 13934.488526924394]
# disc_factor: [1, 1]
# arch_factor: [8434.120587063026, 8434.120587063027]
# euler_factor: [1.652156663291, 1.652156663292]
# lambda_bound: [1, 1]
# prime_bound_used: 100000
# note: interval at prime bound 100000 nests inside the bound-10000 interval: ok
""",
}


def test_complex_embeddings_need_no_mpmath():
    code = (
        "import json, sys\n"
        "sys.modules['mpmath'] = None  # any import of mpmath now fails\n"
        "from latcount.cli import entry\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print('exit', entry(argv + ['--format', 'csv']))\n"
    )
    argvs = list(_NO_MPMATH_REPORTS)
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    reports = proc.stdout.split("exit 0\n")
    assert reports[-1] == "" and len(reports) == len(argvs) + 1
    for argv, report in zip(argvs, reports):
        assert report.split("# defaulted_params: C,C1,C2,c4,f1,s_embed\n")[1] == _NO_MPMATH_REPORTS[argv]


def test_complex_seeds_none_when_the_count_disagrees():
    # the seeds must account for every root: real ones once, upper ones twice
    assert numfield._aberth_roots(Polynomial((1, 0, 1)), 128) == ([], [(0, 1 << 128)])
    xs, upper = numfield._aberth_roots(Polynomial((-1, -1, 0, 1)), 128)
    assert len(xs) == 1 and len(upper) == 1
    # the three points around the triple root of x^3 settle off the axis, two
    # above it and one below: 0 + 2 * 2 is not 3
    assert numfield._aberth_roots(Polynomial((0, 0, 0, 1)), 128) is None


def test_aberth_starts_on_the_newton_polygon_circles():
    # x^24 + 1000003x + 1 has one root near -10^-6 and 23 near the circle of
    # radius 1000003^(1/23): the hull edges (0, 1) and (1, 24) of (i,
    # bitlen|a_i|) put one point on 2^-19 and 23 on 2^1
    start = numfield._newton_start((1, 1000003) + (0,) * 22 + (1,), -100, 20)
    assert [e for e, _ in start] == [-19] + [1] * 23
    # the exponents are clamped to [lo, hi]; the 23 points of one circle are
    # tau/23 apart
    start = numfield._newton_start((1, 1000003) + (0,) * 22 + (1,), -10, 0)
    assert [e for e, _ in start] == [-10] + [0] * 23
    assert all(abs(b - a - tau / 23) < 1e-12 for (_, a), (_, b) in zip(start[1:], start[2:]))
    # two edges meet one circle here: its eight points are spread evenly, so
    # no two start points coincide and Aberth reaches all nine roots
    f = (-15, -5, -15, 14, 2, -7, 20, 5, 17, 1)
    start = numfield._newton_start(f, -100, 5)
    assert [e for e, _ in start] == [0] * 8 + [4]
    assert len(set(start)) == 9
    xs, upper = numfield._aberth_roots(Polynomial(f), 128)
    assert len(xs) + 2 * len(upper) == 9

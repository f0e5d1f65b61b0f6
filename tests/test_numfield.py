import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import libmp, mp

from latcount.errors import (
    InvalidDiscriminant,
    ReduciblePolynomial,
    SearchExhausted,
)
from latcount.interval import RealInterval
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
# value: [0.028565278492, 0.064274447534]
# disc_factor: [41.569219381653, 41.569219381654]
# arch_factor: [0.00064162389, 0.000641623891]
# euler_factor: [1.07099160559, 2.409827503751]
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
    # x^2 + 1 has one upper-half-plane root, so a request for two fails
    assert numfield._complex_seeds(Polynomial((1, 0, 1)), 2, 128) is None
    assert numfield._complex_seeds(Polynomial((1, 0, 1)), 1, 128) == [(0, 1)]

import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import libmp, mp

from latcount.interval import (
    ComplexBox,
    RealInterval,
    _atan_inv,
    _atanh_series,
    decimal_str,
    exp1_interval,
    exp_fraction,
    interval_strs,
    iroot_ceil,
    iroot_floor,
    ln2_interval,
    ln_fraction,
    log2_fraction,
    pi_interval,
    round_down,
    round_up,
)

PI_50 = Fraction("3.14159265358979323846264338327950288419716939937511")


def test_exact_ring_ops():
    rng = random.Random(11)

    def rand_interval():
        p = Fraction(rng.randint(-80, 120), rng.randint(1, 9))
        q = Fraction(rng.randint(-80, 120), rng.randint(1, 9))
        return RealInterval(min(p, q), max(p, q))

    for _ in range(200):
        a = rand_interval()
        b = rand_interval()
        x = a.lo + (a.hi - a.lo) / 3
        y = b.lo + (b.hi - b.lo) / 2
        assert (a + b).contains(x + y)
        assert (a - b).contains(x - y)
        assert (a * b).contains(x * y)
        assert (-a).contains(-x)


def test_rounding_directions():
    q = Fraction(1, 3)
    assert round_down(q, 8) <= q <= round_up(q, 8)
    assert round_up(q, 8) - round_down(q, 8) <= Fraction(1, 256)
    assert round_down(Fraction(1, 2), 4) == Fraction(1, 2)


def test_iroot():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 10 ** 12)
        k = rng.randint(1, 6)
        f = iroot_floor(n, k)
        c = iroot_ceil(n, k)
        assert f ** k <= n < (f + 1) ** k
        assert (c - 1) ** k < n <= c ** k


def test_pi_and_transcendentals():
    pi = pi_interval(160)
    assert pi.contains(PI_50)
    assert pi.width() < Fraction(1, 2 ** 150)
    mp.prec = 250
    for q in (Fraction(1, 3), Fraction(7, 2), Fraction(-2, 5)):
        iv = exp_fraction(q, 128)
        ref = Fraction(mp.nstr(mp.exp(mp.mpf(q.numerator) / q.denominator), 60))
        assert abs(iv.mid() - ref) < Fraction(1, 10 ** 20)
        assert iv.width() < Fraction(1, 2 ** 120)
    for q in (Fraction(2), Fraction(1, 7), Fraction(355, 113)):
        iv = ln_fraction(q, 128)
        ref = Fraction(mp.nstr(mp.log(mp.mpf(q.numerator) / q.denominator), 60))
        assert abs(iv.mid() - ref) < Fraction(1, 10 ** 20)
        assert iv.width() < Fraction(1, 2 ** 120)
    l2 = log2_fraction(Fraction(8), 128)
    assert l2.contains(Fraction(3))


def test_interval_functions_enclose():
    rng = random.Random(23)
    mp.prec = 300
    for _ in range(40):
        q = Fraction(rng.randint(1, 500), rng.randint(1, 50))
        iv = RealInterval.point(q)
        s = iv.sqrt(128)
        assert s.lo * s.lo <= q <= s.hi * s.hi
        r = iv.nth_root(3, 128)
        assert r.lo ** 3 <= q <= r.hi ** 3
        p = iv.pow_frac(Fraction(2, 3), 128)
        assert (p.lo ** 3) <= q ** 2 <= (p.hi ** 3)
        rec = iv.recip(128)
        assert rec.contains(1 / q)


def test_pow_int_and_div():
    iv = RealInterval(Fraction(-3, 2), Fraction(2))
    assert iv.pow_int(2, 64).encloses(RealInterval(0, Fraction(9, 4)))
    assert (iv ** 2).lo == 0 and (iv ** 2).hi == 4
    assert (iv ** 3).lo == Fraction(-27, 8) and (iv ** 3).hi == 8
    assert (iv ** 0).lo == (iv ** 0).hi == 1
    third = RealInterval(Fraction(1, 3), Fraction(2, 3))
    assert (third ** 5).hi == Fraction(32, 243)  # exact, off the dyadic grid
    assert third.pow_int(5, 64).encloses(third ** 5)
    with pytest.raises(ValueError):
        iv ** -1
    with pytest.raises(ZeroDivisionError):
        iv.recip(64)
    a = RealInterval(2, 3)
    b = RealInterval(4, 5)
    d = a.div(b, 96)
    assert d.lo <= Fraction(2, 5) + Fraction(1, 2 ** 90)
    assert d.hi >= Fraction(3, 4) - Fraction(1, 2 ** 90)
    assert d.contains(Fraction(1, 2))


def test_interval_set_ops():
    a = RealInterval(0, 4)
    b = RealInterval(1, 2)
    assert a.encloses(b) and not b.encloses(a)
    assert a.intersect(RealInterval(3, 9)).lo == 3
    assert a.intersect(RealInterval(5, 9)) is None
    assert a.hull(RealInterval(5, 9)).hi == 9


def test_decimal_str_outward():
    q = Fraction(1, 3)
    lo = Fraction(decimal_str(q, 6, "down"))
    hi = Fraction(decimal_str(q, 6, "up"))
    assert lo <= q <= hi and hi - lo == Fraction(1, 10 ** 6)
    iv = RealInterval(Fraction(-1, 3), Fraction(1, 7))
    slo, shi = interval_strs(iv, 8)
    assert Fraction(slo) <= iv.lo and Fraction(shi) >= iv.hi


def test_complex_box():
    one = RealInterval.point(1)
    i_box = ComplexBox(RealInterval.point(0), one)
    sq = i_box * i_box
    assert sq.re.contains(Fraction(-1)) and sq.im.contains(Fraction(0))
    assert i_box.abs_sq().contains(Fraction(1))
    assert i_box.conjugate().im.contains(Fraction(-1))


# ------------------------------------------------- kernels against mpmath

PRECS = (64, 128, 528, 2048)
KERNEL_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

# small integers and 100-600-bit ones, for numerators and denominators
_ints = st.one_of(st.integers(1, 2 ** 20), st.integers(2 ** 99, 2 ** 600))


@st.composite
def positive_rationals(draw):
    return Fraction(draw(_ints), draw(_ints))


@st.composite
def exponents(draw):
    """Rationals in [-64, 64] with the same numerator and denominator sizes."""
    d = draw(_ints)
    return Fraction(draw(st.integers(-64 * d, 64 * d)), d)


def _exact(x) -> Fraction:
    return Fraction(*libmp.to_rational(x._mpf_))


def _reference(fn, prec, *points):
    """fn at rational points as mpmath computes it at 4 * prec bits, and a
    bound on that value's own error."""
    with mp.workprec(4 * prec):
        ref = _exact(fn(*(mp.mpf(q.numerator) / q.denominator for q in points)))
    return ref, (abs(ref) + 1) / 2 ** (4 * prec - 16)


def _assert_encloses(iv, fn, q, prec, *args):
    """iv contains fn(q) as mpmath computes it at 4 * prec bits."""
    ref, slack = _reference(lambda x: fn(x, *args), prec, q)
    assert iv.lo - slack <= ref <= iv.hi + slack
    assert iv.width() <= (abs(ref) + 1) / 2 ** (prec - 4)


@pytest.mark.parametrize("prec", PRECS)
@KERNEL_SETTINGS
@given(q=exponents())
def test_exp_fraction_encloses(prec, q):
    _assert_encloses(exp_fraction(q, prec), mp.exp, q, prec)


@pytest.mark.parametrize("prec", PRECS)
@KERNEL_SETTINGS
@given(q=positive_rationals())
def test_ln_fraction_encloses(prec, q):
    _assert_encloses(ln_fraction(q, prec), mp.log, q, prec)


@pytest.mark.parametrize("prec", PRECS)
@KERNEL_SETTINGS
@given(q=positive_rationals())
def test_log2_fraction_encloses(prec, q):
    _assert_encloses(log2_fraction(q, prec), mp.log, q, prec, 2)


@pytest.mark.parametrize("prec", PRECS)
@KERNEL_SETTINGS
@given(d=_ints, data=st.data())
def test_atanh_series_encloses(prec, d, data):
    z = Fraction(data.draw(st.integers(0, d // 3)), d)
    iv = _atanh_series(z, prec)
    _assert_encloses(iv, lambda x: 2 * mp.atanh(x), z, prec)
    assert iv.width() <= Fraction(1, 2 ** (prec + 2))


@pytest.mark.parametrize("prec", PRECS)
@KERNEL_SETTINGS
@given(m=st.integers(2, 1000))
def test_atan_inv_encloses(prec, m):
    iv = _atan_inv(m, prec)
    _assert_encloses(iv, lambda x: mp.atan(1 / x), Fraction(m), prec)
    assert iv.width() <= Fraction(1, 2 ** (prec + 2))


@pytest.mark.parametrize("prec", PRECS)
def test_constants_width(prec):
    for fn, ref in ((pi_interval, mp.pi), (ln2_interval, mp.ln2), (exp1_interval, mp.e)):
        with mp.workprec(4 * prec):
            value = _exact(+ref)
        iv = fn(prec)
        assert iv.lo < value < iv.hi
        assert iv.width() <= Fraction(4, 2 ** prec)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(q=positive_rationals())
def test_exp_of_ln_round_trip(q):
    ln_q = ln_fraction(q, 128)
    assert exp_fraction(ln_q.lo, 128).lo <= q <= exp_fraction(ln_q.hi, 128).hi


# ---- containment of RealInterval operations at random points x in a, y in b

CONTAIN_PRECS = (64, 512)
_signed = st.one_of(st.integers(-2 ** 20, 2 ** 20), st.integers(-2 ** 600, 2 ** 600))


@st.composite
def interval_points(draw, nonzero=False):
    """(interval, rational point inside it); nonzero keeps 0 out of the interval."""
    ends = sorted(Fraction(draw(_signed), draw(_ints)) for _ in range(2))
    if nonzero:
        ends = sorted(abs(e) + Fraction(1, draw(_ints)) for e in ends)
        if draw(st.booleans()):
            ends = [-ends[1], -ends[0]]
    lo, hi = ends
    t = draw(st.fractions(0, 1, max_denominator=2 ** 20))
    return RealInterval(lo, hi), lo + t * (hi - lo)


def _on_grid(q: Fraction, prec: int) -> bool:
    return (q * 2 ** prec).denominator == 1


@pytest.mark.parametrize("prec", CONTAIN_PRECS)
@KERNEL_SETTINGS
@given(ax=interval_points(), by=interval_points(), n=st.integers(0, 7))
def test_exact_ops_contain_point_results(prec, ax, by, n):
    (a, x), (b, y) = ax, by
    assert (a + b).contains(x + y)
    assert (a - b).contains(x - y)
    assert (a * b).contains(x * y)
    assert (a ** n).contains(x ** n)
    assert a.hull(b).contains(x) and a.hull(b).contains(y)
    assert a.abs().contains(abs(x))
    r = a.round_out(prec)
    assert r.encloses(a) and _on_grid(r.lo, prec) and _on_grid(r.hi, prec)
    assert r.lo > a.lo - Fraction(1, 2 ** prec) and r.hi < a.hi + Fraction(1, 2 ** prec)
    assert a.pow_int(n, prec).contains(x ** n)


@pytest.mark.parametrize("prec", CONTAIN_PRECS)
@KERNEL_SETTINGS
@given(ax=interval_points(), by=interval_points(nonzero=True), n=st.integers(-7, 7))
def test_rounded_ops_contain_point_results(prec, ax, by, n):
    (a, x), (b, y) = ax, by
    assert b.recip(prec).contains(1 / y)
    assert a.div(b, prec).contains(x / y)
    assert b.pow_int(n, prec).contains(y ** n)


@st.composite
def exponent_points(draw, scale=1):
    """(interval, point inside it) with ends drawn by exponents(), times scale."""
    lo, hi = sorted(draw(exponents()) * scale for _ in range(2))
    t = draw(st.fractions(0, 1, max_denominator=2 ** 20))
    return RealInterval(lo, hi), lo + t * (hi - lo)


def _contains_reference(iv, fn, prec, *points):
    """iv contains fn(*points) as mpmath computes it at 4 * prec bits."""
    ref, slack = _reference(fn, prec, *points)
    return iv.lo - slack <= ref <= iv.hi + slack


# one exponent per pow_frac branch: an integer, p/q with q <= 64 and p >= 0
# (a root of an integer power), and the rest (through ln and exp)
_root_exponents = st.fractions(0, 8, max_denominator=64).filter(lambda e: e.denominator > 1)
_ln_exp_exponents = st.fractions(-8, 8, max_denominator=2 ** 20).filter(
    lambda e: e.denominator > 64 or (e.numerator < 0 and e.denominator > 1)
)


@pytest.mark.parametrize("prec", CONTAIN_PRECS)
@KERNEL_SETTINGS
@given(
    ax=exponent_points(),
    by=interval_points(nonzero=True),
    cz=exponent_points(scale=Fraction(1, 8)),
    n=st.integers(-7, 7),
    root_e=_root_exponents,
    ln_exp_e=_ln_exp_exponents,
)
def test_transcendental_ops_contain_point_results(prec, ax, by, cz, n, root_e, ln_exp_e):
    (a, x), (b, y), (c, z) = ax, by, cz
    b, y = b.abs(), abs(y)
    exp_a, ln_b, log2_b = a.exp(prec), b.ln(prec), b.log2(prec)
    pow_b = [(e, b.pow_frac(e, prec)) for e in (Fraction(n), root_e, ln_exp_e)]
    pow_bc = b.pow_interval(c, prec)
    # the ends as well as an inner point: each function is monotone in each
    # argument, so an end is where an enclosure too tight shows first
    for x in (a.lo, x, a.hi):
        assert _contains_reference(exp_a, mp.exp, prec, x)
    for y in (b.lo, y, b.hi):
        assert _contains_reference(ln_b, mp.log, prec, y)
        assert _contains_reference(log2_b, lambda v: mp.log(v, 2), prec, y)
        for e, iv in pow_b:
            assert _contains_reference(iv, mp.power, prec, y, e), e
        for z in (c.lo, z, c.hi):
            assert _contains_reference(pow_bc, mp.power, prec, y, z)


@pytest.mark.parametrize("prec", CONTAIN_PRECS)
@KERNEL_SETTINGS
@given(ax=interval_points(nonzero=True), n=st.integers(1, 7))
def test_roots_are_rounded_one_grid_step_outward(prec, ax, n):
    a, x = ax
    a, x = a.abs(), abs(x)
    step = Fraction(1, 2 ** prec)
    for root, k in ((a.nth_root(n, prec), n), (a.sqrt(prec), 2)):
        # checked by exact powers of the endpoints, not by a reference root
        assert root.lo ** k <= a.lo <= x <= a.hi <= root.hi ** k
        assert (root.lo + step) ** k > a.lo and (root.hi - step) ** k < a.hi
        assert _on_grid(root.lo, prec) and _on_grid(root.hi, prec)


def test_cli_import_leaves_mpmath_unloaded():
    # dataclasses would pull in inspect, ast, dis and tokenize on every call
    code = (
        "import sys, latcount.cli; "
        "print(*(m in sys.modules for m in ('mpmath', 'dataclasses', 'inspect')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False False"

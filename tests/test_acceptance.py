"""Acceptance gate: thirteen numbered criteria, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Every criterion pins its own tolerance and wall-clock limit; a criterion
fails on a wrong value or on exceeding its limit, never silently.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from latcount.counting import (
    BoundParams,
    rank_bound_gl,
    sn_composition_bound,
    sn_rank_bound,
    subgroup_count_elem_abelian,
    upper_growth_assemble,
)
from latcount.errors import (
    AlphaPossiblySquare,
    ReduciblePolynomial,
    SearchExhausted,
)
from latcount.interval import RealInterval, log2_fraction, pi_interval
from latcount.liedata import dump_table, gamma_h, root_system
from latcount.numfield import (
    Polynomial,
    element_norm,
    field_from_polynomial,
    minkowski_norm_bound,
    minkowski_witness,
    poly_discriminant,
)
from latcount.pisot_tower import (
    certified_signs,
    find_pisot,
    quadratic_extension,
    reverify_certificate,
    splitting_pattern,
    tower_lookup,
)
from latcount.prasad import (
    covolume,
    covolume_synthetic,
    covolume_upper_c1,
    dedekind_zeta_partial,
    finite_group_order,
)

from oracles import (
    discriminant_oracle,
    sl2_order_brute,
    sp4_order_f2,
    subgroup_count_brute,
)

A1 = root_system("A", 1)


def _check(n: int, limit_s: float, body) -> None:
    start = time.monotonic()
    failure = None
    try:
        body()
    except BaseException as exc:  # report FAIL before re-raising
        failure = exc
    elapsed = time.monotonic() - start
    ok = failure is None and elapsed <= limit_s
    print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'}")
    if failure is not None:
        raise failure
    assert elapsed <= limit_s, (
        f"criterion {n} took {elapsed:.2f}s, limit {limit_s}s"
    )


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_discriminants():
    def body():
        rng = random.Random(20260815)
        for _ in range(100):
            d = rng.randint(1, 6)
            coeffs = [rng.randint(-20, 20) for _ in range(d)]
            coeffs.append(rng.choice([c for c in range(-20, 21) if c]))
            poly = Polynomial(tuple(coeffs))
            assert Fraction(poly_discriminant(poly)) == discriminant_oracle(
                poly.coefficients
            )
        assert field_from_polynomial("x^2-5").signature == (2, 0)
        assert field_from_polynomial("x^2+1").signature == (0, 1)
        assert field_from_polynomial("x^3-x-1").signature == (1, 1)

    _check(1, 1.0, body)


# ---------------------------------------------------------------- criterion 2

def _random_field_suite(count):
    rng = random.Random(42)
    fields = []
    seen = set()
    while len(fields) < count:
        d = rng.randint(2, 4)
        coeffs = tuple(rng.randint(-8, 8) for _ in range(d)) + (1,)
        if coeffs in seen:
            continue
        seen.add(coeffs)
        try:
            fields.append(field_from_polynomial(coeffs, 96))
        except ReduciblePolynomial:
            continue
    return fields


def test_criterion_02_minkowski():
    def body():
        k = field_from_polynomial("x^2-5", known_disc=5)
        bound = minkowski_norm_bound(k, 128)
        # true value sqrt(5)/2, checked through squared endpoints
        assert bound.lo ** 2 <= Fraction(5, 4) <= bound.hi ** 2
        assert bound.width() < Fraction(1, 10 ** 10)
        for field in _random_field_suite(20):
            el, n = minkowski_witness(field, radius=5)
            assert n == abs(element_norm(el)) and not el.is_zero()
            assert n <= minkowski_norm_bound(field, 128).hi

    _check(2, 10.0, body)


# ---------------------------------------------------------------- criterion 3

def _v1_within_bound(cert):
    k = cert.field
    big = cert.enclosures[cert.place_index]
    return big.hi ** 2 <= 4 ** (k.degree - 1) * k.abs_disc


def _random_quartic_certs(count):
    rng = random.Random(77)
    certs = []
    seen = set()
    while len(certs) < count:
        a = rng.randint(3, 12)
        b = rng.randint(1, max(1, (a * a) // 4 - 1))
        if (a, b) in seen:
            continue
        seen.add((a, b))
        try:
            k = field_from_polynomial([b, 0, -a, 0, 1], 96)
        except ReduciblePolynomial:
            continue
        if k.signature != (4, 0):
            continue
        try:
            certs.append(find_pisot(k))
        except SearchExhausted:
            continue
    return certs


def test_criterion_03_pisot():
    def body():
        k = field_from_polynomial("x^2-x-1", known_disc=5)
        cert = find_pisot(k)
        # the certified value at the distinguished place is the golden
        # ratio: it satisfies phi^2 = phi + 1
        phi = cert.enclosures[cert.place_index]
        assert (phi * phi - phi - 1).contains(0)
        assert element_norm(1 - cert.element) == -1
        assert _v1_within_bound(cert)
        for quartic_cert in _random_quartic_certs(20):
            assert _v1_within_bound(quartic_cert)
            assert reverify_certificate(quartic_cert)

    _check(3, 30.0, body)


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_quadratic_extension():
    def body():
        k = field_from_polynomial("x^2-x-1", known_disc=5)
        ext = quadratic_extension(k, k.element([0, 1]))
        assert ext.disc_bound == 400
        q = field_from_polynomial("x-1")
        assert quadratic_extension(q, q.element([-1])).disc_bound == 4
        rng = random.Random(11)
        fields = [
            k,
            field_from_polynomial("x^2-3", known_disc=12),
            field_from_polynomial("x^2-x-3"),
            field_from_polynomial("x^3-4x-1"),
        ]
        done = 0
        while done < 50:
            base = rng.choice(fields)
            alpha = base.element(
                [rng.randint(-5, 5) for _ in range(base.degree)]
            )
            if alpha.is_zero():
                continue
            try:
                got = quadratic_extension(base, alpha)
            except AlphaPossiblySquare:
                continue
            t = sum(1 for s in certified_signs(base, alpha) if s < 0)
            assert got.t == t
            assert splitting_pattern(base, alpha).count("nonsplit") == t
            done += 1

    _check(4, 5.0, body)


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_tower_catalog():
    def body():
        martinet = tower_lookup("martinet")[0].rd_constant
        assert martinet.lo == Fraction("1058.565")
        assert martinet.hi == Fraction("1058.566")
        hajir = tower_lookup("hajir-maire")[0].rd_constant
        assert hajir.lo == Fraction("954.3")
        assert hajir.hi == Fraction("954.4")

    _check(5, 1.0, body)


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_lie_tables():
    def body():
        rows = dump_table(12)
        assert len(rows) == 48
        for row in rows:
            assert row["dim"] == sum(2 * m + 1 for m in row["exponents"])
            assert row["dim"] == row["rank"] * (row["coxeter"] + 1)
        g2 = gamma_h(2)
        assert Fraction("0.0428") <= g2.lo and g2.hi <= Fraction("0.0430")

    _check(6, 1.0, body)


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_group_orders():
    def body():
        for q in (2, 3, 4, 5):
            assert finite_group_order(A1, q) == sl2_order_brute(q)
        c2 = root_system("C", 2)
        order = finite_group_order(c2, 2)
        assert order == sp4_order_f2() == 720

    _check(7, 60.0, body)


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_zeta():
    def body():
        q = field_from_polynomial("x-1")
        by_bound = {
            b: dedekind_zeta_partial(q, 2, b)
            for b in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
        }
        finest = by_bound[10 ** 6]
        z2 = pi_interval(200).pow_int(2, 200) * Fraction(1, 6)
        assert finest.lo <= z2.lo and z2.hi <= finest.hi
        assert finest.width() < Fraction(1, 10 ** 5)
        assert by_bound[10 ** 3].encloses(by_bound[10 ** 4])
        assert by_bound[10 ** 4].encloses(by_bound[10 ** 5])
        assert by_bound[10 ** 5].encloses(by_bound[10 ** 6])

    _check(8, 30.0, body)


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_covolume_closed_form():
    def body():
        q = field_from_polynomial("x-1")
        res = covolume(q, None, A1, prime_bound=10 ** 5)
        assert res.value.contains(Fraction(1, 24))
        assert res.value.width() < Fraction(1, 10 ** 6)

    _check(9, 10.0, body)


# --------------------------------------------------------------- criterion 10

def test_criterion_10_c1():
    def body():
        c0 = tower_lookup("martinet")[0].rd_constant
        c1 = covolume_upper_c1(c0, A1, 2)
        wp = 160
        closed = (
            c0.pow_frac(Fraction(3, 2), wp)
            * 8
            * (pi_interval(wp).pow_int(2, wp) * Fraction(1, 6))
            * (pi_interval(wp).pow_int(2, wp) * 4).recip(wp)
        )
        assert c1.intersect(closed) is not None
        joint = c1.hull(closed)
        assert joint.width() / joint.lo < Fraction(1, 10 ** 3)
        for level, degree in enumerate((20, 40, 80)):
            res = covolume_synthetic(c0, degree, A1, 2)
            assert res.value.hi <= c1.hi ** degree

    _check(10, 10.0, body)


# --------------------------------------------------------------- criterion 11

def test_criterion_11_subgroup_counts():
    def body():
        for p in (2, 3):
            for d in range(1, 5):
                assert subgroup_count_elem_abelian(p, d) == subgroup_count_brute(p, d)
        assert subgroup_count_elem_abelian(2, 4) == 67
        for p in (2, 3, 5, 7):
            for d in range(1, 9):
                assert subgroup_count_elem_abelian(p, d) >= p ** (d * d // 4)

    _check(11, 60.0, body)


# --------------------------------------------------------------- criterion 12

_GROWTH_ARGV = [
    "growth", "lower", "--tower", "martinet", "--type", "A1",
    "--pprime", "3", "--c4", "0", "--rank-override", "--format", "json",
]


def _run_cli(extra=()):
    proc = subprocess.run(
        [sys.executable, "-m", "latcount"] + _GROWTH_ARGV + list(extra),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_12_growth_lower_report():
    def body():
        first = _run_cli()
        second = _run_cli()
        threads1 = _run_cli(["--threads", "1"])
        threads8 = _run_cli(["--threads", "8"])
        assert first == second
        assert threads1 == threads8 == first
        doc = json.loads(first.decode())
        a_lo, a_hi = (float(s) for s in doc["a"])
        c0 = tower_lookup("martinet")[0].rd_constant
        c1 = covolume_upper_c1(c0, A1, 2)
        closed = math.log2(3 ** 0.25) / math.log2(float(c1.mid()) * 27) ** 2
        assert a_lo <= closed * (1 + 1e-6)
        assert closed * (1 - 1e-6) <= a_hi

    _check(12, 30.0, body)


# --------------------------------------------------------------- criterion 13

def test_criterion_13_upper_calculators():
    def body():
        assert sn_composition_bound(5, 3, 10, 2) == 1500
        assert rank_bound_gl(2, 3) == 24
        assert sn_rank_bound(12, 3) == 12 ** 6
        params = BoundParams()
        for residues in ([], [(2, 1), (3, 1)]):
            first = None
            for exp in range(2, 7):
                x = 10 ** exp
                bound = upper_growth_assemble(x, params, residues)
                ratio = RealInterval.point(bound.B).div(log2_fraction(x, 96), 80)
                if first is None:
                    first = ratio
                    assert first.hi < 6
                else:
                    assert ratio.hi <= first.hi

    _check(13, 5.0, body)

import random
from math import isqrt

from hypothesis import given, settings, strategies as st

from latcount.numfield import field_from_polynomial
from latcount.polymod import (
    distinct_degree_degrees,
    poly_gcd,
    poly_powmod,
    prime_list,
    primes_up_to,
)
from latcount.prasad import prime_splitting

from oracles import discriminant_oracle


def test_prime_sieve():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10 ** 4)) == 1229
    assert prime_list(100) == tuple(primes_up_to(100))
    assert prime_list(10 ** 5)[-1] == 99991


def _brute_degrees(f, p):
    """Residue degrees via root-stripping and exhaustive factor search."""
    from itertools import product

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return out

    def divides(g, h):
        # does g divide h over F_p (both monic)?
        h = list(h)
        dg = len(g) - 1
        while len(h) - 1 >= dg:
            c = h[-1]
            if c:
                shift = len(h) - 1 - dg
                for i, gc in enumerate(g):
                    h[shift + i] = (h[shift + i] - c * gc) % p
            h.pop()
            while h and h[-1] == 0:
                h.pop()
        return not h

    def monic_polys(deg):
        for tail in product(range(p), repeat=deg):
            yield list(tail) + [1]

    def irreducible(g):
        deg = len(g) - 1
        for dd in range(1, deg // 2 + 1):
            for cand in monic_polys(dd):
                if divides(cand, g):
                    return False
        return True

    f = [c % p for c in f]
    inv = pow(f[-1], p - 2, p)
    f = [(c * inv) % p for c in f]
    degs = []
    while len(f) - 1 > 0:
        deg = len(f) - 1
        found = None
        for dd in range(1, deg + 1):
            for cand in monic_polys(dd):
                if divides(cand, f) and irreducible(cand):
                    found = cand
                    break
            if found:
                break
        degs.append(len(found) - 1)
        # exact division
        q = []
        h = list(f)
        dg = len(found) - 1
        for shift in range(len(h) - 1 - dg, -1, -1):
            c = h[shift + dg]
            q.insert(0, c)
            if c:
                for i, gc in enumerate(found):
                    h[shift + i] = (h[shift + i] - c * gc) % p
        f = q
    return tuple(sorted(degs))


def test_distinct_degrees_pins():
    # x^2 - x - 1 is irreducible mod 2, split mod 11, ramified at 5 | disc = 5
    assert distinct_degree_degrees([-1, -1, 1], 2) == (2,)
    assert distinct_degree_degrees([-1, -1, 1], 11) == (1, 1)
    assert prime_splitting(field_from_polynomial("x^2-x-1"), 5).ramified
    # x^4 + 1 factors into two quadratics mod every odd prime; disc = 256
    for p in (3, 5, 7, 11, 13):
        assert distinct_degree_degrees([1, 0, 0, 0, 1], p) == (2, 2)
    assert prime_splitting(field_from_polynomial("x^4+1"), 2).ramified


def test_distinct_degrees_match_brute_force():
    rng = random.Random(271)
    drawn = 0
    while drawn < 60:
        p = rng.choice([2, 3, 5])
        d = rng.randint(2, 5)
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if discriminant_oracle(f) % p == 0:
            continue  # outside the precondition: f mod p is not squarefree
        drawn += 1
        got = distinct_degree_degrees(f, p)
        assert got == _brute_degrees(f, p), (f, p)
        assert sum(got) == d


def _has_repeated_factor_mod(f, p):
    """gcd(f, f') over F_p is not constant; f monic, F_p is perfect."""
    a = [c % p for c in f]
    b = [(i * c) % p for i, c in enumerate(f)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) > 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    f=st.lists(st.integers(-10, 10), min_size=1, max_size=6).map(lambda f: f + [1]),
    p=st.sampled_from([2, 3, 5, 7]),
)
def test_repeated_factor_mod_p_iff_p_divides_disc(f, p):
    # the bad-prime rule of the Euler pass and the irreducibility screen
    assert _has_repeated_factor_mod(f, p) == (discriminant_oracle(f) % p == 0), (f, p)


def test_powmod_fermat():
    # x^(p^d) = x in F_p[x]/(f) for irreducible f of degree d
    f = [1, 1, 0, 1]  # x^3 + x + 1, irreducible mod 2
    assert distinct_degree_degrees(f, 2) == (3,)
    frob = poly_powmod([0, 1], 2 ** 3, f, 2)
    assert frob == [0, 1]


def test_gcd_and_mulmod():
    p = 7
    g = poly_gcd([6, 5, 1], [2, 3, 1], p)  # (x+2)(x+3) vs (x+1)(x+2)
    assert g == [2, 1]


# Primes that reach the packed kernel's widest slots: small ones, random ones
# below 3 * 10^5, and the primes on each side of 2^16, 2^17 and 2^18.
_EDGE_PRIMES = (65521, 65537, 131071, 131101, 262139, 262147)


def _large_primes(rng, count):
    pool = prime_list(3 * 10 ** 5)
    return (2, 3, 5) + tuple(rng.sample(pool, count)) + _EDGE_PRIMES


def _cyclotomic(n):
    """Integer coefficients of Phi_n: x^n - 1 divided by Phi_d for d | n, d < n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = _cyclotomic(d)
            quo = [0] * (len(num) - len(den) + 1)
            for shift in range(len(quo) - 1, -1, -1):
                c = num[shift + len(den) - 1]
                quo[shift] = c
                for i, dc in enumerate(den):
                    num[shift + i] -= c * dc
            num = quo
    return num


def test_cyclotomic_splitting_at_large_primes():
    # p splits in Q(zeta_n) into phi(n)/ord_n(p) primes of degree ord_n(p)
    rng = random.Random(503)
    for n in (5, 7, 8, 9, 13, 16, 21):
        phi_n = _cyclotomic(n)
        for p in _large_primes(rng, 6):
            if n % p == 0:
                continue
            order = next(o for o in range(1, n) if pow(p, o, n) == 1)
            expected = (order,) * ((len(phi_n) - 1) // order)
            assert distinct_degree_degrees(phi_n, p) == expected, (n, p)


def test_quadratic_splitting_matches_euler_criterion():
    rng = random.Random(607)
    for p in _large_primes(rng, 12):
        if p == 2:
            continue
        for D in [rng.randint(-10 ** 6, 10 ** 6) for _ in range(6)] + [p * rng.randint(1, 50)]:
            if D % p == 0:
                # p | disc = 4D: ramified at the caller, never factored
                if D < 0 or isqrt(D) ** 2 != D:  # x^2 - D is irreducible
                    k = field_from_polynomial((-D, 0, 1))
                    assert prime_splitting(k, p).ramified, (D, p)
                continue
            got = distinct_degree_degrees([-D, 0, 1], p)
            if pow(D % p, (p - 1) // 2, p) == 1:
                assert got == (1, 1), (D, p)
            else:
                assert got == (2,), (D, p)


def test_powmod_matches_list_product_reference():
    def mulmod_ref(a, b, f, p):
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        n = len(f) - 1
        for top in range(len(out) - 1, n - 1, -1):  # f is monic
            c = out[top]
            for i in range(n + 1):
                out[top - n + i] = (out[top - n + i] - c * f[i]) % p
        out = out[:n]
        while out and out[-1] == 0:
            out.pop()
        return out

    def powmod_ref(h, e, f, p):
        result, base = [1], mulmod_ref([c % p for c in h], [1], f, p)
        while e:
            if e & 1:
                result = mulmod_ref(result, base, f, p)
            base = mulmod_ref(base, base, f, p)
            e >>= 1
        return result

    rng = random.Random(811)
    for p in _large_primes(rng, 8):
        for _ in range(4):
            n = rng.randint(1, 8)
            f = [rng.randrange(p) for _ in range(n)] + [1]
            h = [rng.randrange(-p, 2 * p) for _ in range(rng.randint(0, 2 * n))]
            for e in (1, 2, p, rng.randrange(1, 10 ** 6)):
                assert poly_powmod(h, e, f, p) == powmod_ref(h, e, f, p), (h, e, f, p)
            assert poly_powmod([0, 1], p, f, p) == powmod_ref([0, 1], p, f, p), (f, p)

import random
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from latcount.errors import LatcountError
from latcount.numfield import field_from_polynomial
from latcount.polymod import (
    MAX_FACTOR,
    MAX_TRIAL,
    cubic_conductors,
    dedekind_maximal,
    distinct_degree_blocks,
    distinct_degree_degrees,
    equal_degree_split,
    factor,
    fundamental_discriminant,
    hensel_lift,
    is_prime,
    kronecker,
    poly_gcd,
    poly_powmod,
    prime_list,
    squarefree_part,
)
from latcount.prasad import prime_splitting

from oracles import (
    cubic_conductor_brute,
    cubic_conductor_divisors,
    cyclotomic,
    discriminant_oracle,
    squarefree_core,
)


def test_prime_sieve():
    assert prime_list(1) == prime_list(-5) == ()
    assert prime_list(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert len(prime_list(10 ** 4)) == 1229
    assert prime_list(100) == tuple(p for p in range(100) if is_prime(p))
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
    assert prime_splitting(field_from_polynomial("x^2-x-1"), 5) == ()
    # x^4 + 1 factors into two quadratics mod every odd prime; disc = 256
    for p in (3, 5, 7, 11, 13):
        assert distinct_degree_degrees([1, 0, 0, 0, 1], p) == (2, 2)
    assert prime_splitting(field_from_polynomial("x^4+1"), 2) == ()


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


def test_cyclotomic_splitting_at_large_primes():
    # p splits in Q(zeta_n) into phi(n)/ord_n(p) primes of degree ord_n(p)
    rng = random.Random(503)
    for n in (5, 7, 8, 9, 13, 16, 21):
        phi_n = cyclotomic(n)
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
                    assert prime_splitting(k, p) == (), (D, p)
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


def _mul_mod(polys, m):
    """Product of integer polynomials with coefficients reduced mod m."""
    out = [1]
    for g in polys:
        prod = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        out = [c % m for c in prod]
    return out


def _squarefree_pairs(rng, count):
    """(f, p): monic f of degree 1-8 and p from _large_primes with p not dividing disc f."""
    for p in _large_primes(rng, count):
        for _ in range(3):
            f = [rng.randrange(-50, 50) for _ in range(rng.randint(1, 8))] + [1]
            if discriminant_oracle(f) % p:
                yield f, p


def test_distinct_degree_blocks_multiply_back():
    rng = random.Random(919)
    for f, p in _squarefree_pairs(rng, 8):
        blocks = distinct_degree_blocks(f, p)
        assert [i for i, _ in blocks] == sorted({i for i, _ in blocks}), (f, p)
        assert all(g[-1] == 1 and (len(g) - 1) % i == 0 for i, g in blocks), (f, p)
        assert _mul_mod([g for _, g in blocks], p) == [c % p for c in f], (f, p)
        degrees = [i for i, g in blocks for _ in range((len(g) - 1) // i)]
        assert tuple(degrees) == distinct_degree_degrees(f, p), (f, p)


def test_equal_degree_split_of_cyclotomic_blocks():
    # Phi_n mod p is one block: phi(n)/ord_n(p) factors of degree ord_n(p)
    rng = random.Random(727)
    for n in (5, 7, 8, 9, 13, 16, 21):
        phi_n = cyclotomic(n)
        for p in _large_primes(rng, 4):
            if p == 2 or n % p == 0:
                continue
            order = next(o for o in range(1, n) if pow(p, o, n) == 1)
            [(i, block)] = distinct_degree_blocks(phi_n, p)
            assert i == order, (n, p)
            factors = equal_degree_split(block, i, p)
            assert len(factors) == (len(phi_n) - 1) // order, (n, p)
            assert all(distinct_degree_degrees(g, p) == (order,) for g in factors), (n, p)
            assert _mul_mod(factors, p) == [c % p for c in phi_n], (n, p)
            assert equal_degree_split(block, i, p) == factors, (n, p)


def test_hensel_lift_products_and_residues():
    rng = random.Random(433)
    for f, p in _squarefree_pairs(rng, 8):
        if p == 2:
            continue
        factors = [h for i, g in distinct_degree_blocks(f, p) for h in equal_degree_split(g, i, p)]
        k = rng.randint(1, 6)
        lifts = hensel_lift(f, factors, p, k)
        q = p ** k
        assert _mul_mod(lifts, q) == [c % q for c in f], (f, p, k)
        for lift, g in zip(lifts, factors):
            assert len(lift) == len(g) and lift[-1] == 1, (f, p, k)
            assert all(0 <= c < q for c in lift), (f, p, k)
            assert [c % p for c in lift] == g, (f, p, k)


def test_squarefree_part_matches_trial_division():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randrange(1, 10 ** 9) * rng.choice((1, -1))
        assert squarefree_part(n) == squarefree_core(n), n
    # D < 10^12 built from a known core: q^2 and p^2 q with q near 10^6, two
    # large primes, and three small ones times a square
    small, large = prime_list(1000), prime_list(10 ** 6)[-2000:]
    for _ in range(200):
        p, q, r = rng.choice(small), rng.choice(large), rng.choice(large)
        trio = rng.sample(small, 3)
        for n, core in ((q * q, 1), (p * p * q, q), (q * r, q * r if q != r else 1),
                        (prod(trio) * p * p, prod(trio))):
            assert squarefree_part(n) == core and squarefree_part(-n) == -core, n


def test_squarefree_part_refuses_past_the_cap():
    assert squarefree_part(MAX_FACTOR) == 1  # 10^18 = (10^9)^2
    assert squarefree_part(-(MAX_FACTOR - 1)) == -squarefree_core(MAX_FACTOR - 1)
    with pytest.raises(LatcountError, match="past the factoring cap"):
        squarefree_part(MAX_FACTOR + 1)


def test_factor_matches_trial_division():
    rng = random.Random(13)
    cases = [1, 2, 4, 27, 91, 999999937, MAX_TRIAL, 31607 * 31627]
    cases += [rng.randrange(1, MAX_TRIAL) for _ in range(200)]
    for n in cases:
        primes = factor(n)
        assert prod(p ** e for p, e in primes.items()) == n, n
        assert all(e > 0 and is_prime(p) for p, e in primes.items()), n
    for n in (0, MAX_TRIAL + 1):
        with pytest.raises(ValueError):
            factor(n)


@pytest.mark.parametrize("poly, m, conductors", [
    ([-1, -2, 1, 1], 7, (7,)),  # x^3+x^2-2x-1
    ([1, -3, 0, 1], 9, (9,)),  # x^3-3x+1
    ([-1, -6, -3, 1], 27, (9,)),  # Shanks a = 3: index 3
    ([-8, -8, 2, 1], 56, (7,)),  # 2 theta of x^3+x^2-2x-1: 2 is no conductor
    ([-27, -18, 3, 1], 189, (7, 63)),  # 3 theta of x^3+x^2-2x-1: v_3(f) < 3
    ([-343, -196, -7, 1], 4459, (13, 91)),  # 7 theta of x^3-x^2-4x-1: v_7(f) < 3
    ([-1, -16, -3, 1], 133, (19,)),  # x^3-3x^2-16x-1: index 7
    ([-1, -9, -6, 1], 63, (63,)),  # x^3-6x^2-9x-1: maximal at 3 and 7
    ([-10 ** 15, -2 * 10 ** 10, 10 ** 5, 1], 7 * 10 ** 15, None),  # past MAX_TRIAL
    ([-1, 17, -10, 1], 91, (7,)),  # x^3-10x^2+17x-1: index 13
    ([-19, 45, -24, 1], 333, (9,)),  # x^3-24x^2+45x-19: index 37
    ([3, 35, -18, 1], 511, (73,)),  # x^3-18x^2+35x+3: index 7
    ([-1, 12, 15, 1], 189, (7, 63)),  # x^3+15x^2+12x-1: index 27 or 3
])
def test_cubic_conductors(poly, m, conductors):
    # 9 or 1 times distinct primes = 1 mod 3, each dividing m; at each p | m
    # Dedekind's criterion keeps v_p(f) = v_p(m) where it holds and the
    # exponents below v_p(m) where it fails
    assert cubic_conductors(m, poly) == conductors


def _char_poly(coeffs, v, w):
    """The characteristic polynomial (constant first) of v theta + w theta^2
    for theta a root of the monic cubic coeffs, from its matrix on 1, theta,
    theta^2: x^3 - tr A x^2 + (tr(A)^2 - tr(A^2))/2 x - det A."""
    c0, c1, c2 = coeffs[:3]
    M = [[0, 0, -c0], [1, 0, -c1], [0, 1, -c2]]

    def mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

    M2 = mul(M, M)
    A = [[v * M[i][j] + w * M2[i][j] for j in range(3)] for i in range(3)]
    A2 = mul(A, A)
    t1 = A[0][0] + A[1][1] + A[2][2]
    t2 = (t1 * t1 - A2[0][0] - A2[1][1] - A2[2][2]) // 2
    t3 = (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
          - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
          + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))
    return [-t3, t2, -t1, 1]


def _cyclic_cubic_corpus(size, seed):
    """{coefficients: m}: characteristic polynomials of v theta + w theta^2,
    theta a root of Shanks's x^3 - a x^2 - (a+3) x - 1 for a < 24
    (conductors up to 657), with a composite m <= 10^6, disc = m^2.  A cubic
    field has no proper subfield but Q, so each one generates the field of
    theta, and the index of Z[v theta + w theta^2] spreads over many primes."""
    rng, corpus = random.Random(seed), {}
    while len(corpus) < size:
        a, v, w = rng.randrange(24), rng.randint(-5, 5), rng.randint(-3, 3)
        if v or w:
            poly = _char_poly([-1, -a - 3, -a, 1], v, w)
            m = isqrt(int(discriminant_oracle(poly)))
            if 1 < m <= 10 ** 6 and not is_prime(m):
                corpus[tuple(poly)] = m
    return corpus


def test_cubic_conductors_keep_the_brute_force_conductor():
    # the conductors left prime by prime are divisors of m of conductor form,
    # and among them is the one that the root counts of the cubic mod p, a
    # function of p mod f, show; the criterion narrows most of the corpus
    corpus = _cyclic_cubic_corpus(120, 91)
    narrowed = 0
    for poly, m in corpus.items():
        conductors, divisors = cubic_conductors(m, poly), cubic_conductor_divisors(m)
        assert set(conductors) <= set(divisors), (poly, m)
        assert cubic_conductor_brute(poly, m) in conductors, (poly, m)
        narrowed += len(conductors) < len(divisors)
    assert 2 * narrowed > len(corpus)


def test_dedekind_maximal_matches_quadratic_and_pure_cubic_indices():
    # Z[sqrt d] is 2-maximal iff d = 2, 3 mod 4 and p-maximal at odd p iff
    # p^2 does not divide d; Z[d^(1/3)], d cubefree, is 3-maximal iff d is
    # not 0, +-1 mod 9 and p-maximal at p != 3 iff p^2 does not divide d
    for d in range(-300, 301):
        if d in (0, 1) or d > 0 and isqrt(d) ** 2 == d:
            continue
        for p in (2, 3, 5, 7, 11):
            maximal = d % 4 in (2, 3) if p == 2 else d % (p * p) != 0
            assert dedekind_maximal([-d, 0, 1], p) == maximal, (d, p)
        if any(d % (q ** 3) == 0 for q in (2, 3, 5)) or round(abs(d) ** (1 / 3)) ** 3 == abs(d):
            continue
        for p in (2, 3, 5, 7, 11):
            maximal = d % 9 not in (0, 1, 8) if p == 3 else d % (p * p) != 0
            assert dedekind_maximal([-d, 0, 0, 1], p) == maximal, (d, p)


@pytest.mark.parametrize("p", [3, 7, 11])
def test_dedekind_maximal_at_a_repeated_quadratic_factor(p):
    # x^2 + 1 is irreducible mod p = 3 mod 4; (x^2+1)^2 + p^2 x puts
    # (theta^2 + 1) / p in the ring of integers, (x^2+1)^2 + p does not
    assert not dedekind_maximal([1, p * p, 2, 0, 1], p)
    assert dedekind_maximal([1 + p, 0, 2, 0, 1], p)
    rng = random.Random(p)
    for _ in range(50):  # Eisenstein at p
        f = [p * rng.randint(-20, 20) for _ in range(rng.randint(2, 7))] + [1]
        f[0] = p * rng.choice([u for u in range(-20, 21) if u % p])
        assert dedekind_maximal(f, p), f


@pytest.mark.parametrize("disc, d_k", [
    (5, 5), (45, 5), (20, 5), (8, 8), (32, 8), (12, 12), (24, 24), (96, 24), (188, 188),
    (752, 188), (13 * 49, 13), (-3, -3), (-12, -3), (-4, -4), (-16, -4), (-7 * 64, -7),
])
def test_fundamental_discriminant(disc, d_k):
    assert fundamental_discriminant(disc) == d_k


def test_kronecker_matches_squares_mod_p():
    # at odd p, +1 exactly on the nonzero squares; at p = 2, Kronecker's
    # extension: +1 for D = +-1 mod 8, -1 for D = +-3 mod 8
    for p in prime_list(60):
        squares = {x * x % p for x in range(1, p)}
        for D in range(-100, 101):
            if p == 2:
                expected = 0 if D % 2 == 0 else 1 if D % 8 in (1, 7) else -1
            else:
                expected = 0 if D % p == 0 else 1 if D % p in squares else -1
            assert kronecker(D, p) == expected, (D, p)

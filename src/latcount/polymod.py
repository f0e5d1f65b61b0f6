"""Dense polynomial arithmetic over F_p and a prime sieve.

Polynomials are lists of ints (constant coefficient first), reduced mod p.
Only what the splitting and irreducibility code needs: gcd, Frobenius powers
and distinct-degree factorization degrees.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import compress


def primes_up_to(n: int) -> list:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return list(compress(range(n + 1), sieve))


@lru_cache(maxsize=8)
def _cached_primes(bucket: int) -> tuple:
    return tuple(primes_up_to(bucket))


def prime_list(n: int) -> tuple:
    """Cached ascending primes <= n (sieve size: the next power of two)."""
    primes = _cached_primes(1 << max(n - 1, 1).bit_length())
    return primes[: bisect_right(primes, n)]


def _trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mod(f, p: int) -> list:
    return _trim([c % p for c in f])


def poly_rem(a, f, p):
    """a mod f over F_p; f monic."""
    a = [c % p for c in a]
    df = len(f) - 1
    while len(a) - 1 >= df:
        c = a[-1]
        if c:
            shift = len(a) - 1 - df
            for i, fc in enumerate(f):
                a[shift + i] = (a[shift + i] - c * fc) % p
        a.pop()
        _trim(a)
    return a


def poly_mulmod(a, b, f, p):
    """a*b mod (f, p); f monic mod p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return poly_rem(out, f, p)


def poly_powmod(base, e: int, f, p):
    """base^e mod (f, p); f monic of degree >= 1."""
    result = [1]
    base = poly_rem(list(base), f, p)
    while e:
        if e & 1:
            result = poly_mulmod(result, base, f, p)
        base = poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _monic(f, p):
    if not f:
        return f
    inv = pow(f[-1], p - 2, p)
    return [(c * inv) % p for c in f]


def poly_gcd(a, b, p):
    a = poly_mod(list(a), p)
    b = poly_mod(list(b), p)
    while b:
        a, b = b, poly_rem(a, _monic(b, p), p)
    return _monic(a, p)


def _poly_div_exact(a, b, p):
    """a / b over F_p for monic b with b | a."""
    a = [c % p for c in a]
    da, db = len(a) - 1, len(b) - 1
    out = [0] * (da - db + 1)
    for shift in range(da - db, -1, -1):
        c = a[shift + db] % p
        out[shift] = c
        if c:
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
    return _trim(out)


def _poly_sub_x(h, p):
    """h - x mod p."""
    out = list(h) + [0] * max(0, 2 - len(h))
    out[1] = (out[1] - 1) % p
    return _trim(out)


def distinct_degree_degrees(f, p: int):
    """Residue degrees of monic f over F_p, one entry per irreducible factor.

    Returns a sorted tuple, or None when f mod p is not squarefree (the
    caller must treat p as ramified).
    """
    g = poly_mod(list(f), p)
    d = len(g) - 1
    if d < 1:
        return None
    g = _monic(g, p)
    deriv = _trim([(i * c) % p for i, c in enumerate(g)][1:])
    if len(poly_gcd(g, deriv, p)) != 1:
        return None
    if d == 1:
        return (1,)
    degrees = []
    rem = g
    h = [0, 1]  # x^(p^i) mod rem, advanced once per iteration
    i = 0
    while len(rem) - 1 >= 2 * (i + 1):
        i += 1
        h = poly_powmod(h, p, rem, p)
        common = poly_gcd(rem, _poly_sub_x(h, p), p)
        if len(common) > 1:
            deg_c = len(common) - 1
            degrees.extend([i] * (deg_c // i))
            rem = _poly_div_exact(rem, common, p)
            if len(rem) - 1 >= 1:
                h = poly_rem(h, rem, p)
    if len(rem) - 1 > 0:
        # all factors of degree <= i are gone; what remains is irreducible
        degrees.append(len(rem) - 1)
    return tuple(sorted(degrees))

"""Dense polynomial arithmetic over F_p and a prime sieve.

Polynomials are lists of ints (constant coefficient first), reduced mod p.
Only what the splitting and irreducibility code needs: gcd, Frobenius powers
and distinct-degree factorization degrees, for monic f and p not dividing
disc(f) (so f mod p is squarefree; the callers skip the other primes).

Products modulo a monic f of degree n run on Kronecker-packed integers
(`_Packed`): a polynomial of degree < n is the one int sum c_i 2^(k i), so a
product is one big-int multiplication.  The slot width k is derived from n
and p so that every slot value stays below 2^k through a product, a fold of
x^n back onto the low slots, and a packed Barrett step that brings all
slots into [0, 2p) at once; no slot ever carries into the next.  Residues
are made canonical only when a result is unpacked to a list.
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


def _rem_in_place(a: list, b, p: int) -> list:
    """a mod b over F_p, overwriting a; a reduced mod p and trimmed, b monic."""
    db = len(b) - 1
    while len(a) > db:
        c = a.pop()
        if c:
            shift = len(a) - db
            for i in range(db):
                a[shift + i] = (a[shift + i] - c * b[i]) % p
        _trim(a)
    return a


def poly_rem(a, f, p):
    """a mod f over F_p; f monic."""
    return _rem_in_place(poly_mod(a, p), f, p)


class _Packed:
    """F_p[x]/(f) on Kronecker-packed ints, for f monic mod p of degree n >= 1.

    Coefficient i of a polynomial sits in slot i, bits [k i, k (i + 1)).
    Why no slot carries into the next:
    - Every operand has at most n slots, each in [0, 2p).  A product slot
      sums at most n terms below (2p)^2, so it is below V = 4 n p^2.
    - `reduce` first brings every slot into [0, 2p), then folds the slots
      from n up back as high * G, G = x^n mod f with n slots in [0, p).  A
      folded slot is below 2p + (n - 1) (2p) p <= V, and so is an operand
      shifted by one slot (times x) and folded once.
    - The Barrett step takes m = floor(2^s / p) with 2^s > V, and
      k = 2s - bitlen(p) + 1, so every slot value v < V < 2^k and
      v m < 2^(2s) / p <= 2^k.  The terms v_i m 2^(k i) of P m therefore fill
      disjoint slots too; bits [s, k) of slot i hold q_i = floor(v_i m / 2^s),
      with floor(v_i / p) - 1 <= q_i <= floor(v_i / p) because v_i < 2^s.
      Subtracting q_i p leaves v_i - q_i p in [0, 2p) and borrows nothing.
    """

    def __init__(self, f, p: int):
        n = len(f) - 1
        s = (4 * n * p * p).bit_length()
        k = 2 * s - p.bit_length() + 1
        self.n, self.p, self.k, self.s = n, p, k, s
        self.top = k * n
        self.low = (1 << self.top) - 1
        self.slot = (1 << k) - 1
        self.m = (1 << s) // p
        # bits [0, k - s) of each of the 2n - 1 slots a product can fill
        self.q_mask = ((1 << (k - s)) - 1) * (((1 << (k * (2 * n - 1))) - 1) // self.slot)
        self.g = self.pack([-c % p for c in f[:n]])

    def pack(self, a) -> int:
        """Pack residues in [0, p) of a polynomial of degree < n."""
        k = self.k
        return sum(c << (k * i) for i, c in enumerate(a))

    def unpack(self, a: int) -> list:
        k, slot, p = self.k, self.slot, self.p
        return _trim([((a >> (k * i)) & slot) % p for i in range(self.n)])

    def reduce(self, a: int) -> int:
        """a mod f with slots in [0, 2p); a has slots < V and degree < 2n - 1."""
        m, s, q_mask, p = self.m, self.s, self.q_mask, self.p
        top, low, g = self.top, self.low, self.g
        while True:
            a -= (((a * m) >> s) & q_mask) * p  # the Barrett step
            high = a >> top
            if not high:
                return a
            a = (a & low) + high * g

    def pow(self, a: int, e: int) -> int:
        """a^e mod f for e >= 1, left to right; times x is a shift by k."""
        by_x = a == 1 << self.k  # a packed x; for n = 1, a < 2p < 2^k
        r = a
        for bit in bin(e)[3:]:
            r = self.reduce(r * r)
            if bit == "1":
                r = self.reduce(r << self.k if by_x else r * a)
        return r


def poly_powmod(base, e: int, f, p):
    """base^e mod (f, p); f monic of degree >= 1."""
    if not e:
        return [1]
    ring = _Packed(f, p)
    return ring.unpack(ring.pow(ring.pack(poly_rem(base, f, p)), e))


def _monic(f, p):
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], -1, p)
    return [(c * inv) % p for c in f]


def poly_gcd(a, b, p):
    """Monic gcd over F_p of a and b, whose coefficients lie in [0, p)."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        b = _monic(b, p)
        a, b = b, _rem_in_place(a, b, p)
    return _monic(a, p)


def _poly_div_exact(a, b, p):
    """a / b over F_p for a reduced mod p and monic b with b | a."""
    a = list(a)
    da, db = len(a) - 1, len(b) - 1
    out = [0] * (da - db + 1)
    for shift in range(da - db, -1, -1):
        c = a[shift + db]
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

    Precondition: f is monic and p does not divide disc(f), so f mod p is
    squarefree; the caller decides bad primes.  Returns a sorted tuple.
    """
    degrees = []
    rem = poly_mod(f, p)
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

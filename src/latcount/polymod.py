"""Dense polynomial arithmetic over F_p, a prime sieve, certified primality,
the squarefree part of an integer up to MAX_FACTOR and the factors of one up
to MAX_TRIAL.

Polynomials are lists of ints (constant coefficient first), reduced mod p.
Only what the splitting and irreducibility code needs: distinct-degree,
equal-degree and Hensel factoring for monic f and p not dividing disc(f) (so
f mod p is squarefree; the callers skip the other primes).  numfield's
irreducibility decision uses all of it; prasad's prime splitting reads residue
degrees where the quadratic character of disc(f) leaves them open: cubics with
(disc/p) = +1 (a cyclic cubic, disc = m^2, only at the first prime of each
residue class mod m) and fields of degree >= 4.

Products modulo a monic f of degree n run on Kronecker-packed integers
(`_Packed`): a polynomial of degree < n is the one int sum c_i 2^(k i), so a
product is one big-int multiplication.  The slot width k is derived from n
and p so that every slot value stays below 2^k through a product, a fold of
x^n back onto the low slots, and a packed Barrett step that brings all
slots into [0, 2p) at once; no slot ever carries into the next.  Residues
are made canonical only when a result is unpacked to a list.
"""

from __future__ import annotations

from itertools import compress, zip_longest
from math import isqrt

from .errors import LatcountError


def prime_list(n: int) -> tuple:
    """The ascending primes <= n, by the sieve of Eratosthenes."""
    if n < 2:
        return ()
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(compress(range(n + 1), sieve))


# the first 13 primes; strong probable-prime tests to all of them prove an n
# below _PSI_13 prime (Sorenson and Webster, Math. Comp. 86, 2017)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Certified primality: trial division by _SMALL_PRIMES, then strong
    probable-prime tests to those bases.  An n >= _PSI_13 that passes every
    test raises a ValueError instead of a guess."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        raise ValueError(f"primality not certified for {n}: the strong probable-prime "
                         f"tests to the first 13 prime bases prove it only below {_PSI_13}")
    return True


# |n| past this is not factored: squarefree_part sieves to 2^20, past its cube root
MAX_FACTOR = 10 ** 18


def squarefree_part(n: int) -> int:
    """The squarefree s, sign kept, with n = s m^2 for an integer m; n != 0.

    Trial division by the primes p with p^3 <= |n| (sieved up to
    2^ceil(bitlen/3), at least the cube root) leaves a cofactor whose prime
    factors all exceed the cube root, so it has at most two: it is
    1, a prime, a product of two distinct primes (all squarefree) or the
    square of a prime, which the isqrt test tells apart.  An |n| past
    MAX_FACTOR raises a LatcountError.
    """
    if abs(n) > MAX_FACTOR:
        raise LatcountError(
            f"{n} is past the factoring cap: squarefree parts, and so the d_K of a "
            f"quadratic field, are certified for |n| <= {MAX_FACTOR}"
        )
    rest, core = abs(n), 1
    for p in prime_list(1 << -(-rest.bit_length() // 3)):
        if p * p * p > rest:
            break
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e % 2:
            core *= p
    r = isqrt(rest)
    if r * r != rest:
        core *= rest
    return core if n > 0 else -core


# n past this is not factored: factor divides by the primes up to its square root
MAX_TRIAL = 10 ** 9


def factor(n: int) -> dict:
    """{p: v_p(n)} for 1 <= n <= MAX_TRIAL, by trial division by the primes p
    with p^2 <= n; what is left above 1 is a prime."""
    if not 1 <= n <= MAX_TRIAL:
        raise ValueError(f"factor takes 1 <= n <= {MAX_TRIAL}, not {n}")
    out = {}
    for p in prime_list(isqrt(n)):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    if n > 1:
        out[n] = 1
    return out


def cubic_conductors(m: int, poly) -> tuple | None:
    """The conductors f > 1 that the cyclic cubic field of poly, a monic cubic
    (coefficients ascending) with disc(Z[theta]) = m^2, can have, ascending;
    None for m past MAX_TRIAL.  d_K = f^2 and m = index * f, and f is 9 or 1
    times distinct primes = 1 mod 3, so v_p(f) is 0 or 2 at p = 3, 0 or 1 at
    p = 1 mod 3 and 0 at every other p.  Each p | m is decided on its own:
    where Dedekind's criterion (dedekind_maximal) holds, p does not divide
    the index and v_p(f) = v_p(m); where it fails, v_p(f) < v_p(m)."""
    if m > MAX_TRIAL:
        return None
    out = [1]
    for p, e in factor(m).items():
        allowed = (0, 2) if p == 3 else (0, 1) if p % 3 == 1 else (0,)
        maximal = dedekind_maximal(poly, p)
        out = [f * p ** a for f in out for a in allowed if (a == e if maximal else a < e)]
    return tuple(sorted(f for f in out if f > 1))


def dedekind_maximal(f, p: int) -> bool:
    """Whether Z[theta] = Z[x]/(f) is p-maximal, for f monic over Z
    (coefficients ascending) and p prime: Dedekind's criterion (Cohen, GTM
    138, Thm 6.1.4).  With g the product of the distinct monic irreducible
    factors of f mod p and h = f / g mod p, both lifted with coefficients in
    [0, p), Z[theta] is p-maximal iff gcd(F, g, h) = 1 mod p, F = (g h - f) /
    p.  g is the lcm over i <= deg f of gcd(f, x^(p^i) - x), whose factors
    are the distinct irreducible ones of degree dividing i."""
    fp = poly_mod(f, p)
    g, frob = [1], [0, 1]
    for _ in range(len(fp) - 1):
        frob = poly_powmod(frob, p, fp, p)
        common = poly_gcd(fp, _poly_sub_xj(frob, 1, p), p)
        g = poly_mod(_poly_mul(g, _poly_div_exact(common, poly_gcd(g, common, p), p)), p)
    h = _poly_div_exact(fp, g, p)
    gh = _poly_mul(g, h)
    F = poly_mod([(a - b) // p for a, b in zip_longest(gh, f, fillvalue=0)], p)
    return len(poly_gcd(poly_gcd(F, g, p), h, p)) == 1


def fundamental_discriminant(disc: int) -> int:
    """d_K of the quadratic field of a polynomial discriminant disc = 0, 1 mod 4
    (not a square): disc = d_K m^2, and d_K = s if s = 1 mod 4 else 4 s for
    s = squarefree_part(disc).  A disc = s m^2 with s = 2, 3 mod 4 has m even,
    since disc = 0 mod 4, so disc / (4 s) is the square (m / 2)^2."""
    s = squarefree_part(disc)
    return s if s % 4 == 1 else 4 * s


def kronecker(D: int, p: int) -> int:
    """Kronecker's symbol (D/p) at a prime p: 0 where p | D; at odd p Euler's
    criterion D^((p-1)/2) mod p; at p = 2, +1 or -1 as D = +-1 or +-3 mod 8."""
    if p == 2:
        return 0 if D % 2 == 0 else 1 if D % 8 in (1, 7) else -1
    c = pow(D, (p - 1) // 2, p)
    return -1 if c == p - 1 else c


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


def _poly_sub_xj(h, j: int, p):
    """h - x^j mod p."""
    out = list(h) + [0] * max(0, j + 1 - len(h))
    out[j] = (out[j] - 1) % p
    return _trim(out)


def _poly_mul(a, b) -> list:
    """a b over Z."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def distinct_degree_blocks(f, p: int) -> list:
    """[(i, g_i)], i ascending: g_i is the product of the degree-i factors of f over F_p.

    Precondition: f is monic and p does not divide disc(f), so f mod p is
    squarefree; the caller decides bad primes.
    """
    blocks = []
    rem = poly_mod(f, p)
    h = [0, 1]  # x^(p^i) mod rem, advanced once per iteration
    i = 0
    while len(rem) - 1 >= 2 * (i + 1):
        i += 1
        h = poly_powmod(h, p, rem, p)
        common = poly_gcd(rem, _poly_sub_xj(h, 1, p), p)
        if len(common) > 1:
            blocks.append((i, common))
            rem = _poly_div_exact(rem, common, p)
            if len(rem) - 1 >= 1:
                h = poly_rem(h, rem, p)
    if len(rem) - 1 > 0:
        # all factors of degree <= i are gone; what remains is irreducible
        blocks.append((len(rem) - 1, rem))
    return blocks


def distinct_degree_degrees(f, p: int):
    """Sorted residue degrees of f over F_p, one per irreducible factor; f, p as above."""
    return tuple(i for i, g in distinct_degree_blocks(f, p) for _ in range((len(g) - 1) // i))


def equal_degree_split(g, i: int, p: int) -> list:
    """Sorted irreducible factors of a block g of degree-i factors over F_p, p odd.

    Cantor-Zassenhaus: b = a^((p^i - 1)/2) mod h is 0 or +-1 modulo each
    factor of h, so gcd(h, b - 1) splits h about every other draw of a.  The
    draws are seeded with (g, p), so a block always splits the same way.
    """
    if len(g) - 1 == i:
        return [g]
    import random  # only a block of several factors draws

    rng = random.Random(repr((p, g)))
    while True:
        b = poly_powmod([rng.randrange(p) for _ in range(len(g) - 1)], (p ** i - 1) // 2, g, p)
        c = poly_gcd(g, _poly_sub_xj(b, 0, p), p)
        if 1 < len(c) < len(g):
            rest = _poly_div_exact(g, c, p)
            return sorted(equal_degree_split(c, i, p) + equal_degree_split(rest, i, p))


def hensel_lift(f, factors, p: int, k: int) -> list:
    """Monic G_j = g_j (mod p), coefficients in [0, p^k), with prod G_j = f (mod p^k).

    The g_j are the monic irreducible factors of monic f mod p.  Step m: if
    f - prod G_j = q e, q = p^m, then d_j = e s_j mod g_j with s_j = (f / g_j)^-1
    = (f / g_j)^(p^deg g_j - 2) in F_p[x]/(g_j) gives sum_j d_j f / g_j = e mod p
    (degree < deg f, equal mod every g_j), so the G_j + q d_j hold mod p q.
    """
    fp = poly_mod(f, p)
    inverses = [
        poly_powmod(_poly_div_exact(fp, g, p), p ** (len(g) - 1) - 2, g, p) for g in factors
    ]
    lifts = [list(g) for g in factors]
    q = p
    for _ in range(k - 1):
        prod = [1]
        for lift in lifts:
            prod = _poly_mul(prod, lift)
        e = [(a - b) // q % p for a, b in zip(f, prod)]
        for lift, g, s in zip(lifts, factors, inverses):
            for j, c in enumerate(poly_rem(_poly_mul(e, s), g, p)):
                lift[j] += q * c
        q *= p
    return lifts

"""Independent reference implementations used to check derived values.

Everything here is deliberately naive: determinants by Gaussian elimination
over exact rationals, group orders by enumerating matrices, subgroup counts
by closure enumeration, zeta values by partial sums with elementary tail
brackets.  Slow and obviously correct beats fast and shared-with-the-code.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, isqrt


# ------------------------------------------------ resultants / discriminants

def det_exact(matrix) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination with pivoting."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def sylvester_resultant(f, g) -> Fraction:
    """Res(f, g) via the Sylvester matrix; coefficients constant-first."""
    fd = [Fraction(c) for c in f]
    gd = [Fraction(c) for c in g]
    while fd and fd[-1] == 0:
        fd.pop()
    while gd and gd[-1] == 0:
        gd.pop()
    m, n = len(fd) - 1, len(gd) - 1
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0 and n == 0:
        return Fraction(1)
    size = m + n
    rows = []
    frow = list(reversed(fd))     # leading coefficient first
    grow = list(reversed(gd))
    for i in range(n):
        rows.append([Fraction(0)] * i + frow + [Fraction(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Fraction(0)] * i + grow + [Fraction(0)] * (size - i - n - 1))
    return det_exact(rows)


def discriminant_oracle(coeffs) -> Fraction:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f), coefficients constant-first."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    d = len(cs) - 1
    deriv = [i * cs[i] for i in range(1, d + 1)]
    res = sylvester_resultant(cs, deriv)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res / cs[-1]


def cyclotomic(n: int) -> list:
    """Integer coefficients of Phi_n: x^n - 1 divided by Phi_d for d | n, d < n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic(d)
            quo = [0] * (len(num) - len(den) + 1)
            for shift in range(len(quo) - 1, -1, -1):
                c = num[shift + len(den) - 1]
                quo[shift] = c
                for i, dc in enumerate(den):
                    num[shift + i] -= c * dc
            num = quo
    return num


def real_cyclotomic(n: int) -> list:
    """Minimal polynomial of 2 cos(2 pi / n), n >= 3, constant coefficient first.

    Phi_n is palindromic of degree 2m, so Phi_n(z) / z^m = c_m + sum_k c_(m+k)
    (z^k + z^-k), and z^k + z^-k = D_k(z + 1/z) with D_0 = 2, D_1 = y and
    D_k = y D_(k-1) - D_(k-2).
    """
    phi = cyclotomic(n)
    m = (len(phi) - 1) // 2
    chebyshev = [[2], [0, 1]]
    while len(chebyshev) <= m:
        prev, prev2 = chebyshev[-1], chebyshev[-2] + [0, 0]
        chebyshev.append([a - b for a, b in zip([0] + prev, prev2)])
    out = [phi[m]] + [0] * m
    for k in range(1, m + 1):
        for i, a in enumerate(chebyshev[k]):
            out[i] += phi[m + k] * a
    return out


# --------------------------------------------------------- finite field data

def gf_tables(q: int):
    """(elements, add, mul) for F_q; q prime or 4."""
    if q == 4:
        # F_4 = F_2[x]/(x^2 + x + 1); elements as 2-bit vectors (lo, hi)
        elems = [0, 1, 2, 3]

        def add(a, b):
            return a ^ b

        def mul(a, b):
            acc = 0
            x, y = a, b
            while y:
                if y & 1:
                    acc ^= x
                y >>= 1
                x <<= 1
                if x & 4:
                    x ^= 7  # reduce by x^2 + x + 1
            return acc

        return elems, add, mul
    for p in range(2, q + 1):
        if q % p == 0:
            if q != p:
                raise ValueError(f"unsupported prime power {q}")
            break
    elems = list(range(q))
    return elems, (lambda a, b: (a + b) % q), (lambda a, b: (a * b) % q)


def sl2_order_brute(q: int) -> int:
    """#SL_2(F_q) by enumerating all 2x2 matrices with determinant one."""
    elems, add, mul = gf_tables(q)
    neg = {a: next(b for b in elems if add(a, b) == 0) for a in elems}
    count = 0
    for a, b, c, d in product(elems, repeat=4):
        if add(mul(a, d), neg[mul(b, c)]) == 1:
            count += 1
    return count


def sp4_order_f2() -> int:
    """#Sp_4(F_2) by scanning all 4x4 matrices over F_2 preserving the form."""
    # rows as 4-bit integers; symplectic form J with pairing (0,1), (2,3)
    j_rows = (0b0010, 0b0001, 0b1000, 0b0100)
    count = 0
    for m0, m1, m2, m3 in product(range(16), repeat=4):
        rows = (m0, m1, m2, m3)
        ok = True
        for i in range(4):
            for k in range(i, 4):
                want = (j_rows[i] >> (3 - k)) & 1
                got = 0
                # (M^T J M)[i][k] = sum_a sum_b M[a][i] J[a][b] M[b][k]
                for a in range(4):
                    ma_i = (rows[a] >> (3 - i)) & 1
                    if not ma_i:
                        continue
                    for b in range(4):
                        if (j_rows[a] >> (3 - b)) & 1:
                            got ^= (rows[b] >> (3 - k)) & 1
                if got != want:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def su3_order_f2() -> int:
    """#SU_3(F_2): 3x3 matrices over F_4 with M* M = I and det 1.

    Conjugation is the Frobenius x -> x^2; the hermitian form is the
    identity matrix.
    """
    elems, add, mul = gf_tables(4)

    def conj(a):
        return mul(a, a)

    def det3(m):
        ((a, b, c), (d, e, f), (g, h, i)) = m
        t1 = mul(a, add(mul(e, i), mul(f, h)))
        t2 = mul(b, add(mul(d, i), mul(f, g)))
        t3 = mul(c, add(mul(d, h), mul(e, g)))
        return add(add(t1, t2), t3)  # char 2: subtraction is addition

    count = 0
    for flat in product(elems, repeat=9):
        m = (flat[0:3], flat[3:6], flat[6:9])
        ok = True
        for i in range(3):
            for k in range(3):
                got = 0
                for a in range(3):
                    got = add(got, mul(conj(m[a][i]), m[a][k]))
                if got != (1 if i == k else 0):
                    ok = False
                    break
            if not ok:
                break
        if ok and det3(m) == 1:
            count += 1
    return count


# ------------------------------------------------------------ subgroup counts

def subgroup_count_brute(p: int, d: int) -> int:
    """Count subgroups of (Z/p)^d by closure enumeration (subspace BFS)."""
    vectors = list(product(range(p), repeat=d))

    def vadd(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    def span_with(space: frozenset, vec) -> frozenset:
        # space is a subspace, so {u + c*vec} is the span of space and vec
        out = set()
        for u in space:
            w = u
            for _ in range(p):
                out.add(w)
                w = vadd(w, vec)
        return frozenset(out)

    zero = (0,) * d
    seen = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        nxt = []
        for space in frontier:
            for vec in vectors:
                if vec in space:
                    continue
                new = span_with(space, vec)
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return len(seen)


# ------------------------------------------------------------------ zeta sums

def zeta2_bracket(n_terms: int, grid_bits: int = 200):
    """[lo, hi] Fractions with sum 1/n^2 tail bracket 1/(N+1) < tail < 1/N."""
    scale = 1 << grid_bits
    lo_acc = 0  # floor-scaled partial sum
    hi_acc = 0  # ceil-scaled partial sum
    for n in range(1, n_terms + 1):
        nn = n * n
        lo_acc += scale // nn
        hi_acc += -((-scale) // nn)
    lo = Fraction(lo_acc, scale) + Fraction(1, n_terms + 1)
    hi = Fraction(hi_acc, scale) + Fraction(1, n_terms)
    return lo, hi


def dirichlet_l2_bracket(residues, period: int, n_terms: int):
    """[lo, hi] for L(2, chi) given chi(n) = residues[n % period] in {-1,0,1}."""
    partial = Fraction(0)
    for n in range(1, n_terms + 1):
        c = residues[n % period]
        if c:
            partial += Fraction(c, n * n)
    tail = Fraction(1, n_terms)
    return partial - tail, partial + tail


def bernoulli(n: int) -> Fraction:
    """B_n (with B_1 = -1/2) from the recurrence sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b[n]


def _atan_inv_bracket(m: int, n_terms: int):
    """atan(1/m) between two consecutive partial sums of its alternating series."""
    partial = Fraction(0)
    for k in range(n_terms + 1):
        prev = partial
        partial += Fraction((-1) ** k, (2 * k + 1) * m ** (2 * k + 1))
    return min(prev, partial), max(prev, partial)


def pi_bracket(n_terms: int = 300):
    """[lo, hi] for pi from Euler's pi/4 = atan(1/2) + atan(1/3)."""
    a_lo, a_hi = _atan_inv_bracket(2, n_terms)
    b_lo, b_hi = _atan_inv_bracket(3, n_terms)
    return 4 * (a_lo + b_lo), 4 * (a_hi + b_hi)


def zeta_even_bracket(s: int, pi=None):
    """[lo, hi] for zeta(s), s even >= 2: |B_s| (2 pi)^s / (2 s!)."""
    assert s >= 2 and s % 2 == 0
    lo, hi = pi or pi_bracket()
    scale = abs(bernoulli(s)) / (2 * factorial(s))
    return scale * (2 * lo) ** s, scale * (2 * hi) ** s


def zeta2_l3_chi_minus3_bracket(pi=None, bits: int = 200):
    """[lo, hi] for zeta(2) L(3, chi_-3) = (pi^2/6) 4 pi^3 / (81 sqrt 3).

    The Euler product of the outer A2 form over Q split by Q(sqrt -3).
    """
    lo, hi = pi or pi_bracket()
    r = isqrt(3 << 2 * bits)  # r / 2^bits <= sqrt 3 < (r + 1) / 2^bits
    return (
        2 * lo ** 5 / (243 * Fraction(r + 1, 1 << bits)),
        2 * hi ** 5 / (243 * Fraction(r, 1 << bits)),
    )


# zeta(3), zeta(5) and zeta(7) truncated after 50 decimals
ZETA_ODD_50 = {
    3: "1.20205690315959428539973816151144999076498629234049",
    5: "1.03692775514336992633136548645703416805708091950191",
    7: "1.00834927738192282683979754984979675959986356056523",
}


def zeta_odd_bracket(s: int):
    """[lo, hi] for zeta(s), s in (3, 5, 7): the 50-decimal truncation and 10^-50 above it."""
    lo = Fraction(ZETA_ODD_50[s])
    return lo, lo + Fraction(1, 10 ** 50)


# ---------------------------------------------------------- real quadratics

def squarefree_core(n: int) -> int:
    """The squarefree s, sign kept, with n = s m^2, by trial division to sqrt |n|."""
    core, rest, p = 1, abs(n), 2
    while p * p <= rest:
        while rest % (p * p) == 0:
            rest //= p * p
        if rest % p == 0:
            core *= p
            rest //= p
        p += 1
    return (core * rest) * (1 if n > 0 else -1)


def quadratic_field_disc(disc: int) -> int:
    """d_K of Q(theta) for a monic quadratic of discriminant disc."""
    s = squarefree_core(disc)
    return s if s % 4 == 1 else 4 * s


def _sigma(k: int, n: int) -> int:
    """The sum of d^k over the divisors d of n >= 1."""
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d ** k + ((n // d) ** k if d * d != n else 0)
    return total


def siegel_zeta_neg(D: int, m: int) -> Fraction:
    """zeta_K(-m), m = 1 or 3, of the real quadratic field of discriminant D
    (Siegel; Cohen, Math. Ann. 217, 1975): the sum over b = D mod 2, b^2 < D,
    of sigma_m((D - b^2)/4), over 60 for m = 1 and 120 for m = 3."""
    total, b = 0, D % 2
    while b * b < D:
        total += _sigma(m, (D - b * b) // 4) * (1 if b == 0 else 2)
        b += 2
    return Fraction(total, {1: 60, 3: 120}[m])


# ---------------------------------------------------------- cyclic cubics

def _cubic_character_by_root_counts(coeffs, f: int) -> dict:
    """a mod f -> j, with chi(a) = omega^j, for the cyclic cubic field of
    conductor f cut out by the monic cubic coeffs (constant first), read off
    the number of roots of coeffs mod primes p not dividing f: chi(p) = 1
    iff there are 3, so those p fill the kernel H of chi; the least class c
    of a p with none gets chi(c) = omega, and then chi = omega^j on c^j H."""
    classes, units = {}, sum(1 for a in range(f) if gcd(a, f) == 1)
    p = 2
    while len(classes) < units:
        if f % p and all(p % q for q in range(2, isqrt(p) + 1)):
            roots = sum(1 for x in range(p) if sum(c * x ** i for i, c in enumerate(coeffs)) % p == 0)
            assert roots in (0, 3), (coeffs, p, roots)
            classes.setdefault(p % f, roots)
        p += 1
    kernel = [a for a, roots in classes.items() if roots == 3]
    inert = min(a for a, roots in classes.items() if roots == 0)
    chi = {a * inert ** j % f: j for a in kernel for j in range(3)}
    assert len(chi) == len(classes) == 3 * len(kernel)
    return chi


def _is_cubic_conductor(f: int) -> bool:
    """Whether f > 1 is 9 or 1 times distinct primes = 1 mod 3, by trial
    division: the form of the conductor of a cyclic cubic field."""
    n = f // 9 if f % 9 == 0 else f
    if f < 2 or n % 3 == 0:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0 or q % 3 != 1:
                return False
        q += 1
    return n == 1 or n % 3 == 1


def cubic_conductor_divisors(m: int) -> list:
    """The divisors of m of conductor form (_is_cubic_conductor), ascending."""
    divisors = {d for a in range(1, isqrt(m) + 1) if m % a == 0 for d in (a, m // a)}
    return sorted(f for f in divisors if _is_cubic_conductor(f))


def _splits_completely(coeffs, p: int) -> bool:
    """Whether x^p = x modulo the monic cubic coeffs (constant first) and p,
    by square and multiply on residues a0 + a1 x + a2 x^2."""
    c0, c1, c2 = coeffs[:3]

    def mul(a, b):
        (a0, a1, a2), (b0, b1, b2) = a, b
        x3, x4 = a1 * b2 + a2 * b1, a2 * b2
        x3 -= x4 * c2  # x^4 = -x (c0 + c1 x + c2 x^2), then x^3 likewise
        return [(a0 * b0 - x3 * c0) % p,
                (a0 * b1 + a1 * b0 - x4 * c0 - x3 * c1) % p,
                (a0 * b2 + a1 * b1 + a2 * b0 - x4 * c1 - x3 * c2) % p]

    power, base, e = [1, 0, 0], [0, 1, 0], p
    while e:
        if e & 1:
            power = mul(power, base)
        base, e = mul(base, base), e >> 1
    return power == [0, 1 % p, 0]


def cubic_conductor_brute(coeffs, m: int) -> int:
    """The conductor of the cyclic cubic field of the monic cubic coeffs
    (constant first) with discriminant m^2: the least divisor f of m of
    conductor form such that the number of roots of coeffs mod p depends
    only on p mod f, over the primes p < 4000 not dividing m.  At such p the
    Frobenius lies in the cyclic Galois group, so there are 3 roots or none,
    and 3 exactly when x^p = x modulo coeffs and p."""
    roots = {p: _splits_completely(coeffs, p) for p in range(2, 4000)
             if m % p and all(p % q for q in range(2, isqrt(p) + 1))}
    for f in cubic_conductor_divisors(m):
        classes = {}
        if all(classes.setdefault(p % f, r) == r for p, r in roots.items()):
            return f
    raise AssertionError(f"no divisor of {m} is the conductor of {coeffs}")


def cyclic_cubic_zeta_neg(coeffs, f: int, n: int) -> Fraction:
    """zeta_K(1 - n) at even n for the cyclic cubic field of conductor f cut
    out by coeffs: (-B_n/n) |B_(n,chi)/n|^2 with B_(n,chi) = f^(n-1)
    sum_(a=1..f) chi(a) B_n(a/f) = x + y omega summed over the whole period,
    and |x + y omega|^2 = x^2 - x y + y^2."""
    chi = _cubic_character_by_root_counts(coeffs, f)
    xy = [Fraction(0)] * 3
    for a, j in chi.items():
        xy[j] += f ** (n - 1) * sum(comb(n, k) * bernoulli(k) * Fraction(a, f) ** (n - k)
                                    for k in range(n + 1))
    x, y = xy[0] - xy[2], xy[1] - xy[2]  # omega^2 = -1 - omega
    return -bernoulli(n) / n * (x * x - x * y + y * y) / n ** 2

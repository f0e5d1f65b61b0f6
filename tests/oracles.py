"""Independent reference implementations used to check derived values.

Everything here is deliberately naive: determinants by Gaussian elimination
over exact rationals, group orders by enumerating matrices, subgroup counts
by closure enumeration, zeta values by partial sums with elementary tail
brackets.  Slow and obviously correct beats fast and shared-with-the-code.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial


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

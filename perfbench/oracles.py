"""Exact reference values and report parsing for the latcount benchmark.

Everything here is computed independently of the program: the benchmark
never imports `latcount` (or its tests) to decide whether an output is right.

- Bernoulli closed forms: over Q, a split type whose exponents are all odd
  has covolume prod |zeta(-m_i)| / 2^rank, with zeta(-m) = -B_(m+1)/(m+1).
- Siegel's formula: for a real quadratic field of discriminant D,
  zeta_K(-1) = (1/60) sum_(b^2 < D, b = D mod 2) sigma_1((D - b^2)/4), and the
  covolume of A1 over K is |zeta_K(-1)| / 4.
- Exact polynomial discriminants and resultants (fraction-free Sylvester
  determinants), for `field` and for the Pisot norm N(1 - alpha).
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

# ------------------------------------------------------------ root systems

def exponents(family: str, rank: int) -> tuple:
    """Exponents of the split simple type family+rank (Bourbaki tables)."""
    r = rank
    if family == "A":
        return tuple(range(1, r + 1))
    if family in ("B", "C"):
        return tuple(range(1, 2 * r, 2))
    if family == "D":
        return tuple(sorted(list(range(1, 2 * r - 2, 2)) + [r - 1]))
    return {
        ("E", 6): (1, 4, 5, 7, 8, 11),
        ("E", 7): (1, 5, 7, 9, 11, 13, 17),
        ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
        ("F", 4): (1, 5, 7, 11),
        ("G", 2): (1, 5),
    }[(family, r)]


def split_types(max_rank: int = 12) -> list:
    """The (family, rank) pairs `lie dump --max-rank N` lists, in its order."""
    out = [("A", r) for r in range(1, max_rank + 1)]
    out += [("B", r) for r in range(2, max_rank + 1)]
    out += [("C", r) for r in range(2, max_rank + 1)]
    out += [("D", r) for r in range(4, max_rank + 1)]
    out += [("E", r) for r in (6, 7, 8) if r <= max_rank]
    if max_rank >= 4:
        out.append(("F", 4))
    out.append(("G", 2))
    return out


def parse_type(name: str) -> tuple:
    return name[0], int(name[1:])


# --------------------------------------------------------------- Bernoulli

@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from sum_(k<=n) C(n+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b[n]


def zeta_neg(m: int) -> Fraction:
    """zeta(-m) for m >= 1."""
    return -bernoulli(m + 1) / (m + 1)


def covolume_over_q(family: str, rank: int):
    """Exact covolume over Q when every exponent is odd, else None."""
    exps = exponents(family, rank)
    if any(m % 2 == 0 for m in exps):
        return None
    value = Fraction(1, 2 ** rank)
    for m in exps:
        value *= abs(zeta_neg(m))
    return value


# ------------------------------------------------------------------ Siegel

def squarefree_part(n: int) -> int:
    sign = -1 if n < 0 else 1
    n = abs(n)
    out, p = 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            out *= p
            n //= p
        p += 1
    return sign * out * n


def quadratic_field_disc(b: int, c: int) -> int:
    """Discriminant d_K of Q(theta) for an irreducible x^2 + b x + c."""
    f = squarefree_part(b * b - 4 * c)
    return f if f % 4 == 1 else 4 * f


def sigma1(n: int) -> int:
    total, d = 0, 1
    while d * d <= n:
        if n % d == 0:
            total += d
            if d * d != n:
                total += n // d
        d += 1
    return total


def siegel_zeta_minus1(D: int) -> Fraction:
    """zeta_K(-1) of the real quadratic field with discriminant D > 0."""
    total, b = 0, D % 2
    while b * b < D:
        total += sigma1((D - b * b) // 4) * (1 if b == 0 else 2)
        b += 2
    return Fraction(total, 60)


def a1_covolume_real_quadratic(b: int, c: int) -> Fraction:
    return abs(siegel_zeta_minus1(quadratic_field_disc(b, c))) / 4


# ------------------------------------------------------ integer polynomials
# Coefficient lists are constant term first.

def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(f: list, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_str(f: list) -> str:
    """Render in the CLI's input syntax, highest degree first."""
    terms = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        terms.append((sign, body))
    text = "".join(f"{s}{b}" for s, b in terms)
    return text[1:] if text.startswith("+") else text


def _bareiss_det(m: list) -> int:
    """Determinant of an integer matrix, fraction-free elimination."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(f: list, g: list) -> int:
    """Res(f, g) as the Sylvester determinant (coefficients low to high)."""
    n, m = len(f) - 1, len(g) - 1
    if m == 0:
        return g[0] ** n
    size = n + m
    rows = []
    for i in range(m):
        rows.append([0] * i + list(reversed(f)) + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + list(reversed(g)) + [0] * (size - m - 1 - i))
    return _bareiss_det(rows)


def discriminant(f: list) -> int:
    n = len(f) - 1
    deriv = [k * f[k] for k in range(1, n + 1)]
    res = resultant(f, deriv)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res // f[-1]


def norm_one_minus(f: list, coords: list) -> int:
    """N(1 - alpha) for alpha = sum coords[i] theta^i, f monic."""
    h = [-c for c in coords]
    h[0] += 1
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return resultant(f, h)


# ------------------------------------------------------------ report parse

def parse_report(text: str, fmt: str) -> dict:
    """Report fields (`extra`/meta keys) plus `rows` as a list of dicts."""
    if fmt == "json":
        return json.loads(text)
    fields, rows = {}, []
    if fmt == "csv":
        body = []
        for line in text.splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                if key != "note":
                    fields[key] = _table_value(value)
            else:
                body.append(line)
        if body:
            reader = csv.reader(io.StringIO("\n".join(body)))
            header = next(reader)
            rows = [dict(zip(header, r)) for r in reader]
    else:
        lines = text.split("\n")
        i = 0
        while i < len(lines) and lines[i]:
            key, _, value = lines[i].partition(": ")
            if key != "note":
                fields[key] = _table_value(value)
            i += 1
        table = [ln for ln in lines[i + 1:] if ln and not ln.startswith("note: ")]
        if len(table) >= 2:
            # cells are left-justified and joined by two spaces; the dash
            # rule under the header gives each column's extent
            spans, pos = [], 0
            for dashes in table[1].split("  "):
                spans.append((pos, pos + len(dashes)))
                pos += len(dashes) + 2
            header = [table[0][a:b].strip() for a, b in spans]
            rows = [dict(zip(header, (ln[a:b].strip() for a, b in spans)))
                    for ln in table[2:]]
    fields["rows"] = rows
    return fields


def _table_value(value: str):
    if value.startswith("[") and value.endswith("]"):
        return [v.strip() for v in value[1:-1].split(",")]
    return value


def bracket(pair) -> tuple:
    return Fraction(pair[0]), Fraction(pair[1])


def enclosure_bits(lo: Fraction, hi: Fraction) -> float:
    """log2(1 + 1/w) for the relative width w of [lo, hi].

    For a narrow bracket this is -log2(w), the bits the bracket pins down;
    a bracket [0, X] that says nothing reads 1 bit, never 0 or less.  The
    width is floored at one unit of the twelfth printed decimal place, the
    resolution of every rendered endpoint, so an exactly printed value does
    not read as infinitely precise.
    """
    width = max(hi - lo, Fraction(1, 10 ** 12))
    scale = max(abs(lo), abs(hi))
    return _log2(1 + scale / width)


def _log2(q: Fraction) -> float:
    return math.log2(q.numerator) - math.log2(q.denominator)


# -------------------------------------------------------- polynomial zoo

def cyclotomic(n: int) -> list:
    """Phi_n by dividing x^n - 1 by Phi_d for every proper divisor d."""
    f = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            f = _exact_div(f, cyclotomic(d))
    return f


def _exact_div(a: list, b: list) -> list:
    a = a[:]
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1] // b[-1]
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
    assert not any(a), "inexact division"
    return q


def real_cyclotomic(n: int) -> list:
    """Minimal polynomial of 2 cos(2 pi / n), n >= 5: Phi_n(z) = z^m Psi(z + 1/z)."""
    phi = cyclotomic(n)
    m = (len(phi) - 1) // 2
    rest = {k - m: c for k, c in enumerate(phi)}  # Laurent coefficients
    psi = [0] * (m + 1)
    for k in range(m, -1, -1):
        c = rest.get(k, 0)
        psi[k] = c
        for j in range(k + 1):  # subtract c (z + 1/z)^k
            rest[k - 2 * j] = rest.get(k - 2 * j, 0) - c * math.comb(k, j)
    return psi


def shanks_cubic(a: int) -> list:
    """x^3 - a x^2 - (a+3) x - 1: cyclic, totally real, disc (a^2+3a+9)^2."""
    return [-1, -(a + 3), -a, 1]


def eisenstein(degree: int, p: int, coeffs: list) -> list:
    """x^n + p (c_(n-1) x^(n-1) + ... + c_1 x) + p u with p not dividing u."""
    u = coeffs[0]
    assert u % p
    return [p * u] + [p * c for c in coeffs[1:degree]] + [1]

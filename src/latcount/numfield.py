"""Number fields presented by a monic integer polynomial.

Everything downstream (Pisot search, covolume bounds) leans on the guarantees
made here: discriminants and norms are exact integers/rationals, embeddings
are certified enclosures (Sturm isolation for real roots, exact residual
bounds around refined seeds for complex ones), and irreducibility is decided,
not guessed.

Real roots are isolated and refined on integers: the Sturm chain is kept as
integer polynomials, each remainder scaled by the positive lcm of its
denominators, and every bracket is an aligned dyadic cell (j, e), the
interval [j/2^e, (j+1)/2^e].  Isolation and bisection read only the sign of
2^(k deg f) f(a/2^k) at the cell ends a/2^k; a Fraction is built only for the
final enclosure; aligned cells nest, so a higher precision bisects on from
the finest cell refined so far.  Every precision escalation, here and in
pisot_tower, iterates over `doublings`.  The irreducibility subset test
skips every set of roots whose interval sum contains no integer before it
multiplies out the candidate factor.

Complex roots are seeded by Aberth-Ehrlich iteration on Gaussian fixed-point
integers (Aberth, Math. Comp. 27, 1973), in the standard library alone.  The
seeds are not trusted: the exact residual bound decides every box, and a
seed that fails it costs one more precision doubling.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import ceil, cos, factorial, floor, isqrt, lcm, ldexp, sin, tau
from typing import NamedTuple, Optional, Sequence, Tuple, Union

from .errors import (
    InvalidDiscriminant,
    PrecisionExhausted,
    ReduciblePolynomial,
    SearchExhausted,
)
from .interval import (
    ComplexBox,
    RealInterval,
    exp_fraction,
    pi_interval,
    round_down,
    round_up,
)
from .polymod import _trim, distinct_degree_degrees, prime_list

_MAX_REFINE_ROUNDS = 10


def doublings(start: int, exhausted: Exception):
    """Precisions start, 2 start, ... for _MAX_REFINE_ROUNDS rounds; then raise exhausted."""
    prec = start
    for _ in range(_MAX_REFINE_ROUNDS):
        yield prec
        prec *= 2
    raise exhausted


# ===================================================================== basic
# polynomial type

class _Coefficients(NamedTuple):
    coefficients: Tuple[int, ...]


class Polynomial(_Coefficients):
    """Integer polynomial, constant coefficient first; leading coeff nonzero."""

    __slots__ = ()

    def __new__(cls, coefficients):
        coeffs = tuple(int(c) for c in coefficients)
        if not coeffs or coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_monic(self) -> bool:
        return self.coefficients[-1] == 1

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            raise ValueError("derivative of a constant")
        return Polynomial(
            tuple(i * c for i, c in enumerate(self.coefficients))[1:]
        )

    @classmethod
    def from_string(cls, text: str) -> "Polynomial":
        """Parse e.g. 'x^3 - x - 1', '2x^2+3', 'x**4 - 5', '2*x - 7'."""
        s = text.replace(" ", "").replace("**", "^").replace("*", "")
        if not s:
            raise ValueError("empty polynomial")
        if s[0] not in "+-":
            s = "+" + s
        # every character must belong to a term, else e.g. 'y^2-1' would
        # silently collapse to its constant part
        term = r"[+-](?:\d+x(?:\^\d+)?|x(?:\^\d+)?|\d+)"
        if not re.fullmatch(f"(?:{term})+", s):
            raise ValueError(f"cannot parse polynomial: {text!r}")
        coeffs: dict = {}
        for sign, coef, has_x, exp in re.findall(
            r"([+-])(\d*)(x?)(?:\^(\d+))?", s
        ):
            if not coef and not has_x:
                continue
            k = int(exp) if exp else (1 if has_x else 0)
            c = int(coef) if coef else 1
            if sign == "-":
                c = -c
            coeffs[k] = coeffs.get(k, 0) + c
        coeffs = {k: v for k, v in coeffs.items() if v}
        if not coeffs:
            raise ValueError(f"polynomial is zero: {text!r}")
        deg = max(coeffs)
        return cls(tuple(coeffs.get(i, 0) for i in range(deg + 1)))

    def __str__(self):
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                base = "x" if i == 1 else f"x^{i}"
                term = base if abs(c) == 1 else f"{abs(c)}{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


# ============================================================== exact algebra
# on rational coefficient tuples (constant first)

def _fp_rem(a: list, b: list) -> list:
    """a mod b over Q."""
    a = list(a)
    db = len(b) - 1
    inv = Fraction(1, b[-1])
    while len(a) - 1 >= db:
        c = a[-1] * inv
        if c:
            shift = len(a) - 1 - db
            for i, bc in enumerate(b):
                a[shift + i] -= c * bc
        a.pop()
        _trim(a)
    return a


def _resultant(a: list, b: list) -> Fraction:
    """Res(a, b) over Q by the Euclidean recurrence."""
    a = _trim([Fraction(c) for c in a])
    b = _trim([Fraction(c) for c in b])
    if not a or not b:
        return Fraction(0)
    res = Fraction(1)
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * b[0] ** da
        r = _fp_rem(a, b)
        if not r:
            return Fraction(0)
        dr = len(r) - 1
        res *= (Fraction(-1) ** (da * db)) * b[-1] ** (da - dr)
        a, b = b, r


def poly_discriminant(poly: Polynomial) -> int:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f); exact."""
    d = poly.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    if d == 1:
        return 1
    res = _resultant(list(poly.coefficients), list(poly.derivative().coefficients))
    disc = (Fraction(-1) ** (d * (d - 1) // 2)) * res / poly.coefficients[-1]
    assert disc.denominator == 1
    return int(disc)


def element_norm(element: "FieldElement") -> Fraction:
    """N_{k/Q}(e) = Res(min_poly, coordinate polynomial); exact rational."""
    f = list(element.field.min_poly.coefficients)
    g = _trim(list(element.coords))
    if not g:
        return Fraction(0)
    return _resultant(f, g)


# ================================================================ real roots

def _sturm_chain(coeffs: Sequence[int]) -> list:
    """Sturm sequence of f as integer polynomials.

    Each remainder is scaled by the positive lcm of its denominators, which
    keeps every sign the count reads.
    """
    chain = [list(coeffs), [i * c for i, c in enumerate(coeffs)][1:]]
    while len(chain[-1]) > 1:
        r = _fp_rem(chain[-2], chain[-1])
        if not r:
            break  # nontrivial gcd; caller must have ensured squarefreeness
        m = lcm(*(c.denominator for c in r))
        chain.append([-c.numerator * (m // c.denominator) for c in r])
    return chain


def _sign_at(f: Sequence[int], a: int, k: int) -> int:
    """Sign of 2^(k deg f) f(a / 2^k) for an integer polynomial f, by Horner
    with shifts; k may be negative."""
    if k < 0:
        a, k = a << -k, 0
    acc = f[-1]
    shift = 0
    for c in reversed(f[:-1]):
        shift += k
        acc = acc * a + (c << shift)
    return (acc > 0) - (acc < 0)


def _dyadic(a: int, k: int) -> Fraction:
    return Fraction(a, 1 << k) if k >= 0 else Fraction(a << -k)


def _cauchy_exponent(coeffs) -> int:
    """m with all roots in (-2^m, 2^m)."""
    lead = abs(coeffs[-1])
    m = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    bound = 1 + (m + lead - 1) // lead
    return bound.bit_length()


def _isolate_real_roots(poly: Polynomial) -> list:
    """Aligned dyadic cells (j, e), one real root in each [j/2^e, (j+1)/2^e].

    The cells come from bisecting [-2^m, 0] and [0, 2^m]; each stacked cell
    carries the Sturm sign changes at both of its ends.
    """
    chain = _sturm_chain(poly.coefficients)

    def changes(a, k):
        """Sign changes of the chain at a/2^k, which must not be a root."""
        signs = [_sign_at(g, a, k) for g in chain]
        if signs[0] == 0:
            # a rational root: legal only for degree-1 input, handled upstream
            raise ReduciblePolynomial(f"rational root {_dyadic(a, k)} of {poly}")
        signs = [s for s in signs if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    m = _cauchy_exponent(poly.coefficients)
    v_lo, v_hi = changes(-1, -m), changes(1, -m)
    # every root lies in (-2^m, 2^m), so this count is the number of real roots
    total = v_lo - v_hi
    v_0 = changes(0, 0)
    out = []
    # right halves are popped first, so the cells come out descending
    stack = [(-1, -m, v_lo, v_0), (0, -m, v_0, v_hi)]
    while stack:
        j, e, va, vb = stack.pop()
        if va - vb == 1:
            out.append((j, e))
        elif va - vb > 1:
            vm = changes(2 * j + 1, e + 1)
            stack.append((2 * j, e + 1, va, vm))
            stack.append((2 * j + 1, e + 1, vm, vb))
    out.reverse()
    assert len(out) == total
    return out


def _cell_of(iv: RealInterval) -> tuple:
    """(j, e) of the aligned dyadic cell iv = [j/2^e, (j+1)/2^e]."""
    w = iv.hi - iv.lo
    return int(iv.lo / w), w.denominator.bit_length() - w.numerator.bit_length()


def _refine(poly: Polynomial, j: int, e: int, prec: int) -> RealInterval:
    """The aligned 2^-prec subcell of the root's cell (j, e), or the cell
    itself where it is already narrower."""
    f = poly.coefficients
    sign_lo = _sign_at(f, j, e)
    while e < prec:
        j, e = 2 * j, e + 1
        s = _sign_at(f, j + 1, e)
        if s == 0:
            raise ReduciblePolynomial(f"rational root {_dyadic(j + 1, e)} of {poly}")
        if s == sign_lo:
            j += 1
    return RealInterval(_dyadic(j, e), _dyadic(j + 1, e))


# ============================================================= complex roots

def _complex_seeds(poly: Polynomial, r2: int, workprec: int):
    """Uncertified upper-half-plane roots as exact rationals, or None.

    Aberth-Ehrlich iteration with in-place updates on Gaussian integers
    scaled by 2^L, from the circle of radius 2^m (every root lies inside it)
    at angles off the axes.  A sweep at scale 2^L is settled one sweep after
    every correction fell below 2^-(L/2).  The points settle first at a
    scale of 64 + 2m bits, which is cheap, then at L = F = workprec; only a
    failure at F returns None.  The seeds are rounded to the 2^-(F-16) grid,
    so Gaussian-integer roots come out exact, and sorted by (real part on the
    2^-(F/2) grid, imaginary part), so that noise cannot reorder places
    whose real parts are equal.
    """
    F, d, m = workprec, poly.degree, _cauchy_exponent(poly.coefficients)
    L0 = min(F, 64 + 2 * m)
    r = L0 + m - 53
    zs = [(int(ldexp(cos(t), 53)) << r, int(ldexp(sin(t), 53)) << r)
          for t in (tau * k / d + 0.7 for k in range(d))]
    try:
        for L in sorted({L0, F}):
            zs = [(x << L - L0, y << L - L0) for x, y in zs]
            f = [c << L for c in poly.coefficients]
            settled = False
            for _ in range(100 + L):
                big = 0
                for k, (x, y) in enumerate(zs):
                    pr, pi, qr, qi = f[-1], 0, 0, 0  # f(z) and f'(z) by Horner
                    for c in reversed(f[:-1]):
                        qr, qi = ((qr * x - qi * y) >> L) + pr, ((qr * y + qi * x) >> L) + pi
                        pr, pi = ((pr * x - pi * y) >> L) + c, (pr * y + pi * x) >> L
                    sr = si = 0  # the sum of 1/(z - z_j) over the other points
                    for j, (u, v) in enumerate(zs):
                        if j != k:
                            u, v = x - u, y - v
                            n = u * u + v * v
                            sr, si = sr + (u << 2 * L) // n, si - (v << 2 * L) // n
                    n = qr * qr + qi * qi  # the Newton step f/f', then the Aberth one
                    nr, ni = ((pr * qr + pi * qi) << L) // n, ((pi * qr - pr * qi) << L) // n
                    dr, di = (1 << L) - ((nr * sr - ni * si) >> L), -((nr * si + ni * sr) >> L)
                    n = dr * dr + di * di
                    wr, wi = ((nr * dr + ni * di) << L) // n, ((ni * dr - nr * di) << L) // n
                    zs[k] = (x - wr, y - wi)
                    big = max(big, abs(wr), abs(wi))
                if settled:
                    break
                settled = big >> L // 2 == 0
            else:
                if L == F:
                    return None
    except ZeroDivisionError:
        return None
    g = F - F // 2
    zs = [((x + (1 << 15)) >> 16 << 16, (y + (1 << 15)) >> 16 << 16) for x, y in zs]
    cands = sorted(((x + (1 << (g - 1))) >> g, y, x) for x, y in zs if y >> g > 0)
    if len(cands) != r2:
        return None
    return [(Fraction(x, 1 << F), Fraction(y, 1 << F)) for _, y, x in cands]


def _eval_complex(coeffs, a: Fraction, b: Fraction):
    """f(a + bi) exactly, returned as (re, im)."""
    re, im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        re, im = re * a - im * b + c, re * b + im * a
    return re, im


def _certify_boxes(poly: Polynomial, seeds, prec: int):
    """Turn seeds into disjoint upper-half-plane boxes, one root each.

    Uses the exact residual bound min_j |z - root_j| <= d |f(z)/f'(z)|, so a
    disc of that radius around each seed contains a root; disjointness plus a
    root count then pins exactly one per box.
    """
    d = poly.degree
    coeffs = [Fraction(c) for c in poly.coefficients]
    dcoeffs = [Fraction(i * c) for i, c in enumerate(poly.coefficients)][1:]
    grid = prec + 2
    halfwidth_cap = Fraction(1, 1 << grid)
    boxes = []
    for a, b in seeds:
        fr, fi = _eval_complex(coeffs, a, b)
        gr, gi = _eval_complex(dcoeffs, a, b)
        den = gr * gr + gi * gi
        if den == 0:
            return None
        rho = RealInterval.point(
            Fraction(d * d) * (fr * fr + fi * fi) / den
        ).nth_root(2, grid + 8).hi
        if rho > halfwidth_cap:
            return None
        if b - rho <= 0:
            return None
        boxes.append(
            ComplexBox(
                RealInterval(round_down(a - rho, grid), round_up(a + rho, grid)),
                RealInterval(round_down(b - rho, grid), round_up(b + rho, grid)),
            )
        )
    for i in range(len(boxes)):
        if boxes[i].im.lo <= 0:
            return None
        for j in range(i + 1, len(boxes)):
            if not boxes[i].disjoint(boxes[j]):
                return None
    return boxes


# ================================================================ number field

class NumberField:
    """Q[x]/(f) for a certified-irreducible monic integer f."""

    def __init__(self, min_poly, degree, r1, r2, disc, zk_disc, precision,
                 real_brackets, emb_cache):
        self.min_poly = min_poly
        self.degree = degree
        self.r1 = r1
        self.r2 = r2
        self.disc = disc          # signed; known_disc if supplied, else disc(Z[theta])
        self.zk_disc = zk_disc    # signed disc(Z[theta])
        self.precision = precision
        self._real_cells = real_brackets  # isolating cells (j, e), ascending
        self._emb_cache = emb_cache

    @property
    def signature(self):
        return (self.r1, self.r2)

    @property
    def abs_disc(self) -> int:
        return abs(self.disc)

    def root_disc(self, prec: Optional[int] = None) -> RealInterval:
        prec = prec or self.precision
        return RealInterval.point(self.abs_disc).nth_root(self.degree, prec)

    def embeddings(self, prec: Optional[int] = None):
        """(real enclosures ascending, upper-half boxes), one per infinite place."""
        prec = prec or self.precision
        if prec in self._emb_cache:
            return self._emb_cache[prec]
        if self.degree == 1:
            reals = (RealInterval.point(-self.min_poly.coefficients[0]),)
        else:
            below = [p for p in self._emb_cache if p < prec]
            cells = map(_cell_of, self._emb_cache[max(below)][0]) if below else self._real_cells
            reals = tuple(_refine(self.min_poly, j, e, prec) for j, e in cells)
        boxes = self._certified_complex(prec)
        self._emb_cache[prec] = (reals, boxes)
        return reals, boxes

    def _certified_complex(self, prec: int):
        if self.r2 == 0:
            return ()
        workprec = max(2 * prec, 128, 2 * max(abs(c) for c in self.min_poly.coefficients).bit_length())
        prev = None
        if self._emb_cache:
            prev = self._emb_cache[max(self._emb_cache)][1]
        exhausted = PrecisionExhausted(f"complex embeddings of {self.min_poly} at {prec} bits")
        for wp in doublings(workprec, exhausted):
            seeds = _complex_seeds(self.min_poly, self.r2, wp)
            if seeds is None:
                continue
            boxes = _certify_boxes(self.min_poly, seeds, prec)
            if boxes is not None and prev:
                boxes = _nest_boxes(boxes, prev)
            if boxes is not None:
                return tuple(boxes)

    def element(self, coords) -> "FieldElement":
        return FieldElement(self, coords)

    def zero(self) -> "FieldElement":
        return self.element([0] * self.degree)

    def one(self) -> "FieldElement":
        return self.element([1] + [0] * (self.degree - 1))

    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.min_poly == other.min_poly
            and self.disc == other.disc
        )

    def __hash__(self):
        return hash((self.min_poly, self.disc))

    def __repr__(self):
        return f"NumberField({self.min_poly}, disc={self.disc})"


def _nest_boxes(new, old):
    """Intersect refined boxes with their predecessors to force nesting."""
    out = []
    for box in new:
        hits = [
            o for o in old
            if box.re.intersect(o.re) is not None and box.im.intersect(o.im) is not None
        ]
        if len(hits) != 1:
            return None
        out.append(ComplexBox(box.re.intersect(hits[0].re), box.im.intersect(hits[0].im)))
    return out


# ---------------------------------------------------------- irreducibility

def _modular_degree_patterns(poly: Polynomial, zk_disc: int, tries: int = 8):
    """Intersection of achievable proper-factor degrees across good primes.

    Good primes do not divide zk_disc = disc(poly).  Empty set proves
    irreducibility; otherwise the certified subset test below examines only
    the surviving sizes.
    """
    d = poly.degree
    possible = set(range(1, d))
    good_primes = (p for p in prime_list(1000) if zk_disc % p)
    for p in itertools.islice(good_primes, tries):
        sums = {0}
        for e in distinct_degree_degrees(poly.coefficients, p):
            sums |= {s + e for s in sums}
        possible &= {s for s in sums if 0 < s < d}
        if not possible:
            break
    return possible


def _interval_poly_mul(a: list, b: list) -> list:
    out = [RealInterval.point(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def _try_integer_candidate(coeff_ivs):
    """Unique integer inside each interval, or None/'wide'."""
    cand = []
    for iv in coeff_ivs:
        lo, hi = ceil(iv.lo), floor(iv.hi)
        if lo > hi:
            return None
        if lo != hi:
            return "wide"
        cand.append(lo)
    return cand


def _assert_irreducible(poly: Polynomial, zk_disc: int, field_prec: int, get_enclosures):
    d = poly.degree
    sizes = _modular_degree_patterns(poly, zk_disc)
    sizes = {s for s in sizes if s <= d // 2}
    if not sizes:
        return
    if d > 22:  # pragma: no cover - the subset test enumerates 2^(r1+r2) masks
        raise PrecisionExhausted(
            f"irreducibility of {poly}: degree too large for the subset test"
        )
    for prec in doublings(field_prec, PrecisionExhausted(f"irreducibility of {poly}")):
        reals, boxes = get_enclosures(prec)
        units = [(1, [(-r), RealInterval.point(1)]) for r in reals]
        units += [
            (2, [b.abs_sq(), b.re * (-2), RealInterval.point(1)]) for b in boxes
        ]
        widened = False
        for mask in range(1, 1 << len(units)):
            chosen = [u for i, u in enumerate(units) if mask >> i & 1]
            size = sum(u[0] for u in chosen)
            if size not in sizes:
                continue
            # a monic integer factor has an integer x^(size-1) coefficient,
            # minus the sum of its roots: test that before any product
            minus_trace = sum((u[1][-2] for u in chosen), RealInterval.point(0))
            if ceil(minus_trace.lo) > floor(minus_trace.hi):
                continue
            prod = [RealInterval.point(1)]
            for _, factor in chosen:
                prod = _interval_poly_mul(prod, factor)
            cand = _try_integer_candidate(prod[:-1])
            if cand == "wide":
                widened = True
                continue
            if cand is not None and not _fp_rem(poly.coefficients, cand + [1]):
                raise ReduciblePolynomial(
                    f"{poly} has factor of degree {size}"
                )
        if not widened:
            return


def field_from_polynomial(
    poly: Union[Polynomial, Sequence[int], str],
    precision: int = 128,
    known_disc: Optional[int] = None,
) -> NumberField:
    """Build a NumberField, certifying irreducibility and the signature.

    The discriminant defaults to disc(Z[theta]); pass known_disc when the
    maximal-order value is available (it is validated against the sign and
    square-index constraints before being trusted).
    """
    if isinstance(poly, str):
        poly = Polynomial.from_string(poly)
    elif not isinstance(poly, Polynomial):
        poly = Polynomial(tuple(poly))
    if not poly.is_monic:
        raise ValueError("defining polynomial must be monic")
    d = poly.degree
    if d < 1:
        raise ValueError("defining polynomial must have degree >= 1")

    if d == 1:
        if known_disc not in (None, 1):
            raise InvalidDiscriminant(f"the rationals have disc 1, not {known_disc}")
        field = NumberField(poly, 1, 1, 0, 1, 1, precision, [], {})
        field.embeddings(precision)
        return field

    zk_disc = poly_discriminant(poly)
    if zk_disc == 0:
        raise ReduciblePolynomial(f"{poly} has a repeated factor")

    cells = _isolate_real_roots(poly)
    r1 = len(cells)
    r2 = (d - r1) // 2
    if (zk_disc < 0) != (r2 % 2 == 1):
        raise AssertionError("discriminant sign inconsistent with signature")

    field = NumberField(poly, d, r1, r2, zk_disc, zk_disc, precision, cells, {})
    field.embeddings(precision)
    _assert_irreducible(poly, zk_disc, precision, field.embeddings)

    if known_disc is not None:
        if (known_disc < 0) != (r2 % 2 == 1):
            raise InvalidDiscriminant(
                f"known_disc sign {known_disc} contradicts signature (r2={r2})"
            )
        if known_disc == 0 or zk_disc % known_disc != 0:
            raise InvalidDiscriminant("known_disc must divide disc(Z[theta])")
        q = zk_disc // known_disc
        if q <= 0 or isqrt(q) ** 2 != q:
            raise InvalidDiscriminant(
                "disc(Z[theta]) / known_disc must be a positive square"
            )
        if known_disc % 4 not in (0, 1):
            raise InvalidDiscriminant(
                f"known_disc {known_disc} is not 0 or 1 mod 4 (Stickelberger)"
            )
        if abs(known_disc) < 3 or d > minkowski_degree_bound(abs(known_disc)):
            raise InvalidDiscriminant(
                f"no field of degree {d} has |disc| = {abs(known_disc)} (Minkowski)"
            )
        field.disc = known_disc
    return field


# ================================================================== elements

class FieldElement:
    """Element of a NumberField in the power basis 1, theta, ..., theta^(d-1)."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != field.degree:
            raise ValueError(
                f"need {field.degree} coordinates, got {len(coords)}"
            )
        self.field = field
        self.coords = coords

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        if isinstance(other, FieldElement):
            return FieldElement(
                self.field, (a + b for a, b in zip(self.coords, other.coords))
            )
        if isinstance(other, (int, Fraction)):
            coords = list(self.coords)
            coords[0] += other
            return FieldElement(self.field, coords)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, (-c for c in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, (c * other for c in self.coords))
        if not isinstance(other, FieldElement):
            return NotImplemented
        d = self.field.degree
        f = self.field.min_poly.coefficients
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    prod[i + j] += a * b
        # reduce modulo the monic minimal polynomial
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = Fraction(0)
                for i in range(d):
                    prod[k - d + i] -= c * f[i]
        return FieldElement(self.field, prod[:d])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"

    def __str__(self):
        """The coordinates as comma-separated rationals, e.g. 1,-1/2."""
        return ",".join(str(c) for c in self.coords)


def evaluate_at_embeddings(element: FieldElement, precision: int):
    """Certified per-place images: r1 real intervals then r2 boxes.

    Width of every returned enclosure is <= 2^(1-precision); refining the
    precision keeps each enclosure inside its predecessor.
    """
    k = element.field
    # inner target + grid rounding keep the final width under 2^(1-precision)
    target = Fraction(1, 1 << (precision + 1))
    grid = precision + 2
    exhausted = PrecisionExhausted(f"embedding images at {precision} bits")
    for wp in doublings(precision + 16, exhausted):
        reals, boxes = k.embeddings(wp)
        r_out = [_horner(element.coords, r) for r in reals]
        b_out = [_horner(element.coords, b) for b in boxes]
        if all(iv.width() <= target for iv in r_out) and all(
            b.re.width() <= target and b.im.width() <= target for b in b_out
        ):
            return tuple(r.round_out(grid) for r in r_out) + tuple(
                b.round_out(grid) for b in b_out
            )


def _horner(coords, x):
    """Horner evaluation at a RealInterval or a ComplexBox."""
    acc = x * 0
    for c in reversed(coords):
        acc = acc * x + c
    return acc


# ========================================================== geometry of numbers

def minkowski_norm_bound(field: NumberField, prec: int = 128) -> RealInterval:
    """(4/pi)^r2 (d!/d^d) sqrt(|disc|): some nonzero integral element has
    absolute norm at most this."""
    wp = prec + 16
    d = field.degree
    base = RealInterval.point(4).div(pi_interval(wp), wp).pow_int(field.r2, wp)
    scale = Fraction(factorial(d), d ** d)
    root = RealInterval.point(field.abs_disc).sqrt(wp)
    return (base * scale * root).round_out(prec)


def _stirling_floor(d: int, r2: int, prec: int) -> RealInterval:
    """(pi/4)^(2 r2) e^(2d - 1/(6d)) / (2 pi d): every degree-d signature-r2
    field has |disc| strictly above this."""
    wp = prec + 32
    pi = pi_interval(wp)
    a = (pi * Fraction(1, 4)).pow_int(2 * r2, wp)
    b = exp_fraction(Fraction(2 * d) - Fraction(1, 6 * d), wp)
    return (a * b).div(pi * (2 * d), prec)


def minkowski_degree_bound(abs_disc: int, prec: int = 64) -> int:
    """Largest degree compatible with |disc| = abs_disc for any signature."""
    if abs_disc < 3:
        raise InvalidDiscriminant("degree bound needs |disc| >= 3")
    exhausted = PrecisionExhausted(f"degree bound for |disc| = {abs_disc}")
    for d in itertools.count(3):
        for wp in doublings(prec, exhausted):
            floor_iv = _stirling_floor(d, d // 2, wp)
            if abs_disc > floor_iv.hi:
                break
            if abs_disc <= floor_iv.lo:
                return d - 1


def derived_minkowski_C(prec: int = 64) -> RealInterval:
    """Certified C with d <= C log2 |disc| for every field of degree >= 2.

    C = sup over d of d / log2(stirling floor at the most imaginary
    signature); the ratio is maximal at d = 2 and decays below 0.41 by
    d = 64, so scanning that far certifies the supremum.
    """
    best = None
    for d in range(2, 65):
        g = RealInterval.point(d).div(
            _stirling_floor(d, d // 2, prec + 16).log2(prec + 16), prec
        )
        if best is None or g.hi > best.hi:
            best = g
    return best


def root_discriminant(field: NumberField, prec: int = 128) -> RealInterval:
    return field.root_disc(prec)


def minkowski_witness(field: NumberField, radius: int = 5, prec: int = 128):
    """Lexicographically first nonzero integral element with certified
    |N| <= minkowski_norm_bound; (element, |N|)."""
    bound = minkowski_norm_bound(field, prec)
    d = field.degree
    for coords in itertools.product(range(-radius, radius + 1), repeat=d):
        if all(c == 0 for c in coords):
            continue
        el = field.element(coords)
        n = abs(element_norm(el))
        if n <= bound.lo:
            return el, n
    raise SearchExhausted(f"no Minkowski witness within radius {radius}")

"""Number fields presented by a monic integer polynomial.

Everything downstream (Pisot search, covolume bounds) leans on the guarantees
made here: discriminants and norms are exact integers/rationals, embeddings
are certified enclosures, and irreducibility is decided, not guessed.

One root finder serves every place.  Aberth-Ehrlich iteration on Gaussian
fixed-point integers (Aberth, Math. Comp. 27, 1973), in the standard library
alone, seeds every root; the seeds are not trusted.  A real seed gets an
aligned dyadic cell (j, e), the interval [j/2^e, (j+1)/2^e], at level prec or
finer, and f must change sign strictly across it.  An upper-half-plane seed
gets a box from the exact residual bound.  Both read one exact evaluator,
2^(k deg f) f((x + iy)/2^k) on the kernel's own integers, so every
certificate is decided on integers.  Every cell and every box with its
mirror image holds a root, the regions are pairwise disjoint, and there are
r1 + 2 r2 = deg f of them: so each holds exactly one root, which certifies
the signature too.  Aligned cells containing the same root nest, so the real
enclosures at two precisions nest in either order.  A seed that fails costs
one more precision doubling; every precision escalation, here and in
pisot_tower, iterates over `doublings`.

Irreducibility is decided first and exactly (Zassenhaus's method; von
zur Gathen-Gerhard, Modern Computer Algebra, ch. 14-15).  Residue degrees at
a few good primes leave the possible factor degrees; if one survives, the
factors at one prime p are Hensel-lifted to p^k > 2 B, B = 2^(d/2) ||f||_2.
Every monic factor over Z of degree m <= d/2 reduces to the product of a
subset of the factors mod p, so by uniqueness of the lift it is that
subset's product mod p^k, and its coefficients lie within the Mignotte bound
C(m, j) ||f||_2 <= B: the symmetric residues of the product are the factor.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from math import cos, factorial, isqrt, ldexp, sin, tau

from .errors import (
    LatcountError,
    PrecisionExhausted,
    ReduciblePolynomial,
    SearchExhausted,
)
from .interval import (
    ComplexBox,
    RealInterval,
    exp_fraction,
    iroot_ceil,
    parse_int,
    pi_interval,
)
from .polymod import (
    _poly_mul,
    _trim,
    cubic_conductors,
    distinct_degree_blocks,
    equal_degree_split,
    fundamental_discriminant,
    hensel_lift,
    prime_list,
)

_MAX_REFINE_ROUNDS = 10


def doublings(start: int, what: str):
    """Precisions start, 2 start, ... for _MAX_REFINE_ROUNDS rounds; then raise
    PrecisionExhausted(what)."""
    prec = start
    for _ in range(_MAX_REFINE_ROUNDS):
        yield prec
        prec *= 2
    raise PrecisionExhausted(what)


# ===================================================================== basic
# polynomial type

class Polynomial(namedtuple("Polynomial", "coefficients")):
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
            k = parse_int(exp) if exp else (1 if has_x else 0)
            c = parse_int(coef) if coef else 1
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


# ===================================================================== roots

def _value_at(f: Sequence[int], x: int, y: int, k: int) -> tuple[int, int]:
    """2^(k deg f) f((x + iy) / 2^k) as (re, im) for an integer polynomial f,
    by Horner with shifts.  A negative k scales the point to integers and
    returns f there, which keeps the signs."""
    if k < 0:
        x, y, k = x << -k, y << -k, 0
    re, im = f[-1], 0
    shift = 0
    for c in reversed(f[:-1]):
        shift += k
        re, im = re * x - im * y + (c << shift), re * y + im * x
    return re, im


def _cauchy_exponent(coeffs) -> int:
    """m with all roots in (-2^m, 2^m)."""
    lead = abs(coeffs[-1])
    m = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    bound = 1 + (m + lead - 1) // lead
    return bound.bit_length()


def _newton_start(coeffs, lo: int, hi: int) -> list:
    """(e, t) for d start points 2^e (cos t + i sin t): j - i points on the
    circle of radius 2^round((b_i - b_j)/(j - i)), e clamped to [lo, hi], for
    each edge (i, j) of the upper hull of the points (i, b_i = bitlen|a_i|)
    (Bini, Numer. Algorithms 13, 1996).  The e ascend; the points of one
    circle, which several edges may share, are spread evenly on it."""
    b, es, i = [abs(c).bit_length() for c in coeffs], [], 0
    while i < len(b) - 1:  # the next hull vertex j is the one of greatest slope from i
        j = max(range(i + 1, len(b)), key=lambda j: Fraction(b[j] - b[i], j - i))
        es += [max(lo, min(hi, round(Fraction(b[i] - b[j], j - i))))] * (j - i)
        i = j
    return [(e, tau * ((k - es.index(e)) / es.count(e) + es.index(e) / len(es)) + 0.7)
            for k, e in enumerate(es)]


def _aberth_roots(poly: Polynomial, workprec: int):
    """Uncertified roots (real seeds, upper-half-plane seeds), or None.

    Aberth-Ehrlich iteration with in-place updates on Gaussian integers
    scaled by 2^L, from the circles of the Newton polygon, at angles off the
    axes; each radius lies between 2^(53-L), so that no start point rounds
    away, and 2^m, which every root lies inside.  A sweep at scale 2^L is
    settled one sweep after every correction fell below 2^-(L/2).  The
    points settle first at L = min(F, 64 + 2m), which is cheap, then at L =
    F = workprec; a failure at F returns None.  The points are rounded to
    the 2^-(F-16) grid, so integer and Gaussian-integer roots come out exact.

    A point with |Im| < 2^-(F/2) is a real seed, given by its real part as
    an integer scaled by 2^F, ascending.  The upper seeds are pairs (x, y)
    of integers scaled by 2^F, sorted by (real part on the 2^-(F/2) grid,
    imaginary part), so that noise cannot reorder places whose real parts
    are equal.  None also when the real seeds and twice the upper ones do
    not add up to the degree.
    """
    F, d, m = workprec, poly.degree, _cauchy_exponent(poly.coefficients)
    L0 = min(F, 64 + 2 * m)
    zs = [(int(ldexp(cos(t), 53)) << L0 + e - 53, int(ldexp(sin(t), 53)) << L0 + e - 53)
          for e, t in _newton_start(poly.coefficients, 53 - L0, m)]
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
    xs = sorted(x for x, y in zs if abs(y) >> g == 0)
    cands = sorted(((x + (1 << (g - 1))) >> g, y, x) for x, y in zs if y >> g > 0)
    if len(xs) + 2 * len(cands) != d:
        return None
    return xs, [(x, y) for _, y, x in cands]


def _real_cells(poly: Polynomial, xs, F: int, prec: int):
    """One aligned dyadic cell [j/2^e, (j+1)/2^e] per real seed, or None.

    xs are the ascending real seeds, integers scaled by 2^F.  A seed gets
    its cell at level e = prec, or at the first finer level at which the
    cell holds no other seed.  Aligned cells nest or are disjoint, so no two
    of these overlap.  Each cell must show a strict sign change of f at its
    two ends; f is irreducible of degree >= 2 here, so neither end is a root.
    """
    f = poly.coefficients
    cells = []
    for i, x in enumerate(xs):
        # seeds of one sign share the cell at level e until e > F - bitlen(x ^ y);
        # seeds of opposite signs (x ^ y < 0) never do
        flips = (x ^ y for y in xs[max(i - 1, 0):i] + xs[i + 1:i + 2])
        e = max([prec] + [F + 1 - z.bit_length() for z in flips if z >= 0])
        if e > F:
            return None
        j = x >> F - e
        ends = [_value_at(f, a, 0, e)[0] for a in (j, j + 1)]
        if (ends[0] > 0) == (ends[1] > 0):
            return None
        cells.append(RealInterval(Fraction(j, 1 << e), Fraction(j + 1, 1 << e)))
    return tuple(cells)


def _certify_boxes(poly: Polynomial, seeds, F: int, prec: int):
    """Turn seeds into disjoint upper-half-plane boxes, one root each.

    Uses the exact residual bound min_j |z - root_j| <= d |f(z)/f'(z)|, so a
    disc of that radius around each seed contains a root; disjointness plus a
    root count then pins exactly one per box.  A seed z = (x + iy)/2^F gives
    A = 2^(F d) f(z) and B = 2^(F(d-1)) f'(z) on integers; the radius is
    rounded up to rho = R/2^p, p = prec + 10, and the box ends out to the
    2^-(prec+2) grid, which leaves a box above the axis only if rho < Im z.
    """
    f, df = poly.coefficients, poly.derivative().coefficients
    d, p, grid = poly.degree, prec + 10, 1 << prec + 2
    boxes = []
    for x, y in seeds:
        ar, ai = _value_at(f, x, y, F)
        br, bi = _value_at(df, x, y, F)
        den = (br * br + bi * bi) << 2 * F
        if den == 0:
            return None
        # R/2^p >= sqrt(d^2 |A|^2 / (|B|^2 2^(2F))) = d |f(z)/f'(z)|
        R = iroot_ceil(-(-(d * d * (ar * ar + ai * ai) << 2 * p) // den), 2)
        r = R << F
        box = ComplexBox(*(
            RealInterval(Fraction(c - r >> F + 8, grid), Fraction(-(-c - r >> F + 8), grid))
            for c in (x << p, y << p)
        ))
        if R > 1 << 8 or box.im.lo <= 0:  # rho > 2^-(prec+2), or the box meets the real axis
            return None
        boxes.append(box)
    return boxes if all(a.disjoint(b) for a, b in itertools.combinations(boxes, 2)) else None


def _certified_roots(poly: Polynomial, prec: int):
    """(real enclosures ascending, upper-half boxes): every root of f, certified.

    One Aberth run seeds every root.  Each real cell holds a root, by the
    sign change at its ends; each box holds one, by the residual bound, and
    its mirror image below the axis holds the conjugate.  The cells are
    pairwise disjoint, and the boxes lie in the open upper half-plane and
    are pairwise disjoint, so these r1 + 2 r2 = deg f regions hold deg f
    roots of f: exactly one each, and no root is left outside them, which
    certifies the signature as well.  A failure at any step costs one
    doubling of the working precision.
    """
    if poly.degree == 1:
        return (RealInterval.point(-poly.coefficients[0]),), ()
    workprec = max(2 * prec, 128, 2 * max(abs(c) for c in poly.coefficients).bit_length())
    for wp in doublings(workprec, f"embeddings of {poly} at {prec} bits"):
        roots = _aberth_roots(poly, wp)
        if roots is None:
            continue
        reals = _real_cells(poly, roots[0], wp, prec)
        boxes = None if reals is None else _certify_boxes(poly, roots[1], wp, prec)
        if boxes is not None:
            return reals, tuple(boxes)


# ================================================================ number field

class NumberField:
    """Q[x]/(f) for a certified-irreducible monic integer f, with its roots
    certified at `precision`: the one precision of every certificate over it."""

    def __init__(self, min_poly, disc, zk_disc, precision, roots):
        self.min_poly = min_poly
        self.degree = min_poly.degree
        self.r1 = len(roots[0])
        self.r2 = len(roots[1])
        self.disc = disc          # signed; known_disc if supplied, else disc(Z[theta])
        self.zk_disc = zk_disc    # signed disc(Z[theta])
        self.precision = precision
        self._emb_cache = {precision: roots}  # precision -> certified embeddings
        # p mod |zk_disc| (quadratic) or sqrt(zk_disc) (cyclic cubic) -> residue
        # degrees, filled by prasad
        self.frobenius_classes = {}

    @property
    def signature(self):
        return (self.r1, self.r2)

    @property
    def abs_disc(self) -> int:
        return abs(self.disc)

    @cached_property
    def conductors(self) -> tuple | None:
        """The conductors that the field's data allow, ascending: (1,) over Q;
        (d_K,) over a quadratic field, the fundamental discriminant of
        disc(Z[theta]), negative for an imaginary field, which refuses a
        |disc| past polymod.MAX_FACTOR; over a cubic with disc(Z[theta]) =
        m^2, a cyclic field of conductor f | m and d_K = f^2, the f that
        polymod.cubic_conductors leaves; None otherwise."""
        disc = self.zk_disc
        if self.degree <= 2:
            return (fundamental_discriminant(disc) if self.degree == 2 else 1,)
        if self.degree == 3 and disc > 0 and (m := isqrt(disc)) ** 2 == disc:
            return cubic_conductors(m, self.min_poly.coefficients)
        return None

    @property
    def abs_disc_range(self) -> tuple[int, int]:
        """The least and the greatest |d_K| that the field's data allow:
        |f|^(d-1) over the conductors f, else |disc|."""
        if conductors := self.conductors:
            e = self.degree - 1
            return abs(conductors[0]) ** e, abs(conductors[-1]) ** e
        return self.abs_disc, self.abs_disc

    def embeddings(self, prec: int | None = None):
        """(real enclosures ascending, upper-half boxes), one per infinite place."""
        prec = prec or self.precision
        if prec not in self._emb_cache:
            self._emb_cache[prec] = _certified_roots(self.min_poly, prec)
        return self._emb_cache[prec]

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


# ---------------------------------------------------------- irreducibility

_SCREEN_PRIMES = 8
_MAX_SUBSETS = 1 << 16


def _assert_irreducible(poly: Polynomial, zk_disc: int) -> None:
    """Raise ReduciblePolynomial naming the least factor degree if poly is reducible.

    The one decider, run before any root is sought.  Open degrees are sums of
    residue degrees at every screened prime (not dividing zk_disc =
    disc(poly)); the odd one with the fewest factors is lifted.
    """
    f, d = poly.coefficients, poly.degree
    if f[0] == 0:
        raise ReduciblePolynomial(f"{poly} has factor of degree 1")
    sizes, screened = set(range(1, d // 2 + 1)), []
    # the odd primes below the bound multiply to more than |zk_disc|: one is good
    bound = max(1000, 16 * zk_disc.bit_length())
    good_primes = (p for p in prime_list(bound) if zk_disc % p)
    for p in itertools.islice(good_primes, _SCREEN_PRIMES):
        blocks = distinct_degree_blocks(f, p)
        sums = {0}
        for i, g in blocks:
            for _ in range((len(g) - 1) // i):
                sums |= {s + i for s in sums}
        sizes &= sums
        if not sizes:
            return
        if p > 2:
            screened.append((sum((len(g) - 1) // i for i, g in blocks), p, blocks))
    _, p, blocks = min(screened)
    k, q = 1, p
    while q * q <= 4 ** (d // 2 + 1) * sum(c * c for c in f):  # q > 2 B
        k, q = k + 1, q * p
    lifts = hensel_lift(f, [h for i, g in blocks for h in equal_degree_split(g, i, p)], p, k)
    least, most = min(len(g) for g in lifts) - 1, max(len(g) for g in lifts) - 1
    subsets = (
        (s, chosen) for s in sorted(sizes) for j in range(-(-s // most), s // least + 1)
        for chosen in itertools.combinations(lifts, j)
    )
    for tested, (s, chosen) in enumerate(subsets):
        if tested == _MAX_SUBSETS:
            raise PrecisionExhausted(f"irreducibility of {poly}: over {_MAX_SUBSETS} subsets")
        if sum(len(g) - 1 for g in chosen) != s:
            continue
        cand = [1]
        for g in chosen:
            cand = [c % q for c in _poly_mul(cand, g)]
        cand = [c - q if 2 * c > q else c for c in cand]
        # a factor's constant coefficient divides f's
        if cand[0] and f[0] % cand[0] == 0 and not _fp_rem(f, cand):
            raise ReduciblePolynomial(f"{poly} has factor of degree {s}")


def field_from_polynomial(
    poly: Polynomial | Sequence[int] | str,
    precision: int = 128,
    known_disc: int | None = None,
) -> NumberField:
    """Build a NumberField: irreducibility first, then the roots and signature.

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

    if d == 1 and known_disc not in (None, 1):
        raise LatcountError(f"the rationals have disc 1, not {known_disc}")
    zk_disc = poly_discriminant(poly)
    if zk_disc == 0:
        raise ReduciblePolynomial(f"{poly} has a repeated factor")
    if d > 1:
        _assert_irreducible(poly, zk_disc)

    field = NumberField(poly, zk_disc, zk_disc, precision, _certified_roots(poly, precision))
    if (zk_disc < 0) != (field.r2 % 2 == 1):
        raise AssertionError("discriminant sign inconsistent with signature")
    if d == 1:
        return field

    if known_disc is not None:
        if known_disc == 0:
            raise LatcountError("known_disc must divide disc(Z[theta])")
        if (known_disc < 0) != (field.r2 % 2 == 1):
            raise LatcountError(
                f"known_disc sign {known_disc} contradicts signature (r2={field.r2})"
            )
        if zk_disc % known_disc != 0:
            raise LatcountError("known_disc must divide disc(Z[theta])")
        q = zk_disc // known_disc
        if q <= 0 or isqrt(q) ** 2 != q:
            raise LatcountError(
                "disc(Z[theta]) / known_disc must be a positive square"
            )
        if known_disc % 4 not in (0, 1):
            raise LatcountError(
                f"known_disc {known_disc} is not 0 or 1 mod 4 (Stickelberger)"
            )
        if abs(known_disc) < 3 or d > minkowski_degree_bound(abs(known_disc)):
            raise LatcountError(
                f"no field of degree {d} has |disc| = {abs(known_disc)} (Minkowski)"
            )
        if d == 2 and (known_disc,) != field.conductors:
            raise LatcountError(
                f"known_disc {known_disc} is not d_K = {field.conductors[0]} of this quadratic field"
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
        rem = _fp_rem(_poly_mul(self.coords, other.coords), self.field.min_poly.coefficients)
        return FieldElement(self.field, rem + [0] * (d - len(rem)))

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
    """Certified images at the r1 real places, in the order of the roots.

    One interval Horner pass over the real cells of
    `element.field.embeddings(precision)`, rounded out to the
    2^-(precision+2) grid.  Each image contains the true value.  Images at
    two precisions nest, because aligned cells nest and interval Horner is
    inclusion-monotone.  An image is at most
    2^-precision sum_i i |c_i| R^(i-1) + 2^-(precision+1) wide, where
    c_i are the coordinates and R bounds |x| on the cell.
    """
    return tuple(
        _horner(element.coords, r).round_out(precision + 2)
        for r in element.field.embeddings(precision)[0]
    )


def _horner(coords, x: RealInterval) -> RealInterval:
    acc = RealInterval.point(0)
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
        raise LatcountError("degree bound needs |disc| >= 3")
    for d in itertools.count(3):
        for wp in doublings(prec, f"degree bound for |disc| = {abs_disc}"):
            floor_iv = _stirling_floor(d, d // 2, wp)
            if abs_disc > floor_iv.hi:
                break
            if abs_disc <= floor_iv.lo:
                return d - 1


def derived_minkowski_C(prec: int = 64) -> RealInterval:
    """Certified C with d <= C log2 |disc| for every field of degree >= 2.

    C = sup over d of d / log2(F_d), F_d the Stirling floor at the most
    imaginary signature, and the supremum sits at d = 2, where the ratio
    exceeds 1.  Every d >= 3 has F_d > 2^d, so its ratio is below 1: since
    2 r2 <= d and pi < 4, F_d / 2^d >= q^d e^(-1/18) / (2 pi d) with
    q = pi e^2 / 8 > 4/3, a bound that grows with d, and it exceeds 1 at
    d = 3 already.  That check runs on rationals: pi between 333/106 and
    355/113, e^2 above its Taylor sum to k = 8, e^(-1/18) above 17/18.
    """
    q = Fraction(333, 848) * sum(Fraction(2 ** k, factorial(k)) for k in range(9))
    assert q > Fraction(4, 3) and q ** 3 * Fraction(17, 18) > 6 * Fraction(355, 113)
    c = RealInterval.point(2).div(_stirling_floor(2, 1, prec + 16).log2(prec + 16), prec)
    assert c.lo > 1
    return c


def root_discriminant(field: NumberField, prec: int = 128) -> RealInterval:
    return RealInterval.point(field.abs_disc).nth_root(field.degree, prec)


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

"""Self-test of the benchmark's own oracles and generator.

    python3 perfbench/selftest.py

Exits 0 when every check holds.  It needs no latcount checkout.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as O  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def main() -> int:
    # Bernoulli closed forms over Q: prod |zeta(-m_i)| / 2^rank
    assert O.covolume_over_q("A", 1) == Fraction(1, 24)
    assert O.covolume_over_q("G", 2) == Fraction(1, 12096)
    assert O.covolume_over_q("A", 2) is None  # exponent 2 is even
    # Siegel's formula for A1 over real quadratic fields, from d_K
    assert O.a1_covolume_real_quadratic(-1, -1) == Fraction(1, 120)  # x^2-x-1
    assert O.a1_covolume_real_quadratic(0, -5) == Fraction(1, 120)   # x^2-5, index 2
    assert O.a1_covolume_real_quadratic(0, -2) == Fraction(1, 48)    # x^2-2
    # exact discriminants and norms
    assert O.discriminant([-1, -1, 0, 1]) == -23                   # x^3-x-1
    assert O.discriminant([-5, 0, 1]) == 20                        # disc Z[sqrt 5]
    assert O.discriminant(O.shanks_cubic(1)) == (1 + 3 + 9) ** 2
    assert O.norm_one_minus([-2, 0, 1], [1, -1]) == -2             # N(sqrt 2)
    assert O.real_cyclotomic(5) == [-1, 1, 1]                      # x^2+x-1
    assert O.real_cyclotomic(7) == [-1, -2, 1, 1]
    # one decimal unit of a 12-place bracket around 1 pins about 40 bits
    bits = O.enclosure_bits(Fraction(1), Fraction(1) + Fraction(1, 10 ** 12))
    assert 39.8 < bits < 39.9
    assert O.enclosure_bits(Fraction(0), Fraction(10 ** 60)) == 1.0
    # same seed, same argv; another seed, other inputs
    for name in WORKLOADS:
        first = [inv.argv for inv in generate(name, 7)]
        assert first == [inv.argv for inv in generate(name, 7)], name
        assert first != [inv.argv for inv in generate(name, 8)], name
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

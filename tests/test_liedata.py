from fractions import Fraction

import pytest

from latcount.errors import InconsistentOverride, InvalidType
from latcount.interval import RealInterval
from latcount.liedata import (
    INNER_SPLIT,
    OUTER_2,
    OUTER_3,
    dump_table,
    gamma_h,
    outer2_signs,
    parse_type,
    root_system,
    s_parameter,
    split_signs,
    with_form,
)


def test_table_invariants_up_to_rank_12():
    rows = dump_table(12)
    assert len(rows) == 48
    for row in rows:
        r, h = row["rank"], row["coxeter"]
        exps = row["exponents"]
        assert len(exps) == r
        assert row["dim"] == sum(2 * m + 1 for m in exps)
        assert row["dim"] == r * (h + 1)
        assert h == exps[-1] + 1
        assert exps == sorted(exps)
        assert exps[0] == 1
        # exponent symmetry m -> h - m permutes the multiset
        assert sorted(h - m for m in exps) == exps


def test_exponent_pins():
    assert root_system("A", 3).exponents == (1, 2, 3)
    assert root_system("B", 3).exponents == (1, 3, 5)
    assert root_system("C", 4).exponents == (1, 3, 5, 7)
    assert root_system("D", 4).exponents == (1, 3, 3, 5)
    assert root_system("D", 5).exponents == (1, 3, 4, 5, 7)
    assert root_system("E", 6).exponents == (1, 4, 5, 7, 8, 11)
    assert root_system("E", 7).exponents == (1, 5, 7, 9, 11, 13, 17)
    assert root_system("E", 8).exponents == (1, 7, 11, 13, 17, 19, 23, 29)
    assert root_system("F", 4).exponents == (1, 5, 7, 11)
    assert root_system("G", 2).exponents == (1, 5)


def test_dimension_and_coxeter_pins():
    pins = {
        ("A", 1): (3, 2),
        ("A", 2): (8, 3),
        ("B", 3): (21, 6),
        ("C", 2): (10, 4),
        ("D", 4): (28, 6),
        ("E", 6): (78, 12),
        ("E", 7): (133, 18),
        ("E", 8): (248, 30),
        ("F", 4): (52, 12),
        ("G", 2): (14, 6),
    }
    for (fam, rank), (dim, h) in pins.items():
        data = root_system(fam, rank)
        assert (data.dim, data.coxeter) == (dim, h), data.name


def test_invalid_types():
    for fam, rank in (("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9),
                      ("F", 3), ("G", 1), ("H", 2), ("A", 0)):
        with pytest.raises(InvalidType):
            root_system(fam, rank)


def test_forms():
    a2 = root_system("A", 2)
    outer = with_form(a2, OUTER_2)
    assert outer.form == OUTER_2 and outer.s_param == 5
    assert with_form(a2, OUTER_2, 9).s_param == 9
    assert with_form(outer, INNER_SPLIT).s_param == 0
    for data in (a2, parse_type("A3")):
        with pytest.raises(InconsistentOverride):
            with_form(data, OUTER_2, 4)
    with pytest.raises(InvalidType):
        with_form(root_system("A", 1), OUTER_2)
    with pytest.raises(InvalidType):
        with_form(root_system("E", 7), OUTER_2)
    with pytest.raises(InvalidType):
        with_form(root_system("D", 4), OUTER_3)
    with pytest.raises(InvalidType):
        with_form(a2, "twisted")
    assert with_form(root_system("D", 4), OUTER_2).form == OUTER_2
    assert with_form(root_system("E", 6), OUTER_2).form == OUTER_2


def test_s_parameter():
    split = root_system("C", 2)
    assert s_parameter(split) == 0
    assert s_parameter(split, 0) == 0
    with pytest.raises(InconsistentOverride):
        s_parameter(split, 3)
    outer = with_form(root_system("A", 2), OUTER_2)
    assert s_parameter(outer) == 5
    assert s_parameter(outer, 7) == 7
    with pytest.raises(InconsistentOverride):
        s_parameter(outer, 4)


def test_sign_vectors():
    outer_a2 = with_form(root_system("A", 2), OUTER_2)
    assert outer2_signs(outer_a2) == (-1, 1)
    outer_a3 = with_form(root_system("A", 3), OUTER_2)
    assert outer2_signs(outer_a3) == (-1, 1, -1)
    outer_d4 = with_form(root_system("D", 4), OUTER_2)
    # exponents (1, 3, 3, 5): exactly one of the two middle copies flips
    assert outer2_signs(outer_d4) == (-1, 1, -1, -1)
    with pytest.raises(InvalidType):
        outer2_signs(root_system("A", 2))
    with pytest.raises(InvalidType):
        outer2_signs(with_form(root_system("E", 6), OUTER_2))
    assert split_signs(root_system("B", 3)) == (-1, -1, -1)


def test_gamma_h_pin():
    g2 = gamma_h(2)
    assert Fraction("0.0428") < g2.lo and g2.hi < Fraction("0.0430")
    assert g2.width() < Fraction(1, 10 ** 20)
    # closed form at h = 2: gamma(2) = (3 - 2 sqrt 2) / 4
    s2 = RealInterval.point(2).sqrt(160)
    assert (g2 * 4 + s2 * 2).contains(3)


def test_gamma_h_identity_and_monotone():
    # 2h gamma(h) + sqrt(h(h+2)) = h + 1 exactly
    for h in (2, 3, 5, 10, 37):
        iv = gamma_h(h, 96)
        s = RealInterval.point(h * (h + 2)).sqrt(128)
        assert (iv * (2 * h) + s).contains(h + 1)
    prev = gamma_h(2, 96)
    for h in range(3, 60):
        cur = gamma_h(h, 96)
        assert cur.hi < prev.lo
        prev = cur
    with pytest.raises(ValueError):
        gamma_h(1)


def test_parse_type():
    assert parse_type("A1").name == "A1"
    assert parse_type(" c2 ").name == "C2"
    assert parse_type("E8").dim == 248
    for bad in ("X1", "A", "Aone", "", "1A"):
        with pytest.raises(InvalidType):
            parse_type(bad)

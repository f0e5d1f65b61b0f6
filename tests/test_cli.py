import gc
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import latcount
import latcount.counting as counting
import latcount.numfield as numfield
import latcount.pisot_tower as pisot_tower
import latcount.prasad as prasad
from latcount.cli import MAX_PREC, MAX_PRIME_BOUND, _DESCRIPTION, _parse_plain, entry, run
from latcount.counting import BoundParams, lower_growth_assemble, upper_growth_assemble
from latcount.errors import LatcountError
from latcount.interval import RealInterval, interval_strs, str_digit_limit
from latcount.liedata import MAX_RANK, MAX_S_PARAM, parse_type
from latcount.numfield import Polynomial, field_from_polynomial
from latcount.pisot_tower import (
    MAX_SEARCH,
    find_pisot,
    fixed_signature_sequence,
    quadratic_extension,
    tower_lookup,
)
from latcount.prasad import covolume_synthetic, covolume_upper_c1

from oracles import real_cyclotomic

PARAM_KEYS = ["C", "C1", "C2", "c4", "f1", "s_embed"]
README = Path(__file__).resolve().parent.parent / "README.md"
SHIM = Path(__file__).resolve().parent.parent / "perfbench" / "shim.py"


def _run_json(capsys, argv):
    code = entry(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_field_json_shape(capsys):
    doc = _run_json(capsys, ["field", "--poly", "x^2-5", "--format", "json"])
    assert doc["schema"] == 1
    assert doc["command"] == "field"
    assert doc["precision"] == "128"
    assert doc["disc"] == "20"
    assert doc["signature"] == ["2", "0"]
    assert list(doc["bound_params"]) == PARAM_KEYS
    assert all(isinstance(v, str) for v in doc["bound_params"].values())
    assert doc["defaulted_params"] == sorted(PARAM_KEYS)
    assert "threads" not in doc
    kinds = [row["kind"] for row in doc["rows"]]
    assert kinds == ["real", "real"]
    assert doc["rd"][0].startswith("4.47213595")  # sqrt(20)


def test_field_known_disc(capsys):
    doc = _run_json(
        capsys,
        ["field", "--poly", "x^2-5", "--known-disc", "5", "--format", "json"],
    )
    assert doc["disc"] == "5"
    assert doc["rd"][0].startswith("2.2360679")


def test_field_complex_rows(capsys):
    doc = _run_json(capsys, ["field", "--poly", "x^3-x-1", "--format", "json"])
    kinds = [row["kind"] for row in doc["rows"]]
    assert kinds == ["real", "complex"]
    assert doc["rows"][0]["im_lo"] == "0"
    assert doc["rows"][1]["im_lo"] != "0"


def test_exit_codes(capsys, tmp_path):
    assert entry(["field", "--poly", "x^2-1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert entry(["field", "--poly", "Q"]) == 1
    assert entry(["field", "--poly", "x^2-5", "--prec", "32"]) == 1
    assert entry(["field", "--poly", "x^2-5", "--prime-bound", "10"]) == 1
    assert entry(["field", "--poly", "x^2-5", "--threads", "0"]) == 1
    assert entry(["tower", "--name", "nothere"]) == 1
    assert (
        entry(["growth", "lower", "--tower", "martinet", "--type", "A1",
               "--pprime", "3", "--c4", "1000"])
        == 4
    )
    assert entry(["growth", "upper", "--residues", "2:20"]) == 5
    assert (
        entry(["growth", "lower", "--tower", "martinet", "--type", "A1",
               "--pprime", "2"])
        == 1
    )
    missing = tmp_path / "nope.json"
    assert entry(["--config", str(missing), "lie", "dump"]) == 1
    capsys.readouterr()
    for argv in (
        ["growth", "lower", "--tower", "martinet", "--type", "A2",
         "--pprime", "3", "--p0", "-3"],
        ["covolume", "--field", "Q", "--type", "A1", "--p0", "0"],
        ["covolume", "--tower", "martinet", "--type", "A1", "--p0", "-2"],
        ["covolume", "--tower", "martinet", "--type", "A1", "--p0", "4"],
        # a strong pseudoprime to the first 9 prime bases
        ["covolume", "--field", "Q", "--type", "A1", "--p0", "3825123056546413051"],
    ):
        assert entry(argv) == 1
        assert capsys.readouterr().err == f"error: p0 must be a prime, got {argv[-1]}\n"
    assert entry(["covolume", "--tower", "martinet", "--type", "A1", "--level", "-1"]) == 1
    assert capsys.readouterr().err == "error: tower level must be nonnegative\n"
    for argv, err in (
        (["tower", "--name", "martinet", "--levels", "-1"], "--levels must be at least 1, got -1"),
        (["growth", "lower", "--tower", "martinet", "--type", "A2",
          "--pprime", "3", "--levels", "0"], "--levels must be at least 1, got 0"),
        (["lie", "dump", "--max-rank", "-3"], "--max-rank must be at least 1, got -3"),
        (["lie", "dump", "--max-rank", "0"], "--max-rank must be at least 1, got 0"),
    ):
        assert entry(argv) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")
    for argv in (
        ["growth", "lower", "--tower", "martinet", "--type", "A2",
         "--pprime", "3", "--c4", "-1"],
        ["growth", "upper", "--C1", "-1"],
    ):
        assert entry(argv) == 1
        assert capsys.readouterr() == ("", "error: C1 and c4 must be nonnegative\n")
    assert entry(["field", "--poly", "x^2+1", "--known-disc", "-1"]) == 1
    assert "Stickelberger" in capsys.readouterr().err
    assert entry(["field", "--poly", "x^2-45", "--known-disc", "45"]) == 1
    assert capsys.readouterr() == ("", "error: known_disc 45 is not d_K = 5 of this quadratic field\n")
    for argv, flag in (
        (["growth", "upper", "--residues", "2:x"], "--residues"),
        (["growth", "upper", "--residues", "2:1:3"], "--residues"),
        (["growth", "lower", "--tower", "martinet", "--type", "A1",
          "--pprime", "3", "--c4", "abc"], "--c4"),
        (["growth", "lower", "--tower", "martinet", "--type", "A1",
          "--pprime", "3", "--c4", "1/0"], "--c4"),
        (["growth", "upper", "--C1", "x"], "--C1"),
    ):
        assert entry(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert "invalid literal" not in err.lower()


def test_irreducibility_exit_codes_past_degree_22(capsys):
    # x^24+1 = (x^8+1)(x^16-x^8+1); Phi_64 = x^32+1 and Psi_65 are irreducible
    assert entry(["field", "--poly", "x^24+1"]) == 2
    assert capsys.readouterr().err == "error: x^24 + 1 has factor of degree 8\n"
    assert entry(["field", "--poly", "x^32+1"]) == 0
    psi_65 = str(Polynomial(real_cyclotomic(65)))
    assert entry(["field", "--poly", psi_65]) == 0
    assert "signature: [24, 0]" in capsys.readouterr().out


def test_exhausted_budget_exits_3(capsys, monkeypatch):
    # the budget runs out once the field and its 64-bit roots exist, so the
    # Pisot certification is the first to need another round
    float_roots = pisot_tower._float_roots

    def then_exhaust(k):
        roots = float_roots(k)
        monkeypatch.setattr(numfield, "_MAX_REFINE_ROUNDS", 0)
        return roots

    monkeypatch.setattr(pisot_tower, "_float_roots", then_exhaust)
    assert entry(["pisot", "--poly", "x^2-x-1"]) == 3
    assert capsys.readouterr().err == "error: pisot certification of 1,-1\n"


def test_usage_errors_exit_64(capsys):
    # neither --field nor --tower, an unknown command, and flag prefixes: every
    # flag is spelled in full, before the command and after it
    for argv in ("covolume --type A1", "no-such-command", "field --pol x^2-2",
                 "--pre 64 field --poly x^2-2", "field --poly x^2-2 --pre 64"):
        with pytest.raises(SystemExit) as exc:
            entry(argv.split())
        assert exc.value.code == 64, argv
    capsys.readouterr()


def test_pisot_golden(capsys):
    doc = _run_json(capsys, ["pisot", "--poly", "x^2-x-1", "--format", "json"])
    assert doc["element"] == "1,-1"
    assert doc["norm_one_minus"] == "-1"
    assert doc["reverified"] == "yes"
    flags = [row["pisot_place"] for row in doc["rows"]]
    assert flags.count("yes") == 1
    # reverification doubles to 8400 and 18000 bits, inside the refinement budget
    for prec in ("4200", "9000"):
        doc = _run_json(capsys, ["pisot", "--poly", "x^2-x-1", "--prec", prec, "--format", "json"])
        assert doc["reverified"] == "yes"


def test_tower_listing_and_sequence(capsys):
    doc = _run_json(capsys, ["tower", "--format", "json"])
    names = [row["name"] for row in doc["rows"]]
    assert {"martinet", "hajir-maire", "golod-shafarevich"} <= set(names)
    doc = _run_json(
        capsys,
        ["tower", "--name", "martinet", "--t", "1", "--format", "json"],
    )
    assert doc["t"] == "1"
    bounds = {(row["rd_bound_lo"], row["rd_bound_hi"]) for row in doc["rows"]}
    assert len(doc["rows"]) == 3 and len(bounds) == 1
    assert any("level-independent" in n for n in doc["notes"])


def test_tower_t_below_one_is_an_error(capsys):
    for t in ("0", "-1"):
        assert entry(["tower", "--name", "martinet", "--t", t]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: t must be >= 1, got {t}\n"


@pytest.mark.parametrize("t", ["21", "100000"])
def test_tower_t_above_the_base_degree_is_an_error(capsys, monkeypatch, t):
    # martinet's level 0 has degree 20, so k(sqrt alpha) has at most 20
    # complex places; the refusal comes before delta or any power is computed
    def no_delta(precision):
        raise AssertionError("delta computed for an impossible t")

    monkeypatch.setattr(pisot_tower, "delta_universal", no_delta)
    assert entry(["tower", "--name", "martinet", "--t", t, "--levels", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: t must be <= the base degree 20, got {t}\n"


_TOWER_ROW = {"name": "t", "base_degree": 2, "degree_rule": "doubling",
              "rd_constant": ["2", "3"], "total_real": True}


@pytest.mark.parametrize("name, extra", [("golod-shafarevich", False), ("t", True)])
def test_tower_t_on_a_row_that_is_not_totally_real_is_an_error(capsys, tmp_path, name, extra):
    # every extension of a totally complex base is totally complex, so no
    # level of such a tower has the real places that r2 = t needs
    argv = ["tower", "--name", name, "--t", "1", "--levels", "2"]
    if extra:
        path = tmp_path / "extra.json"
        path.write_text(json.dumps([dict(_TOWER_ROW, total_real=False)]))
        argv += ["--extra", str(path)]
    assert entry(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: t needs a totally real tower, and {name!r} is not\n"


@pytest.mark.parametrize("doc, message", [
    ([{k: v for k, v in _TOWER_ROW.items() if k != "rd_constant"}],
     " row 0: missing key 'rd_constant'"),
    (_TOWER_ROW, ": the catalog must be a JSON list of rows"),
    ([_TOWER_ROW, dict(_TOWER_ROW, rd_constant=["1/2", "3"])],
     " row 1: key 'rd_constant' needs a lower end above 1, not 1/2"),
    ([dict(_TOWER_ROW, total_real="false")],
     " row 0: key 'total_real' must be true or false, not 'false'"),
    ([dict(_TOWER_ROW, base_degree=2.7)],
     " row 0: bad 'base_degree': base_degree must be an integer, got 2.7"),
    ([dict(_TOWER_ROW, base_degree=True)],
     " row 0: bad 'base_degree': base_degree must be an integer, got True"),
    ([dict(_TOWER_ROW, base_degree=0)],
     " row 0: key 'base_degree' must be at least 1, not 0"),
    ([dict(_TOWER_ROW, base_degree=-3)],
     " row 0: key 'base_degree' must be at least 1, not -3"),
    ([dict(_TOWER_ROW, name="martinet")],
     " row 0: key 'name' repeats 'martinet' from tower catalog row 1"),
    ([_TOWER_ROW, _TOWER_ROW],
     " row 1: key 'name' repeats 't' from {path} row 0"),
    ([dict(_TOWER_ROW, name=5)],
     " row 0: key 'name' must be a string, not 5"),
    ([dict(_TOWER_ROW, degree_rule=["doubling"])],
     " row 0: key 'degree_rule' must be a string, not ['doubling']"),
    ([dict(_TOWER_ROW, source={"a": 1})],
     " row 0: key 'source' must be a string, not {{'a': 1}}"),
    ([dict(_TOWER_ROW, rd_constant="35")],
     " row 0: key 'rd_constant' must be a list of two rationals, not '35'"),
    ([dict(_TOWER_ROW, rd_constant=[3, 5, 7])],
     " row 0: key 'rd_constant' must be a list of two rationals, not [3, 5, 7]"),
    ([dict(_TOWER_ROW, rd_constant=["2", True])],
     " row 0: bad 'rd_constant': rd_constant must be a rational number such as 1/2, got True"),
])
def test_malformed_tower_extra_is_an_error(capsys, tmp_path, doc, message):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    assert entry(["tower", "--extra", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}{message.format(path=path)}\n"
    assert "Traceback" not in err


def _one_row_extra(tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([dict(_TOWER_ROW, rd_constant=["1000", "1001"])]))
    return str(path)


def test_extra_tower_reaches_covolume_and_growth_lower(capsys, tmp_path):
    path = _one_row_extra(tmp_path)
    c1 = interval_strs(covolume_upper_c1(RealInterval(1000, 1001), parse_type("A1"), 2), 12)
    doc = _run_json(capsys, ["covolume", "--tower", "t", "--type", "A1", "--level", "1",
                             "--extra", path, "--format", "json"])
    assert (doc["tower"], doc["degree"], doc["c1"]) == ("t", "4", c1)
    assert doc["within_c1_bound"] == "yes"
    argv = ["growth", "lower", "--tower", "t", "--type", "A1", "--pprime", "3",
            "--rank-override", "--format", "json"]
    doc = _run_json(capsys, ["--extra", path] + argv)
    assert (doc["tower"], doc["c1"]) == ("t", c1)
    assert [row["degree"] for row in doc["rows"]] == ["2", "4", "8"]
    assert entry(argv) == 1
    assert capsys.readouterr().err.endswith("error: tower 't' not in catalog\n")


def test_extra_as_a_global_flag_keeps_tower_reports(capsys, tmp_path):
    path = _one_row_extra(tmp_path)

    def out(argv):
        assert entry(argv) == 0
        return capsys.readouterr().out

    listing = out(["tower", "--format", "csv"])
    for argv in (["tower", "--extra", path, "--format", "csv"],
                 ["--extra", path, "tower", "--format", "csv"]):
        assert out(argv) == listing + "t,2,doubling,1000,1001,yes,\n"
    martinet = out(["tower", "--name", "martinet"])
    assert out(["tower", "--name", "martinet", "--extra", path]) == martinet
    assert out(["--extra", path, "tower", "--name", "martinet"]) == martinet


def test_covolume_rationals(capsys):
    doc = _run_json(
        capsys,
        ["covolume", "--field", "Q", "--type", "A1",
         "--prime-bound", "1000", "--format", "json"],
    )
    for key in ("value", "disc_factor", "arch_factor", "euler_factor",
                "lambda_bound", "prime_bound_used"):
        assert key in doc, key
    lo, hi = (Fraction(s) for s in doc["value"])
    assert lo < Fraction(1, 24) < hi
    assert doc["prime_bound_used"] == "1000"
    assert doc["nesting_check"] == "ok"


def test_covolume_outer_requires_alpha(capsys):
    assert (
        entry(["covolume", "--field", "x^2-x-1", "--type", "A2", "--outer",
               "--prime-bound", "100"])
        == 1
    )
    capsys.readouterr()
    doc = _run_json(
        capsys,
        ["covolume", "--field", "x^2-x-1", "--type", "A2", "--outer",
         "--alpha", "0,1", "--prime-bound", "100", "--format", "json"],
    )
    assert doc["t"] == "1"
    assert doc["disc_factor"] == ["625", "640000"]


def test_covolume_negative_alpha_needs_equals(capsys):
    argv = ["covolume", "--field", "x^2-5", "--type", "A2", "--outer",
            "--prime-bound", "1000", "--format", "json"]
    # argparse reads a separate -1,1 as an option, not as the value
    with pytest.raises(SystemExit) as exc:
        entry(argv + ["--alpha", "-1,1"])
    assert exc.value.code == 64
    assert "--alpha: expected one argument" in capsys.readouterr().err
    doc = _run_json(capsys, argv + ["--alpha=-1,1"])
    assert doc["alpha"] == "-1,1"
    assert doc["t"] == "1"


_OUTER_A2 = ["covolume", "--field", "x^2-x-1", "--type", "A2", "--outer",
             "--alpha", "0,1", "--prime-bound", "100"]
_S_WITHOUT_OUTER = "--s-param needs --outer: s is a parameter of outer forms only"


def test_less_used_flags(capsys):
    doc = _run_json(capsys, ["pisot", "--poly", "x^2-x-1", "--place", "1", "--format", "json"])
    assert doc["place_index"] == "1"
    assert [row["pisot_place"] for row in doc["rows"]] == ["no", "yes"]
    doc = _run_json(capsys, ["tower", "--name", "martinet", "--levels", "5", "--format", "json"])
    assert [row["degree"] for row in doc["rows"]] == ["20", "40", "80", "160", "320"]
    doc = _run_json(capsys, ["growth", "lower", "--tower", "martinet", "--type", "A2",
                             "--pprime", "3", "--levels", "2", "--format", "json"])
    assert [row["degree"] for row in doc["rows"]] == ["20", "40"]
    doc = _run_json(capsys, _OUTER_A2 + ["--s-param", "7", "--format", "json"])
    assert doc["disc_factor"] == ["625", "10240000"]


@pytest.mark.parametrize("argv, message", [
    (["pisot", "--poly", "x^2-x-1", "--radius", "0"],
     "no Pisot element at place 0 within radius 0"),
    (_OUTER_A2 + ["--s-param", "4"], "outer form needs s >= 5, got 4"),
    (["covolume", "--tower", "martinet", "--type", "A2", "--outer"],
     "outer forms need --alpha for the relative discriminant"),
    (["covolume", "--field", "Q", "--type", "E6", "--outer", "--alpha", "-3"],
     "no shipped sign table for outer E6"),
    (["covolume", "--field", "Q", "--type", "A1", "--s-param", "7"], _S_WITHOUT_OUTER),
    (["covolume", "--tower", "martinet", "--type", "A1", "--s-param", "7"], _S_WITHOUT_OUTER),
])
def test_less_used_flag_errors(capsys, argv, message):
    assert entry(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


_EXTRA_UNREAD = "--extra is read only by tower, covolume --tower and growth lower"
_RANK_300 = "rank 300 is past the cap: Lie type ranks run up to 32"
_S_561 = "s-parameter 561 is past the cap: outer forms of rank up to 32 have s up to 560"


# each flag-needs-flag rule and each cap, under the spelling _parse_plain takes
# and under one that only argparse takes
@pytest.mark.parametrize("plain, other, message", [
    ("covolume --field Q --type A1 --s-param 7",
     "covolume --field=Q --type A1 --s-param=7", _S_WITHOUT_OUTER),
    ("covolume --tower martinet --type A2 --outer",
     "--prec 128 covolume --tower martinet --type A2 --outer",
     "outer forms need --alpha for the relative discriminant"),
    ("covolume --tower martinet --type A1 --alpha 0,1",
     "covolume --tower martinet --type A1 --alpha=0,1",
     "--alpha needs --field: alpha is an element of the base field"),
    ("covolume --field Q --type A1 --level 3",
     "--format json covolume --field Q --type A1 --level 3",
     "--level needs --tower: levels belong to a catalog tower"),
    ("tower --t 1", "tower --t=1", "--t needs --name: t counts places over one named tower"),
    ("tower --levels 5", "--prec 96 tower --levels 5",
     "--levels needs --name: levels belong to a named tower"),
    ("field --poly x^2-2 --extra /nonexistent.json",
     "--extra /nonexistent.json field --poly x^2-2", _EXTRA_UNREAD),
    ("covolume --field Q --type A1 --extra /nonexistent.json",
     "covolume --field Q --type A1 --extra=/nonexistent.json", _EXTRA_UNREAD),
    ("lie dump --extra /nonexistent.json", "lie --extra /nonexistent.json dump", _EXTRA_UNREAD),
    ("pisot --poly x^4-4x^2+2 --radius 100", "pisot --poly=x^4-4x^2+2 --radius 100",
     "search radius 100 is past the cap: at degree 4 the (2r+1)^4 candidates must number at most 100000"),
    ("pisot --poly x^2-x-1 --radius 1000", "pisot --poly x^2-x-1 --radius=1000",
     "search radius 1000 is past the cap: at degree 2 the (2r+1)^2 candidates must number at most 100000"),
    ("lie dump --max-rank 100000", "lie dump --max-rank=100000",
     "rank 100000 is past the cap: Lie type ranks run up to 32"),
    ("covolume --field Q --type A300", "covolume --field Q --type=A300", _RANK_300),
    ("covolume --tower martinet --type A300 --level 0",
     "--prec 128 covolume --tower martinet --type A300 --level 0", _RANK_300),
    ("growth lower --tower martinet --type A300 --pprime 3 --levels 1",
     "growth --prec 128 lower --tower martinet --type A300 --pprime 3 --levels 1", _RANK_300),
    ("covolume --field x^2-x-1 --type A2 --outer --alpha 0,1 --s-param 561",
     "covolume --field x^2-x-1 --type A2 --outer --alpha=0,1 --s-param=561", _S_561),
])
def test_unread_flags_and_sizes_past_a_cap_exit_1(capsys, plain, other, message):
    assert _parse_plain(shlex.split(plain)) is not None
    assert _parse_plain(shlex.split(other)) is None
    for argv in (plain, other):
        assert entry(shlex.split(argv)) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_caps_sit_at_their_constants(capsys):
    # the largest search box, rank and s-parameter are accepted, one past them
    # is not, and every type lie dump can list is a type covolume takes
    assert (2 * 157 + 1) ** 2 <= MAX_SEARCH < (2 * 158 + 1) ** 2
    assert entry(["pisot", "--poly", "x^2-x-1", "--radius", "157"]) == 0
    assert entry(["pisot", "--poly", "x^2-x-1", "--radius", "158"]) == 1
    capsys.readouterr()
    doc = _run_json(capsys, ["lie", "dump", "--max-rank", str(MAX_RANK), "--format", "json"])
    largest = {row["name"][0]: row["name"] for row in doc["rows"]}
    assert sorted(largest.values()) == [f"A{MAX_RANK}", f"B{MAX_RANK}", f"C{MAX_RANK}",
                                        f"D{MAX_RANK}", "E8", "F4", "G2"]
    for name in largest.values():
        assert entry(["covolume", "--field", "Q", "--type", name]) == 0, name
    assert entry(["lie", "dump", "--max-rank", str(MAX_RANK + 1)]) == 1
    assert entry(["covolume", "--field", "Q", "--type", f"A{MAX_RANK + 1}"]) == 1
    capsys.readouterr()
    # 2A_r has s = r(r+3)/2 for even r, the most of any outer form at a rank
    assert MAX_S_PARAM == 560 == MAX_RANK * (MAX_RANK + 3) // 2
    doc = _run_json(capsys, _OUTER_A2 + ["--s-param", str(MAX_S_PARAM), "--format", "json"])
    assert doc["type"] == "A2 (outer)"
    assert entry(_OUTER_A2 + ["--s-param", str(MAX_S_PARAM + 1)]) == 1
    assert capsys.readouterr() == ("", f"error: {_S_561}\n")


def test_covolume_tower_computes_c1_factors_once(capsys, monkeypatch):
    # covolume_upper_c1 and covolume_synthetic share one level's factors
    arch_unit, calls = prasad._arch_unit, []
    monkeypatch.setattr(prasad, "_arch_unit", lambda *a: calls.append(a) or arch_unit(*a))
    prasad._c1_factors.cache_clear()
    assert entry(["covolume", "--tower", "martinet", "--type", "A2", "--level", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_covolume_tower_bound(capsys):
    doc = _run_json(
        capsys,
        ["covolume", "--tower", "martinet", "--type", "A1", "--format", "json"],
    )
    assert doc["within_c1_bound"] == "yes"
    assert doc["degree"] == "20"
    assert doc["c1"][0].startswith("11480.3")
    assert any("upper endpoints agree exactly" in n for n in doc["notes"])


def test_growth_lower_report(capsys):
    argv = ["growth", "lower", "--tower", "martinet", "--type", "A1",
            "--pprime", "3", "--c4", "0", "--format", "json"]
    doc = _run_json(capsys, argv)
    assert doc["c3"] == "27"
    assert doc["c2_exponent"] == "1/4"
    assert doc["a"][0].startswith("0.0011907")
    assert doc["x_range"] == [str(27 ** 20), str(27 ** 80)]
    assert doc["gamma_h2"][0].startswith("0.04289321881")
    assert [row["degree"] for row in doc["rows"]] == ["20", "40", "80"]
    assert all(row["included"] == "yes" for row in doc["rows"])
    assert any("not the growth rate" in n for n in doc["notes"])
    # supplying --c4 moves it out of the defaulted list
    assert doc["defaulted_params"] == ["C", "C1", "C2", "f1", "s_embed"]
    assert doc["bound_params"]["c4"] == "0"


def test_growth_lower_rank_warning(capsys):
    argv = ["growth", "lower", "--tower", "martinet", "--type", "A1",
            "--pprime", "3", "--format", "json"]
    assert entry(argv) == 0
    err = capsys.readouterr().err
    assert "rank 1 < 2" in err
    assert "override acknowledged" not in err
    assert entry(argv + ["--rank-override"]) == 0
    assert "override acknowledged" in capsys.readouterr().err


def test_growth_lower_deterministic_output(capsys):
    argv = ["growth", "lower", "--tower", "martinet", "--type", "A1",
            "--pprime", "3", "--c4", "0", "--format", "json"]
    assert entry(argv) == 0
    first = capsys.readouterr().out
    assert entry(argv) == 0
    second = capsys.readouterr().out
    assert entry(argv + ["--threads", "8"]) == 0
    threaded = capsys.readouterr().out
    assert first == second == threaded


def test_growth_upper_scan(capsys):
    doc = _run_json(
        capsys,
        ["growth", "upper", "--residues", "2:1,3:1", "--format", "json"],
    )
    xs = [row["x"] for row in doc["rows"]]
    assert xs == ["100", "1000", "10000", "100000", "1000000"]
    assert all(row["B"] == "35" for row in doc["rows"])
    assert all(row["nu"] == "2" for row in doc["rows"])
    assert doc["b"][0].startswith("5.2680")
    assert any("conditional" in n for n in doc["notes"])
    ratios = [Fraction(row["B_over_log2x_hi"]) for row in doc["rows"]]
    assert ratios == sorted(ratios, reverse=True)


def test_growth_upper_flags(capsys):
    doc = _run_json(
        capsys,
        ["growth", "upper", "--x-min", "1000", "--x-max", "10000",
         "--residues", "2:1", "--s-embed", "3", "--format", "json"],
    )
    assert [row["x"] for row in doc["rows"]] == ["1000", "10000"]
    assert doc["rows"][0]["rank_sum"] == "18"
    assert doc["defaulted_params"] == ["C", "C1", "C2", "c4", "f1"]
    doc = _run_json(
        capsys,
        ["growth", "upper", "--C1", "0", "--format", "json"],
    )
    assert all(row["B"] == "3" for row in doc["rows"])


def test_lie_dump(capsys):
    doc = _run_json(capsys, ["lie", "dump", "--format", "json"])
    assert len(doc["rows"]) == 48
    by_name = {row["name"]: row for row in doc["rows"]}
    assert by_name["D4"]["exponents"] == "1 3 3 5"
    assert by_name["E8"]["dim"] == "248"
    assert by_name["A1"]["gamma_lo"].startswith("0.04289")
    assert any("not the growth rate" in n for n in doc["notes"])


def test_csv_format(capsys):
    assert entry(["growth", "upper", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "# schema: 1"
    assert any(line.startswith("# note: conditional") for line in lines)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx].split(",")[:4] == ["x", "nu", "rank_sum", "B"]
    assert len(lines) - header_idx - 1 == 5


def test_table_format(capsys):
    assert entry(["tower"]) == 0
    out = capsys.readouterr().out
    assert "command: tower" in out
    assert "martinet" in out
    header_line = next(l for l in out.splitlines() if l.startswith("name"))
    assert "base_degree" in header_line


def test_config_file_and_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "prec": 192,
        "format": "json",
        "bound_params": {"C1": "1/2", "s_embed": 3},
    }))
    doc = _run_json(capsys, ["--config", str(cfg), "lie", "dump"])
    assert doc["precision"] == "192"
    assert doc["bound_params"]["C1"] == "1/2"
    assert doc["bound_params"]["s_embed"] == "3"
    assert doc["defaulted_params"] == ["C", "C2", "c4", "f1"]
    doc = _run_json(
        capsys, ["--config", str(cfg), "--prec", "128", "lie", "dump"]
    )
    assert doc["precision"] == "128"


def test_config_top_level_must_be_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[]")
    assert entry(["--config", str(cfg), "lie", "dump"]) == 1
    assert capsys.readouterr().err == "error: config file must hold a JSON object\n"


def test_config_bound_params_must_be_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bound_params": 3}))
    assert entry(["--config", str(cfg), "lie", "dump"]) == 1
    assert capsys.readouterr().err == (
        "error: config key bound_params must be a JSON object\n"
    )
    cfg.write_text(json.dumps({"prec": [192]}))
    assert entry(["--config", str(cfg), "lie", "dump"]) == 1
    assert capsys.readouterr().err.startswith("error: invalid config value")


@pytest.mark.parametrize("doc, key", [
    ({"bound_params": {"C1": "1/0"}}, "C1"),
    ({"bound_params": {"C1": "abc"}}, "C1"),
    ({"bound_params": {"C1": True}}, "C1"),
    ({"bound_params": {"c4": None}}, "c4"),
    ({"bound_params": {"f1": [1]}}, "f1"),
    ({"bound_params": {"s_embed": "x"}}, "s_embed"),
    ({"bound_params": {"s_embed": 2.7}}, "s_embed"),
    ({"prec": "abc"}, "prec"),
    ({"prec": True}, "prec"),
    ({"prime_bound": "1e5"}, "prime_bound"),
    ({"threads": "two"}, "threads"),
    ({"threads": None}, "threads"),
])
def test_config_values_are_validated(capsys, tmp_path, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert entry(["--config", str(cfg), "lie", "dump"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid config value: {key} ")
    assert "invalid literal" not in err.lower() and "Traceback" not in err


def test_config_error_does_not_depend_on_the_hash_seed(tmp_path):
    # three bad values: the first in field order (C, C1, C2, c4, f1, s_embed) is named
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bound_params": {"C1": "x", "c4": "y", "f1": "z"}}))
    src = str(Path(latcount.__file__).resolve().parent.parent)
    errs = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "latcount", "--config", str(cfg), "lie", "dump"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        errs.append(proc.stderr)
    assert errs == [
        "error: invalid config value: C1 must be a rational number such as 1/2, got 'x'\n"
    ] * 2


def test_threads_flag_has_no_effect(capsys):
    # --threads is validated but unused: the Euler product is one sequential pass
    argv = ["covolume", "--field", "x^2-x-1", "--type", "A1", "--prime-bound", "10000"]
    outs = []
    for threads in ("1", "4"):
        assert entry(argv + ["--threads", threads]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "nesting_check: ok" in outs[0]


def test_global_flags_both_positions(capsys):
    before = _run_json(
        capsys, ["--prec", "96", "field", "--poly", "x^2-5", "--format", "json"]
    )
    after = _run_json(
        capsys, ["field", "--poly", "x^2-5", "--prec", "96", "--format", "json"]
    )
    assert before["precision"] == after["precision"] == "96"
    assert before == after


def test_global_flags_between_growth_or_lie_and_their_subcommand(capsys):
    lower = ["lower", "--tower", "martinet", "--type", "A2", "--pprime", "3"]
    assert entry(["growth", "--prec", "96"] + lower) == 0
    between = capsys.readouterr().out
    assert "\nprecision: 96\n" in between
    assert entry(["growth"] + lower + ["--prec", "96"]) == 0
    assert capsys.readouterr().out == between
    assert entry(["lie", "--format", "csv", "dump"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# schema: 1\n")
    assert entry(["lie", "dump", "--format", "csv"]) == 0
    assert capsys.readouterr().out == out


def test_out_prefix_writes_files(capsys, tmp_path):
    prefix = tmp_path / "rep"
    argv = ["growth", "lower", "--tower", "martinet", "--type", "A1",
            "--pprime", "3", "--c4", "0", "--out", str(prefix)]
    assert entry(argv) == 0
    out = capsys.readouterr().out
    assert "report written" in out
    assert "a = [" in out
    assert "x_range = [" in out
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["command"] == "growth lower"
    csv_text = (tmp_path / "rep.csv").read_text()
    assert csv_text.startswith("# schema: 1")


@pytest.mark.parametrize("argv", [
    "covolume --tower golod-shafarevich --type A10 --level 3 --format csv",  # decimal_str
    "growth lower --tower hajir-maire --type C11 --pprime 3",  # x_range
    "growth lower --tower martinet --type E8 --pprime 1000000000000000003 --levels 1",  # c3
])
def test_digit_limit_error_text(capsys, argv):
    # ROADMAP item 5's known defect prints the same text under Python 3.10 and 3.11
    with pytest.raises(LatcountError):
        run(argv.split())
    assert entry(argv.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: Exceeds the limit (4300 digits) for integer string conversion; "
        "use sys.set_int_max_str_digits() to increase the limit\n"
    )


@pytest.mark.parametrize("argv", [
    "tower --name martinet --levels 2200",
    "tower --name martinet --levels 2200 --t 1",
])
def test_tower_degree_past_the_digit_limit(capsys, argv):
    # the degree 2^(level+1) passes the lowest limit, 640 digits, at level 2126
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(LatcountError):
            run(argv.split())
        assert entry(argv.split()) == 1
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: Exceeds the limit (640 digits) for integer string conversion; "
        "use sys.set_int_max_str_digits() to increase the limit\n"
    )


@pytest.mark.parametrize("level", ["11", "20000"])
def test_covolume_tower_past_the_digit_limit_fails_fast(level):
    # c1^degree would need minutes (level 11) or forever (level 20000) to
    # build, only to fail on the digit limit when printed
    argv = ["covolume", "--tower", "martinet", "--type", "A1", "--level", level]
    env = dict(os.environ, PYTHONPATH=str(Path(latcount.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "latcount"] + argv,
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: Exceeds the limit (4300 digits) for integer string conversion; "
        "use sys.set_int_max_str_digits() to increase the limit\n"
    )


@pytest.mark.parametrize("level, code", [("11", 0), ("16", 1), ("20000", 1)])
def test_covolume_tower_with_a_small_c1_fails_fast(tmp_path, level, code):
    # c1 < 2 here, so only lambda = p0^dim >= 8 among the printed powers
    # shows that a level cannot print; tested on c1 alone, level 16 ran for
    # minutes before failing on the digit limit
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([dict(_TOWER_ROW, rd_constant=["1.5", "1.6"])]))
    argv = ["covolume", "--tower", "t", "--extra", str(path), "--type", "A1", "--level", level]
    proc = subprocess.run([sys.executable, "-m", "latcount"] + argv,
                          capture_output=True, text=True, env=_latcount_env(), timeout=10)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: Exceeds the limit (4300 digits) for integer string conversion; "
            "use sys.set_int_max_str_digits() to increase the limit\n"
        )
    else:
        assert "c1_pow_d: [" in proc.stdout and proc.stderr == ""


@pytest.mark.parametrize("levels", ["12", "40"])
def test_growth_lower_past_the_digit_limit_fails_fast(levels):
    # every row's c1^d and c3^d would be built before the last c3^d failed
    # to print: seconds at level 10, about four times longer per level after
    argv = ["growth", "lower", "--tower", "martinet", "--type", "A2", "--pprime", "3",
            "--levels", levels]
    env = dict(os.environ, PYTHONPATH=str(Path(latcount.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "latcount"] + argv,
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: Exceeds the limit (4300 digits) for integer string conversion; "
        "use sys.set_int_max_str_digits() to increase the limit\n"
    )


@pytest.mark.skipif(str_digit_limit() == 0, reason="this Python has no int->str digit limit")
def test_covolume_field_past_the_digit_limit_fails_fast(monkeypatch, capsys):
    # disc^(dim/2) arch^d alone cannot print, so the Euler pass, about a
    # second here, is never entered
    def no_euler_pass(*args):
        raise AssertionError("the Euler pass ran")

    with monkeypatch.context() as patch:
        patch.setattr(prasad, "euler_product_E", no_euler_pass)
        assert entry(["covolume", "--field", "x^4-4x^2+2", "--type", "B32"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: Exceeds the limit ({str_digit_limit()} digits) for integer string "
        "conversion; use sys.set_int_max_str_digits() to increase the limit\n"
    )
    # over the golden field the same type still prints
    assert entry(["covolume", "--field", "x^2-x-1", "--type", "B32"]) == 0
    out, err = capsys.readouterr()
    assert "value: [" in out and err == ""


_LATE_FAILURES = [
    "growth lower --tower martinet --type E6 --pprime 3",
    "growth lower --tower martinet --type A8 --pprime 3",
    "growth lower --tower martinet --type C4 --pprime 3",
    "growth lower --tower hajir-maire --type B4 --pprime 3",
    "growth lower --tower martinet --type A2 --pprime 3 --levels 7",
]


@pytest.mark.parametrize("argv", _LATE_FAILURES)
def test_growth_lower_refuses_an_unprintable_c1_power_before_any_row(capsys, monkeypatch, argv):
    # c3^d of the last row prints, but c1^d does not: the call is refused
    # before any row's covolume power is built
    assert entry(argv.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: Exceeds the limit (4300 digits) for integer string conversion; "
        "use sys.set_int_max_str_digits() to increase the limit\n"
    )
    args = argv.split()
    entry_row = tower_lookup(args[args.index("--tower") + 1])[0]
    data = parse_type(args[args.index("--type") + 1])
    levels = int(args[args.index("--levels") + 1]) if "--levels" in args else 3
    c1 = covolume_upper_c1(entry_row.rd_constant, data, 2)
    degrees = pisot_tower.tower_degrees(entry_row, levels)
    powers = []
    original = RealInterval.pow_int
    monkeypatch.setattr(RealInterval, "pow_int",
                        lambda iv, n, prec: powers.append(n) or original(iv, n, prec))
    with pytest.raises(LatcountError):
        lower_growth_assemble(c1, data, 3, 0, degrees)
    assert powers == []


def test_growth_lower_empty_report_precedes_the_c1_refusal(capsys):
    argv = "growth lower --tower martinet --type E6 --pprime 3 --c4 100"
    assert entry(argv.split()) == 4
    assert capsys.readouterr().err == "error: conjugacy discount eliminates every degree\n"


def test_reports_run_without_the_digit_limit_getter(capsys, monkeypatch):
    # Python 3.10.0-3.10.6 has neither the int->str limit nor its getter
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert str_digit_limit() == 0
    for argv in ("covolume --tower martinet --type A1",
                 "growth lower --tower martinet --type A1 --pprime 3 --c4 0 --rank-override"):
        assert entry(argv.split()) == 0, argv
        assert "c1: [" in capsys.readouterr().out


def test_help_describes_the_program_not_the_module(capsys):
    for argv in (["--help"], ["-h"], ["--help", "field"]):
        with pytest.raises(SystemExit) as exc:
            entry(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert " ".join(out.split("\n\n")[1].split()) == _DESCRIPTION
        assert "Borwein" not in out


def test_growth_upper_with_a_large_c1_builds_no_power():
    # x^C1 at x = 10^30 and C1 = 10^6 has 10^8 bits: built exactly, the
    # residue-budget test ran for minutes; bit lengths settle it at once
    argv = ["growth", "upper", "--residues", "2:1", "--C1", "1000000", "--x-max", str(10 ** 30)]
    proc = subprocess.run([sys.executable, "-m", "latcount"] + argv,
                          capture_output=True, text=True, env=_latcount_env(), timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert f"\n{10 ** 30} " in proc.stdout  # the scan's last row


@pytest.mark.parametrize("f", [10 ** 6, 10 ** 7])
def test_growth_upper_refuses_an_unprintable_budget_unbuilt(capsys, monkeypatch, f):
    # 3^f has about 0.48 f digits: built exactly, it took up to seconds and
    # ended on the digit limit (exit 1); bit lengths settle it, and the
    # message gives it in factored form
    def no_product(*args):
        raise AssertionError("the residue budget was built")

    monkeypatch.setattr(counting, "prod", no_product, raising=False)
    assert entry(["growth", "upper", "--residues", f"3:{f}"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: prod p^f = 3^{f} exceeds x^C1 with x = 100, C1 = 1\n"


_DIGIT_LIMIT_TEXT = ("Exceeds the limit (4300 digits) for integer string conversion; "
                     "use sys.set_int_max_str_digits() to increase the limit")
_HAS_DIGIT_LIMIT = pytest.mark.skipif(str_digit_limit() == 0,
                                      reason="this Python has no int->str digit limit")


@pytest.mark.parametrize("argv, message", [
    pytest.param("tower --name martinet --levels 10000000000000000000", _DIGIT_LIMIT_TEXT,
                 marks=_HAS_DIGIT_LIMIT),
    pytest.param("growth lower --tower martinet --type A2 --pprime 3 --levels 10000000000000000000",
                 _DIGIT_LIMIT_TEXT, marks=_HAS_DIGIT_LIMIT),
    pytest.param("covolume --tower martinet --type A2 --level 10000000000000000000", _DIGIT_LIMIT_TEXT,
                 marks=_HAS_DIGIT_LIMIT),
    ("covolume --field x^2-5 --type A1 --prime-bound 10000000000000000000",
     "prime bound 10000000000000000000 is past the cap: prime bounds run up to 10000000"),
    ("--prec 100000000000000000000 field --poly x^2-2",
     "precision 100000000000000000000 is past the cap: precisions run up to 32768 bits"),
])
def test_oversized_levels_precisions_and_prime_bounds_are_refused_unbuilt(argv, message):
    # the level's degree base_degree << level, the sieve up to the prime bound
    # and the root iteration at the precision each ended in a traceback
    # (MemoryError or OverflowError); the degree's bit length and the caps
    # refuse them before anything that size is built
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "latcount"] + argv.split(),
                          capture_output=True, text=True, env=_latcount_env(), timeout=10)
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


def test_quadratic_past_the_factoring_cap_prints_no_covolume(capsys):
    # d_K of x^2 - (10^18 + 3) needs the squarefree part of 4 (10^18 + 3),
    # past polymod.MAX_FACTOR: covolume refuses rather than print a bracket
    # built on disc(Z[theta]), and field still prints disc(Z[theta])
    start = time.perf_counter()
    assert entry(["covolume", "--field", "x^2-1000000000000000003", "--type", "A1"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", (
        "error: 4000000000000000012 is past the factoring cap: squarefree parts, and so "
        "the d_K of a quadratic field, are certified for |n| <= 1000000000000000000\n"))
    assert entry(["field", "--poly", "x^2-1000000000000000003"]) == 0
    assert "\ndisc: 4000000000000000012\n" in capsys.readouterr().out
    # at the cap d_K is certified: disc = 4 * 249999999999999999 = 10^18 - 4
    assert entry(["covolume", "--field", "x^2-249999999999999999", "--type", "A1",
                  "--prime-bound", "1000"]) == 0
    assert "\nnesting_check: ok\n" in capsys.readouterr().out


def test_prec_and_prime_bound_caps_sit_at_their_constants(capsys, tmp_path):
    assert (MAX_PREC, MAX_PRIME_BOUND) == (1 << 15, 10 ** 7)
    for argv in (["--prec", str(MAX_PREC), "lie", "dump"], ["--prime-bound", str(MAX_PRIME_BOUND), "lie", "dump"]):
        assert entry(argv) == 0
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    for doc, message in (
        ({"prec": MAX_PREC + 1}, "precision 32769 is past the cap: precisions run up to 32768 bits"),
        ({"prime_bound": MAX_PRIME_BOUND + 1},
         "prime bound 10000001 is past the cap: prime bounds run up to 10000000"),
    ):
        cfg.write_text(json.dumps(doc))
        key, value = next(iter(doc.items()))
        for argv in (["--config", str(cfg), "lie", "dump"],
                     [f"--{key.replace('_', '-')}", str(value), "lie", "dump"]):
            assert entry(argv) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("limit", [4300, 0])
def test_growth_upper_prints_a_printable_budget_exactly(capsys, monkeypatch, limit):
    # 3^9012 has 4300 digits and 3^9013 one more; where Python has no limit
    # (0), the budget is printed as under the default 4300
    monkeypatch.setattr(counting, "str_digit_limit", lambda: limit)
    for f, text in ((9012, str(3 ** 9012)), (9013, "3^9013")):
        assert entry(["growth", "upper", "--residues", f"3:{f}"]) == 5
        assert capsys.readouterr().err == f"error: prod p^f = {text} exceeds x^C1 with x = 100, C1 = 1\n"


def test_digit_limit_error_text_when_parsing(capsys):
    # Python 3.10 words the same int() failure "limit (4300) for"
    assert entry(["field", "--poly", "x^2-" + "7" * 5000]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: Exceeds the limit (4300 digits) for integer string conversion: "
        "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit\n"
    )


def _readme_block(after: str) -> str:
    """The first fenced block of README.md below the line that starts with after."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```\n", text.index("\n" + after)) + 4
    return text[start : text.index("```", start)]


def test_readme_examples(capsys):
    outputs = {}
    for line in _readme_block("Examples:").splitlines():
        program, *argv = shlex.split(line)
        assert program == "latcount", line
        assert entry(argv) == 0, line
        outputs[line] = capsys.readouterr().out
    assert len(outputs) == 12
    field = _readme_block("A field report looks like:")
    assert field[field.index("poly:") :] in outputs['latcount field --poly "x^3-x-1"']
    value = _readme_block("and the rationals' A1 covolume")
    assert value in outputs["latcount covolume --field Q --type A1"]
    value = _readme_block("The A1 covolume over Q(sqrt 5)")
    assert value == "value: [0.008333333333, 0.008333333334]\n"
    assert value in outputs["latcount covolume --field x^2-x-1 --type A1 --prime-bound 10000"]
    value = _readme_block("The A1 covolume over the cyclic cubic field")
    assert value == "value: [0.041666666666, 0.041666666667]\n"
    assert entry(["covolume", "--field", "x^3-x^2-4x-1", "--type", "A1"]) == 0
    assert value in capsys.readouterr().out
    value = _readme_block("Imaginary quadratic fields and odd zeta arguments")
    assert value == "value: [0.004284795203, 0.004284795204]\n"
    assert entry(["covolume", "--field", "x^2+3", "--type", "A1"]) == 0
    assert value in capsys.readouterr().out


def _martinet():
    return tower_lookup("martinet")[0]


def _growth():
    c1 = covolume_upper_c1(_martinet().rd_constant, parse_type("A2"), 2)
    return lower_growth_assemble(c1, parse_type("A2"), 3, 0, [2, 4])


def _rational_extension():
    q = field_from_polynomial("x-1")
    return quadratic_extension(q, q.element([-1]))


# every record type the library returns, as built by the library, and one of its fields
RECORDS = {
    "Polynomial": (lambda: Polynomial((-1, -1, 1)), "coefficients"),
    "BoundParams": (BoundParams, "C1"),
    "LieTypeData": (lambda: parse_type("A2"), "rank"),
    "GrowthRow": (lambda: _growth().rows[0], "included"),
    "GrowthReport": (_growth, "a"),
    "UpperGrowthBound": (lambda: upper_growth_assemble(100, BoundParams(), []), "B"),
    "PisotCertificate": (lambda: find_pisot(field_from_polynomial("x^2-x-1")), "element"),
    "QuadraticExtensionData": (_rational_extension, "t"),
    "TowerEntry": (_martinet, "rd_constant"),
    "SyntheticField": (lambda: fixed_signature_sequence(_martinet(), 1, 1)[0], "rd_bound"),
    "CovolumeResult": (
        lambda: covolume_synthetic(_martinet().rd_constant, 2, parse_type("A1"), 2), "value"
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_reject_attribute_assignment(name):
    build, field = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    for attr in (field, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)


def _latcount_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(latcount.__file__).resolve().parent.parent))


def test_process_entry_freezes_the_import_heap():
    # `python -m latcount` and the `latcount` script both run __main__.main
    code = ("import gc, latcount.__main__ as m; "
            "m.entry = lambda: print(gc.get_freeze_count() > 0) or 0; "
            "raise SystemExit(m.main())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_latcount_env(), timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


def test_import_loads_no_typing_json_csv_or_argparse():
    # every report pays for the import; -S, since a site module may load
    # typing before latcount does
    code = ("import sys, latcount.cli; "
            "print(sorted({'typing', 'json', 'csv', 'argparse'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=_latcount_env(), timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_entry_leaves_the_collector_alone(capsys):
    # tests, the benchmark shim and library callers share entry() in-process
    frozen = gc.get_freeze_count()
    assert entry(["lie", "dump", "--max-rank", "1"]) == 0
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    ("covolume --field Q --type A1 --p0 100000000000000003", 0),
    ("growth lower --tower martinet --type A2 --pprime 100000000000000003 --levels 1", 0),
    ("growth upper --residues 100000000000000003:1 --C1 1 --x-min 100", 5),
])
def test_large_primes_are_certified_fast(argv, code):
    # 10^17 + 3 is prime; trial division to its square root would take minutes
    proc = subprocess.run([sys.executable, "-m", "latcount"] + argv.split(),
                          capture_output=True, text=True, env=_latcount_env(), timeout=10)
    assert proc.returncode == code, proc.stderr
    assert "prime" not in proc.stderr


def test_primality_past_psi_13_is_an_error(capsys):
    assert entry(["covolume", "--field", "Q", "--type", "A1",
                  "--p0", "3317044064679887385961981"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: primality not certified for 3317044064679887385961981")


@pytest.mark.parametrize("argv, loaded", [
    ([], "False False"),
    (["--format", "json"], "True False"),
    (["--format", "csv"], "False True"),
], ids=["table", "json", "csv"])
def test_reports_load_json_and_csv_on_demand(argv, loaded):
    # a field report, and the three commands that read the tower catalog, whose
    # shipped rows are constants: only an --extra file is JSON
    shapes = ("field --poly x^2-2", "tower", "covolume --tower martinet --type A1",
              "growth lower --tower martinet --type A2 --pprime 3 --levels 1")
    code = ("import sys, latcount.__main__ as m\n"
            f"for shape in {shapes!r}:\n"
            f"    sys.argv = ['latcount'] + shape.split() + {argv!r}\n"
            "    code = m.main()\n"
            "    print('RESULT', code, *(name in sys.modules for name in ('json', 'csv')),\n"
            "          file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_latcount_env(), timeout=30)
    assert proc.returncode == 0, proc.stderr
    results = [line for line in proc.stderr.splitlines() if line.startswith("RESULT ")]
    assert results == [f"RESULT 0 {loaded}"] * len(shapes)


_SHAPES = (
    "field --poly x^2-2",
    "pisot --poly x^2-x-1",
    "tower --name martinet --t 1 --levels 1",
    "covolume --field Q --type A1",
    "covolume --tower martinet --type A1",
    "growth lower --tower martinet --type A2 --pprime 3 --levels 1",
    "growth upper --x-max 1000",
    "lie dump --max-rank 1",
)


def test_well_formed_calls_never_load_argparse():
    # one main() per subcommand shape in one fresh process; after each, the
    # parser's stdlib chain (argparse, its gettext and gettext's locale) is
    # still unloaded.  Usage errors and help then still come from argparse.
    code = ("import sys, latcount.__main__ as m\n"
            f"for argv in {_SHAPES + ('field --pol', '--help')!r}:\n"
            "    sys.argv = ['latcount'] + argv.split()\n"
            "    try:\n"
            "        code = m.main()\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "    loaded = [n for n in ('argparse', 'gettext', 'locale') if n in sys.modules]\n"
            "    print('RESULT', argv, code, loaded[:1], file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_latcount_env(), timeout=30)
    assert proc.returncode == 0, proc.stderr
    results = [line for line in proc.stderr.splitlines() if line.startswith("RESULT ")]
    assert results == [f"RESULT {argv} 0 []" for argv in _SHAPES] + [
        "RESULT field --pol 64 ['argparse']", "RESULT --help 0 ['argparse']"]
    assert "latcount field: error: the following arguments are required: --poly\n" in proc.stderr
    assert "usage: latcount [-h]" in proc.stdout


@pytest.mark.parametrize("argv", ["field --poly x^2-2", "lie dump --max-rank 1"])
def test_benchmark_shim_traces_a_plain_call(tmp_path, argv):
    # the shim wraps every layer module it finds in sys.modules right after
    # `import latcount.cli`, so that import must keep loading all of them
    trace = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, str(SHIM), str(trace)] + argv.split(),
                            capture_output=True, env=_latcount_env(), timeout=30)
    plain = subprocess.run([sys.executable, "-m", "latcount"] + argv.split(),
                           capture_output=True, env=_latcount_env(), timeout=30)
    assert traced.returncode == 0, traced.stderr
    assert (traced.stdout, traced.stderr, plain.returncode) == (plain.stdout, plain.stderr, 0)
    assert json.loads(trace.read_text())["calls"]["cli.entry"] == 1

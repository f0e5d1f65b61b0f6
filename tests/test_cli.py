import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

import latcount.numfield as numfield
from latcount.cli import entry
from latcount.counting import BoundParams, lower_growth_assemble, upper_growth_assemble
from latcount.interval import RealInterval, interval_strs
from latcount.liedata import parse_type
from latcount.numfield import Polynomial, field_from_polynomial
from latcount.pisot_tower import (
    find_pisot,
    fixed_signature_sequence,
    quadratic_extension,
    tower_lookup,
)
from latcount.prasad import covolume_synthetic, covolume_upper_c1, prime_splitting

PARAM_KEYS = ["C", "C1", "C2", "c4", "f1", "s_embed"]
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_exhausted_budget_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(numfield, "_MAX_REFINE_ROUNDS", 0)
    assert entry(["pisot", "--poly", "x^2-x-1"]) == 3
    assert capsys.readouterr().err == "error: pisot certification of 1,-1\n"


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["covolume", "--type", "A1"])  # neither --field nor --tower
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        entry(["no-such-command"])
    assert exc.value.code == 64
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


_TOWER_ROW = {"name": "t", "base_degree": 2, "degree_rule": "doubling",
              "rd_constant": ["2", "3"], "total_real": True}


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


_OUTER_A2 = ["covolume", "--field", "x^2-x-1", "--type", "A2", "--outer",
             "--alpha", "0,1", "--prime-bound", "100"]


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
     "outer form needs the relative-discriminant constant c0'"),
])
def test_less_used_flag_errors(capsys, argv, message):
    assert entry(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


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
    assert len(outputs) == 8
    field = _readme_block("A field report looks like:")
    assert field[field.index("poly:") :] in outputs['latcount field --poly "x^3-x-1"']
    value = _readme_block("and the rationals' A1 covolume")
    assert value in outputs["latcount covolume --field Q --type A1"]


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
    "PrimeSplitting": (lambda: prime_splitting(field_from_polynomial("x^2-5"), 5), "ramified"),
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

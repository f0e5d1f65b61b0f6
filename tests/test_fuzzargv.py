import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import fuzzargv  # noqa: E402


def test_fuzzed_argv_fail_only_in_latcount_words():
    # no exception escapes entry, every exit code is README's, no stderr line
    # carries Python's own wording outside KNOWN, and no call reaches its cap
    results = fuzzargv.fuzz(3, 200)
    assert len(results) == 200
    assert [(r.argv, r.problem) for r in results if r.problem] == []
    assert {r.code for r in results} <= fuzzargv.EXIT_CODES
    # the draw reaches what it is meant to: successes, usage errors, the
    # files with wrong types, 18-digit primes, levels past 10^3, flags without
    # the flag they need and sizes past a cap
    text = [" ".join(r.argv) for r in results]
    errors = "".join(r.err for r in results)
    assert " needs --" in errors and "--extra is read only by" in errors
    assert " is past the cap" in errors
    assert {0, 1, 64} <= {r.code for r in results}
    assert any("--config" in t for t in text) and any("--extra" in t for t in text)
    assert any(re.search(r"--(p0|pprime|residues) \d{18}\b", t) for t in text)
    assert any(re.search(r"--levels? \d{4,}", t) for t in text)


def test_fuzzer_known_list_only_shrinks():
    assert set(fuzzargv.KNOWN) <= {5}

"""Run one latcount CLI invocation with the public layer functions wrapped.

    python3 perfbench/shim.py OUT.json ARGV...

The wrapping happens from outside the program: each function in LAYERS is
replaced, in its defining module and in every latcount module that bound it
with `from .x import f`, by a wrapper that records a span.  Span stacks are
per thread, because `--threads 2` runs Euler-product chunks in pool workers;
a span waiting on a worker therefore keeps that wait as its own time.
Spans stay in memory; at exit the per-function call counts and self times
(duration minus the time covered by child spans) are written to OUT.json.
The report on stdout and the exit code are those of the plain CLI.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# layer module -> public functions; "Class.method" names a method
LAYERS = {
    "interval": ["pi_interval", "ln2_interval", "exp_fraction", "ln_fraction",
                 "log2_fraction", "decimal_str", "RealInterval.pow_interval",
                 "RealInterval.pow_frac", "RealInterval.nth_root"],
    "polymod": ["prime_list", "distinct_degree_degrees"],
    "numfield": ["field_from_polynomial", "NumberField.embeddings",
                 "evaluate_at_embeddings", "element_norm", "poly_discriminant",
                 "derived_minkowski_C", "minkowski_norm_bound"],
    "liedata": ["gamma_h"],
    "pisot_tower": ["find_pisot", "reverify_certificate", "certified_signs",
                    "quadratic_extension", "delta_universal", "delta_for_field",
                    "fixed_signature_sequence", "tower_catalog"],
    "prasad": ["prime_splitting", "dedekind_zeta_partial", "euler_product_E",
               "covolume", "covolume_synthetic", "covolume_upper_c1"],
    "counting": ["lower_growth_assemble", "upper_growth_assemble"],
    "cli": ["entry", "Report.render"],
}

# (child, ancestor): count child calls made anywhere below the ancestor
NESTED = [("polymod.distinct_degree_degrees", "prasad.prime_splitting"),
          ("numfield.evaluate_at_embeddings", "pisot_tower.find_pisot")]

_spans = []  # [name, start, end, parent span or None]
_local = threading.local()


def _wrap(name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        span = [name, time.perf_counter(), None, stack[-1] if stack else None]
        _spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
    return traced


def install() -> None:
    modules = {n: m for n, m in sys.modules.items()
               if n == "latcount" or n.startswith("latcount.")}
    for layer, names in LAYERS.items():
        mod = modules["latcount." + layer]
        for qual in names:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = owner.__dict__[attr]
            wrapped = _wrap(f"{layer}.{qual}", original)
            setattr(owner, attr, wrapped)
            if owner_name:
                continue
            for other in modules.values():  # rebind `from .x import f` copies
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)


def summarize() -> dict:
    index = {id(span): i for i, span in enumerate(_spans)}
    parents = [index[id(s[3])] if s[3] is not None else -1 for s in _spans]
    child_time = [0.0] * len(_spans)
    for (name, start, end, _), parent in zip(_spans, parents):
        if parent >= 0 and end is not None:
            child_time[parent] += end - start
    calls, self_s = {}, {}
    for i, (name, start, end, _) in enumerate(_spans):
        calls[name] = calls.get(name, 0) + 1
        if end is not None:
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
    nested = {}
    for child, ancestor in NESTED:
        count = 0
        for i, span in enumerate(_spans):
            if span[0] != child:
                continue
            j = parents[i]
            while j >= 0 and _spans[j][0] != ancestor:
                j = parents[j]
            count += j >= 0
        nested[f"{child}<{ancestor}"] = count
    return {"calls": calls, "self_s": self_s, "nested": nested}


def main(argv: list) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import latcount.cli  # noqa: F401  (timed: the import every call pays)
    import_s = time.perf_counter() - t0
    install()
    code = 1
    try:
        code = sys.modules["latcount.cli"].entry(cli_argv)
    finally:
        sys.stdout.flush()
        doc = summarize()
        doc["import_s"] = import_s
        doc["exit"] = code
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

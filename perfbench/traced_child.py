"""Run one `bc2mvop` command with every layer of `layers.py` traced.

Usage: python3 perfbench/traced_child.py verify [options]

The command's own output goes to stdout unchanged.  The trace goes to the
last line of stderr, after the marker `TRACE_MARKER`, as one JSON object.
The exit code is the command's.
"""
from __future__ import annotations

import json
import sys

import layers
import tracer

TRACE_MARKER = "PERFBENCH_TRACE "


def coeff_bits(mat) -> int:
    """Largest numerator or denominator bit height over a PolyMatrix."""
    best = 0
    for i in range(mat.rows):
        for j in range(mat.cols):
            for c in mat.entry(i, j).terms.values():
                best = max(best, abs(c.numerator).bit_length(),
                           c.denominator.bit_length())
    return best


def main(argv: list[str]) -> int:
    from bc2mvop import cli

    modules = {name: mod for name, mod in sys.modules.items()
               if name == layers.PKG or name.startswith(layers.PKG + ".")}
    tr = tracer.Tracer()
    done = tracer.install(tr, layers.targets(), modules)
    try:
        code = tr.span(layers.ROOT_LABEL, cli.main, argv)
    finally:
        tracer.uninstall(done)
        sys.stdout.flush()

    stats = {label: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s}
             for label, s in tr.stats.items()}
    caches = {}
    for layer in layers.LAYERS:
        fn = getattr(modules.get(layer.module), layer.cache or "", None)
        if fn is not None:
            info = fn.cache_info()
            caches[layer.label] = {"hits": info.hits, "misses": info.misses}
    family = {id(mat): mat for layer in layers.LAYERS if layer.family
              for mat in tr.results.get(layer.label, [])}
    trace = {
        "stats": stats,
        "caches": caches,
        "found": sorted(done.found),
        "missing": done.missing,
        "family_max_coeff_bits": max(map(coeff_bits, family.values()), default=0),
    }
    sys.stderr.write("\n" + TRACE_MARKER + json.dumps(trace) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

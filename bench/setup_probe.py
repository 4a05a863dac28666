"""Set-up probe: time a fresh-process ``import conjscope`` plus building
every model of a workload, and print the seconds.

Usage: python3 bench/setup_probe.py SRC_DIR < spec.json

The spec lists catalog entries as ``[[name, params], ...]`` under
``"catalog"`` and generic pairs as ``[{"coords", "X", "vframe"}, ...]``
under ``"generic"``.  Building means ``catalog.build`` or ``GenericPair``
construction, which parses every expression.
"""

import json
import sys
import time


def main():
    spec = json.load(sys.stdin)
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    from conjscope import catalog, pair

    for name, params in spec.get("catalog", []):
        catalog.build(name, params)
    # built here rather than through inputs.build_pair: importing inputs
    # would load numpy before the clock starts
    for g in spec.get("generic", []):
        pair.GenericPair(coords=tuple(g["coords"]), X=tuple(g["X"]),
                         vframe=tuple(tuple(col) for col in g["vframe"]))
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()

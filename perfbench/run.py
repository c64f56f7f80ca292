"""Run one workload of the scivid benchmark and print its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload infer-t128 --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def limit_blas_threads():
    """One process, with at most as many BLAS threads as usable cores.

    Must run before numpy is imported.
    """
    cores = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", cores))
    except ValueError:
        wanted = cores
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(wanted, cores)))
    return cores


def blas_threads():
    """Threads of the BLAS that numpy loaded, asked from the library itself."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def sgemm_gmac_per_s(m=128, k=864, n=16384, repeats=5):
    """Median float32 GEMM rate at a conv-like shape, in GMAC/s."""
    import statistics
    import time

    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return m * k * n / statistics.median(times) / 1e9


def environment(cores):
    import platform

    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": cores,
        "sgemm_128x864x16384_gmac_per_s": round(sgemm_gmac_per_s(), 3),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scivid" / "__init__.py").is_file():
        print(f"error: no scivid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cores = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import scivid
    if not Path(scivid.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported scivid from {scivid.__file__}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    env = environment(cores)
    records = result["records"]
    failed = sum(1 for r in records if r.error)
    for i, r in enumerate(records):
        if r.error:
            print(f"operation {i} failed: {r.error}", file=sys.stderr)
    for reason in result["run_errors"]:
        print(f"check failed: {reason}", file=sys.stderr)
    if args.trace:
        import tracer
        values = dict(result["per_layer"],
                      **{"machine.sgemm_gmac_per_s": env["sgemm_128x864x16384_gmac_per_s"]})
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in tracer.PER_LAYER.items()}
    else:
        metrics = {k: {"value": result["end_to_end"][k], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "op_seconds": [round(r.duration, 6) for r in records]}))
    print(json.dumps({"correct": not result["run_errors"], "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the MapReduce stack: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload wordcount-bulk --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the human-readable report.  Workloads, labels and the
layer -> metric map are in ``perfbench/workloads.json``.

This file only isolates the run (it must happen before the package is
imported) and cleans up after it; the benchmark itself is
``perfbench/bench.py``.
"""

import time

#: Process start as far as the benchmark can see it: setup_s counts
#: from here.
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def isolate() -> Path:
    """Clear every inherited ``REPRO_*`` variable and point the ledger,
    the spill store and ``tempfile`` at a fresh directory of this run,
    inside the benchmark's own directory."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    base = HERE / ".run"
    base.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    for sub in ("ledger", "spill", "tmp"):
        (run_dir / sub).mkdir()
    os.environ["REPRO_LEDGER_DIR"] = str(run_dir / "ledger")
    os.environ["REPRO_SPILL_DIR"] = str(run_dir / "spill")
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    tempfile.tempdir = None  # re-read TMPDIR on next use
    return run_dir


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed; every input is derived from it")
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the timed rounds run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {SRC}", file=sys.stderr)
        return 2
    run_dir = isolate()
    try:
        sys.path.insert(0, str(SRC))
        sys.path.insert(0, str(HERE))
        import bench

        if args.setup_probe:
            return bench.setup_probe(args, T_START)
        return bench.run(args, T_START, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (HERE / ".run").rmdir()
        except OSError:
            pass  # another run still holds a directory there


if __name__ == "__main__":
    sys.exit(main())

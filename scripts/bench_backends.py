"""Benchmark the fast and parallel backends: wall-clock only.

Two artifacts, committed at the repo root as the PRs' perf evidence:

* ``BENCH_backend.json`` — FastBackend vs SimBackend on wordcount and
  kmeans at two sizes.  The quantity compared is *host wall-clock
  seconds to execute the job* — the simulator's virtual cycle counts
  are its product, not its cost; the fast backend's cycles are zero
  by design.  Acceptance bar: >= 20x on medium wordcount.
* ``BENCH_parallel.json`` (``--parallel``) — ParallelBackend vs
  FastBackend's record loop (the spec with its batch kernels stripped,
  the work each worker runs) on medium/large wordcount and kmeans,
  sweeping worker counts.  Acceptance bar: >= 2x on medium wordcount
  with 4 workers **on a multi-core host** — the artifact records ``cpu_count`` so a
  single-core container's numbers (where a process pool can only add
  overhead) are legible as such.
* ``BENCH_obs.json`` (``--obs``) — observability overhead on the fast
  backend: the same job with everything off (no tracer, ledger
  disabled) vs everything on (dual-clock tracer + run ledger).
  Acceptance bar: < 5% overhead.
* ``BENCH_spill.json`` (``--spill``) — spill-store cost sweep on the
  fast and parallel backends: each case first measures its
  intermediate working set (a spill run under an effectively infinite
  budget reports its tracked peak), then re-runs with the budget at
  100%, 50% and 10% of that, recording wall seconds, runs written and
  bytes spilled.  Informational — out-of-core capacity is the point;
  the overhead column prices it.
* ``BENCH_columnar.json`` (``--columnar``) — the fast backend on the
  four workloads with batch kernels: each spec as shipped (batch
  kernels + column group-by) vs the same spec with its kernels
  stripped (record loop + dict group-by), outputs cross-checked
  byte-for-byte per case.  Acceptance bar: >= 5x on medium kmeans.
* ``BENCH_dist.json`` (``--dist``) — DistributedBackend (coordinator +
  socket workers) vs FastBackend's record loop, sweeping worker
  counts, plus a fault-recovery leg (one scripted mid-job worker kill
  at 2 workers).
  Informational — dist prices fault tolerance, not speed: every pair
  crosses a socket (as binary record columns), so on a small
  single-host job the honest number is *below* 1x; what the artifact
  shows is how much a worker death costs on top (outputs cross-checked
  per case).

Usage::

    PYTHONPATH=src python scripts/bench_backends.py [--out PATH]
    PYTHONPATH=src python scripts/bench_backends.py --parallel \\
        [--parallel-out PATH] [--workers 1,2,4,8]
    PYTHONPATH=src python scripts/bench_backends.py --obs [--obs-out PATH]
    PYTHONPATH=src python scripts/bench_backends.py --spill [--spill-out PATH]
    PYTHONPATH=src python scripts/bench_backends.py --columnar \\
        [--columnar-out PATH]
    PYTHONPATH=src python scripts/bench_backends.py --dist \\
        [--dist-out PATH] [--workers 1,2,4]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import replace
from pathlib import Path

from repro.backend import FastBackend, ParallelBackend
from repro.framework.job import run_job
from repro.framework.modes import MemoryMode, ReduceStrategy
from repro.workloads import Histogram, KMeans, LinearRegression, WordCount

CASES = [
    ("wordcount", WordCount, "small"),
    ("wordcount", WordCount, "medium"),
    ("kmeans", KMeans, "small"),
    ("kmeans", KMeans, "medium"),
]

PARALLEL_CASES = [
    ("wordcount", WordCount, "medium", ReduceStrategy.TR),
    ("wordcount", WordCount, "medium", ReduceStrategy.BR),
    ("wordcount", WordCount, "large", ReduceStrategy.BR),
    ("kmeans", KMeans, "medium", ReduceStrategy.BR),
]

OBS_CASES = [
    ("wordcount", WordCount, "medium"),
    ("kmeans", KMeans, "medium"),
]

SPILL_CASES = [
    ("wordcount", WordCount, "medium"),
    ("kmeans", KMeans, "medium"),
]

COLUMNAR_CASES = [
    ("wordcount", WordCount, "medium"),
    ("kmeans", KMeans, "small"),
    ("kmeans", KMeans, "medium"),
    ("histogram", Histogram, "medium"),
    ("linearreg", LinearRegression, "medium"),
]

DIST_CASES = [
    ("wordcount", WordCount, "medium", ReduceStrategy.TR),
    ("wordcount", WordCount, "medium", ReduceStrategy.BR),
    ("kmeans", KMeans, "medium", ReduceStrategy.BR),
]


def _record_loop(spec):
    """The spec with its batch kernels stripped: the per-record work a
    sharded backend's workers run, so a speedup over it on the fast
    backend measures scaling, not the kernels."""
    return replace(spec, map_batch=None, reduce_batch=None)


def _time_run(spec, inp, backend, repeats: int,
              strategy=ReduceStrategy.TR) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_job(spec, inp, mode=MemoryMode.SIO, strategy=strategy,
                backend=backend)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_parallel(out_path: str, repeats: int, workers: list[int]) -> int:
    """Sweep ParallelBackend worker counts against FastBackend."""
    results = []
    for name, cls, size, strategy in PARALLEL_CASES:
        w = cls()
        inp = w.generate(size, seed=0)
        spec = w.spec_for_size(size, seed=0)
        fast_s = _time_run(_record_loop(spec), inp, "fast", repeats,
                           strategy)
        row = {
            "workload": name,
            "size": size,
            "strategy": strategy.value,
            "records": len(inp),
            "fast_wall_s": round(fast_s, 4),
            "parallel": {},
        }
        for n in workers:
            backend = ParallelBackend(workers=n, min_records=0)
            par_s = _time_run(spec, inp, backend, repeats, strategy)
            row["parallel"][str(n)] = {
                "wall_s": round(par_s, 4),
                "speedup_vs_fast": round(fast_s / par_s, 2),
            }
            print(f"{name:10s} {size:6s} {strategy.value} "
                  f"workers={n}  fast {fast_s:8.4f}s  "
                  f"parallel {par_s:8.4f}s  {fast_s / par_s:6.2f}x")
        results.append(row)

    doc = {
        "description": "Wall-clock: ParallelBackend (sharded "
                       "multiprocessing, per-shard combine under BR) vs "
                       "FastBackend's record loop (batch kernels "
                       "stripped, as in the workers), mode=SIO, best of "
                       "N runs.  Speedup "
                       "requires real cores: on a single-core host the "
                       "pool can only add dispatch overhead.",
        "repeats": repeats,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workers_swept": workers,
        "results": results,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")

    medium_wc = next(r for r in results
                     if r["workload"] == "wordcount" and r["size"] == "medium")
    four = medium_wc["parallel"].get("4")
    if four is not None and four["speedup_vs_fast"] < 2:
        print(f"WARNING: medium wordcount speedup {four['speedup_vs_fast']}x "
              f"with 4 workers is below the 2x acceptance bar "
              f"(cpu_count={os.cpu_count()})")
        return 0 if (os.cpu_count() or 1) < 4 else 1
    return 0


def bench_obs(out_path: str, repeats: int) -> int:
    """Observability overhead: fast backend with obs off vs fully on.

    *Off* is the zero-instrumentation floor (no tracer attached,
    ``REPRO_LEDGER=0``); *on* is what ``repro-trace`` does — a
    dual-clock :class:`Tracer` plus a ledger append per run (pointed
    at a temp dir so the benchmark doesn't pollute ``.repro/``).
    """
    import tempfile

    from repro.obs.tracer import Tracer

    def timed(spec, inp, tracer_factory) -> float:
        best = float("inf")
        for _ in range(repeats):
            tracer = tracer_factory() if tracer_factory else None
            t0 = time.perf_counter()
            run_job(spec, inp, mode=MemoryMode.SIO,
                    strategy=ReduceStrategy.TR, backend="fast",
                    tracer=tracer)
            best = min(best, time.perf_counter() - t0)
        return best

    saved = {k: os.environ.get(k) for k in ("REPRO_LEDGER",
                                            "REPRO_LEDGER_DIR")}
    results = []
    try:
        for name, cls, size in OBS_CASES:
            w = cls()
            inp = w.generate(size, seed=0)
            spec = w.spec_for_size(size, seed=0)
            os.environ["REPRO_LEDGER"] = "0"
            off_s = timed(spec, inp, None)
            with tempfile.TemporaryDirectory() as tmp:
                os.environ["REPRO_LEDGER"] = "1"
                os.environ["REPRO_LEDGER_DIR"] = tmp
                on_s = timed(
                    spec, inp,
                    lambda: Tracer(kernel_detail=False, wall_clock=True),
                )
            overhead = (on_s - off_s) / off_s
            results.append({
                "workload": name,
                "size": size,
                "records": len(inp),
                "obs_off_wall_s": round(off_s, 4),
                "obs_on_wall_s": round(on_s, 4),
                "overhead_pct": round(overhead * 100, 2),
            })
            print(f"{name:10s} {size:6s} obs-off {off_s:8.4f}s  "
                  f"obs-on {on_s:8.4f}s  overhead {overhead:+7.2%}")
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v

    doc = {
        "description": "Observability overhead on the fast backend: "
                       "obs-off = no tracer + REPRO_LEDGER=0; obs-on = "
                       "dual-clock Tracer (kernel_detail off, as "
                       "repro-trace uses for fast) + one ledger append. "
                       "Best of N runs; bar: < 5% overhead.",
        "repeats": repeats,
        "python": platform.python_version(),
        "results": results,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")

    worst = max(r["overhead_pct"] for r in results)
    if worst >= 5.0:
        print(f"WARNING: observability overhead {worst:.2f}% is above "
              "the 5% acceptance bar")
        return 1
    return 0


def bench_spill(out_path: str, repeats: int) -> int:
    """Spill-store sweep: budgets at 100%/50%/10% of the working set.

    The working set is what the spill store itself reports: under an
    effectively infinite budget nothing spills, so the store's tracked
    peak *is* the intermediate footprint.  Each budgeted run records
    wall seconds (best of N), runs written, bytes spilled and the
    overhead against the unbounded memory store on the same backend.
    """
    backends = [
        ("fast", lambda: "fast"),
        ("parallel", lambda: ParallelBackend(workers=4, min_records=0)),
    ]

    def timed(spec, inp, make, store=None, budget=None):
        best, result = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = run_job(spec, inp, mode=MemoryMode.SIO,
                             strategy=ReduceStrategy.TR, backend=make(),
                             store=store, memory_budget=budget)
            best = min(best, time.perf_counter() - t0)
        return best, result

    results = []
    for name, cls, size in SPILL_CASES:
        w = cls()
        inp = w.generate(size, seed=0)
        spec = w.spec_for_size(size, seed=0)
        for backend_name, make in backends:
            memory_s, _ = timed(spec, inp, make)
            probe_s, probe = timed(spec, inp, make,
                                   store="spill", budget=1 << 40)
            working_set = probe.reduce_stats.extra["store_peak_bytes"]
            row = {
                "workload": name,
                "size": size,
                "backend": backend_name,
                "records": len(inp),
                "working_set_bytes": working_set,
                "memory_wall_s": round(memory_s, 4),
                "spill": {},
            }
            sweeps = [("100%", working_set), ("50%", working_set // 2),
                      ("10%", working_set // 10)]
            for label, budget in sweeps:
                wall_s, res = timed(spec, inp, make,
                                    store="spill", budget=max(64, budget))
                extra = res.reduce_stats.extra
                row["spill"][label] = {
                    "budget_bytes": max(64, budget),
                    "wall_s": round(wall_s, 4),
                    "overhead_vs_memory": round(wall_s / memory_s - 1, 3),
                    "spill_runs": extra["spill_runs"],
                    "spilled_bytes": extra["spilled_bytes"],
                    "store_peak_bytes": extra["store_peak_bytes"],
                }
                print(f"{name:10s} {size:6s} {backend_name:8s} "
                      f"budget={label:4s}  memory {memory_s:8.4f}s  "
                      f"spill {wall_s:8.4f}s  "
                      f"({wall_s / memory_s - 1:+7.1%})  "
                      f"runs={extra['spill_runs']}")
            results.append(row)

    doc = {
        "description": "Spill-store cost sweep: fast and parallel "
                       "backends, mode=SIO strategy=TR, budgets at "
                       "100%/50%/10% of the measured intermediate "
                       "working set (the spill store's tracked peak "
                       "under an infinite budget).  Best of N runs; "
                       "informational — prices out-of-core capacity.",
        "repeats": repeats,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0


def bench_columnar(out_path: str, repeats: int) -> int:
    """Batch kernels vs the record loop, both on the fast backend.

    Both runs share the input; the scalar run strips the spec's
    ``map_batch``/``reduce_batch``.  Every case additionally
    cross-checks that the batched output is byte-identical to the
    record loop's (the differential suite's contract, re-asserted on
    the benchmark sizes).
    """
    results = []
    mismatches = 0
    for name, cls, size in COLUMNAR_CASES:
        w = cls()
        inp = w.generate(size, seed=0)
        spec = w.spec_for_size(size, seed=0)
        plain = _record_loop(spec)
        scalar = run_job(plain, inp, mode=MemoryMode.SIO,
                         strategy=ReduceStrategy.TR, backend="fast")
        col = run_job(spec, inp, mode=MemoryMode.SIO,
                      strategy=ReduceStrategy.TR, backend="fast")
        identical = col.output == scalar.output
        if not identical:
            mismatches += 1
        fast_s = _time_run(plain, inp, FastBackend(), repeats)
        col_s = _time_run(spec, inp, FastBackend(), repeats)
        row = {
            "workload": name,
            "size": size,
            "records": len(inp),
            "fast_wall_s": round(fast_s, 4),
            "columnar_wall_s": round(col_s, 4),
            "speedup": round(fast_s / col_s, 2),
            "map_vectorized": col.map_stats.extra.get(
                "columnar_map_vectorized", 0) > 0,
            "reduce_vectorized": col.reduce_stats.extra.get(
                "columnar_reduce_vectorized", 0) > 0,
            "output_identical": identical,
        }
        results.append(row)
        print(f"{name:10s} {size:6s} {len(inp):7d} records  "
              f"fast {fast_s:8.4f}s  columnar {col_s:8.4f}s  "
              f"{row['speedup']:6.2f}x  "
              f"{'identical' if identical else 'MISMATCH'}")

    doc = {
        "description": "Wall-clock on the fast backend: each spec "
                       "as shipped (columnar_wall_s: batch kernels + "
                       "column group-by) vs the same spec with "
                       "map_batch/reduce_batch stripped (fast_wall_s: "
                       "record loop + dict group-by), mode=SIO "
                       "strategy=TR, best of N runs; outputs "
                       "cross-checked byte-for-byte per case. "
                       "Bar: >= 5x on medium kmeans.",
        "repeats": repeats,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")

    if mismatches:
        print(f"ERROR: {mismatches} case(s) produced non-identical "
              "columnar output")
        return 1
    medium_km = next(r for r in results
                     if r["workload"] == "kmeans" and r["size"] == "medium")
    if medium_km["speedup"] < 5:
        print(f"WARNING: medium kmeans columnar speedup "
              f"{medium_km['speedup']}x is below the 5x acceptance bar")
        return 1
    return 0


def bench_dist(out_path: str, repeats: int, workers: list[int]) -> int:
    """DistributedBackend sweep vs FastBackend, plus fault recovery.

    Every case first cross-checks the dist output against the fast
    run (the differential contract, re-asserted at benchmark sizes),
    then times the sweep.  The fault-recovery leg runs at 2 workers
    with one scripted kill halfway through the input, pricing a
    worker death — re-execution, rescheduling and all — against the
    faultless dist run.  It pins task placement (``deterministic``):
    under first-idle-wins scheduling the faster worker can take most
    splits, and worker 0 may never reach the kill point.
    """
    from repro.backend import DistributedBackend
    from repro.dist import FaultPlan

    results = []
    mismatches = 0
    for name, cls, size, strategy in DIST_CASES:
        w = cls()
        inp = w.generate(size, seed=0)
        spec = w.spec_for_size(size, seed=0)
        fast_res = run_job(_record_loop(spec), inp, mode=MemoryMode.SIO,
                           strategy=strategy, backend="fast")
        fast_s = _time_run(_record_loop(spec), inp, "fast", repeats,
                           strategy)
        row = {
            "workload": name,
            "size": size,
            "strategy": strategy.value,
            "records": len(inp),
            "fast_wall_s": round(fast_s, 4),
            "dist": {},
        }
        base2_s = None
        for n in workers:
            backend = DistributedBackend(workers=n, min_records=0)
            check = run_job(spec, inp, mode=MemoryMode.SIO,
                            strategy=strategy, backend=backend)
            identical = check.output == fast_res.output
            if not identical:
                mismatches += 1
            dist_s = _time_run(spec, inp, backend, repeats, strategy)
            if n == 2:
                base2_s = dist_s
            row["dist"][str(n)] = {
                "wall_s": round(dist_s, 4),
                "speedup_vs_fast": round(fast_s / dist_s, 2),
                "output_identical": identical,
            }
            print(f"{name:10s} {size:6s} {strategy.value} "
                  f"workers={n}  fast {fast_s:8.4f}s  "
                  f"dist {dist_s:8.4f}s  {fast_s / dist_s:6.2f}x  "
                  f"{'identical' if identical else 'MISMATCH'}")

        plan = FaultPlan.kill(0, max(1, len(inp) // 2), phase="map")
        faulted = DistributedBackend(workers=2, min_records=0,
                                     fault_plan=plan, deterministic=True)
        fres = run_job(spec, inp, mode=MemoryMode.SIO, strategy=strategy,
                       backend=faulted)
        identical = fres.output == fast_res.output
        if not identical:
            mismatches += 1
        fault_s = _time_run(spec, inp, faulted, repeats, strategy)
        row["fault_recovery"] = {
            "plan": plan.describe(),
            "wall_s": round(fault_s, 4),
            "overhead_vs_dist2": (round(fault_s / base2_s - 1, 3)
                                  if base2_s else None),
            "worker_deaths": faulted.last_counters.get("worker_deaths", 0),
            "retries": faulted.last_counters.get("retries", 0),
            "output_identical": identical,
        }
        print(f"{name:10s} {size:6s} {strategy.value} "
              f"kill@mid-map      dist2 {base2_s or 0:8.4f}s  "
              f"faulted {fault_s:8.4f}s  "
              f"{'identical' if identical else 'MISMATCH'}")
        results.append(row)

    doc = {
        "description": "Wall-clock: DistributedBackend (coordinator + "
                       "socket workers; record batches travel as "
                       "binary blob + u32-length columns behind a JSON "
                       "control header) vs FastBackend's record loop, "
                       "mode=SIO, "
                       "best of N runs, outputs cross-checked per case. "
                       " Informational: dist prices fault tolerance — "
                       "socket serialisation makes sub-1x the honest "
                       "single-host number; the fault_recovery row is "
                       "the cost of one worker death on top.",
        "repeats": repeats,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workers_swept": workers,
        "results": results,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")

    if mismatches:
        print(f"ERROR: {mismatches} case(s) produced non-identical "
              "dist output")
        return 1
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_backend.json"))
    p.add_argument("--repeats", type=int, default=3,
                   help="take the best of N runs per backend")
    p.add_argument("--parallel", action="store_true",
                   help="benchmark ParallelBackend vs FastBackend "
                        "instead of fast vs sim")
    p.add_argument("--parallel-out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_parallel.json"))
    p.add_argument("--workers", default="1,2,4,8",
                   help="comma-separated worker counts for --parallel")
    p.add_argument("--obs", action="store_true",
                   help="benchmark observability overhead (tracer + "
                        "ledger) on the fast backend")
    p.add_argument("--obs-out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_obs.json"))
    p.add_argument("--spill", action="store_true",
                   help="sweep spill-store budgets (100%%/50%%/10%% of "
                        "the working set) on the fast and parallel "
                        "backends")
    p.add_argument("--spill-out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_spill.json"))
    p.add_argument("--columnar", action="store_true",
                   help="benchmark the batch-kernel workloads on the "
                        "fast backend with and without their kernels")
    p.add_argument("--columnar-out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_columnar.json"))
    p.add_argument("--dist", action="store_true",
                   help="benchmark DistributedBackend vs FastBackend, "
                        "sweeping --workers, plus a fault-recovery leg")
    p.add_argument("--dist-out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_dist.json"))
    args = p.parse_args(argv)

    if args.dist:
        workers = [int(n) for n in args.workers.split(",") if n.strip()]
        return bench_dist(args.dist_out, args.repeats, workers)
    if args.columnar:
        return bench_columnar(args.columnar_out, args.repeats)
    if args.spill:
        return bench_spill(args.spill_out, args.repeats)
    if args.obs:
        return bench_obs(args.obs_out, args.repeats)
    if args.parallel:
        workers = [int(n) for n in args.workers.split(",") if n.strip()]
        return bench_parallel(args.parallel_out, args.repeats, workers)

    results = []
    for name, cls, size in CASES:
        w = cls()
        inp = w.generate(size, seed=0)
        spec = w.spec_for_size(size, seed=0)
        sim_s = _time_run(spec, inp, "sim", args.repeats)
        fast_s = _time_run(spec, inp, "fast", args.repeats)
        row = {
            "workload": name,
            "size": size,
            "records": len(inp),
            "sim_wall_s": round(sim_s, 4),
            "fast_wall_s": round(fast_s, 4),
            "speedup": round(sim_s / fast_s, 1),
        }
        results.append(row)
        print(f"{name:10s} {size:6s} {len(inp):7d} records  "
              f"sim {sim_s:8.3f}s  fast {fast_s:8.4f}s  "
              f"{row['speedup']:7.1f}x")

    doc = {
        "description": "Wall-clock: FastBackend vs SimBackend, "
                       "mode=SIO strategy=TR, full GTX 280 config, "
                       "best of N runs",
        "repeats": args.repeats,
        "python": platform.python_version(),
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    medium_wc = next(r for r in results
                     if r["workload"] == "wordcount" and r["size"] == "medium")
    if medium_wc["speedup"] < 20:
        print(f"WARNING: medium wordcount speedup {medium_wc['speedup']}x "
              "is below the 20x acceptance bar")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``repro-bench`` — command-line runner for the paper's experiments.

Examples::

    repro-bench table2
    repro-bench fig5-map --workload WC --size medium
    repro-bench fig6 --workload KM
    repro-bench fig7
    repro-bench fig8 --workload II
    repro-bench validate                # oracle conformance matrix
    repro-bench validate --autotune     # tuner's pick vs the oracle
    repro-bench autotune                # tuned-vs-fixed benchmark + gates
    repro-bench profile --workload WC   # per-mode derived metrics
    repro-bench all --size small
    repro-bench table2 --profile        # host-side cProfile of the run
    repro-bench fig7 --profile fig7.pstats --profile-top 30

All experiments run on the full simulated GTX 280 unless ``--mps``
shrinks the device for speed.

``--profile`` wraps any command in :mod:`cProfile` and prints the
hottest host functions (the ``profile`` *command*, by contrast,
reports simulated per-mode metrics).  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..framework.modes import ReduceStrategy
from ..gpu.config import DeviceConfig
from ..workloads import (
    ALL_WORKLOADS,
    Histogram,
    InvertedIndex,
    KMeans,
    LinearRegression,
    MatrixMultiplication,
    SimilarityScore,
    StringMatch,
    WordCount,
)
from . import figures, report, tables
from .metrics import compare_modes, derive_metrics
from .validation import validate_all

_BY_CODE = {
    "WC": WordCount,
    "MM": MatrixMultiplication,
    "SM": StringMatch,
    "II": InvertedIndex,
    "KM": KMeans,
    # Extras beyond Table I (Mars/Phoenix suites).
    "SS": SimilarityScore,
    "HG": Histogram,
    "LR": LinearRegression,
}


def _workloads(arg: str | None):
    if arg is None:
        return [cls() for cls in ALL_WORKLOADS]
    out = []
    for code in arg.split(","):
        cls = _BY_CODE.get(code.strip().upper())
        if cls is None:
            known = ", ".join(_BY_CODE)
            print(f"repro-bench: unknown workload code {code.strip()!r}; "
                  f"known codes: {known}", file=sys.stderr)
            raise SystemExit(2)
        out.append(cls())
    return out


def _config(args) -> DeviceConfig:
    if args.mps:
        return DeviceConfig.small(args.mps)
    return DeviceConfig.gtx280()


def cmd_table1(args) -> None:
    print(report.render_table1(tables.table1(_workloads(args.workload))))


def cmd_table2(args) -> None:
    rows = [
        tables.measure_table2_row(w, args.size, scale=args.scale)
        for w in _workloads(args.workload)
    ]
    print(report.render_table2(rows))


def cmd_fig5_map(args) -> None:
    for w in _workloads(args.workload):
        res = figures.fig5_map_sweep(
            w, size=args.size, config=_config(args), scale=args.scale
        )
        print(report.render_map_sweep(res))
        print()


def cmd_fig5_reduce(args) -> None:
    for w in _workloads(args.workload or "WC,KM"):
        if not w.has_reduce:
            continue
        for strat in (ReduceStrategy.TR, ReduceStrategy.BR):
            res = figures.fig5_reduce_sweep(
                w, strat, size=args.size, config=_config(args), scale=args.scale
            )
            print(report.render_reduce_sweep(res))
            print()


def cmd_fig6(args) -> None:
    rows = []
    for w in _workloads(args.workload):
        rows += figures.fig6_end_to_end(
            w, sizes=(args.size,), config=_config(args), scale=args.scale
        )
    print(report.render_end_to_end(rows))


def cmd_fig7(args) -> None:
    rows = []
    for w in _workloads(args.workload):
        rows += figures.fig7_speedup_over_mars(
            w, size=args.size, config=_config(args), scale=args.scale
        )
    print(report.render_speedups(rows))


def cmd_fig8(args) -> None:
    rows = []
    for w in _workloads(args.workload):
        rows += figures.fig8_yield_sweep(
            w, size=args.size, config=_config(args), scale=args.scale
        )
    print(report.render_yield(rows))


def cmd_validate(args) -> None:
    from ..errors import FrameworkError
    from ..store import parse_budget, resolve_budget

    backend = args.backend
    try:
        if args.workers is not None:
            if backend == "dist":
                from ..backend import DistributedBackend

                backend = DistributedBackend(workers=args.workers)
            else:
                from ..backend import ParallelBackend

                backend = ParallelBackend(workers=args.workers)
        # parse_budget used to escape as a raw traceback on input like
        # "1.5m"; surface it (and a malformed $REPRO_MEMORY_BUDGET or
        # a bad $REPRO_BACKEND) as the documented exit-2 usage error.
        memory_budget = parse_budget(args.memory_budget)
        resolve_budget(memory_budget)
        if isinstance(backend, str) or backend is None:
            from ..backend import get_backend

            if backend is not None or os.environ.get("REPRO_BACKEND"):
                backend = get_backend(backend)
    except FrameworkError as exc:
        print(f"repro-bench: {exc}", file=sys.stderr)
        raise SystemExit(2) from None

    rep = validate_all(
        _workloads(args.workload), size=args.size, scale=args.scale,
        config=_config(args) if args.mps else None,
        backend=backend,
        store=args.store,
        memory_budget=memory_budget,
        mode=args.mode,
    )
    print(rep.render())
    if not rep.passed:
        raise SystemExit(1)


def cmd_autotune(args) -> None:
    from ..tune.bench import check_report, render_report, run_autotune_bench

    report = run_autotune_bench(
        mps=args.mps or 4,
        out_path=args.out,
        progress=(lambda msg: print(f"  {msg}", file=sys.stderr))
        if args.verbose else None,
    )
    print(render_report(report))
    if args.out:
        print(f"\nwrote {args.out}")
    if check_report(report):
        raise SystemExit(1)


def cmd_profile(args) -> None:
    from ..framework.modes import ALL_MODES

    cfg = _config(args)
    for w in _workloads(args.workload):
        metrics = {}
        for mode in ALL_MODES:
            try:
                st = figures.run_map_kernel(
                    w, mode, size=args.size, scale=args.scale, config=cfg
                )
            except Exception:
                continue
            metrics[mode.value] = derive_metrics(st, cfg)
        print(f"{w.title} Map-kernel profile ({args.size}):")
        print(compare_modes(metrics))
        print()


def cmd_all(args) -> None:
    cmd_table1(args)
    print()
    cmd_table2(args)
    print()
    cmd_fig5_map(args)
    cmd_fig5_reduce(args)
    cmd_fig6(args)
    print()
    cmd_fig7(args)
    print()
    cmd_fig8(args)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="repro-bench", description=__doc__)
    p.add_argument("command", choices=[
        "table1", "table2", "fig5-map", "fig5-reduce", "fig6", "fig7",
        "fig8", "validate", "profile", "autotune", "all",
    ])
    p.add_argument("--workload",
                   help="comma-separated codes (WC,MM,SM,II,KM,SS,HG,LR)")
    p.add_argument("--mode", default=None, metavar="MODE",
                   help="restrict 'validate' to one memory mode "
                        "(G/GT/SI/SO/SIO, or 'auto' for the cost-model "
                        "tuner); default runs the full matrix")
    p.add_argument("--autotune", action="store_true",
                   help="validate with the cost-model tuner picking the "
                        "mode (shorthand for --mode auto)")
    p.add_argument("--out", default="BENCH_autotune.json", metavar="FILE",
                   help="artefact path for the 'autotune' command "
                        "(empty string to skip writing)")
    p.add_argument("--verbose", action="store_true",
                   help="progress lines on stderr for the 'autotune' "
                        "command")
    p.add_argument("--size", default="small", choices=["small", "medium", "large"])
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply problem sizes (1.0 = scaled defaults)")
    p.add_argument("--mps", type=int, default=0,
                   help="simulate this many MPs instead of the full 30")
    p.add_argument("--backend", default=None,
                   choices=["sim", "fast", "parallel", "dist"],
                   help="execution backend for 'validate' (timing "
                        "commands always simulate)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for --backend parallel/dist")
    p.add_argument("--store", default=None, choices=["memory", "spill"],
                   help="intermediate-store policy for 'validate' with a "
                        "functional backend (see repro.store); default "
                        "honours $REPRO_STORE")
    p.add_argument("--memory-budget", default=None, metavar="SIZE",
                   help="spill budget (bytes; k/m/g suffixes) for "
                        "--store spill; default honours "
                        "$REPRO_MEMORY_BUDGET")
    p.add_argument("--check", action="store_true",
                   help="run every simulated job under the repro.check "
                        "sanitizer (strict: the first finding aborts "
                        "the command with a CheckError)")
    p.add_argument("--profile", nargs="?", const="repro-bench.pstats",
                   default=None, metavar="FILE",
                   help="run the command under cProfile: write pstats "
                        "to FILE (default repro-bench.pstats) and "
                        "print the hottest functions")
    p.add_argument("--profile-top", type=int, default=20, metavar="N",
                   help="number of hot functions to list with --profile")
    args = p.parse_args(argv)
    if args.mode is not None:
        from ..errors import FrameworkError
        from ..framework.modes import resolve_mode_name

        try:
            args.mode = resolve_mode_name(args.mode, allow_auto=True)
        except FrameworkError as exc:
            print(f"repro-bench: {exc}", file=sys.stderr)
            return 2
    if args.autotune:
        if args.mode not in (None, "auto"):
            print("repro-bench: --autotune picks the memory mode itself; "
                  f"it conflicts with --mode {args.mode.value} (drop one)",
                  file=sys.stderr)
            return 2
        args.mode = "auto"
    if args.mode is not None and args.command != "validate":
        print("repro-bench: --mode/--autotune only apply to 'validate' "
              "(the 'autotune' command benchmarks the tuner itself)",
              file=sys.stderr)
        return 2
    if args.check:
        os.environ["REPRO_CHECK"] = "1"
    if args.backend and args.command != "validate":
        print("repro-bench: --backend only applies to 'validate' — every "
              "timing command needs the cycle-accurate simulator",
              file=sys.stderr)
        return 2
    if args.workers is not None and args.backend not in ("parallel",
                                                         "dist"):
        print("repro-bench: --workers needs --backend parallel or dist",
              file=sys.stderr)
        return 2
    if (args.store or args.memory_budget) and args.command != "validate":
        print("repro-bench: --store/--memory-budget only apply to "
              "'validate' (the timing commands always simulate, and the "
              "sim backend models the device's own intermediate tiers)",
              file=sys.stderr)
        return 2
    if args.memory_budget is not None and args.store != "spill":
        print("repro-bench: --memory-budget needs --store spill",
              file=sys.stderr)
        return 2
    cmd = {
        "table1": cmd_table1,
        "table2": cmd_table2,
        "fig5-map": cmd_fig5_map,
        "fig5-reduce": cmd_fig5_reduce,
        "fig6": cmd_fig6,
        "fig7": cmd_fig7,
        "fig8": cmd_fig8,
        "validate": cmd_validate,
        "profile": cmd_profile,
        "autotune": cmd_autotune,
        "all": cmd_all,
    }[args.command]
    if args.profile is None:
        cmd(args)
        return 0
    # Wall-clock profiling of the command itself (where does the
    # *simulator* spend host time — not simulated cycles; those are
    # what the 'profile' command reports).
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        cmd(args)
    finally:
        prof.disable()
        prof.dump_stats(args.profile)
        st = pstats.Stats(prof, stream=sys.stdout)
        print(f"\n--- hottest {args.profile_top} functions "
              f"(cumulative; full dump: {args.profile}) ---")
        st.sort_stats("cumulative").print_stats(args.profile_top)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

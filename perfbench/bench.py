"""The benchmark proper (entry point: ``perfbench/run.py``).

One client runs closed-loop MapReduce jobs, one at a time, through the
public :func:`repro.framework.job.run_job` API; no job uses more than
two workers.  Every label of ``workloads.json`` is sampled over the
workload's parts until ``--seconds`` have passed (see
:func:`run_rounds`), and each end-to-end time is the median over the
label's samples.  Times of jobs that ran in this process are scaled to
a reference machine speed measured by a probe around every sample
(:func:`speed_probe`); the unscaled medians are printed beside them.

Every job is checked against the CPU oracle, for leftover child
processes and for leftover spill files; a job that raised, timed out,
produced other output or left anything behind counts as failed.  Any
wrong output makes the run exit non-zero.

The traced run (``--trace 1``) runs every job of a wrapped label twice,
once through :class:`tracing.TracedBackend` and once unwrapped: the
pair must agree exactly, and the time between them is the tracing
overhead.  The tuner and ledger layers are timed by calling their
public functions directly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.validation import outputs_match
from repro.backend import get_backend
from repro.cpu_ref import normalised
from repro.cpu_ref.reference import (
    reference_map,
    reference_reduce,
    reference_shuffle,
)
from repro.framework.job import run_job
from repro.framework.modes import ReduceStrategy
from repro.framework.records import KeyValueSet
from repro.obs import ledger
from repro.tune import decide_execution, load_calibration, profile_input
from repro.workloads import ALL_WORKLOADS
from tracing import PHASES, Spans, TracedBackend

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LABELS = ("sim", "fast", "columnar", "parallel2", "dist2", "fast-spill",
          "auto")
#: Labels whose backend the traced run can wrap; ``auto`` picks its
#: backend inside ``run_job``, so its layers are timed by calling the
#: tuner directly.
WRAPPED = LABELS[:-1]
BACKEND_NAMES = {"sim": "sim", "fast": "fast", "columnar": "columnar",
                 "parallel2": "parallel:2", "dist2": "dist:2",
                 "fast-spill": "fast"}

#: Workloads whose float reduces may legitimately reassociate: the
#: repository's output contract compares them under float32 tolerance
#: (docs/TESTING.md).  All others must match the oracle exactly.
FLOAT_VALUED = frozenset({"KM"})

#: A job running longer than this is stopped and counted as failed.
JOB_TIMEOUT_S = 60
#: Fresh processes that repeat the set-up; setup_s is the median of
#: these and the run's own set-up.
SETUP_PROBES = 2
#: Fewest samples any label gets in a run, whatever ``--seconds`` says.
MIN_SAMPLES = 2
#: sim_cycles is the median over this many first rounds: exact for a
#: seed, whatever the number of rounds the time allows.
SIM_ROUNDS = 5
#: Seed-path tags: every input is derived from (--seed, tag).
BULK_TAG, WARM_TAG, ROUND_TAG = 0, 1, 2


def derive_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0]
               & 0x7FFFFFFF)


# ----------------------------------------------------------------------
# Inputs and the oracle
# ----------------------------------------------------------------------


@dataclass
class Case:
    """One input of one part, with everything needed to check a job."""

    code: str
    spec: object
    inp: KeyValueSet
    strategy: ReduceStrategy | None
    budget: int | None
    oracle: KeyValueSet
    want: list
    stats: dict


def _workload_class(code: str):
    for cls in ALL_WORKLOADS:
        if cls.code == code:
            return cls
    raise ValueError(f"unknown workload code {code!r}")


def make_case(part: dict, seed: int, *, size: str | None = None,
              scale: float | None = None, chunks: int | None = None,
              clock: dict) -> Case:
    """Generate one part's input and its oracle output.

    With ``chunks`` > 1 the input is that many generated inputs, each
    from its own derived seed, one after another: WordCount draws a
    fresh vocabulary per seed, and its word lengths alone move the
    work in one input by about 10%, which averaging over chunks
    removes.  ``clock`` accumulates ``input_gen_s`` and ``oracle_s``,
    which are kept out of setup_s and reported on their own.
    """
    size = size or part["size"]
    scale = part["scale"] if scale is None else scale
    chunks = chunks or part.get("chunks", 1)
    w = _workload_class(part["workload"])()
    seeds = [seed] if chunks == 1 else [derive_seed(seed, i)
                                        for i in range(chunks)]
    t0 = time.perf_counter()
    inp = KeyValueSet()
    for s in seeds:
        for k, v in w.generate(size, seed=s, scale=scale):
            inp.append_unchecked(k, v)
    clock["input_gen_s"] += time.perf_counter() - t0
    spec = w.spec_for_size(size, seed=seeds[0], scale=scale)
    strategy = ReduceStrategy(part["strategy"]) if part["strategy"] else None
    return _with_oracle(part, spec, inp, strategy, clock)


def _with_oracle(part, spec, inp, strategy, clock) -> Case:
    t0 = time.perf_counter()
    inter = reference_map(spec, inp)
    if strategy is None:
        oracle, keys = inter, len(set(inter.keys))
    else:
        grouped = reference_shuffle(inter)
        oracle, keys = reference_reduce(spec, grouped, strategy), len(grouped)
    want = normalised(oracle)
    clock["oracle_s"] += time.perf_counter() - t0
    stats = {
        "records_in": len(inp),
        "intermediate_pairs": len(inter),
        "distinct_keys": keys,
        "input_bytes": sum(len(k) + len(v) for k, v in inp),
        "spill_budget": part["spill_budget"],
    }
    return Case(part["workload"], spec, inp, strategy, part["spill_budget"],
                oracle, want, stats)


def sim_case(part: dict, case: Case, clock: dict) -> Case:
    """The sim label's input: ``sim_records`` records taken at an even
    stride over the whole input."""
    n = part["sim_records"]
    if n is None or n >= len(case.inp):
        return case
    step = len(case.inp) // n
    inp = KeyValueSet(zip(case.inp.keys[::step][:n],
                          case.inp.values[::step][:n]))
    return _with_oracle(part, case.spec, inp, case.strategy, clock)


class Inputs:
    """Per-label cases for each round, derived from the workload seed."""

    def __init__(self, defn: dict, seed: int, clock: dict):
        self.defn = defn
        self.seed = seed
        self.clock = clock
        self._fixed = None
        self._round = (None, None)

    def _build(self, seed: int, **kw) -> dict[str, list[Case]]:
        cases, sims = [], []
        for part in self.defn["parts"]:
            case = make_case(part, seed, clock=self.clock, **kw)
            cases.append(case)
            sims.append(sim_case(part, case, self.clock))
        return {label: (sims if label == "sim" else cases)
                for label in LABELS}

    def warm(self) -> dict[str, list[Case]]:
        return self._build(derive_seed(self.seed, WARM_TAG),
                           size="small", scale=1, chunks=1)

    def for_round(self, r: int) -> dict[str, list[Case]]:
        if not self.defn["fresh_inputs_per_round"]:
            if self._fixed is None:
                self._fixed = self._build(derive_seed(self.seed, BULK_TAG))
            return self._fixed
        if self._round[0] != r:
            self._round = (r, self._build(
                derive_seed(self.seed, ROUND_TAG, r)))
        return self._round[1]


# ----------------------------------------------------------------------
# One checked job
# ----------------------------------------------------------------------


class JobTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: int):
    def fire(signum, frame):
        raise JobTimeout(f"job ran longer than {seconds}s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _child_pids() -> set[int]:
    """Live or unreaped direct children of this process."""
    me, out = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.add(int(entry))
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def leftovers(result, spill_dir: Path) -> tuple[int, int]:
    """Count, then remove, what a finished job left behind: child
    processes (``multiprocessing`` children, other children, and the
    job's own worker pids) and entries under the spill directory."""
    children = {p.pid for p in multiprocessing.active_children()}
    children |= _child_pids()
    workers = {p.pid for p in (getattr(result, "worker_profiles", None)
                               or ())}
    stray = children | {pid for pid in workers if _alive(pid)}
    for pid in children:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    entries = list(spill_dir.iterdir())
    for e in entries:
        if e.is_dir():
            shutil.rmtree(e, ignore_errors=True)
        else:
            e.unlink(missing_ok=True)
    return len(stray), len(entries)


def _probe_stream() -> list[bytes]:
    """A fixed Zipf-like stream of 150,000 byte words over 12,000
    distinct ones."""
    rng = np.random.default_rng(0)
    words = [b"%x" % int(x) for x in rng.integers(1 << 20, 1 << 32, 12000)]
    return [words[i] for i in np.minimum(rng.zipf(1.1, 150000) - 1, 11999)]


_PROBE_STREAM = _probe_stream()
#: Probe time that defines reference speed (about its median on one
#: vCPU of a 2.1 GHz Xeon VM).
PROBE_REF_S = 0.025


def speed_probe() -> float:
    """Seconds this machine takes right now for a fixed pure-Python
    word count over ``_PROBE_STREAM``.

    Timings on a shared host drift with its load by tens of percent
    over seconds to minutes; the probe runs on either side of every
    sample, and the sample's times are scaled by ``PROBE_REF_S /
    probe`` (see :func:`scaled`).
    """
    t0 = time.perf_counter()
    counts: dict = {}
    for w in _PROBE_STREAM:
        counts[w] = counts.get(w, 0) + 1
    sorted(counts.items())
    return time.perf_counter() - t0


def scaled(out: dict, seconds: float) -> float:
    """``seconds`` measured in the sample ``out`` belongs to, at the
    machine speed that makes the probe take PROBE_REF_S.

    The probe runs in this process, so it tracks only jobs that ran
    here; a job that shipped work to worker processes (on the other
    core, with its own drift) keeps its measured time.
    """
    return seconds if out.get("pool_used") else seconds * out["speed"]


def _digest(result) -> str:
    """What the wrapped and unwrapped twins of a job must agree on."""
    h = hashlib.sha1()
    h.update(repr(normalised(result.output)).encode())
    h.update(repr(result.intermediate_count).encode())
    h.update(repr(result.timings.as_dict()).encode())
    return h.hexdigest()


class Runner:
    """Runs checked jobs and keeps the outcome of each."""

    def __init__(self, backends: dict, spill_dir: Path):
        self.backends = backends
        self.spill_dir = spill_dir
        self.outcomes: list[dict] = []
        self.failures: list[str] = []
        self.wrong = 0

    def kwargs(self, label: str, case: Case, spans: Spans | None) -> dict:
        kw = {"strategy": case.strategy}
        if label == "auto":
            kw["tune"] = True
            return kw
        backend = self.backends[label]
        kw["backend"] = TracedBackend(backend, spans) if spans else backend
        if label == "fast-spill":
            kw.update(store="spill", memory_budget=case.budget)
        return kw

    def job(self, label: str, case: Case, *, rnd: int,
            spans: Spans | None = None) -> dict:
        kwargs = self.kwargs(label, case, spans)
        gc.collect()
        result = error = None
        t0 = time.perf_counter()
        try:
            with deadline(JOB_TIMEOUT_S):
                if spans is None:
                    result = run_job(case.spec, case.inp, **kwargs)
                else:
                    with spans.span("job", label=label, part=case.code,
                                    round=rnd) as job_span:
                        result = run_job(case.spec, case.inp, **kwargs)
        except Exception as exc:  # any raised job counts as failed
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        out = {"label": label, "part": case.code, "round": rnd,
               "wall": wall, "causes": []}
        if error is not None:
            out["causes"].append(error)
        elif case.want != normalised(result.output) and not (
                case.code in FLOAT_VALUED and outputs_match(
                    result.output, case.oracle, float32_values=True)):
            out["causes"].append("output differs from the CPU oracle")
            self.wrong += 1
        procs, files = leftovers(result, self.spill_dir)
        if procs:
            out["causes"].append(f"left {procs} child process(es)")
        if files:
            out["causes"].append(f"left {files} spill entr(y/ies)")
        if result is not None:
            out.update(_summarise(result))
            if spans is not None:
                out["wall"] = job_span["end"] - job_span["start"]
                out["phases"] = spans.self_times(job_span)
        self.record(out)
        return out

    def record(self, out: dict) -> None:
        out["ok"] = not out["causes"]
        if out["causes"]:
            self.failures.append(
                f"round {out['round']} {out['label']}/{out['part']}: "
                + "; ".join(out["causes"]))
        self.outcomes.append(out)


def _summarise(result) -> dict:
    stats = [result.map_stats, result.reduce_stats]
    extra: dict[str, float] = {}
    for st in stats:
        for k, v in st.extra.items():
            if isinstance(v, (int, float)):  # skip the tuner's strings
                extra[k] = extra.get(k, 0) + v
    straggler = result.straggler
    return {
        "digest": _digest(result),
        "cycles": result.timings.as_dict(),
        "extra": extra,
        "sim": {f: sum(getattr(st, f) for st in stats)
                for f in ("instructions", "global_transactions",
                          "atomic_conflicts", "analysis_cache_hits",
                          "analysis_cache_misses")},
        "choice": result.map_stats.extra.get("tuner_choice"),
        "pool_used": bool(result.worker_profiles),
        "skew": straggler.max_skew if straggler is not None else 0.0,
    }


# ----------------------------------------------------------------------
# Set-up: construction plus an untimed warm-up
# ----------------------------------------------------------------------


def build_backends() -> dict:
    return {label: get_backend(name) for label, name in BACKEND_NAMES.items()}


def warm_up(runner: Runner, cases: dict) -> None:
    """One untimed job per label and part: fills the simulator's
    analysis caches, the tuner's memo and every lazy import."""
    for label in LABELS:
        for case in cases[label]:
            runner.job(label, case, rnd=-1)


#: The tuner counts as settled on an input once it picks the same
#: configuration this many times in a row; it gets at most
#: SETTLE_MAX_JOBS tries.
SETTLE_STREAK, SETTLE_MAX_JOBS = 3, 8


def settle_tuner(runner: Runner, cases: list[Case]) -> list[str]:
    """Untimed tuned jobs on inputs that every round reuses, until the
    tuner's picks stop changing; returns the picks.

    The tuner calibrates from the ledger, which starts empty each run,
    so its first jobs on a new input can pick differently from the
    settled choice (a transient users pay once per input, not per
    job).  The transient is reported on its own, as ``tune.settle_jobs``
    and in the run header, instead of mixing into job_s_p50.auto.
    """
    picks: list[str] = []
    while len(picks) < SETTLE_MAX_JOBS:
        picks.append(" | ".join(
            str(runner.job("auto", case, rnd=-2).get("choice"))
            for case in cases))
        if (len(picks) >= SETTLE_STREAK
                and len(set(picks[-SETTLE_STREAK:])) == 1):
            break
    return picks


def load_definition(name: str) -> dict:
    doc = json.loads((HERE / "workloads.json").read_text())
    return doc["workloads"][name]


def setup_probe(args, t_start: float) -> int:
    """Repeat the set-up in this fresh process and print its time."""
    defn = load_definition(args.workload)
    clock = {"input_gen_s": 0.0, "oracle_s": 0.0}
    runner = Runner(build_backends(), Path(os.environ["REPRO_SPILL_DIR"]))
    warm_up(runner, Inputs(defn, args.seed, clock).warm())
    setup = time.perf_counter() - t_start - clock["input_gen_s"] \
        - clock["oracle_s"]
    print(json.dumps({"setup_s": setup, "failures": runner.failures}))
    return 0


def probe_setups(args) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if doc["failures"]:
            raise RuntimeError("set-up probe jobs failed: "
                               + "; ".join(doc["failures"]))
        out.append(doc["setup_s"])
    return out


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------


def run_unit(runner: Runner, label: str, cases: list[Case], r: int,
             spans: Spans | None) -> None:
    """One sample of ``label``: its job on every part's input, between
    two speed probes whose mean scales the sample."""
    first = len(runner.outcomes)
    before = speed_probe()
    for case in cases:
        if spans is None:
            runner.job(label, case, rnd=r)
        elif label == "auto":
            traced_auto(runner, case, r)
        else:
            traced_pair(runner, label, case, r, spans)
    speed = PROBE_REF_S / ((before + speed_probe()) / 2)
    for out in runner.outcomes[first:]:
        out["speed"] = speed


def run_rounds(runner: Runner, inputs: Inputs, seconds: float,
               spans: Spans | None) -> dict[str, int]:
    """Take samples of every label for ``seconds``; returns the number
    of samples per label.

    Fresh inputs each round: every round runs each label once on that
    round's inputs.  Inputs reused by every round: the next sample goes
    to the label with the least measured time so far, so each label
    gets about the same measuring time, short jobs more samples than
    long ones, and labels stay interleaved.  Either way every label
    gets at least MIN_SAMPLES samples (one when traced).
    """
    spent = dict.fromkeys(LABELS, 0.0)
    n = dict.fromkeys(LABELS, 0)
    # A traced sample runs every job twice, and the per-layer metrics
    # it feeds have no bound: one sample per label is enough there.
    least = 1 if spans is not None else MIN_SAMPLES
    fresh = inputs.defn["fresh_inputs_per_round"]
    t0 = time.perf_counter()
    while True:
        over = time.perf_counter() - t0 >= seconds
        short = [label for label in LABELS if n[label] < least]
        if over and not short:
            return n
        if fresh:
            todo = LABELS
        else:
            todo = short[:1] if over else [min(LABELS, key=spent.get)]
        for label in todo:
            r = n[label]
            cases = inputs.for_round(r)[label]
            t = time.perf_counter()
            run_unit(runner, label, cases, r, spans)
            spent[label] += time.perf_counter() - t
            n[label] += 1


def traced_pair(runner, label, case, r, spans) -> None:
    """The job wrapped and unwrapped, alternating which runs first."""
    order = (False, True) if r % 2 == 0 else (True, False)
    twins = {w: runner.job(label, case, rnd=r, spans=spans if w else None)
             for w in order}
    plain, wrapped = twins[False], twins[True]
    wrapped["twin_wall"] = plain["wall"]
    plain["twin"] = True  # its time only serves the overhead figure
    if plain.get("digest") != wrapped.get("digest") and not (
            plain["causes"] or wrapped["causes"]):
        wrapped["causes"].append("wrapped job differs from unwrapped")
        wrapped["ok"] = False
        runner.failures.append(
            f"round {r} {label}/{case.code}: wrapped job differs from "
            "unwrapped")


def traced_auto(runner, case, r) -> None:
    """The tuner's layers, timed through their public functions.

    ``profile_input`` runs first, so on a fresh input it is the
    uncached profile the tuned job would otherwise pay; the calibration
    load follows the ledger append of the job itself.
    """
    t0 = time.perf_counter()
    profile_input(case.spec, case.inp)
    t1 = time.perf_counter()
    out = runner.job("auto", case, rnd=r)
    t2 = time.perf_counter()
    load_calibration()
    t3 = time.perf_counter()
    decide_execution(case.spec, case.inp, strategy=case.strategy)
    t4 = time.perf_counter()
    out["tune"] = {"profile_s": t1 - t0, "calibration_s": t3 - t2,
                   "decide_s": t4 - t3}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _per_round(outcomes, label, value, *, agg="mean") -> list[float]:
    """One value per round from the round's jobs of ``label``: the mean
    over parts (``agg='mean'``), their sum, or their maximum.  Rounds
    in which a job of the label failed are skipped."""
    rounds: dict[int, list] = {}
    bad = set()
    for o in outcomes:
        if o["label"] != label or o["round"] < 0 or o.get("twin"):
            continue
        if not o["ok"]:
            bad.add(o["round"])
        else:
            rounds.setdefault(o["round"], []).append(value(o))
    fold = {"mean": statistics.fmean, "sum": sum, "max": max}[agg]
    return [fold(v) for r, v in sorted(rounds.items()) if r not in bad]


def _median(xs):
    return statistics.median(xs) if xs else None


def _first(xs):
    return xs[0] if xs else None


def tail(xs: list[float]) -> tuple[str | None, float | None]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 11:
        return None, None
    k = n - 10
    return f"p{100 * k // n}", sorted(xs)[k - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(outcomes, setup_samples, attempted, failed
               ) -> tuple[dict, dict]:
    metrics, detail = {}, {}
    for label in LABELS:
        xs = _per_round(outcomes, label, lambda o: scaled(o, o["wall"]))
        name = f"job_s_p50.{label}"
        metrics[name] = (_median(xs), "s")
        pct, val = tail(xs)
        detail[name] = {"samples": len(xs), "tail_percentile": pct,
                        "tail_value": val, "unscaled_median": _median(
                            _per_round(outcomes, label, lambda o: o["wall"]))}
    metrics["sim_cycles"] = (_median(_per_round(
        outcomes, "sim", lambda o: o["cycles"]["total"],
        agg="sum")[:SIM_ROUNDS]), "cycles")
    metrics["setup_s"] = (statistics.median(setup_samples), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    # 1 - fail_frac: an end-to-end metric must never read 0.
    metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
    return metrics, detail


def per_layer(outcomes, overhead, settle_jobs) -> dict:
    m: dict[str, tuple] = {}
    for label in WRAPPED:
        for phase in PHASES:
            m[f"{phase}_s.{label}"] = (_median(_per_round(
                outcomes, label,
                lambda o, p=phase: scaled(o, o["phases"].get(p, 0.0)))),
                "s")
        m[f"core_s.{label}"] = (_median(_per_round(
            outcomes, label, lambda o: scaled(o, o["phases"]["job"]))),
            "s")

    def count(label, fn):
        return _first(_per_round(outcomes, label, fn, agg="sum"))

    def extra(key):
        return lambda o: o["extra"].get(key, 0)

    m["store.spill_runs"] = (count("fast-spill", extra("spill_runs")), "count")
    m["store.spilled_bytes"] = (count("fast-spill", extra("spilled_bytes")),
                                "bytes")
    m["store.peak_bytes"] = (count("fast-spill", extra("store_peak_bytes")),
                             "bytes")
    batches = count("columnar", extra("columnar_batches"))
    vec = count("columnar", extra("columnar_map_vectorized"))
    m["columnar.map_vectorized_ratio"] = (
        vec / batches if batches else 0.0, "ratio")
    m["columnar.groups"] = (count("columnar", extra("columnar_groups")),
                            "count")
    m["parallel2.pool_used"] = (count("parallel2", lambda o: o["pool_used"]),
                                "count")
    m["parallel2.straggler_skew"] = (_median(_per_round(
        outcomes, "parallel2", lambda o: o["skew"], agg="max")), "ratio")
    m["dist2.straggler_skew"] = (_median(_per_round(
        outcomes, "dist2", lambda o: o["skew"], agg="max")), "ratio")
    m["dist2.tasks"] = (count("dist2", extra("dist_tasks")), "count")
    for phase in ("io_in", "map", "shuffle", "reduce", "io_out"):
        m[f"sim_cycles.{phase}"] = (
            count("sim", lambda o, p=phase: o["cycles"][p]), "cycles")
    for field in ("instructions", "global_transactions", "atomic_conflicts"):
        m[f"sim.{field}"] = (count("sim", lambda o, f=field: o["sim"][f]),
                             "count")
    hits = count("sim", lambda o: o["sim"]["analysis_cache_hits"])
    misses = count("sim", lambda o: o["sim"]["analysis_cache_misses"])
    m["sim.analysis_cache_hit_ratio"] = (
        hits / (hits + misses) if hits is not None and hits + misses
        else 0.0, "ratio")
    walls = _per_round(outcomes, "sim", lambda o: scaled(o, o["wall"]),
                       agg="sum")
    instrs = _per_round(outcomes, "sim", lambda o: o["sim"]["instructions"],
                        agg="sum")
    m["sim.host_ns_per_instr"] = (_median(
        [w * 1e9 / i for w, i in zip(walls, instrs) if i]), "ns")
    for key in ("profile_s", "calibration_s", "decide_s"):
        m[f"tune.{key}"] = (_median(_per_round(
            outcomes, "auto", lambda o, k=key: scaled(o, o["tune"][k]))),
            "s")
    path = ledger.ledger_path()
    m["ledger.lines"] = (len(ledger.read_ledger(path)), "count")
    m["ledger.bytes"] = (os.path.getsize(path), "bytes")
    m["tune.settle_jobs"] = (settle_jobs, "count")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def tracing_overhead(outcomes) -> float | None:
    pairs = [(o["wall"], o["twin_wall"]) for o in outcomes
             if "twin_wall" in o and o["ok"]]
    if not pairs:
        return None
    plain = sum(p for _, p in pairs)
    return (sum(w for w, _ in pairs) - plain) / plain


def self_time_table(outcomes) -> list[str]:
    cols = ("core",) + PHASES
    lines = ["self time per job, median ms: label  "
             + "  ".join(f"{c:>8s}" for c in cols)]
    for label in WRAPPED:
        row = []
        for c in cols:
            key = "job" if c == "core" else c
            v = _median(_per_round(outcomes, label,
                                   lambda o, k=key: scaled(
                                       o, o["phases"].get(k, 0.0))))
            row.append(f"{v * 1e3:8.2f}" if v is not None else f"{'-':>8s}")
        lines.append(f"  {label:11s}" + "  ".join(row))
    return lines


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def environment(args) -> dict:
    """What every result is recorded with.  A checkout without git
    metadata has no commit; ``src_sha1`` identifies its sources."""
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit or None,
        "src_sha1": h.hexdigest(),
    }


def run(args, t_start: float, run_dir: Path) -> int:
    defn = load_definition(args.workload)
    info = environment(args)
    t_probe = time.perf_counter()
    setups = probe_setups(args)
    probe_s = time.perf_counter() - t_probe

    clock = {"input_gen_s": 0.0, "oracle_s": 0.0}
    inputs = Inputs(defn, args.seed, clock)
    runner = Runner(build_backends(), run_dir / "spill")
    warm_up(runner, inputs.warm())
    first = inputs.for_round(0)  # generated before timing starts
    setups.append(time.perf_counter() - t_start - probe_s
                  - clock["input_gen_s"] - clock["oracle_s"])
    t_settle = time.perf_counter()
    settle = ([] if defn["fresh_inputs_per_round"]
              else settle_tuner(runner, first["auto"]))
    clock["settle_s"] = time.perf_counter() - t_settle

    spans = Spans() if args.trace else None
    rounds = run_rounds(runner, inputs, args.seconds, spans)

    timed = [o for o in runner.outcomes if o["round"] >= 0]
    attempted, failed = len(runner.outcomes), len(runner.failures)
    if args.trace:
        overhead = tracing_overhead(timed)
        metrics = per_layer(timed, overhead, len(settle))
        detail = {}
    else:
        metrics, detail = end_to_end(timed, setups, attempted, failed)

    lines = [
        "# " + " ".join(f"{k}={v}" for k, v in info.items()),
        "# samples " + " ".join(f"{k}={v}" for k, v in rounds.items())
        + f" jobs={attempted} (untimed included) "
        f"failed={failed} fail_frac={failed / attempted:.6f}",
        f"# input_gen_s={clock['input_gen_s']:.3f} "
        f"oracle_s={clock['oracle_s']:.3f} setup_samples_s="
        + ",".join(f"{s:.3f}" for s in setups),
    ]
    if settle:
        lines.append(f"# tuner settled after {len(settle)} untimed jobs "
                     f"in {clock['settle_s']:.3f}s: " + ", ".join(
                         f"{o['choice']} {o['wall']:.3f}s"
                         for o in runner.outcomes if o["round"] == -2))
    for case in first["fast"]:
        lines.append(f"# input {case.code}: " + " ".join(
            f"{k}={v}" for k, v in case.stats.items()))
    for f in runner.failures:
        lines.append(f"# FAILED {f}")
    if args.trace:
        lines += ["# " + s for s in self_time_table(timed)]
        lines.append(f"# tracing overhead: {overhead}")
    for name, (value, unit) in metrics.items():
        note = ", ".join(f"{k}={v}" for k, v in detail.get(name, {}).items())
        lines.append(f"{name:32s} {value!s:>22s} {unit}"
                     + (f"  ({note})" if note else ""))
    print("\n".join(lines))

    missing = [n for n, (v, _) in metrics.items() if v is None]
    result = {
        "correct": runner.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"info": info, "result": result, "detail": detail,
              "failures": runner.failures, "rounds": rounds,
              "clock": clock, "setup_samples": setups,
              "jobs": runner.outcomes}
    if spans is not None:
        record["spans"] = spans.spans
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    if runner.wrong or missing:
        if missing:
            print(f"error: no successful sample for {missing}",
                  file=sys.stderr)
        return 1
    return 0

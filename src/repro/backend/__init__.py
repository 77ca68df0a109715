"""``repro.backend`` — pluggable execution backends behind one core.

The framework's phases (upload -> Map -> Shuffle -> Reduce ->
download; Section IV-C's five memory modes x two reduce strategies)
are orthogonal to *how* they execute.  A
:class:`~repro.backend.plan.JobPlan` describes a job; an
:class:`~repro.backend.base.ExecutionBackend` executes its phases:

* ``"sim"``  — :class:`SimBackend`: the cycle-accurate discrete-event
  simulator.  Use it for every timing figure; it is the paper.
* ``"fast"`` — :class:`FastBackend`: a functional executor that skips
  warp-level simulation.  Orders of magnitude faster; use it for
  correctness runs, large inputs and development loops.  Workloads
  that ship batch kernels (``map_batch`` / ``reduce_batch``) run them
  over numpy columns with a column group-by; the rest run the record
  loop and a dict group-by.  No option chooses between the two.
* ``"parallel"`` — :class:`ParallelBackend`: the sharded executor
  (:mod:`repro.backend.sharded`) over a ``fork`` process pool, with
  per-shard partial combining and a key-range-partitioned Reduce.
  ``"parallel:N"`` pins the worker count; plain ``"parallel"``
  honours ``$REPRO_WORKERS`` and defaults to the CPU count.
* ``"dist"`` — :class:`DistributedBackend`: the same sharded
  executor over socket-connected worker processes driven by a
  coordinator, with GFS-style map splits, worker-death re-execution,
  speculative straggler duplicates, and scriptable fault injection
  (:class:`repro.dist.FaultPlan`).  ``"dist:N"`` pins the worker
  count, like ``"parallel:N"``.

Select per call (``run_job(..., backend="fast")``), or process-wide
with the ``REPRO_BACKEND`` environment variable (read when a driver is
called with ``backend=None``).  ``"columnar"`` is an alias of
``"fast"``, kept so older benchmark labels still resolve.
"""

from __future__ import annotations

import os

from ..errors import FrameworkError
from .base import ExecutionBackend
from .core import execute_plan, execute_streamed
from .distributed import DistributedBackend
from .fast import FastBackend
from .parallel import ParallelBackend
from .plan import ENGINE_MARS, ENGINE_SHARED, BatchPolicy, JobPlan
from .sim import SimBackend

#: Registry of the shipped backends, by name.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    SimBackend.name: SimBackend,
    FastBackend.name: FastBackend,
    ParallelBackend.name: ParallelBackend,
    DistributedBackend.name: DistributedBackend,
    "columnar": FastBackend,
}

#: Environment variable consulted when ``backend=None``.
BACKEND_ENV = "REPRO_BACKEND"


def get_backend(backend: str | ExecutionBackend | None = None
                ) -> ExecutionBackend:
    """Resolve a backend argument to a live instance.

    ``None`` consults ``$REPRO_BACKEND`` (default ``"sim"``); strings
    are looked up in :data:`BACKENDS`; instances pass through.
    ``"parallel:N"`` / ``"dist:N"`` pin the worker count of the
    parallel / distributed backend.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        backend = os.environ.get(BACKEND_ENV) or "sim"
    if isinstance(backend, str) and ":" in backend:
        base, _, raw = backend.partition(":")
        if base in ("parallel", "dist"):
            try:
                n = int(raw)
            except ValueError:
                raise FrameworkError(
                    f"bad worker count in backend {backend!r}; expected "
                    f"'{base}:<int>'"
                ) from None
            if n < 1:
                # Used to be silently clamped to 1 by max(); surface
                # the mistake instead — ":0" is a typo, not a request.
                raise FrameworkError(
                    f"worker count must be >= 1 in backend {backend!r}"
                )
            return (ParallelBackend(workers=n) if base == "parallel"
                    else DistributedBackend(workers=n))
    try:
        return BACKENDS[backend]()
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise FrameworkError(
            f"unknown backend {backend!r}; known backends: {known}"
        ) from None


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "BatchPolicy",
    "DistributedBackend",
    "ENGINE_MARS",
    "ENGINE_SHARED",
    "ExecutionBackend",
    "FastBackend",
    "JobPlan",
    "ParallelBackend",
    "SimBackend",
    "execute_plan",
    "execute_streamed",
    "get_backend",
]

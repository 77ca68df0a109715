"""Decision layer: golden choices, sentinel semantics, history."""

import json
import os

import pytest

from repro.framework.modes import MemoryMode, ReduceStrategy
from repro.gpu.config import DeviceConfig
from repro.obs.ledger import digest_input
from repro.tune.calibrate import CalibrationState
from repro.tune.decide import (
    TPB_CANDIDATES,
    autotune_enabled,
    decide_execution,
    decide_modes,
)
from repro.tune.synthetic import SYNTHETIC_CASES, synthetic_case

CFG = DeviceConfig.small(4)

#: The factory-calibrated model's pick per synthetic shape at
#: DeviceConfig.small(4) — the golden decision table.  Pinned against
#: the measured exhaustive sweep in BENCH_autotune.json: every one of
#: these choices is within the 10% per-case bar of the measured best.
#: A constants change that silently degrades a decision fails here
#: first (regenerate with scripts/calibrate_tuner.py, then re-check
#: the bench gates before re-pinning).
GOLDEN = {
    "uniform": "GT/TR@64",
    "hotkey": "G/BR@64",
    "widevalue": "SI/BR@64",
    "raggedkey": "G/BR@64",
    "numfixed": "G/BR@64",
}

FRESH = CalibrationState()  # no ledger: factory constants, no history


class TestGoldenTable:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_CASES))
    def test_synthetic_choice(self, name):
        spec, inp = synthetic_case(name, seed=0)
        decision = decide_modes(spec, inp, config=CFG, calibration=FRESH)
        assert decision.choice == GOLDEN[name]
        assert decision.source == "model"
        assert decision.objective == "cycles"
        assert decision.predicted_cost > 0

    def test_choices_agree_with_committed_bench(self):
        """The committed artefact's tuned choices are this model's."""
        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "BENCH_autotune.json")
        with open(path) as f:
            doc = json.load(f)
        by_case = {c["case"]: c for c in doc["cases"]}
        for name, choice in GOLDEN.items():
            assert by_case[name]["tuned_choice"] == choice
            assert by_case[name]["ratio_to_best"] <= doc["per_case_bar"]
        assert doc["gates"] == {"per_case_within_bar": True,
                                "tuned_beats_every_fixed_mode": True}


class TestSentinels:
    def test_strategy_none_stays_map_only(self):
        spec, inp = synthetic_case("uniform", seed=0)
        decision = decide_modes(spec, inp, config=CFG, strategy=None,
                                calibration=FRESH)
        assert decision.strategy is None  # tuner never adds a Reduce

    def test_pinned_strategy_is_kept(self):
        spec, inp = synthetic_case("hotkey", seed=0)
        decision = decide_modes(spec, inp, config=CFG,
                                strategy=ReduceStrategy.TR,
                                calibration=FRESH)
        assert decision.strategy is ReduceStrategy.TR

    def test_pinned_tpb_is_kept(self):
        spec, inp = synthetic_case("uniform", seed=0)
        decision = decide_modes(spec, inp, config=CFG,
                                threads_per_block=256, calibration=FRESH)
        assert decision.threads_per_block == 256

    def test_open_tpb_explores_candidates(self):
        spec, inp = synthetic_case("uniform", seed=0)
        decision = decide_modes(spec, inp, config=CFG, calibration=FRESH)
        assert decision.threads_per_block in TPB_CANDIDATES

    def test_br_never_paired_with_gt(self):
        for name in SYNTHETIC_CASES:
            spec, inp = synthetic_case(name, seed=0)
            decision = decide_modes(spec, inp, config=CFG,
                                    strategy=ReduceStrategy.BR,
                                    calibration=FRESH)
            assert decision.mode is not MemoryMode.GT


class TestExecution:
    def test_decides_backend_and_modes(self):
        spec, inp = synthetic_case("uniform", seed=0)
        decision = decide_execution(spec, inp, config=CFG,
                                    calibration=FRESH, cpu_count=4)
        assert decision.objective == "wall"
        assert decision.backend in ("fast", "parallel")
        assert isinstance(decision.mode, MemoryMode)
        assert decision.summary()["choice"] == decision.choice

    def test_large_intermediate_gets_spill_budget(self):
        spec, inp = synthetic_case("widevalue", seed=0)
        decision = decide_execution(spec, inp, config=CFG,
                                    calibration=FRESH, cpu_count=4,
                                    memory_ceiling=1024)
        assert decision.store == "spill"
        assert decision.memory_budget == 1024


#: ``decide_execution``'s pick (backend, workers, store) at
#: ``cpu_count=2`` on a fresh calibration, for the eight workloads at
#: small size (seed 0) and the two bulk benchmark inputs.  KM, HG, LR
#: and kmeans-bulk pick ``fast`` on its batch-kernel price (they ship
#: ``map_batch`` and have fixed-width keys); the rest on its
#: record-loop price, except wordcount-bulk, big enough for the pool.
EXECUTION_PICKS = {
    "WC": ("fast", None, None),
    "MM": ("fast", None, None),
    "SM": ("fast", None, None),
    "II": ("fast", None, None),
    "KM": ("fast", None, None),
    "SS": ("fast", None, None),
    "HG": ("fast", None, None),
    "LR": ("fast", None, None),
    "wordcount-bulk": ("parallel", 2, None),
    "kmeans-bulk": ("fast", None, None),
}


def _bulk_input(name):
    """The benchmark's bulk inputs at seed 0 (perfbench/workloads.json):
    WordCount is 25 medium chunks with derived seeds, KMeans one medium
    input at scale 10."""
    import numpy as np

    from repro.framework.records import KeyValueSet
    from repro.workloads import KMeans, WordCount

    if name == "kmeans-bulk":
        w = KMeans()
        return (w.spec_for_size("medium", seed=0, scale=10),
                w.generate("medium", seed=0, scale=10), ReduceStrategy.BR)
    w = WordCount()
    seeds = [int(np.random.SeedSequence([0, i]).generate_state(1)[0]
                 & 0x7FFFFFFF) for i in range(25)]
    inp = KeyValueSet()
    for s in seeds:
        for k, v in w.generate("medium", seed=s, scale=1):
            inp.append_unchecked(k, v)
    return (w.spec_for_size("medium", seed=seeds[0], scale=1), inp,
            ReduceStrategy.TR)


class TestExecutionPicks:
    @pytest.mark.parametrize("code", ["WC", "MM", "SM", "II", "KM", "SS",
                                      "HG", "LR"])
    def test_small_workloads(self, code):
        from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS

        w = next(cls() for cls in (*ALL_WORKLOADS, *EXTRA_WORKLOADS)
                 if cls.code == code)
        strategy = ReduceStrategy.TR if w.has_reduce else None
        d = decide_execution(w.spec_for_size("small", seed=0),
                             w.generate("small", seed=0),
                             strategy=strategy, cpu_count=2,
                             calibration=FRESH)
        assert (d.backend, d.workers, d.store) == EXECUTION_PICKS[code]

    @pytest.mark.parametrize("name", [
        "kmeans-bulk",
        # ~15 s to generate ~10^5 WordCount lines: slow tier only.
        pytest.param("wordcount-bulk", marks=pytest.mark.slow),
    ])
    def test_bulk_inputs(self, name):
        spec, inp, strategy = _bulk_input(name)
        d = decide_execution(spec, inp, strategy=strategy, cpu_count=2,
                             calibration=FRESH)
        assert (d.backend, d.workers, d.store) == EXECUTION_PICKS[name]


class TestHistoryOverride:
    def _swept_records(self, spec, inp):
        digest = digest_input(inp)
        base = {
            "workload": spec.name, "input_digest": digest,
            "records_in": len(inp), "backend": "sim",
        }
        return [
            dict(base, mode="SO", strategy="TR", sim_cycles=9000.0),
            dict(base, mode="SI", strategy="BR", sim_cycles=100.0),
        ]

    def test_measured_winner_overrides_model(self):
        spec, inp = synthetic_case("uniform", seed=0)
        cal = CalibrationState(records=self._swept_records(spec, inp))
        decision = decide_modes(spec, inp, config=CFG, calibration=cal)
        assert decision.source == "history"
        assert decision.mode is MemoryMode.SI
        assert decision.strategy is ReduceStrategy.BR

    def test_single_config_is_not_a_sweep(self):
        spec, inp = synthetic_case("uniform", seed=0)
        cal = CalibrationState(
            records=self._swept_records(spec, inp)[:1])
        decision = decide_modes(spec, inp, config=CFG, calibration=cal)
        assert decision.source == "model"


class TestEnv:
    def test_truthy_values(self):
        assert autotune_enabled({"REPRO_AUTOTUNE": "1"})
        assert autotune_enabled({"REPRO_AUTOTUNE": "on"})
        assert not autotune_enabled({"REPRO_AUTOTUNE": "0"})
        assert not autotune_enabled({})

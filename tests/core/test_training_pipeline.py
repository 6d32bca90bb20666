"""Tests for the parallel, store-backed oracle training pipeline.

Covers the pipeline's three contracts:

* serial, parallel, and store-assembled dataset collection are bit-identical
  (per-point seeding + grid-order assembly);
* an interrupted collection resumes from the store's dataset records and
  yields exactly the uninterrupted dataset;
* a trained predictor published into the content-addressed model registry
  reloads to bit-identical predictions, and campaign processes resolve it by
  training-spec hash instead of retraining.

Plus the `_label_for_run` frame-0 clamp regression, and the batch-lane
collection checked against the scalar simulator run per grid point.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.safety_hijacker import NeuralSafetyPredictor
from repro.core.training import (
    _CLEAR_ROAD_DELTA_M,
    _collection_chunk_size,
    _expand_jobs,
    _grid_point_spec,
    _label_for_run,
    collect_safety_dataset,
    collection_hash_for,
    dataset_content_hash,
    expand_training_grid,
    load_registered_predictor,
    train_and_register_predictor,
    training_spec_hash,
)
from repro.experiments.campaign import training_grid_for
from repro.experiments.store import ExperimentStore
from repro.perception.fusion import CameraOnlyFusion, FusionConfig
from repro.runtime import (
    FaultInjectingExecutor,
    InjectedFault,
    ParallelExecutor,
    SerialExecutor,
)
from repro.sim import scenarios as scenarios_module
from repro.sim.batch import DEFAULT_BATCH_SIZE, BatchSimulator
from repro.sim.config import SimulationConfig
from repro.sim.scenarios import ScenarioVariation, build_scenario, register_scenario
from repro.sim.simulator import Simulator

_SCENARIO = "DS-2"
_VECTOR = AttackVector.DISAPPEAR
_DELTAS = (42.0, 36.0)
_KS = (12, 24)


def _collect(**kwargs):
    return collect_safety_dataset(
        scenario_id=_SCENARIO,
        vector=_VECTOR,
        delta_inject_values=_DELTAS,
        k_values=_KS,
        seed=17,
        **kwargs,
    )


def assert_datasets_identical(left, right):
    np.testing.assert_array_equal(left.inputs, right.inputs)
    np.testing.assert_array_equal(left.targets, right.targets)


class TestGridExpansion:
    def test_points_are_indexed_in_grid_order(self):
        grid = expand_training_grid((10.0, 8.0), (3, 5), repeats=2)
        assert [point[0] for point in grid] == list(range(8))
        assert grid[0][1:] == (10.0, 3)
        assert grid[1][1:] == (10.0, 3)  # the repeat rides next to its sibling
        assert grid[2][1:] == (10.0, 5)
        assert grid[-1][1:] == (8.0, 5)

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            expand_training_grid((1.0,), (1,), repeats=0)


class TestParallelCollection:
    def test_parallel_collection_bit_identical_to_serial(self):
        serial = _collect()
        with ParallelExecutor(max_workers=2) as executor:
            parallel = _collect(executor=executor)
        assert_datasets_identical(serial, parallel)

    def test_store_assembled_dataset_bit_identical_to_serial(self, tmp_path):
        serial = _collect()
        stored = _collect(store=ExperimentStore(tmp_path))
        assert_datasets_identical(serial, stored)

    def test_store_accepts_root_path(self, tmp_path):
        stored = _collect(store=tmp_path)
        assert stored.n_samples >= 1
        assert list(tmp_path.glob("datasets/*.jsonl"))

    def test_collection_writes_manifest(self, tmp_path):
        store = ExperimentStore(tmp_path)
        _collect(store=store)
        collection_hash_ = collection_hash_for(
            _SCENARIO, _VECTOR, _DELTAS, _KS, seed=17, repeats=1
        )
        manifest = store.load_dataset_manifest(collection_hash_)
        assert manifest["scenario_id"] == _SCENARIO
        assert manifest["vector"] == _VECTOR.name
        assert manifest["n_points"] == len(_DELTAS) * len(_KS)

    def test_interrupted_collection_resumes_bit_identical(self, tmp_path):
        # Enough repeats that the grid spans two lane chunks, so the fault can
        # land between them.
        repeats = 5
        n_points = len(_DELTAS) * len(_KS) * repeats
        assert n_points > DEFAULT_BATCH_SIZE
        clean = _collect(repeats=repeats)
        store = ExperimentStore(tmp_path)
        with pytest.raises(InjectedFault):
            _collect(store=store, repeats=repeats, executor=FaultInjectingExecutor(1))
        collection_hash_ = collection_hash_for(
            _SCENARIO, _VECTOR, _DELTAS, _KS, seed=17, repeats=repeats
        )
        # Exactly the first chunk's grid points were checkpointed.
        done = store.dataset_point_indices(collection_hash_)
        assert done == set(range(DEFAULT_BATCH_SIZE))

        resumed = _collect(store=store, repeats=repeats)
        assert_datasets_identical(resumed, clean)
        # The resume recomputed only the missing points; all are now stored.
        assert store.dataset_point_indices(collection_hash_) == set(range(n_points))

    def test_chunks_are_bounded_and_fan_out_over_workers(self):
        serial = SerialExecutor()
        assert _collection_chunk_size(48, serial) == DEFAULT_BATCH_SIZE
        assert _collection_chunk_size(5, serial) == 5
        assert _collection_chunk_size(0, serial) == 1
        # A pool gets at least one chunk per worker.
        assert _collection_chunk_size(48, ParallelExecutor(max_workers=4)) == 12
        assert _collection_chunk_size(48, ParallelExecutor(max_workers=2)) == 16
        assert _collection_chunk_size(3, ParallelExecutor(max_workers=4)) == 1
        # A wrapping executor sizes chunks like the executor it wraps.
        wrapped = FaultInjectingExecutor(1, inner=ParallelExecutor(max_workers=4))
        assert _collection_chunk_size(48, wrapped) == 12

    def test_completed_collection_runs_nothing_on_reload(self, tmp_path):
        store = ExperimentStore(tmp_path)
        first = _collect(store=store)
        # A fault executor that dies on the first item proves nothing runs.
        second = _collect(store=store, executor=FaultInjectingExecutor(0))
        assert_datasets_identical(first, second)

    def test_different_seeds_use_disjoint_collections(self, tmp_path):
        store = ExperimentStore(tmp_path)
        _collect(store=store)
        other = collect_safety_dataset(
            scenario_id=_SCENARIO,
            vector=_VECTOR,
            delta_inject_values=_DELTAS,
            k_values=_KS,
            seed=18,
            store=store,
        )
        assert len(list(tmp_path.glob("datasets/*.jsonl"))) == 2
        assert other.n_samples >= 1


def _scalar_reference_rows(scenario_id, vector, deltas, ks, seed, repeats):
    """Collect a grid on the scalar ``Simulator``, one grid point at a time."""
    inputs, targets = [], []
    for job in _expand_jobs(deltas, ks, seed, repeats):
        spec = _grid_point_spec(scenario_id, vector, job)
        result = Simulator(
            spec.scenario, spec.ads, config=SimulationConfig(),
            attacker=spec.attacker, rng=spec.rng,
        ).run()
        label = _label_for_run(vector, result, spec.attacker, job.k_frames)
        features = spec.attacker.record.features_at_launch
        if label is not None and features is not None:
            inputs.append(list(features.as_array(job.k_frames)))
            targets.append(label)
    return np.asarray(inputs, dtype=float), np.asarray(targets, dtype=float).reshape(-1, 1)


class TestEngineIndependentReference:
    """Batch-lane collection reproduces the scalar simulator run per grid point."""

    @pytest.mark.parametrize(
        "scenario_id, vector",
        [
            ("DS-1", AttackVector.DISAPPEAR),
            # Move_In labels come from the perceived-delta trace.
            ("DS-3", AttackVector.MOVE_IN),
            # DS-7 trains under its degraded (foggy) detector.
            ("DS-7", AttackVector.DISAPPEAR),
        ],
    )
    def test_rows_match_scalar_simulator(self, scenario_id, vector):
        delta_grid, k_grid = training_grid_for(scenario_id)
        deltas, ks = delta_grid[:3:2], k_grid[:2]
        inputs, targets = _scalar_reference_rows(
            scenario_id, vector, deltas, ks, seed=7, repeats=1
        )
        dataset = collect_safety_dataset(
            scenario_id, vector, deltas, ks, seed=7, repeats=1
        )
        assert dataset.n_samples >= 2
        np.testing.assert_array_equal(dataset.inputs, inputs)
        np.testing.assert_array_equal(dataset.targets, targets)

    def test_ds1_disappear_dataset_hash_is_pinned(self):
        # The campaign's DS-1 Disappear oracle dataset (collection seed 7, two
        # repeats), recorded on the one-point-at-a-time scalar collection.
        delta_grid, k_grid = training_grid_for("DS-1")
        dataset = collect_safety_dataset(
            "DS-1", AttackVector.DISAPPEAR, delta_grid, k_grid, seed=7, repeats=2
        )
        assert dataset_content_hash(dataset) == (
            "e979ba54db6aa135a424431ca71a43cd6a6c47c5e4ae3a476a0e5f80c44a07e1"
        )


class TestCollectionVictim:
    def test_collection_lanes_run_the_scenarios_fusion_policy(self, monkeypatch):
        @register_scenario("TEST-CAMERA-ONLY", description="DS-1 with a camera-only victim")
        def _build(variation: ScenarioVariation):
            scenario = build_scenario("DS-1", variation)
            scenario.scenario_id = "TEST-CAMERA-ONLY"
            scenario.fusion_config = FusionConfig(policy="camera_only")
            return scenario

        lane_agents = []

        class RecordingBatchSimulator(BatchSimulator):
            def __init__(self, specs, config=None):
                lane_agents.extend(spec.ads for spec in specs)
                super().__init__(specs, config=config)

        monkeypatch.setattr(
            "repro.core.training.BatchSimulator", RecordingBatchSimulator
        )
        try:
            collect_safety_dataset(
                "TEST-CAMERA-ONLY", AttackVector.DISAPPEAR, (28.0, 21.0), (30,), seed=7
            )
        finally:
            scenarios_module._SCENARIOS.unregister("TEST-CAMERA-ONLY")
        assert len(lane_agents) == 2
        for agent in lane_agents:
            assert agent.perception.config.fusion.policy == "camera_only"
            assert isinstance(agent.perception.fusion, CameraOnlyFusion)


class TestLabelForRunClamp:
    """Regression: an attack launched on frame 0 must not read the trace tail."""

    @staticmethod
    def _attacker(start_frame):
        return SimpleNamespace(
            record=SimpleNamespace(launched=True, start_frame=start_frame)
        )

    def test_frame_zero_attack_reads_window_from_trace_start(self):
        # Rising trace: the minimum lives at the start; the old -1 slice start
        # read [last element] instead (trace[-1:] when k+15 >= len).
        trace = [float(value) for value in range(10, 40)]
        result = SimpleNamespace(
            events=SimpleNamespace(true_delta_trace=trace, perceived_delta_trace=[])
        )
        label = _label_for_run(AttackVector.DISAPPEAR, result, self._attacker(0), 20)
        assert label == 10.0

    def test_frame_zero_short_window_is_not_empty(self):
        # With a short window the old trace[-1 : k+14] slice was *empty* and
        # the run was silently dropped from the dataset.
        trace = [30.0, 29.0, 28.0, 27.0] + [26.0] * 40
        result = SimpleNamespace(
            events=SimpleNamespace(true_delta_trace=trace, perceived_delta_trace=[])
        )
        label = _label_for_run(AttackVector.DISAPPEAR, result, self._attacker(0), 5)
        assert label == 26.0

    def test_move_in_frame_zero_uses_first_finite_perceived_delta(self):
        trace = [float(_CLEAR_ROAD_DELTA_M)] * 3 + [12.5] + [11.0] * 30
        result = SimpleNamespace(
            events=SimpleNamespace(true_delta_trace=[], perceived_delta_trace=trace)
        )
        label = _label_for_run(AttackVector.MOVE_IN, result, self._attacker(0), 10)
        assert label == 12.5

    def test_move_in_label_saturates_when_shift_never_completes(self):
        trace = [float(_CLEAR_ROAD_DELTA_M)] * 40
        result = SimpleNamespace(
            events=SimpleNamespace(true_delta_trace=[], perceived_delta_trace=trace)
        )
        label = _label_for_run(AttackVector.MOVE_IN, result, self._attacker(5), 4)
        assert label == _CLEAR_ROAD_DELTA_M

    def test_later_frames_unchanged(self):
        trace = [50.0, 40.0, 30.0, 20.0, 10.0] + [45.0] * 40
        result = SimpleNamespace(
            events=SimpleNamespace(true_delta_trace=trace, perceived_delta_trace=[])
        )
        label = _label_for_run(AttackVector.DISAPPEAR, result, self._attacker(3), 2)
        assert label == 10.0

    def test_unlaunched_attack_has_no_label(self):
        result = SimpleNamespace(
            events=SimpleNamespace(true_delta_trace=[1.0], perceived_delta_trace=[1.0])
        )
        attacker = SimpleNamespace(record=SimpleNamespace(launched=False, start_frame=None))
        assert _label_for_run(AttackVector.DISAPPEAR, result, attacker, 5) is None


class TestModelRegistry:
    def _train(self, store, executor=None, epochs=8, seed=17):
        return train_and_register_predictor(
            _SCENARIO, _VECTOR, _DELTAS, _KS,
            seed=seed, repeats=1, epochs=epochs, executor=executor, store=store,
        )

    def test_artifact_without_store_is_not_persisted(self):
        artifact = train_and_register_predictor(
            _SCENARIO, _VECTOR, _DELTAS, _KS, seed=17, repeats=1, epochs=4
        )
        assert artifact.model_hash is None
        assert artifact.model_dir is None
        assert isinstance(artifact.predictor, NeuralSafetyPredictor)

    def test_registered_predictor_reloads_bit_identical(self, tmp_path):
        store = ExperimentStore(tmp_path)
        artifact = self._train(store)
        assert store.has_model(artifact.model_hash)

        loaded = load_registered_predictor(store, artifact.spec_hash)
        assert loaded is not None
        raw = np.random.default_rng(5).normal(size=(12, 4)) * 10.0
        np.testing.assert_array_equal(
            loaded.predict_batch(raw), artifact.predictor.predict_batch(raw)
        )

    def test_registry_metadata_records_provenance_and_curves(self, tmp_path):
        store = ExperimentStore(tmp_path)
        artifact = self._train(store, epochs=6)
        metadata = store.load_model_metadata(artifact.model_hash)
        assert metadata["scenario_id"] == _SCENARIO
        assert metadata["vector"] == _VECTOR.name
        assert metadata["dataset_hash"] == artifact.dataset_hash
        assert len(metadata["train_loss"]) == 6
        assert len(metadata["validation_loss"]) == 6

    def test_model_hash_covers_dataset_and_training_config(self, tmp_path):
        store = ExperimentStore(tmp_path)
        base = self._train(store, epochs=4)
        more_epochs = self._train(store, epochs=5)
        other_seed = self._train(store, epochs=4, seed=23)
        hashes = {base.model_hash, more_epochs.model_hash, other_seed.model_hash}
        assert len(hashes) == 3
        assert sorted(store.model_hashes()) == sorted(hashes)

    def test_unknown_spec_resolves_to_none(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec_hash = training_spec_hash(_SCENARIO, _VECTOR, _DELTAS, _KS)
        assert load_registered_predictor(store, spec_hash) is None

    def test_dataset_content_hash_is_content_sensitive(self):
        dataset = _collect()
        other = _collect()
        assert dataset_content_hash(dataset) == dataset_content_hash(other)
        perturbed = _collect()
        perturbed.targets[0, 0] += 1e-9
        assert dataset_content_hash(perturbed) != dataset_content_hash(dataset)

    def test_spec_hash_is_stable_and_spec_sensitive(self):
        base = training_spec_hash(_SCENARIO, _VECTOR, _DELTAS, _KS, epochs=10)
        assert base == training_spec_hash(_SCENARIO, _VECTOR, _DELTAS, _KS, epochs=10)
        assert base != training_spec_hash(_SCENARIO, _VECTOR, _DELTAS, _KS, epochs=11)
        assert base != training_spec_hash(
            _SCENARIO, AttackVector.MOVE_OUT, _DELTAS, _KS, epochs=10
        )

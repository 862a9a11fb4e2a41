"""Tests for the sim-key and the content-addressed artifact store.

The key contract: measurement-only fields never change a config's
simulation identity, every simulation-shaping field does, and the store
degrades to a miss (never a crash, never a wrong artifact) on damaged
or mismatched entries.
"""

from dataclasses import replace

import pytest

from repro.campaign.artifacts import (
    ARTIFACT_DIR_ENV,
    ArtifactStore,
    default_artifact_dir,
    sim_key,
)
from repro.core.experiment import Experiment, ExperimentConfig
from repro.spec import (
    MEASUREMENT_CONFIG_FIELDS,
    SIMULATION_CONFIG_FIELDS,
    canonical_experiment_dict,
    canonical_sim_dict,
)

BASE = ExperimentConfig(
    "_202_jess", vm="jikes", platform="p6", collector="SemiSpace",
    heap_mb=24, seed=99, input_scale=0.1, n_slices=40,
)

# One representative change per simulation-shaping field; each must
# produce a distinct sim-key.
SIM_CHANGES = {
    "benchmark": dict(benchmark="_209_db"),
    "vm": dict(vm="kaffe", collector=None),
    "platform": dict(platform="pxa255"),
    "collector": dict(collector="GenCopy"),
    "heap_mb": dict(heap_mb=32),
    "seed": dict(seed=100),
    "input_scale": dict(input_scale=0.2),
    "warmup": dict(warmup=False),
    "repetitions": dict(repetitions=2),
    "fan_enabled": dict(fan_enabled=False),
    "n_slices": dict(n_slices=41),
    "dvfs_freq_scale": dict(dvfs_freq_scale=0.7),
    "overrides": dict(overrides=(("hpm_period_s", 0.005),)),
}


class TestSimKey:
    def test_stable_across_calls(self):
        assert sim_key(BASE) == sim_key(BASE)
        assert len(sim_key(BASE)) == 64

    def test_measurement_fields_do_not_change_key(self):
        for period in (40e-6, 200e-6, 1e-3, 1e-2):
            assert sim_key(replace(BASE, daq_period_s=period)) == \
                sim_key(BASE)

    def test_hpm_measurement_fields_do_not_change_key(self):
        """The HPM knobs are measurement-side: sweeping them shares
        one artifact, exactly like DAQ-period sweeps."""
        assert sim_key(replace(BASE, hpm_period_s=0.002)) == \
            sim_key(BASE)
        assert sim_key(
            replace(BASE, hpm_rotation="xscale-pairs")
        ) == sim_key(BASE)

    def test_memo_never_shares_a_key_between_equal_configs(self):
        """``heap_mb=64`` and ``64.0`` compare (and hash) equal but
        serialize differently, so their keys differ whichever is keyed
        first."""
        for heaps in ((64, 64.0), (64.0, 64)):
            first, second = (replace(BASE, heap_mb=h) for h in heaps)
            assert first == second
            keys = [sim_key(first), sim_key(second)]
            assert keys[0] != keys[1]
            assert [sim_key(first), sim_key(second)] == keys
            assert [sim_key(replace(first)), sim_key(replace(second))] == \
                keys

    def test_memo_serializes_once_per_config(self, monkeypatch):
        import pickle

        from repro import spec

        calls = []
        original = spec.canonical_sim_dict

        def spy(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(spec, "canonical_sim_dict", spy)
        config = replace(BASE)
        key = sim_key(config)
        assert sim_key(config) == key
        # The memo travels with a pickled config (campaign workers).
        assert sim_key(pickle.loads(pickle.dumps(config))) == key
        assert len(calls) == 1

    @pytest.mark.parametrize("field", sorted(SIM_CHANGES))
    def test_every_simulation_field_changes_key(self, field):
        changed = replace(BASE, **SIM_CHANGES[field])
        assert sim_key(changed) != sim_key(BASE)

    def test_field_partition_is_total(self):
        """Every ExperimentConfig field is classified exactly once.

        Post-v1 fields (``overrides``, ``hpm_period_s``,
        ``hpm_rotation``) are elided from the canonical dict at their
        defaults, so probe with all of them set.
        """
        probed = replace(
            BASE, hpm_period_s=0.002, hpm_rotation="xscale-pairs",
            **SIM_CHANGES["overrides"],
        )
        fields = set(canonical_experiment_dict(probed))
        classified = set(SIMULATION_CONFIG_FIELDS) | \
            set(MEASUREMENT_CONFIG_FIELDS)
        assert fields == classified
        assert not set(SIMULATION_CONFIG_FIELDS) & \
            set(MEASUREMENT_CONFIG_FIELDS)

    def test_sim_dict_drops_only_measurement_fields(self):
        probed = replace(
            BASE, hpm_period_s=0.002, hpm_rotation="xscale-pairs",
        )
        full = canonical_experiment_dict(probed)
        sim = canonical_sim_dict(probed)
        assert set(full) - set(sim) == set(MEASUREMENT_CONFIG_FIELDS)
        for key, value in sim.items():
            assert full[key] == value


@pytest.fixture(scope="module")
def artifact():
    return Experiment(BASE).simulate().artifact()


class TestArtifactStore:
    def test_miss_then_hit(self, tmp_path, artifact):
        store = ArtifactStore(tmp_path)
        assert store.get(BASE) is None
        assert store.misses == 1
        store.put(BASE, artifact)
        assert BASE in store
        assert len(store) == 1
        loaded = store.get(BASE)
        assert loaded is not None
        assert loaded.sim_key == artifact.sim_key
        assert loaded.n_segments == artifact.n_segments
        assert store.hits == 1
        assert store.hit_rate == 0.5

    def test_roundtrip_measures_identically(self, tmp_path, artifact):
        store = ArtifactStore(tmp_path)
        store.put(BASE, artifact)
        experiment = Experiment(BASE)
        from_store = experiment.measure(store.get(BASE))
        from_memory = experiment.measure(artifact)
        assert from_store.cpu_energy_j == from_memory.cpu_energy_j
        assert from_store.mem_energy_j == from_memory.mem_energy_j

    def test_corrupt_entry_evicted(self, tmp_path, artifact):
        store = ArtifactStore(tmp_path)
        path = store.put(BASE, artifact)
        path.write_bytes(b"not a gzip pickle")
        assert store.get(BASE) is None
        assert not path.exists()

    def test_wrong_key_entry_evicted(self, tmp_path, artifact):
        """A moved/hand-renamed entry must not serve a wrong
        execution."""
        store = ArtifactStore(tmp_path)
        path = store.put(BASE, artifact)
        other = "f" * 64
        target = store.path_for_key(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        path.rename(target)
        assert store.get_key(other) is None
        assert not target.exists()

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path / "arts"))
        assert default_artifact_dir() == tmp_path / "arts"
        assert ArtifactStore().root == tmp_path / "arts"

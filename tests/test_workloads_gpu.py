"""Tests for the GPU collector family: catalog, signatures, injectors.

Also holds the refactor-parity oracle: the schema-aware
:class:`MetricSynthesizer` must render bit-identical telemetry to the frozen
:class:`PreRefactorSynthesizer` for any all-cardinality-1 catalog, so the
homogeneous paper scenarios are provably unchanged by the schema layer.
"""

import numpy as np
import pytest

from repro.anomalies import (
    GPU_INJECTORS,
    EccStorm,
    PowerCap,
    ThermalThrottle,
    VramLeak,
    make_injector,
)
from repro.workloads import GPU_APPS, default_catalog, gpu_catalog
from repro.workloads.metrics import (
    ALL_DRIVER_NAMES,
    DRIVER_NAMES,
    GPU_DRIVER_NAMES,
    MetricCatalog,
    MetricSpec,
    MetricSynthesizer,
    zero_drivers,
)

from oracles.workloads import PreRefactorSynthesizer


@pytest.fixture(scope="module")
def catalog2():
    return gpu_catalog(2)


@pytest.fixture(scope="module")
def gpu_drivers():
    app = next(iter(GPU_APPS.values()))
    return app.generate_drivers(120, seed=17)


class TestGpuCatalog:
    def test_extends_the_base_surface(self, catalog2):
        base = default_catalog()
        assert catalog2.metric_names[: base.n_columns] == base.metric_names
        # 12 per-card specs x 2 cards on top of the node-level columns.
        assert catalog2.n_columns == base.n_columns + 24
        assert catalog2.name == "gpu-node-2"
        assert catalog2.drivers == ALL_DRIVER_NAMES

    def test_per_card_columns_flatten_canonically(self, catalog2):
        assert "GPU_UTIL::gpu::card0" in catalog2.metric_names
        assert "GPU_UTIL::gpu::card1" in catalog2.metric_names
        assert "GPU_UTIL::gpu" not in catalog2.metric_names
        assert catalog2.sampler_metrics("gpu") == catalog2.metric_names[-24:]

    def test_counters_expand_per_card(self, catalog2):
        counters = set(catalog2.counter_names)
        for name in ("GPU_ECC_CE", "GPU_ECC_UE", "GPU_THROTTLE_EVENTS"):
            for card in (0, 1):
                assert f"{name}::gpu::card{card}" in counters
        assert "GPU_UTIL::gpu::card0" not in counters

    def test_schema_digest_depends_on_card_count(self):
        assert gpu_catalog(2).schema().digest != gpu_catalog(4).schema().digest
        assert gpu_catalog(2).schema().digest == gpu_catalog(2).schema().digest

    def test_invalid_card_count_rejected(self):
        with pytest.raises(ValueError, match="n_cards"):
            gpu_catalog(0)

    def test_gpu_drivers_off_axis_rejected(self):
        """The default node driver axis does not know the GPU channels."""
        spec = MetricSpec("X", "gpu", "gauge", 0.0, {"gpu_compute": 1.0})
        with pytest.raises(ValueError, match="driver axis"):
            MetricCatalog([spec])  # drivers=DRIVER_NAMES by default


class TestGpuApplicationSignature:
    def test_emits_all_driver_channels(self, gpu_drivers):
        assert set(ALL_DRIVER_NAMES) <= set(gpu_drivers)
        assert {len(v) for v in gpu_drivers.values()} == {120}

    def test_channels_stay_physical(self, gpu_drivers):
        occ = gpu_drivers["gpu_compute"]
        assert occ.min() >= 0.0 and occ.max() <= 1.0
        assert occ.max() > 0.2  # offload bursts actually happen
        for ch in ("gpu_vram_mb", "gpu_power_w", "gpu_temp_c", "gpu_ecc_rate"):
            assert gpu_drivers[ch].min() >= 0.0
        # Healthy cards do not throttle.
        assert np.all(gpu_drivers["gpu_throttle_rate"] == 0.0)

    def test_deterministic_per_seed(self):
        app = next(iter(GPU_APPS.values()))
        a = app.generate_drivers(60, seed=3)
        b = app.generate_drivers(60, seed=3)
        c = app.generate_drivers(60, seed=4)
        np.testing.assert_array_equal(a["gpu_compute"], b["gpu_compute"])
        assert not np.array_equal(a["gpu_compute"], c["gpu_compute"])


class TestGpuSynthesis:
    def test_renders_per_card_columns(self, catalog2, gpu_drivers):
        synth = MetricSynthesizer(catalog2, 64 * 1024.0)
        s = synth.synthesize(gpu_drivers, job_id=1, component_id=5, seed=0)
        assert s.values.shape == (120, catalog2.n_columns)
        assert s.metric_names == catalog2.metric_names
        assert s.schema is not None
        assert s.schema_digest == catalog2.schema().digest

    def test_cards_share_drivers_but_differ_in_character(self, catalog2, gpu_drivers):
        synth = MetricSynthesizer(catalog2, 64 * 1024.0)
        s = synth.synthesize(gpu_drivers, job_id=1, component_id=5, seed=0)
        c0 = s.metric("GPU_UTIL::gpu::card0")
        c1 = s.metric("GPU_UTIL::gpu::card1")
        # Same latent occupancy drives both cards...
        assert np.corrcoef(c0, c1)[0, 1] > 0.9
        # ...but per-column jitter/noise keeps the cards distinct hardware.
        assert not np.array_equal(c0, c1)


class TestGpuInjectors:
    def rng(self):
        return np.random.default_rng(0)

    def test_vramleak_ramps_toward_capacity(self, gpu_drivers):
        inj = VramLeak(rate_mb_s=50.0, capacity_mb=65536.0)
        out = inj.apply(gpu_drivers, self.rng())
        delta = out["gpu_vram_mb"] - gpu_drivers["gpu_vram_mb"]
        assert delta[-1] > delta[10] > 0.0
        assert out["gpu_vram_mb"].max() <= 0.98 * 65536.0 + 1e-9

    def test_thermalthrottle_heats_and_throttles(self, gpu_drivers):
        inj = ThermalThrottle(delta_c=22.0)
        out = inj.apply(gpu_drivers, self.rng())
        assert out["gpu_temp_c"].mean() > gpu_drivers["gpu_temp_c"].mean() + 15.0
        assert out["gpu_throttle_rate"].min() >= 3.0
        assert out["gpu_compute"].mean() < gpu_drivers["gpu_compute"].mean()

    def test_powercap_clamps_power_and_cools(self, gpu_drivers):
        inj = PowerCap(cap_w=200.0)
        out = inj.apply(gpu_drivers, self.rng())
        assert out["gpu_power_w"].max() <= 200.0 + 1e-9
        # Less dissipated heat: the inverted thermal signature of throttling.
        assert out["gpu_temp_c"].mean() < gpu_drivers["gpu_temp_c"].mean()
        assert out["gpu_compute"].mean() < gpu_drivers["gpu_compute"].mean()

    def test_eccstorm_floods_correctable_errors(self, gpu_drivers):
        inj = EccStorm(rate_per_s=40.0)
        out = inj.apply(gpu_drivers, self.rng())
        assert out["gpu_ecc_rate"].mean() > 20.0
        assert gpu_drivers["gpu_ecc_rate"].mean() < 1.0  # input not mutated

    def test_requires_gpu_channels(self):
        cpu_only = zero_drivers(30, DRIVER_NAMES)
        with pytest.raises(KeyError, match="missing channels"):
            VramLeak().apply(cpu_only, self.rng())

    def test_input_never_mutated(self, gpu_drivers):
        before = {k: v.copy() for k, v in gpu_drivers.items()}
        ThermalThrottle().apply(gpu_drivers, self.rng())
        for k in before:
            np.testing.assert_array_equal(gpu_drivers[k], before[k])

    def test_suite_covers_all_four(self):
        names = [inj.name for inj in GPU_INJECTORS()]
        assert names == ["vramleak", "thermalthrottle", "powercap", "eccstorm"]

    def test_make_injector_knows_the_gpu_family(self):
        assert isinstance(make_injector("eccstorm", rate_per_s=10.0), EccStorm)
        assert isinstance(make_injector("powercap", cap_w=300.0), PowerCap)
        with pytest.raises(KeyError) as err:
            make_injector("gpuleak")
        # The error enumerates both families.
        for name in ("vramleak", "memleak", "thermalthrottle", "iodelay"):
            assert name in str(err.value)


class TestPreRefactorParity:
    """The homogeneous paper path is bit-identical across the refactor."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_catalog_bit_identical(self, seed):
        catalog = default_catalog()
        rng = np.random.default_rng(seed)
        drivers = zero_drivers(200)
        drivers["compute"] = rng.uniform(0.0, 1.0, 200)
        drivers["memory_mb"] = rng.uniform(0.0, 4000.0, 200)
        drivers["io_read_mbps"] = rng.uniform(0.0, 50.0, 200)
        new = MetricSynthesizer(catalog, 128 * 1024.0).synthesize(
            drivers, job_id=1, component_id=2, seed=seed
        )
        old = PreRefactorSynthesizer(catalog, 128 * 1024.0).synthesize(
            drivers, job_id=1, component_id=2, seed=seed
        )
        assert new.metric_names == old.metric_names
        np.testing.assert_array_equal(new.values, old.values)
        np.testing.assert_array_equal(new.timestamps, old.timestamps)

    def test_oracle_refuses_sub_entity_catalogs(self):
        with pytest.raises(ValueError, match="per-entity"):
            PreRefactorSynthesizer(gpu_catalog(2), 64 * 1024.0)

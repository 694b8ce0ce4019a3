"""Tests for the metric-schema layer and schema-partitioned extraction.

Covers the canonical flatten rule, schema digests and the registry, schema
propagation on :class:`NodeSeries`, per-card counter preprocessing, and the
parity guarantee that schema-digest grouping in the engine's ``extract``
is bit-identical to the dense path on homogeneous fleets.
"""

import numpy as np
import pytest

from repro.features import FeatureExtractor
from repro.runtime import ParallelExtractor
from repro.telemetry import NodeSeries
from repro.telemetry.preprocessing import difference_counters, standard_preprocess
from repro.telemetry.schema import (
    COUNTER,
    GAUGE,
    MetricField,
    MetricSchema,
    SchemaRegistry,
    flatten_names,
    names_digest,
)


class TestFlattenRule:
    def test_cardinality_one_is_ldms_form(self):
        assert flatten_names("MemFree", "meminfo") == ("MemFree::meminfo",)

    def test_sub_entity_expands_per_instance(self):
        assert flatten_names("GPU_UTIL", "gpu", cardinality=3, entity="card") == (
            "GPU_UTIL::gpu::card0",
            "GPU_UTIL::gpu::card1",
            "GPU_UTIL::gpu::card2",
        )

    def test_cardinality_one_with_entity_still_expands(self):
        assert flatten_names("GPU_UTIL", "gpu", cardinality=1, entity="card") == (
            "GPU_UTIL::gpu::card0",
        )

    def test_invalid_cardinality_rejected(self):
        with pytest.raises(ValueError, match="cardinality"):
            flatten_names("m", "s", cardinality=0)

    def test_multi_instance_requires_entity(self):
        with pytest.raises(ValueError, match="entity"):
            flatten_names("m", "s", cardinality=2)


class TestNamesDigest:
    def test_deterministic_and_order_sensitive(self):
        assert names_digest(("a", "b")) == names_digest(("a", "b"))
        assert names_digest(("a", "b")) != names_digest(("b", "a"))

    def test_no_concatenation_collisions(self):
        assert names_digest(("ab", "c")) != names_digest(("a", "bc"))


class TestMetricField:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="gauge|counter"):
            MetricField("m", "s", kind="rate")

    def test_rejects_multi_instance_without_entity(self):
        with pytest.raises(ValueError, match="entity"):
            MetricField("m", "s", cardinality=4)

    def test_flat_names(self):
        f = MetricField("GPU_ECC_CE", "gpu", COUNTER, cardinality=2, entity="card")
        assert f.flat_names == ("GPU_ECC_CE::gpu::card0", "GPU_ECC_CE::gpu::card1")


def schema_of(*fields):
    return MetricSchema("test", fields)


class TestMetricSchema:
    def test_flat_names_expand_in_field_order(self):
        s = schema_of(
            MetricField("a", "s1"),
            MetricField("g", "gpu", GAUGE, cardinality=2, entity="card"),
            MetricField("b", "s1"),
        )
        assert s.flat_metric_names == (
            "a::s1", "g::gpu::card0", "g::gpu::card1", "b::s1",
        )
        assert s.n_columns == 4

    def test_counter_and_gauge_partition(self):
        s = schema_of(
            MetricField("c", "s", COUNTER, cardinality=2, entity="card"),
            MetricField("g", "s", GAUGE),
        )
        assert s.counter_names == ("c::s::card0", "c::s::card1")
        assert s.gauge_names == ("g::s",)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            schema_of(MetricField("a", "s"), MetricField("a", "s"))

    def test_field_of_resolves_sub_entity_columns(self):
        f = MetricField("g", "gpu", GAUGE, cardinality=2, entity="card")
        s = schema_of(f)
        assert s.field_of("g::gpu::card1") is f
        with pytest.raises(KeyError, match="no column"):
            s.field_of("g::gpu::card2")

    def test_samplers(self):
        s = schema_of(
            MetricField("a", "meminfo"),
            MetricField("b", "gpu"),
            MetricField("c", "meminfo"),
        )
        assert s.samplers() == ("meminfo", "gpu")
        assert s.sampler_metrics("meminfo") == ("a::meminfo", "c::meminfo")
        with pytest.raises(KeyError):
            s.sampler_metrics("vmstat")

    def test_digest_is_name_independent(self):
        fields = (MetricField("a", "s"), MetricField("b", "s"))
        assert MetricSchema("x", fields).digest == MetricSchema("y", fields).digest

    def test_digest_matches_names_digest(self):
        s = schema_of(MetricField("g", "gpu", GAUGE, cardinality=2, entity="card"))
        assert s.digest == names_digest(s.flat_metric_names)

    def test_digest_changes_with_cardinality(self):
        a = schema_of(MetricField("g", "gpu", GAUGE, cardinality=2, entity="card"))
        b = schema_of(MetricField("g", "gpu", GAUGE, cardinality=3, entity="card"))
        assert a.digest != b.digest


class TestSchemaRegistry:
    def test_register_and_lookup(self):
        reg = SchemaRegistry()
        s = schema_of(MetricField("a", "s"))
        reg.register(s)
        assert "test" in reg and len(reg) == 1
        assert reg.get("test") is s
        assert reg.by_digest(s.digest) is s
        assert reg.for_metric_names(("a::s",)) is s

    def test_unknown_lookups(self):
        reg = SchemaRegistry()
        reg.register(schema_of(MetricField("a", "s")))
        with pytest.raises(KeyError, match="registered"):
            reg.get("nope")
        assert reg.by_digest("feedface") is None
        assert reg.for_metric_names(("z::s",)) is None

    def test_reregister_same_layout_ok_conflict_rejected(self):
        reg = SchemaRegistry()
        reg.register(schema_of(MetricField("a", "s")))
        reg.register(schema_of(MetricField("a", "s")))  # idempotent
        with pytest.raises(ValueError, match="different layout"):
            reg.register(schema_of(MetricField("b", "s")))


def card_series(values, names, schema=None, job=1, comp=2):
    values = np.asarray(values, dtype=float)
    ts = np.arange(values.shape[0], dtype=float)
    return NodeSeries(job, comp, ts, values, tuple(names), schema=schema)


class TestNodeSeriesSchema:
    def schema(self):
        return schema_of(
            MetricField("c", "gpu", COUNTER, cardinality=2, entity="card"),
            MetricField("g", "gpu"),
        )

    def test_attach_and_digest(self):
        s = self.schema()
        ns = card_series(np.zeros((3, 3)), s.flat_metric_names, schema=s)
        assert ns.schema_digest == s.digest

    def test_digest_fallback_equals_schema_digest(self):
        """Series without a schema object group with schema-tagged peers."""
        s = self.schema()
        bare = card_series(np.zeros((3, 3)), s.flat_metric_names)
        assert bare.schema is None
        assert bare.schema_digest == s.digest

    def test_mismatched_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            card_series(np.zeros((3, 2)), ("x", "y"), schema=self.schema())

    def test_schema_survives_transformations(self):
        s = self.schema()
        ns = card_series(np.random.default_rng(0).random((40, 3)),
                         s.flat_metric_names, schema=s)
        assert ns.with_values(ns.values * 2).schema is s
        assert ns.trim(5.0).schema is s
        assert ns.resample(16).schema is s


class TestPerCardCounterPreprocessing:
    """Satellite: counter wraparound + per-card differencing."""

    NAMES = ("GPU_ECC_CE::gpu::card0", "GPU_ECC_CE::gpu::card1", "GPU_UTIL::gpu::card0")
    COUNTERS = ("GPU_ECC_CE::gpu::card0", "GPU_ECC_CE::gpu::card1")

    def test_wraparound_clamps_only_the_wrapping_card(self):
        # card0 wraps (counter reset) at t=2; card1 is monotone; the gauge
        # column must pass through untouched.
        values = np.array([
            [10.0, 100.0, 50.0],
            [20.0, 110.0, 51.0],
            [5.0, 130.0, 52.0],
            [15.0, 160.0, 53.0],
        ])
        out = difference_counters(card_series(values, self.NAMES), self.COUNTERS)
        np.testing.assert_allclose(out.metric("GPU_ECC_CE::gpu::card0"),
                                   [0.0, 10.0, 0.0, 10.0])
        np.testing.assert_allclose(out.metric("GPU_ECC_CE::gpu::card1"),
                                   [0.0, 10.0, 20.0, 30.0])
        np.testing.assert_allclose(out.metric("GPU_UTIL::gpu::card0"),
                                   values[:, 2])

    def test_cards_are_differenced_independently(self):
        rng = np.random.default_rng(3)
        rates = rng.uniform(0.0, 5.0, size=(50, 2))
        values = np.column_stack([
            np.cumsum(rates[:, 0]) + 1e6,   # distinct boot offsets per card
            np.cumsum(rates[:, 1]) + 42.0,
            rng.random(50),
        ])
        out = difference_counters(card_series(values, self.NAMES), self.COUNTERS)
        np.testing.assert_allclose(out.metric("GPU_ECC_CE::gpu::card0")[1:],
                                   rates[1:, 0], atol=1e-6)
        np.testing.assert_allclose(out.metric("GPU_ECC_CE::gpu::card1")[1:],
                                   rates[1:, 1], atol=1e-6)

    def test_gpu_catalog_counters_through_standard_preprocess(self):
        """The real per-card counter set round-trips the full chain."""
        from repro.workloads import gpu_catalog

        catalog = gpu_catalog(2)
        rng = np.random.default_rng(9)
        n = 100
        values = rng.random((n, catalog.n_columns))
        is_counter = np.array([c in set(catalog.counter_names)
                               for c in catalog.metric_names])
        values[:, is_counter] = np.cumsum(values[:, is_counter], axis=0) + 500.0
        raw = card_series(values, catalog.metric_names)
        clean = standard_preprocess(raw, catalog.counter_names, trim_seconds=10.0)
        # Differenced counters are rates again — bounded by the raw rate
        # range, nowhere near the accumulated magnitudes.
        for col in ("GPU_ECC_CE::gpu::card0", "GPU_THROTTLE_EVENTS::gpu::card1"):
            assert clean.metric(col).max() < 2.0
        # Gauges untouched apart from the trim.
        assert clean.metric("GPU_UTIL::gpu::card0").max() <= 1.0


def plain_series(names, *, job=1, comp=1, t=60, seed=0):
    rng = np.random.default_rng(seed)
    return NodeSeries(job, comp, np.arange(t, dtype=float),
                      rng.random((t, len(names))), tuple(names))


class TestSchemaDigestGrouping:
    """Satellite: schema-digest grouping parity against the dense path."""

    def test_homogeneous_table_bit_identical_to_matrix(self):
        fx = FeatureExtractor(resample_points=32)
        series = [plain_series(("a", "b"), comp=i, seed=i) for i in range(4)]
        samples = ParallelExtractor(fx).extract(series)
        mat, names = fx.extract_matrix(series)
        assert samples.present is None
        assert samples.feature_names == names
        assert np.array_equal(samples.features, mat)

    def test_mixed_fleet_partitions_by_digest(self):
        fx = FeatureExtractor(resample_points=32)
        narrow = [plain_series(("a", "b"), comp=i, seed=i) for i in range(2)]
        wide = [plain_series(("a", "b", "c"), comp=10 + i, seed=10 + i)
                for i in range(2)]
        series = [narrow[0], wide[0], narrow[1], wide[1]]
        samples = ParallelExtractor(fx).extract(series)
        assert not samples.is_dense

        mat_n, names_n = fx.extract_matrix(narrow)
        mat_w, names_w = fx.extract_matrix(wide)
        # Union feature axis is first-appearance ordered: the narrow group's
        # columns first, then the wide group's novel ``c`` features.
        assert samples.feature_names[: len(names_n)] == names_n
        assert set(samples.feature_names) == set(names_n) | set(names_w)

        col = {n: j for j, n in enumerate(samples.feature_names)}
        cols_n = [col[n] for n in names_n]
        cols_w = [col[n] for n in names_w]
        np.testing.assert_array_equal(samples.features[np.ix_((0, 2), cols_n)], mat_n)
        np.testing.assert_array_equal(samples.features[np.ix_((1, 3), cols_w)], mat_w)
        # Mask marks exactly each row's own schema columns; absent cells are 0.
        assert samples.present[0, cols_n].all()
        only_c = [col[n] for n in names_w if n not in set(names_n)]
        assert not samples.present[0, only_c].any()
        assert np.all(samples.features[~samples.present] == 0.0)

    def test_attached_schemas_group_with_bare_series(self, monkeypatch):
        """Schema-tagged and name-only series with the same layout co-group."""
        from repro.workloads import default_catalog

        catalog = default_catalog()
        schema = catalog.schema()
        names = catalog.metric_names
        tagged = NodeSeries(1, 1, np.arange(30, dtype=float),
                            np.random.default_rng(0).random((30, len(names))),
                            names, schema=schema)
        bare = NodeSeries(1, 2, np.arange(30, dtype=float),
                          np.random.default_rng(1).random((30, len(names))),
                          names)
        assert tagged.schema_digest == bare.schema_digest

        engine = ParallelExtractor(FeatureExtractor(resample_points=16))
        extract_matrix = engine.extract_matrix
        batches = []

        def recording(series):
            batches.append([s.component_id for s in series])
            return extract_matrix(series)

        monkeypatch.setattr(engine, "extract_matrix", recording)
        samples = engine.extract([tagged, bare])
        assert batches == [[1, 2]]  # one partition, one dense batch
        assert samples.present is None
        assert np.array_equal(samples.features, extract_matrix([tagged, bare])[0])

"""Unit/integration tests for the spot-VM subsystem."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.management.spot import (
    SpotAdoptionAdvisor,
    SpotEvictionModel,
    SpotEvictionPredictor,
)
from repro.telemetry.schema import Cloud, ClusterInfo
from repro.telemetry.store import TraceStore
from repro.timebase import SECONDS_PER_HOUR
from tests.test_store import make_vm


def dense_region_pressure(store, cloud, region):
    """Hours x VMs oracle for ``SpotAdoptionAdvisor._region_pressure``.

    Materializes the boolean ``alive`` matrix and multiplies it by the
    cores vector: the direct definition the cumulative-sum kernel must
    reproduce bit for bit.
    """
    vms = store.vms(cloud=cloud, region=region)
    capacity = sum(
        c.capacity_cores
        for c in store.clusters.values()
        if c.region == region and c.cloud == cloud
    )
    n_hours = int(store.metadata.duration // SECONDS_PER_HOUR)
    if not vms or capacity <= 0:
        return np.zeros(n_hours)
    starts = np.array([vm.created_at for vm in vms])
    ends = np.array([vm.ended_at for vm in vms])
    cores = np.array([vm.cores for vm in vms])
    boundaries = SECONDS_PER_HOUR * np.arange(n_hours)
    alive = (starts[None, :] <= boundaries[:, None]) & (
        ends[None, :] > boundaries[:, None]
    )
    return (alive @ cores) / capacity


class TestEvictionModel:
    def test_no_eviction_below_knee(self):
        model = SpotEvictionModel(knee=0.75)
        assert model.hourly_eviction_probability(0.5) == 0.0
        assert model.hourly_eviction_probability(0.75) == 0.0

    def test_rises_to_max(self):
        model = SpotEvictionModel(knee=0.5, max_rate=0.4)
        assert model.hourly_eviction_probability(1.0) == pytest.approx(0.4)
        assert 0 < model.hourly_eviction_probability(0.8) < 0.4

    def test_monotone(self):
        model = SpotEvictionModel()
        pressures = np.linspace(0, 1, 50)
        probs = [model.hourly_eviction_probability(p) for p in pressures]
        assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:], strict=False))

    def test_pressure_clipped(self):
        model = SpotEvictionModel()
        assert model.hourly_eviction_probability(2.0) == model.hourly_eviction_probability(1.0)

    def test_survival(self):
        model = SpotEvictionModel(knee=0.5, max_rate=0.5)
        surv = model.survival_probability(np.array([1.0, 1.0]))
        assert surv == pytest.approx(0.25)
        assert model.survival_probability(np.array([0.1, 0.2])) == 1.0

    def test_invalid_knee(self):
        with pytest.raises(ValueError):
            SpotEvictionModel(knee=1.5)


class TestEvictionPredictor:
    def test_learns_pressure_relationship(self, rng):
        model = SpotEvictionModel(knee=0.6, max_rate=0.5)
        n = 8000
        pressures = rng.uniform(0.2, 1.0, n)
        cores = rng.choice([1.0, 4.0], n)
        hours = rng.uniform(0, 24, n)
        evicted = np.array(
            [float(rng.random() < model.hourly_eviction_probability(p)) for p in pressures]
        )
        predictor = SpotEvictionPredictor().fit(pressures, cores, hours, evicted)
        assert predictor.predict_risk(0.98, 4, 12) > predictor.predict_risk(0.4, 4, 12)


class TestAdoptionAdvisor:
    def test_what_if_on_generated_trace(self, small_trace):
        advisor = SpotAdoptionAdvisor(small_trace)
        report = advisor.analyze()
        assert report.n_total_completed > 0
        assert 0 < report.n_candidates <= report.n_total_completed
        assert 0 < report.candidate_core_hours <= report.total_core_hours
        assert 0 < report.cost_saving_fraction < 1
        assert report.expected_evictions >= 0
        assert 0 <= report.valley_start_fraction <= 1

    def test_candidate_fraction_matches_short_lived_public(self, small_trace):
        advisor = SpotAdoptionAdvisor(small_trace)
        report = advisor.analyze()
        # The paper's motivation: most completed public VMs are candidates.
        assert report.candidate_fraction > 0.5

    def test_discount_scales_savings(self, small_trace):
        low = SpotAdoptionAdvisor(small_trace, spot_discount=0.3).analyze()
        high = SpotAdoptionAdvisor(small_trace, spot_discount=0.9).analyze()
        assert high.cost_saving_fraction == pytest.approx(
            3 * low.cost_saving_fraction
        )

    def test_invalid_discount(self, small_trace):
        with pytest.raises(ValueError):
            SpotAdoptionAdvisor(small_trace, spot_discount=1.5)

    def test_empty_store_raises(self):
        with pytest.raises(ValueError):
            SpotAdoptionAdvisor(TraceStore()).analyze()

    def test_max_candidate_lifetime_filters(self, small_trace):
        strict = SpotAdoptionAdvisor(small_trace, max_candidate_lifetime=600.0).analyze()
        loose = SpotAdoptionAdvisor(small_trace, max_candidate_lifetime=86400.0).analyze()
        assert strict.n_candidates < loose.n_candidates


class TestRegionPressure:
    def test_matches_dense_oracle(self, small_trace):
        for cloud in (Cloud.PRIVATE, Cloud.PUBLIC):
            advisor = SpotAdoptionAdvisor(small_trace, cloud=cloud)
            for region in small_trace.region_names(cloud=cloud):
                np.testing.assert_array_equal(
                    advisor._region_pressure(region),
                    dense_region_pressure(small_trace, cloud, region),
                )

    def test_matches_dense_oracle_on_hour_boundaries(self):
        # Starts and ends exactly on hour boundaries, a zero-lifetime VM, a
        # VM that predates the window and a censored one.
        store = TraceStore()
        store.add_cluster(
            ClusterInfo(
                cluster_id=0, region="us-east", cloud=Cloud.PUBLIC, n_nodes=2,
                node_capacity_cores=16.0, node_capacity_memory_gb=64.0,
            )
        )
        spans = [
            (0.0, 3600.0), (3600.0, 3600.0), (-7200.0, 7200.0),
            (1800.0, float("inf")), (3600.0, 10800.0), (7199.0, 7200.0),
        ]
        for vm_id, (start, end) in enumerate(spans):
            store.add_vm(
                make_vm(vm_id, cloud=Cloud.PUBLIC, cores=2.0 + vm_id,
                        created_at=start, ended_at=end)
            )
        advisor = SpotAdoptionAdvisor(store)
        np.testing.assert_array_equal(
            advisor._region_pressure("us-east"),
            dense_region_pressure(store, Cloud.PUBLIC, "us-east"),
        )

    def test_peak_memory_is_a_few_words_per_vm(self, small_trace):
        # tracemalloc peaks are deterministic, unlike wall time.  An
        # hours x VMs matrix costs ~9 bytes per VM-hour (over 1,500 per VM
        # for a week); the cumulative-sum kernel needs well under 256.
        advisor = SpotAdoptionAdvisor(small_trace)
        region = max(
            small_trace.region_names(cloud=Cloud.PUBLIC),
            key=lambda r: len(small_trace.vms(cloud=Cloud.PUBLIC, region=r)),
        )
        n_vms = len(small_trace.vms(cloud=Cloud.PUBLIC, region=region))
        tracemalloc.start()
        try:
            advisor._region_pressure(region)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n_vms <= 256, f"{peak / n_vms:.0f} bytes per VM over {n_vms} VMs"

"""Resource pool, switch model, and job-description validation."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec
from repro.hardware.presets import BEEFY_L5630, CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.simulator.engine import ClusterSimulator
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.multiplex import run_multiplexed
from repro.simulator.network import IDEAL_SWITCH, SMC_GS5_SWITCH, SwitchModel
from repro.simulator.resources import ResourcePool, cpu, disk, nic_in, nic_out


class TestResourcePool:
    def test_four_resources_per_node(self):
        pool = ResourcePool(ClusterSpec.homogeneous(CLUSTER_V_NODE, 3))
        assert len(pool) == 12
        assert pool.num_nodes == 3

    def test_capacities_from_spec(self):
        pool = ResourcePool(ClusterSpec.homogeneous(CLUSTER_V_NODE, 1))
        caps = pool.capacities()
        assert caps[cpu(0)] == CLUSTER_V_NODE.cpu_bandwidth_mbps
        assert caps[disk(0)] == CLUSTER_V_NODE.disk_bandwidth_mbps
        assert caps[nic_in(0)] == CLUSTER_V_NODE.nic_bandwidth_mbps
        assert caps[nic_out(0)] == CLUSTER_V_NODE.nic_bandwidth_mbps

    def test_mixed_cluster_capacities(self):
        pool = ResourcePool(ClusterSpec.beefy_wimpy(BEEFY_L5630, 1, WIMPY_LAPTOP_B, 1))
        caps = pool.capacities()
        assert caps[cpu(0)] == BEEFY_L5630.cpu_bandwidth_mbps
        assert caps[cpu(1)] == WIMPY_LAPTOP_B.cpu_bandwidth_mbps
        assert pool.node_role(0) == "beefy"
        assert pool.node_role(1) == "wimpy"

    def test_network_kind_detection(self):
        pool = ResourcePool(ClusterSpec.homogeneous(CLUSTER_V_NODE, 1))
        assert pool.is_network(nic_in(0))
        assert pool.is_network(nic_out(0))
        assert not pool.is_network(cpu(0))
        assert not pool.is_network(disk(0))

    def test_contains_and_lookup(self):
        pool = ResourcePool(ClusterSpec.homogeneous(CLUSTER_V_NODE, 2))
        assert cpu(1) in pool
        assert "cpu:9" not in pool
        assert pool.resource(disk(1)).kind == "disk"
        with pytest.raises(ConfigurationError):
            pool.resource("ghost:0")

    def test_capacities_are_a_fresh_dict(self):
        pool = ResourcePool(ClusterSpec.homogeneous(CLUSTER_V_NODE, 1))
        caps = pool.capacities()
        caps[cpu(0)] = 1.0
        assert pool.capacities()[cpu(0)] == CLUSTER_V_NODE.cpu_bandwidth_mbps


class TestSwitchModel:
    def test_ideal_switch_is_lossless(self):
        assert IDEAL_SWITCH.efficiency(1) == 1.0
        assert IDEAL_SWITCH.efficiency(1000) == 1.0

    def test_single_flow_never_penalized(self):
        assert SMC_GS5_SWITCH.efficiency(1) == 1.0
        assert SMC_GS5_SWITCH.efficiency(0) == 1.0

    def test_efficiency_decreases_with_flows(self):
        values = [SMC_GS5_SWITCH.efficiency(n) for n in (2, 8, 32)]
        assert values == sorted(values, reverse=True)
        assert all(0.0 < v < 1.0 for v in values)

    def test_calibrated_value(self):
        # eta = 0.012: 8 flows -> 1/(1 + 0.012*7)
        assert SMC_GS5_SWITCH.efficiency(8) == pytest.approx(1.0 / 1.084)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SwitchModel(per_flow_interference=-0.1)


def replay_serial(jobs):
    return ClusterSimulator(ClusterSpec.homogeneous(CLUSTER_V_NODE, 1)).run(jobs)


def replay_multiplexed(jobs):
    simulator = ClusterSimulator(
        ClusterSpec.homogeneous(CLUSTER_V_NODE, 1), record_intervals=False
    )
    (result,) = run_multiplexed([(simulator, jobs)])
    return result


def one_flow_jobs(volume, coef):
    return [Job("j", (Phase("p", (FlowSpec("f", volume, {cpu(0): coef}),)),))]


class TestJobValidation:
    def test_flow_negative_volume(self):
        with pytest.raises(ConfigurationError):
            FlowSpec("f", -1.0, {cpu(0): 1.0})

    def test_flow_volume_without_demands(self):
        with pytest.raises(ConfigurationError):
            FlowSpec("f", 10.0, {})

    def test_flow_zero_volume_without_demands_allowed(self):
        assert FlowSpec("f", 0.0, {}).volume_mb == 0.0

    def test_flow_nonpositive_coefficient(self):
        with pytest.raises(ConfigurationError):
            FlowSpec("f", 10.0, {cpu(0): 0.0})

    # Non-finite values used to reach the replay: a NaN volume finished its
    # job at t=0 with 0 J on both paths, and an infinite volume or
    # coefficient or a NaN coefficient failed deep in the loop with a
    # misleading "stalled", "no loaded resources" or "utilization is NaN".
    @pytest.mark.parametrize("replay", [replay_serial, replay_multiplexed])
    @pytest.mark.parametrize("volume", [math.nan, math.inf])
    def test_non_finite_volume_never_reaches_a_replay(self, replay, volume):
        with pytest.raises(ConfigurationError, match="volume must be finite"):
            replay(one_flow_jobs(volume, 1.0))

    @pytest.mark.parametrize("replay", [replay_serial, replay_multiplexed])
    @pytest.mark.parametrize("coef", [math.nan, math.inf])
    def test_non_finite_coefficient_never_reaches_a_replay(self, replay, coef):
        with pytest.raises(ConfigurationError, match="must be finite and > 0"):
            replay(one_flow_jobs(10.0, coef))

    @pytest.mark.parametrize("replay", [replay_serial, replay_multiplexed])
    def test_finite_flow_replays_on_both_paths(self, replay):
        result = replay(one_flow_jobs(10.0, 1.0))
        assert result.makespan_s > 0 and result.energy_j > 0

    def test_phase_needs_flows(self):
        with pytest.raises(ConfigurationError):
            Phase("p", ())

    def test_job_needs_phases(self):
        with pytest.raises(ConfigurationError):
            Job("j", ())

    def test_job_negative_start(self):
        phase = Phase("p", (FlowSpec("f", 1.0, {cpu(0): 1.0}),))
        with pytest.raises(ConfigurationError):
            Job("j", (phase,), start_time_s=-1.0)

    def test_volume_accounting(self):
        phase = Phase(
            "p",
            (
                FlowSpec("a", 10.0, {cpu(0): 1.0}),
                FlowSpec("b", 20.0, {cpu(1): 1.0}),
            ),
        )
        job = Job("j", (phase, phase))
        assert phase.total_volume_mb == 30.0
        assert job.total_volume_mb == 60.0


class TestIntervalBindings:
    def test_engine_records_flow_bindings(self):
        from repro.pstore.engine import PStore, PStoreConfig
        from repro.workloads.queries import q3_join

        engine = PStore(
            ClusterSpec.homogeneous(CLUSTER_V_NODE, 4),
            config=PStoreConfig(warm_cache=True),
        )
        result = engine.simulate(q3_join(100, 0.05, 0.05))
        for interval in result.intervals:
            assert len(interval.flow_bindings) == len(interval.flow_names)
            assert all(interval.flow_bindings)

"""The indexed allocator against the brute-force scan it replaced.

``AllocationService._choose_node`` finds its node through each cluster's
placement index (per-rack nodes sorted by free cores).  The reference below
is the original scan: test every node of the cluster for fit, then apply
the policy's rule to the survivors.  Both must pick the very same node --
and, under RANDOM, leave the RNG in the same state -- on any cluster state.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.cloud.allocator import AllocationFailure, AllocationService, PlacementPolicy
from repro.cloud.entities import (
    Cluster,
    Node,
    Rack,
    Region,
    RegionSpec,
    Topology,
    TopologySpec,
    build_topology,
)
from repro.cloud.sku import NodeSku
from repro.telemetry.schema import Cloud


def reference_feasible_nodes(
    service: AllocationService, cluster: Cluster, cores: float, memory_gb: float
) -> list[Node]:
    return [
        node
        for node in cluster.nodes
        if node.node_id not in service._down_nodes and node.can_host(cores, memory_gb)
    ]


def reference_choose_node(
    service: AllocationService,
    rng: np.random.Generator,
    cluster: Cluster,
    cores: float,
    memory_gb: float,
    deployment_id: int,
) -> Node | None:
    feasible = reference_feasible_nodes(service, cluster, cores, memory_gb)
    if not feasible:
        return None
    if service.policy is PlacementPolicy.RANDOM:
        return feasible[int(rng.integers(len(feasible)))]
    if service.policy is PlacementPolicy.BEST_FIT:
        return min(feasible, key=lambda n: (n.free_cores - cores, n.node_id))

    def rack_load(node: Node) -> int:
        return service._deployment_rack_count.get((deployment_id, node.rack_id), 0)

    min_load = min(rack_load(node) for node in feasible)
    candidates = [node for node in feasible if rack_load(node) == min_load]
    return min(candidates, key=lambda n: (n.free_cores - cores, n.node_id))


def assert_same_choice(
    service: AllocationService,
    cluster: Cluster,
    cores: float,
    memory_gb: float,
    deployment_id: int,
) -> None:
    oracle_rng = copy.deepcopy(service._rng)
    expected = reference_choose_node(
        service, oracle_rng, cluster, cores, memory_gb, deployment_id
    )
    got = service._choose_node(cluster, cores, memory_gb, deployment_id)
    assert got is expected, (cores, memory_gb, deployment_id)
    assert service._rng.bit_generator.state == oracle_rng.bit_generator.state


def assert_index_consistent(service: AllocationService) -> None:
    for cluster in service.topology.clusters.values():
        assert cluster.used_cores == pytest.approx(
            sum(node.used_cores for node in cluster.nodes), abs=1e-9
        )
        for rack in cluster.racks:
            assert [(free, node_id) for free, node_id, _ in rack.by_free] == sorted(
                (node.free_cores, node.node_id) for node in rack.nodes
            )


def make_service(policy: PlacementPolicy, seed: int) -> AllocationService:
    spec = TopologySpec(
        cloud=Cloud.PRIVATE,
        regions=(RegionSpec("a", 0),),
        clusters_per_region=2,
        racks_per_cluster=3,
        nodes_per_rack=4,
        node_sku=NodeSku("t", 16.0, 64.0),
    )
    return AllocationService(
        build_topology(spec), policy=policy, rng=np.random.default_rng(seed)
    )


#: Core counts, fractional ones included so free capacity accumulates
#: rounding error.
_CORES = (0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 16.0)
#: Memory per core: 16 GB/core requests exhaust a node's memory long before
#: its cores, so both kinds of binding constraint occur.
_GB_PER_CORE = (1.0, 4.0, 16.0)
#: Offsets around a node's exact free capacity, straddling can_host's
#: 1e-9 tolerance.
_EDGE = (-2e-9, -5e-10, 0.0, 5e-10, 2e-9)


def _request(service: AllocationService, rng: np.random.Generator) -> tuple[float, float]:
    if rng.random() < 0.3:
        # A request sized to some node's free capacity, up to the tolerance.
        node = service.topology.nodes[int(rng.choice(list(service.topology.nodes)))]
        edge = float(rng.choice(_EDGE))
        if rng.random() < 0.5:
            return max(1e-3, node.free_cores + edge), 1.0
        return 0.1, max(1e-3, node.free_memory_gb + edge)
    cores = float(rng.choice(_CORES))
    return cores, cores * float(rng.choice(_GB_PER_CORE))


@pytest.mark.parametrize("policy", list(PlacementPolicy))
@pytest.mark.parametrize("seed", range(6))
def test_indexed_choice_matches_scan(policy, seed):
    service = make_service(policy, seed)
    rng = np.random.default_rng(1000 + seed)
    clusters = service.topology.regions["a"].clusters
    node_ids = list(service.topology.nodes)
    placed: dict[int, int] = {}
    for vm_id in range(400):
        op = rng.random()
        if op < 0.6:
            cores, memory_gb = _request(service, rng)
            deployment_id = int(rng.integers(5))
            for cluster in clusters:
                assert_same_choice(service, cluster, cores, memory_gb, deployment_id)
            try:
                service.allocate(
                    vm_id, cores, memory_gb, region="a",
                    deployment_id=deployment_id, subscription_id=deployment_id,
                )
            except AllocationFailure:
                continue
            placed[vm_id] = deployment_id
        elif op < 0.85 and placed:
            victim = int(rng.choice(list(placed)))
            service.release(victim, deployment_id=placed.pop(victim))
        elif op < 0.93:
            service.mark_node_down(int(rng.choice(node_ids)))
        else:
            service.mark_node_up(int(rng.choice(node_ids)))
        assert_index_consistent(service)


@pytest.mark.parametrize("policy", list(PlacementPolicy))
def test_release_then_reallocate_matches_scan(policy):
    """Fill the region, drain part of it, and refill through the freed nodes."""
    service = make_service(policy, seed=3)
    clusters = service.topology.regions["a"].clusters
    placed = []
    for vm_id in range(200):
        try:
            service.allocate(
                vm_id, 4.0, 8.0, region="a",
                deployment_id=vm_id % 3, subscription_id=vm_id % 2,
            )
        except AllocationFailure:
            break
        placed.append(vm_id)
    for vm_id in placed[::3]:
        service.release(vm_id, deployment_id=vm_id % 3)
    for vm_id in range(1000, 1100):
        for cluster in clusters:
            assert_same_choice(service, cluster, 2.0, 4.0, vm_id % 3)
        try:
            service.allocate(
                vm_id, 2.0, 4.0, region="a",
                deployment_id=vm_id % 3, subscription_id=vm_id % 2,
            )
        except AllocationFailure:
            break
    assert_index_consistent(service)


def test_fit_tolerance_matches_can_host():
    """Nodes short of the request by less than 1e-9 cores still fit."""
    service = make_service(PlacementPolicy.BEST_FIT, seed=0)
    cluster = service.topology.regions["a"].clusters[0]
    near, far = cluster.racks[0].nodes[:2]
    near.host(1, 12.0 + 5e-10, 1.0)  # free: 4 - 5e-10, fits 4 within tolerance
    far.host(2, 12.0 + 2e-9, 1.0)  # free: 4 - 2e-9, does not fit 4
    for node in cluster.nodes[2:]:
        node.host(100 + node.node_id, 10.0, 1.0)
    assert_same_choice(service, cluster, 4.0, 1.0, deployment_id=0)
    assert service._choose_node(cluster, 4.0, 1.0, 0) is near


def test_rounding_tie_on_free_minus_cores():
    """A larger free count that ties on ``free - cores`` wins by node id."""
    low, high, cores = 15.412052990286927, 15.412052990286929, 3.207093635867019
    assert low < high and low - cores == high - cores
    # Node 0 has more free cores but the smaller id, so it sorts second in
    # the rack yet wins the ``(free - cores, node_id)`` comparison.
    nodes = [
        Node(node_id=i, cluster_id=0, rack_id=0, region="a", cloud=Cloud.PRIVATE,
             capacity_cores=capacity, capacity_memory_gb=64.0)
        for i, capacity in enumerate((high, low))
    ]
    cluster = Cluster(
        cluster_id=0, region="a", cloud=Cloud.PRIVATE,
        node_sku=NodeSku("t", 16.0, 64.0),
        racks=[Rack(rack_id=0, cluster_id=0, nodes=nodes)],
    )
    topology = Topology(Cloud.PRIVATE)
    topology.add_region(Region(name="a", tz_offset_hours=0, clusters=[cluster]))
    for policy in (PlacementPolicy.SPREAD, PlacementPolicy.BEST_FIT):
        service = AllocationService(topology, policy=policy)
        assert_same_choice(service, cluster, cores, 1.0, deployment_id=0)
        assert service._choose_node(cluster, cores, 1.0, 0) is nodes[0]


def test_headroom_order_uses_kept_totals():
    """With whole-core VMs the kept totals equal a fresh re-sum exactly."""
    service = make_service(PlacementPolicy.SPREAD, seed=0)
    rng = np.random.default_rng(7)
    placed = []
    for vm_id in range(300):
        cores = float(rng.choice([1, 2, 4, 8]))
        try:
            service.allocate(
                vm_id, cores, cores, region="a",
                deployment_id=vm_id % 4, subscription_id=int(rng.integers(50)),
            )
            placed.append(vm_id)
        except AllocationFailure:
            pass
        if placed and rng.random() < 0.4:
            victim = placed.pop(int(rng.integers(len(placed))))
            service.release(victim, deployment_id=victim % 4)
        for cluster in service.topology.clusters.values():
            assert cluster.used_cores == sum(node.used_cores for node in cluster.nodes)
        expected = sorted(
            service.topology.regions["a"].clusters,
            key=lambda c: sum(n.used_cores for n in c.nodes)
            / sum(n.capacity_cores for n in c.nodes),
        )
        assert [c.cluster_id for c in service._clusters_by_headroom("a")] == [
            c.cluster_id for c in expected
        ]

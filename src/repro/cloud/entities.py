"""Mutable simulation entities of the physical fleet.

The hierarchy mirrors Section II of the paper:

    region (geo-location) > datacenter > cluster > rack > node

Datacenters are folded into regions (the paper's analyses never descend to
the datacenter level); racks serve as fault domains for the allocator's
spreading rule.

Each cluster keeps a placement index: its node list and core capacity are
fixed when it is built, its allocated cores are kept up to date by every
``Node.host``/``Node.release``, and each rack keeps its nodes sorted by free
cores.  The allocator uses the index to find the best-fitting node of a rack
with one bisection instead of testing every node of the cluster.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

from repro.cloud.sku import DEFAULT_NODE_SKU, NodeSku
from repro.telemetry.schema import Cloud, ClusterInfo, NodeInfo, RegionInfo


@dataclass
class Node:
    """One physical server with core/memory capacity and hosted VMs."""

    node_id: int
    cluster_id: int
    rack_id: int
    region: str
    cloud: Cloud
    capacity_cores: float
    capacity_memory_gb: float
    used_cores: float = 0.0
    used_memory_gb: float = 0.0
    #: vm_id -> (cores, memory_gb) of currently hosted VMs.
    hosted: dict[int, tuple[float, float]] = field(default_factory=dict)
    #: The cluster whose placement index tracks this node, set by Cluster.
    #: Deliberately not a dataclass field, so eq/repr/asdict never walk
    #: back up the hierarchy.
    _cluster = None

    @property
    def free_cores(self) -> float:
        """Unallocated cores."""
        return self.capacity_cores - self.used_cores

    @property
    def free_memory_gb(self) -> float:
        """Unallocated memory."""
        return self.capacity_memory_gb - self.used_memory_gb

    def can_host(self, cores: float, memory_gb: float) -> bool:
        """Whether a VM of the given size fits (with float tolerance)."""
        eps = 1e-9
        return cores <= self.free_cores + eps and memory_gb <= self.free_memory_gb + eps

    def host(self, vm_id: int, cores: float, memory_gb: float) -> None:
        """Place a VM on this node."""
        if vm_id in self.hosted:
            raise ValueError(f"vm {vm_id} already hosted on node {self.node_id}")
        if not self.can_host(cores, memory_gb):
            raise ValueError(
                f"vm {vm_id} ({cores}c/{memory_gb}g) does not fit on node "
                f"{self.node_id} (free {self.free_cores}c/{self.free_memory_gb}g)"
            )
        self.hosted[vm_id] = (cores, memory_gb)
        old_used = self.used_cores
        self.used_cores += cores
        self.used_memory_gb += memory_gb
        if self._cluster is not None:
            self._cluster._reindex(self, old_used)

    def release(self, vm_id: int) -> None:
        """Remove a VM from this node."""
        cores, memory_gb = self.hosted.pop(vm_id)
        old_used = self.used_cores
        self.used_cores = max(0.0, self.used_cores - cores)
        self.used_memory_gb = max(0.0, self.used_memory_gb - memory_gb)
        if self._cluster is not None:
            self._cluster._reindex(self, old_used)

    def to_info(self) -> NodeInfo:
        """Static snapshot for the trace store."""
        return NodeInfo(
            node_id=self.node_id,
            cluster_id=self.cluster_id,
            rack_id=self.rack_id,
            region=self.region,
            cloud=self.cloud,
            capacity_cores=self.capacity_cores,
            capacity_memory_gb=self.capacity_memory_gb,
        )


#: Bisection start below a request's core count.  Far wider than
#: ``Node.can_host``'s 1e-9 tolerance, so no node that fits is skipped;
#: ``can_host`` makes the actual decision for the nodes past this point.
_SEARCH_SLACK = 1e-6


@dataclass
class Rack:
    """A rack: the allocator's fault domain."""

    rack_id: int
    cluster_id: int
    nodes: list[Node] = field(default_factory=list)
    #: ``(free_cores, node_id, node)`` of every node, sorted; kept current
    #: by the owning cluster.
    by_free: list[tuple[float, int, Node]] = field(
        default_factory=list, repr=False, compare=False
    )

    def fitting(self, cores: float, memory_gb: float, down: set[int]) -> list[Node]:
        """Nodes that can host the VM and are not down, by ``(free_cores, node_id)``."""
        entries = self.by_free
        start = bisect_left(entries, (cores - _SEARCH_SLACK,))
        return [
            node
            for _free, node_id, node in entries[start:]
            if node_id not in down and node.can_host(cores, memory_gb)
        ]

    def best_fit(self, cores: float, memory_gb: float, down: set[int]) -> Node | None:
        """The fitting node with the least ``(free_cores - cores, node_id)``."""
        entries = self.by_free
        n = len(entries)
        i = bisect_left(entries, (cores - _SEARCH_SLACK,))
        while i < n:
            free, node_id, node = entries[i]
            i += 1
            if node_id not in down and node.can_host(cores, memory_gb):
                break
        else:
            return None
        best, slack = node, free - cores
        # Equal free cores sort by node id, so later ties cannot win.  A
        # larger free count can only tie on ``free - cores`` by rounding;
        # check those too so the key is honoured exactly.
        i = bisect_left(entries, (free, float("inf")), i)
        while i < n and entries[i][0] - cores == slack:
            _free, node_id, node = entries[i]
            i += 1
            if node_id < best.node_id and node_id not in down and node.can_host(
                cores, memory_gb
            ):
                best = node
        return best


@dataclass
class Cluster:
    """A cluster of identical-SKU nodes inside one region.

    ``racks`` are fixed at construction: the placement index (``nodes``,
    ``capacity_cores``, ``used_cores`` and each rack's ``by_free``) is built
    from them then and maintained by the nodes' ``host``/``release``.
    """

    cluster_id: int
    region: str
    cloud: Cloud
    node_sku: NodeSku
    racks: list[Rack] = field(default_factory=list)
    #: All nodes across racks, in rack order.
    nodes: list[Node] = field(init=False, repr=False, compare=False)
    #: Total core capacity.
    capacity_cores: float = field(init=False, repr=False, compare=False)
    #: Currently allocated cores.
    used_cores: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.nodes = [node for rack in self.racks for node in rack.nodes]
        self.capacity_cores = sum(node.capacity_cores for node in self.nodes)
        self.used_cores = sum(node.used_cores for node in self.nodes)
        self._racks_by_id = {rack.rack_id: rack for rack in self.racks}
        self._slot = {node.node_id: slot for slot, node in enumerate(self.nodes)}
        for rack in self.racks:
            rack.by_free = sorted((n.free_cores, n.node_id, n) for n in rack.nodes)
            for node in rack.nodes:
                node._cluster = self

    def _reindex(self, node: Node, old_used: float) -> None:
        """Move ``node`` to its new place after its allocation changed."""
        entries = self._racks_by_id[node.rack_id].by_free
        del entries[bisect_left(entries, (node.capacity_cores - old_used, node.node_id))]
        insort(entries, (node.free_cores, node.node_id, node))
        self.used_cores += node.used_cores - old_used

    def fitting_nodes(self, cores: float, memory_gb: float, down: set[int]) -> list[Node]:
        """Nodes that can host the VM and are not down, in ``nodes`` order."""
        fitting = [node for rack in self.racks for node in rack.fitting(cores, memory_gb, down)]
        fitting.sort(key=lambda node: self._slot[node.node_id])
        return fitting

    @property
    def utilization(self) -> float:
        """Allocated-core fraction in ``[0, 1]``."""
        capacity = self.capacity_cores
        return self.used_cores / capacity if capacity else 0.0

    def to_info(self) -> ClusterInfo:
        """Static snapshot for the trace store."""
        return ClusterInfo(
            cluster_id=self.cluster_id,
            region=self.region,
            cloud=self.cloud,
            n_nodes=len(self.nodes),
            node_capacity_cores=self.node_sku.cores,
            node_capacity_memory_gb=self.node_sku.memory_gb,
        )


@dataclass
class Region:
    """A geo-location hosting clusters of one cloud."""

    name: str
    tz_offset_hours: float
    country: str = ""
    renewable_score: float = 0.5
    clusters: list[Cluster] = field(default_factory=list)

    def to_info(self) -> RegionInfo:
        """Static snapshot for the trace store."""
        return RegionInfo(
            name=self.name,
            tz_offset_hours=self.tz_offset_hours,
            country=self.country,
            renewable_score=self.renewable_score,
        )


@dataclass(frozen=True)
class RegionSpec:
    """Configuration for one region of a topology."""

    name: str
    tz_offset_hours: float
    country: str = ""
    renewable_score: float = 0.5
    #: Relative capacity provisioned in this region (scales cluster count);
    #: real fleets provision more capacity where demand concentrates.
    capacity_factor: float = 1.0


#: A default world loosely shaped like the paper's dataset: the US regions
#: "spread over 9 time zones" (Section IV-B) plus the two Canadian regions of
#: the case study and a couple of non-American regions.
DEFAULT_REGIONS = (
    RegionSpec("us-east", -5, "US", 0.35, capacity_factor=2.0),
    RegionSpec("us-east2", -5, "US", 0.40, capacity_factor=1.5),
    RegionSpec("us-central", -6, "US", 0.55, capacity_factor=1.5),
    RegionSpec("us-southcentral", -6, "US", 0.45, capacity_factor=1.5),
    RegionSpec("us-mountain", -7, "US", 0.60, capacity_factor=1.0),
    RegionSpec("us-arizona", -7, "US", 0.65, capacity_factor=1.0),
    RegionSpec("us-west", -8, "US", 0.70, capacity_factor=2.0),
    RegionSpec("us-west2", -8, "US", 0.72, capacity_factor=1.5),
    RegionSpec("us-alaska", -9, "US", 0.50, capacity_factor=1.0),
    RegionSpec("us-hawaii", -10, "US", 0.30, capacity_factor=1.0),
    RegionSpec("canada-a", -5, "CA", 0.80, capacity_factor=1.0),
    RegionSpec("canada-b", -8, "CA", 0.85, capacity_factor=1.0),
    RegionSpec("europe-west", +1, "EU", 0.75, capacity_factor=1.5),
    RegionSpec("asia-east", +8, "APAC", 0.25, capacity_factor=1.0),
)


@dataclass(frozen=True)
class TopologySpec:
    """Sizing of a simulated fleet for one cloud."""

    cloud: Cloud
    regions: tuple[RegionSpec, ...] = DEFAULT_REGIONS
    clusters_per_region: int = 2
    racks_per_cluster: int = 5
    nodes_per_rack: int = 4
    node_sku: NodeSku = DEFAULT_NODE_SKU


class Topology:
    """The fleet of one cloud: regions, clusters, racks, nodes."""

    def __init__(self, cloud: Cloud) -> None:
        self.cloud = cloud
        self.regions: dict[str, Region] = {}
        self.nodes: dict[int, Node] = {}
        self.clusters: dict[int, Cluster] = {}

    def add_region(self, region: Region) -> None:
        """Register a region and index its clusters and nodes."""
        self.regions[region.name] = region
        for cluster in region.clusters:
            self.clusters[cluster.cluster_id] = cluster
            for node in cluster.nodes:
                self.nodes[node.node_id] = node

    def clusters_in_region(self, region: str) -> list[Cluster]:
        """Clusters hosted in ``region``."""
        return self.regions[region].clusters

    @property
    def total_capacity_cores(self) -> float:
        """Fleet-wide core capacity."""
        return sum(node.capacity_cores for node in self.nodes.values())

    def region_names(self) -> list[str]:
        """Sorted region names."""
        return sorted(self.regions)


def build_topology(
    spec: TopologySpec,
    *,
    id_offset: int = 0,
) -> Topology:
    """Construct a :class:`Topology` from a :class:`TopologySpec`.

    ``id_offset`` keeps node/cluster ids disjoint when private and public
    fleets coexist in one merged trace.
    """
    topology = Topology(spec.cloud)
    next_cluster = id_offset
    next_rack = id_offset
    next_node = id_offset
    for region_spec in spec.regions:
        region = Region(
            name=region_spec.name,
            tz_offset_hours=region_spec.tz_offset_hours,
            country=region_spec.country,
            renewable_score=region_spec.renewable_score,
        )
        n_clusters = max(1, round(spec.clusters_per_region * region_spec.capacity_factor))
        for _ in range(n_clusters):
            racks = []
            for _ in range(spec.racks_per_cluster):
                rack = Rack(rack_id=next_rack, cluster_id=next_cluster)
                next_rack += 1
                for _ in range(spec.nodes_per_rack):
                    rack.nodes.append(
                        Node(
                            node_id=next_node,
                            cluster_id=next_cluster,
                            rack_id=rack.rack_id,
                            region=region.name,
                            cloud=spec.cloud,
                            capacity_cores=spec.node_sku.cores,
                            capacity_memory_gb=spec.node_sku.memory_gb,
                        )
                    )
                    next_node += 1
                racks.append(rack)
            region.clusters.append(
                Cluster(
                    cluster_id=next_cluster,
                    region=region.name,
                    cloud=spec.cloud,
                    node_sku=spec.node_sku,
                    racks=racks,
                )
            )
            next_cluster += 1
        topology.add_region(region)
    return topology

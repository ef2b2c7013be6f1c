"""Multi-node cluster: link fabric, configuration, workload, snapshots.

The contract under test (:mod:`repro.platform.cluster`):

* **Deterministic delivery** -- frames become visible exactly
  ``link_latency_cycles`` after commit, ordered by ``(due time, source
  port, per-source sequence, destination port)`` regardless of process
  activation order.
* **One kernel** -- N nodes share a single engine; each keeps its own
  clock (the clocked engine adopts all of them) and the cluster advances
  them in lockstep.
* **End to end** -- the ping/echo firmware exercises TX FIFO, link,
  RX FIFO and the interrupt path through the intc on both nodes.
* **Snapshots** -- save/restore round-trips the whole cluster including
  in-flight frames, with restore resetting the shared kernel only once.
"""

import gc
import os
import pickle

import pytest

from repro.kernel import ENGINE_CLOCKED, ENGINE_GENERIC, create_engine
from repro.kernel.errors import ModelError
from repro.platform import (EthernetLink, NetworkSwitch, VanillaNetCluster,
                            VariantName, cluster_config)
from repro.software import arithmetic_program, ping_echo_programs


class _RecordingMac:
    """Minimal MAC stand-in: records deliveries in arrival order."""

    def __init__(self, name):
        self.name = name
        self.link = None
        self.link_port = None
        self.delivered = []

    def attach_link(self, link, port):
        self.link = link
        self.link_port = port

    def deliver_frame(self, payload):
        self.delivered.append(bytes(payload))


def build_cluster(n=2, count=2, **config_kwargs):
    cluster = VanillaNetCluster(cluster_config(n, **config_kwargs))
    ping, echo = ping_echo_programs(count=count)
    extra = [arithmetic_program() for _ in range(n - 2)]
    cluster.load_programs([ping, echo, *extra])
    return cluster


class TestLinkFabric:
    def make_switch(self, ports=2, latency_ps=50_000):
        sim = create_engine(ENGINE_GENERIC, "link-test")
        switch = NetworkSwitch(sim, latency_ps=latency_ps)
        macs = [_RecordingMac(f"mac{index}") for index in range(ports)]
        for mac in macs:
            switch.attach(mac)
        return sim, switch, macs

    def test_frame_arrives_after_latency(self):
        sim, switch, macs = self.make_switch(latency_ps=50_000)
        switch.transmit(macs[0], b"ping")
        sim.run(40_000)
        assert macs[1].delivered == []
        sim.run(20_000)
        assert macs[1].delivered == [b"ping"]
        assert macs[0].delivered == []

    def test_broadcast_reaches_every_other_port(self):
        sim, switch, macs = self.make_switch(ports=3)
        switch.transmit(macs[1], b"hello")
        sim.run(100_000)
        assert macs[0].delivered == [b"hello"]
        assert macs[2].delivered == [b"hello"]
        assert macs[1].delivered == []
        assert switch.frames_switched == 1
        assert switch.frames_delivered == 2

    def test_coincident_frames_deliver_in_port_order(self):
        sim, switch, macs = self.make_switch(ports=3)
        # Committed in reverse port order within the same instant: the
        # delivery order must still be source-port order.
        switch.transmit(macs[2], b"from2")
        switch.transmit(macs[0], b"from0")
        sim.run(100_000)
        assert macs[1].delivered == [b"from0", b"from2"]

    def test_per_source_frames_keep_commit_order(self):
        sim, switch, macs = self.make_switch()
        switch.transmit(macs[0], b"first")
        switch.transmit(macs[0], b"second")
        sim.run(100_000)
        assert macs[1].delivered == [b"first", b"second"]

    def test_zero_latency_rejected(self):
        sim = create_engine(ENGINE_GENERIC, "link-test")
        with pytest.raises(ModelError):
            NetworkSwitch(sim, latency_ps=0)

    def test_ethernet_link_is_point_to_point(self):
        sim = create_engine(ENGINE_GENERIC, "link-test")
        link = EthernetLink(sim)
        link.attach(_RecordingMac("a"))
        link.attach(_RecordingMac("b"))
        with pytest.raises(ModelError):
            link.attach(_RecordingMac("c"))


class TestClusterConfig:
    def test_mirrors_variant_config_seams(self):
        config = cluster_config(3, engine=ENGINE_CLOCKED,
                                bus_level="functional",
                                cpu_level="quantum")
        assert config.node_count == 3
        assert all(node.engine == ENGINE_CLOCKED
                   for node in config.node_configs)
        assert all(node.bus_level == "functional"
                   for node in config.node_configs)
        assert all(node.cpu_level == "quantum"
                   for node in config.node_configs)
        # Per-node names stay distinguishable in diagnostics.
        assert len({node.name for node in config.node_configs}) == 3

    def test_rejects_degenerate_clusters(self):
        with pytest.raises(ModelError):
            cluster_config(1)
        with pytest.raises(ValueError):
            cluster_config(2, bus_level="nonsense")

    def test_nodes_share_one_kernel_with_private_clocks(self):
        cluster = build_cluster(2)
        assert cluster.nodes[0].sim is cluster.nodes[1].sim
        assert cluster.nodes[0].clock is not cluster.nodes[1].clock


class TestWarpHorizon:
    """The conservative-lookahead bound behind the cluster quantum warp."""

    def make_cluster(self, latency=8):
        cluster = build_cluster(2, link_latency_cycles=latency)
        period = cluster.nodes[0].clock.period_ps
        return cluster, cluster.link, period

    def test_idle_peers_bound_horizon_at_plain_lookahead(self):
        cluster, link, period = self.make_cluster(latency=8)
        # No frames in flight, no peer parked ahead: a frame committed
        # from *now* on cannot arrive before now + latency.
        assert link.earliest_delivery_ps(0) == 8 * period
        assert link.earliest_delivery_ps(1) == 8 * period

    def test_in_flight_frame_caps_the_horizon(self):
        cluster, link, period = self.make_cluster(latency=8)
        link.transmit(cluster.nodes[1].ethernet, b"ping", commit_ps=0)
        assert link.earliest_delivery_ps(0) == 8 * period
        # The sender's own horizon is unaffected by its broadcast.
        assert link.earliest_delivery_ps(1) == 8 * period

    def test_parked_peer_chains_horizon_with_tx_margin(self):
        cluster, link, period = self.make_cluster(latency=8)
        peer = cluster.nodes[1]
        peer.microblaze.decoupled_until_ps = 40 * period
        # Empty TX staging: the peer needs a TX_DATA store before TX_GO
        # can transmit anything, widening the floor by five cycles
        # (fetch + request-to-grant for each store, plus the first
        # store's ack back to the master).
        assert link.earliest_delivery_ps(0) == (40 + 5 + 8) * period
        # Staged words: only the TX_GO store itself stands between the
        # parked position and a commit.
        peer.ethernet._tx_staging.append(0x1)
        assert link.earliest_delivery_ps(0) == (40 + 2 + 8) * period
        # The parked peer's own horizon is still set by node 0 at *now*.
        assert link.earliest_delivery_ps(1) == 8 * period

    def test_finished_peer_never_bounds_the_horizon(self):
        cluster, link, period = self.make_cluster(latency=8)
        cluster.nodes[1].microblaze.finished = True
        # ~52 simulated days: effectively unbounded lookahead.
        assert link.earliest_delivery_ps(0) == (1 << 62) + 8 * period

    def test_commit_floor_ignores_stale_parked_positions(self):
        cluster, _, period = self.make_cluster(latency=8)
        mac = cluster.nodes[1].ethernet
        # A parked-until time in the past means the peer has re-attached;
        # the floor falls back to the caller's *now*.
        cluster.nodes[1].microblaze.decoupled_until_ps = 3 * period
        assert mac.tx_commit_floor_ps(10 * period) == 10 * period


class TestPingEcho:
    def test_runs_to_completion(self):
        cluster = build_cluster(2, count=2)
        assert cluster.run_until_halt(max_cycles=200_000)
        assert cluster.console_outputs() == ["ping: 2 replies ok\n",
                                             "echo: 2 frames bounced\n"]
        assert cluster.link.frames_switched == 4
        assert cluster.link.frames_delivered == 4
        ping_mac = cluster.nodes[0].ethernet
        echo_mac = cluster.nodes[1].ethernet
        assert ping_mac.frames_sent == 2
        assert ping_mac.frames_received == 2
        assert echo_mac.frames_sent == 2
        assert echo_mac.frames_received == 2

    def test_rx_interrupts_flow_through_the_intc(self):
        cluster = build_cluster(2, count=2)
        cluster.run_until_halt(max_cycles=200_000)
        for node in cluster.nodes:
            assert node.microblaze.core.stats.interrupts_taken >= 2

    def test_three_node_hub_broadcasts(self):
        cluster = build_cluster(3, count=2,
                                variant=VariantName.NATIVE_TYPES)
        assert cluster.run_until_halt(max_cycles=200_000)
        # The idle third node overhears both directions of the exchange.
        bystander = cluster.nodes[2].ethernet
        assert bystander.frames_received == 4

    def test_single_node_platforms_keep_the_probe_only_proxy(self):
        cluster = build_cluster(2)
        from repro.platform import VanillaNetPlatform, variant_config
        single = VanillaNetPlatform(variant_config(VariantName.NATIVE_TYPES))
        assert single.ethernet.link is None
        assert cluster.nodes[0].ethernet.link is cluster.link


def resident_bytes() -> int:
    """This process's resident set size, from ``/proc/self/statm``."""
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


class TestClusterMemory:
    #: Memories are sparse, so a node costs what its software touches,
    #: not its 68 MB of address space.
    RSS_BUDGET_BYTES = 64 << 20

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm")
    def test_sixteen_node_cluster_fits_rss_budget(self):
        gc.collect()
        before = resident_bytes()
        cluster = build_cluster(16)
        grown = resident_bytes() - before
        assert len(cluster.nodes) == 16
        assert grown < self.RSS_BUDGET_BYTES, \
            f"16-node cluster grew RSS by {grown / 2**20:.1f} MB"


class TestClusterSnapshots:
    def run_to_park(self, cluster, budget=150):
        cluster.run_instructions(budget)
        return cluster

    def observed(self, cluster):
        return (cluster.cycle_count, cluster.console_outputs(),
                cluster.architectural_states())

    def test_restore_matches_uninterrupted_run(self):
        reference = self.run_to_park(build_cluster(2, count=3))
        snapshot = reference.save_snapshot()
        reference.run_until_halt(max_cycles=200_000)
        expected = self.observed(reference)

        restored = build_cluster(2, count=3)
        restored.restore_snapshot(pickle.loads(pickle.dumps(snapshot)))
        restored.run_until_halt(max_cycles=200_000)
        assert self.observed(restored) == expected

    def test_in_flight_frames_survive_restore(self):
        # A long link keeps frames mid-flight across many park points.
        reference = build_cluster(2, count=3, link_latency_cycles=400)
        # Park at successively later points until a frame is mid-flight.
        # (chunk_cycles bounds the park granularity: it must be finer
        # than the flight window or every park steps over it.)
        for _ in range(400):
            reference.run_instructions(5, chunk_cycles=50)
            if reference.link._in_flight:
                break
        else:
            pytest.fail("never caught a frame in flight")
        snapshot = reference.save_snapshot()
        assert snapshot.link["in_flight"]
        reference.run_until_halt(max_cycles=200_000)
        expected = self.observed(reference)

        restored = build_cluster(2, count=3, link_latency_cycles=400)
        restored.restore_snapshot(snapshot)
        restored.run_until_halt(max_cycles=200_000)
        assert self.observed(restored) == expected

    def test_restore_requires_loaded_programs(self):
        reference = self.run_to_park(build_cluster(2))
        snapshot = reference.save_snapshot()
        fresh = VanillaNetCluster(cluster_config(2))
        with pytest.raises(ModelError):
            fresh.restore_snapshot(snapshot)

    def test_restore_rejects_node_count_mismatch(self):
        reference = self.run_to_park(build_cluster(2))
        snapshot = reference.save_snapshot()
        other = build_cluster(3)
        with pytest.raises(ModelError):
            other.restore_snapshot(snapshot)

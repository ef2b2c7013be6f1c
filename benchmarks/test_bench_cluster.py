"""Multi-node cluster benchmark: the ping/echo workload across the seams.

The cluster tentpole adds a second scenario next to the single-board
boot: two (or more) VanillaNet nodes in one kernel exchanging frames
over the Ethernet link, RX interrupts and all.  This benchmark times
that workload on every engine x bus level x cpu level combination and
renders the rows into ``figure2_cluster_comparison.txt``; the measured
cells are also merged into ``BENCH_fig2.json`` (and the per-commit
``bench_history/`` ledger) so cluster CPS regressions are tracked
exactly like the single-node Figure 2 entries.

Gates:

* every combination finishes the workload within the cycle budget;
* every combination reports bit-identical consoles, cycle counts and
  frame counters (the differential-identity claim measured, not just
  unit-tested);
* the link-latency-bounded warp pays off: the clocked-kernel
  ``functional/quantum`` and ``transaction/quantum`` cells run the
  traffic-at-scale workload at >= 5x their ``cycle`` counterparts at
  the default 8-cycle link latency (``test_cluster_quantum_speedup``);
* a three-node switch run finishes and broadcasts to the bystander.
"""

from __future__ import annotations

import time

from repro.core import (ExperimentOptions, Figure2Experiment,
                        format_cluster_table)

OPTIONS = ExperimentOptions(instructions_per_phase=150, phases=2,
                            boot_scale=0.4, chunk_cycles=200)

PING_COUNT = 3

#: Traffic-at-scale workload for the warp speedup gate: 256-byte frames
#: (64 payload words) shift each round from interrupt bookkeeping to
#: frame staging/draining -- the mix the multi-node scenario is meant to
#: stress -- and a coarser chunk cadence keeps measurement scheduling
#: out of the measured loop.  The correctness matrix above deliberately
#: keeps the small frames and fine chunks (more seams crossed per cycle).
GATE_OPTIONS = ExperimentOptions(instructions_per_phase=150, phases=2,
                                 boot_scale=0.4, chunk_cycles=2000)
GATE_PAYLOAD = tuple(range(1, 65))
GATE_PING_COUNT = 20
#: Acceptance floor for quantum-vs-cycle on the gate workload.  Measured
#: headroom is ~7.5x on an idle host; 5x leaves room for shared-runner
#: noise while still catching a disabled or crippled warp (which lands
#: at ~1x).
GATE_SPEEDUP = 5.0


def test_cluster_comparison_matrix(benchmark, bench_artifacts):
    """Two-node ping/echo across all twelve seam combinations."""
    experiment = Figure2Experiment(OPTIONS)

    def run_matrix():
        return experiment.run_cluster_comparison(nodes=2,
                                                 ping_count=PING_COUNT)

    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1,
                                 warmup_rounds=0)
    table = format_cluster_table(results)
    print("\n" + table + "\n")
    bench_artifacts.write_table("figure2_cluster_comparison.txt",
                                table + "\n")
    bench_artifacts.record_cluster_results(results)
    for result in results:
        benchmark.extra_info[f"{result.key}_cps_khz"] = round(
            result.cps_khz, 3)

    assert all(result.finished for result in results)
    # The measured rows must agree on everything but wall-clock time:
    # the differential-identity contract, observed under load.
    reference = results[0]
    assert reference.consoles[0] == f"ping: {PING_COUNT} replies ok\n"
    for result in results[1:]:
        assert result.consoles == reference.consoles, result.key
        assert result.cycles == reference.cycles, result.key
        assert result.frames_switched == reference.frames_switched, \
            result.key
        assert result.frames_delivered == reference.frames_delivered, \
            result.key


def test_cluster_quantum_speedup(benchmark):
    """The warp horizon pays off: quantum >= 5x cycle on linked nodes.

    Clocked kernel, default 8-cycle link latency, traffic-at-scale
    frames.  Best-of-three per cell so one descheduled measurement on a
    shared host cannot fail the gate; the quantum and cycle cells must
    also agree bit-for-bit on cycles and consoles (speed without
    identity would be a miscompiled warp, not a win).
    """
    experiment = Figure2Experiment(GATE_OPTIONS)

    def measure(bus_level, cpu_level, rounds=3):
        best = None
        for _ in range(rounds):
            result = experiment.measure_cluster(
                2, engine="clocked", bus_level=bus_level,
                cpu_level=cpu_level, ping_count=GATE_PING_COUNT,
                payload=GATE_PAYLOAD)
            assert result.finished, result.key
            if best is None or result.cps_khz > best.cps_khz:
                best = result
        return best

    def run_gate():
        cells = {}
        for bus_level in ("functional", "transaction"):
            cells[bus_level] = (measure(bus_level, "quantum"),
                                measure(bus_level, "cycle"))
        return cells

    started = time.perf_counter()
    cells = benchmark.pedantic(run_gate, rounds=1, iterations=1,
                               warmup_rounds=0)
    benchmark.extra_info["gate_wall_seconds"] = round(
        time.perf_counter() - started, 3)

    for bus_level, (quantum, cycle) in cells.items():
        speedup = quantum.cps_khz / cycle.cps_khz
        benchmark.extra_info[f"{bus_level}_speedup"] = round(speedup, 2)
        benchmark.extra_info[f"{bus_level}_quantum_cps_khz"] = round(
            quantum.cps_khz, 3)
        benchmark.extra_info[f"{bus_level}_cycle_cps_khz"] = round(
            cycle.cps_khz, 3)
        assert quantum.cycles == cycle.cycles, bus_level
        assert quantum.consoles == cycle.consoles, bus_level
        assert quantum.frames_delivered == cycle.frames_delivered, \
            bus_level
        assert speedup >= GATE_SPEEDUP, (
            f"cluster2/clocked/{bus_level}: quantum {quantum.cps_khz:.1f} "
            f"kcps is only {speedup:.2f}x cycle {cycle.cps_khz:.1f} kcps "
            f"(gate {GATE_SPEEDUP}x)")


def test_three_node_switch(benchmark):
    """An N-port switch run: node 2 idles and overhears the broadcast."""
    experiment = Figure2Experiment(OPTIONS)

    def run_cluster():
        return experiment.measure_cluster(nodes=3, ping_count=PING_COUNT)

    result = benchmark.pedantic(run_cluster, rounds=1, iterations=1,
                                warmup_rounds=0)
    benchmark.extra_info["cps_khz"] = round(result.cps_khz, 3)
    benchmark.extra_info["frames_delivered"] = result.frames_delivered
    assert result.finished
    assert result.consoles[0] == f"ping: {PING_COUNT} replies ok\n"
    # Every switched frame reaches both other ports on a 3-node hub.
    assert result.frames_delivered == 2 * result.frames_switched

#!/usr/bin/env python3
"""The repository benchmark: four workloads that separate the simulator's layers.

Run from the repository root::

    python3 perfbench/run.py --workload boot_pin_cycle --seed 1 --seconds 20 --trace 0

The simulator is driven only through its public API and every call into it
is timed from outside; nothing under ``src/`` is instrumented.  One process,
one thread.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report with provenance.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is a separate
run that reports the per-layer metrics: it measures half of ``--seconds``
untraced and half traced (spans around the public calls, a ``gc.callbacks``
clock and an ``ITIMER_PROF`` sampler that credits each sample to the
innermost ``repro.<layer>`` frame), and writes its spans to
``perfbench/out/``.  Host times are reported at a reference host speed,
measured by a probe run next to the work.  See ``perfbench/README.md`` for
the workloads, the protocol and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import os
import pickle
import platform as host
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# The simulator comes from this checkout's ``src/``, never from elsewhere.
sys.path.insert(0, str(SRC_DIR))
try:
    import repro
    from repro.platform import (VanillaNetCluster, VanillaNetPlatform,
                                VariantName, cluster_config, variant_config)
    from repro.software import (BootParams, build_boot_program,
                                ping_echo_programs)
except ImportError as error:
    raise SystemExit(f"perfbench: cannot import the simulator from {SRC_DIR} "
                     f"({error}); run from a full checkout of the repository")
if Path(repro.__file__).resolve().parent != SRC_DIR / "repro":
    raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                     f"not from {SRC_DIR}")

#: Set-ups made before the first measured cycle; ``setup_s`` is their median.
SETUP_REPEATS = 25
#: The fan-out set-up boots, snapshots and pickles 71 MB, so fewer repeats.
FANOUT_SETUP_REPEATS = 7
#: ITIMER_PROF sampling interval of the traced run, in CPU seconds.
SAMPLE_INTERVAL_S = 0.001
#: Layers the sampler reports; any other frame counts as ``other``.
LAYERS = ("kernel", "signals", "bus", "iss", "isa", "peripherals",
          "platform", "datatypes")

#: Duration of one :func:`host_probe` on the 2-vCPU Intel Xeon (2.0 GHz)
#: virtual machine the benchmark was tuned on, at its usual speed.  Host
#: times are reported at this speed (see :func:`at_reference_speed`).
REFERENCE_PROBE_S = 56e-6
#: Probes on each side of a call that its speed estimate takes the median of.
PROBE_WINDOW = 4

VALIDATION_NOTE = (
    "validation: the model is not validated against hardware; the fast "
    "paths (quantum CPU, transaction/functional fabrics, clocked engine) "
    "are checked against the cycle-accurate reference, so no error figure "
    "is given")


# ---------------------------------------------------------------------- #
# host speed
# ---------------------------------------------------------------------- #
class _ProbeState:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def mix(self, word: int) -> int:
        self.value = (self.value * 33 + word) & 0xFFFF
        return self.value


_PROBE_STATE = _ProbeState()
_PROBE_TABLE = {i: i * 7 for i in range(256)}


def host_probe() -> float:
    """Host seconds of a fixed piece of interpreter work.

    The work is the same mix the simulator does -- method calls, attribute
    and dict lookups, integer arithmetic -- and allocates nothing the
    collector tracks.  The shared host this benchmark was tuned on switches
    between speeds 1.5-1.8x apart, for seconds to whole runs.  When the
    probe slows, a simulation step slows by 0.8-0.9 of its factor and a
    set-up by about 0.75 of it (see ``perfbench/README.md``).
    """
    start = time.perf_counter()
    state, table, word = _PROBE_STATE, _PROBE_TABLE, 0
    for i in range(300):
        word ^= state.mix(table.get(i & 255, 0))
    return time.perf_counter() - start


def at_reference_speed(seconds: list[float],
                       probes: list[float]) -> list[float]:
    """Scale each host time to the host speed of :data:`REFERENCE_PROBE_S`.

    ``probes[i]`` was taken right after ``seconds[i]``; each time is scaled
    by the median probe of its neighbourhood, which follows the host's
    switches of speed and ignores a single disturbed probe.
    """
    return [time_s * REFERENCE_PROBE_S / statistics.median(
                probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
            for i, time_s in enumerate(seconds)]


def probe_median(count: int = 5) -> float:
    return statistics.median(host_probe() for _ in range(count))


# ---------------------------------------------------------------------- #
# spans, GC clock and sampler
# ---------------------------------------------------------------------- #
class Recorder:
    """Times calls into the simulator; keeps spans in memory when enabled.

    A span is ``[name, start, end, parent index]``.  ``last_s`` is the
    duration of the most recent :meth:`call`, traced or not.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []
        self.last_s = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        if self.enabled:
            index = self._begin(name, start)
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        if self.enabled:
            self._end(index, end)
        self.last_s = end - start
        return result

    def begin(self, name: str) -> None:
        if self.enabled:
            self._begin(name, time.perf_counter())

    def end(self) -> None:
        if self.enabled:
            self._end(self._open[-1], time.perf_counter())

    def _begin(self, name: str, start: float) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int, end: float) -> None:
        self.spans[index][2] = end
        self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans
                if span_name == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        totals: Counter = Counter()
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        for _, start, end, parent in self.spans:
            if parent is not None:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)


class GcClock:
    """Collector time and collection count, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


class LayerSampler:
    """Statistical profiler: credits each CPU-time sample to one layer.

    The layer is the second component of the innermost frame's module name
    when it is ``repro.<layer>``; samples with no ``repro`` frame on the
    stack (the benchmark itself, pickle, the collector) count as ``other``.
    """

    def __init__(self) -> None:
        self.samples: Counter = Counter()
        self._previous = None

    def _handler(self, signum, frame) -> None:
        layer = "other"
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                layer = module.split(".")[1]
                break
            frame = frame.f_back
        self.samples[layer if layer in LAYERS else "other"] += 1

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self) -> dict[str, float]:
        total = sum(self.samples.values()) or 1
        return {layer: self.samples[layer] / total
                for layer in LAYERS + ("other",)}


# ---------------------------------------------------------------------- #
# simulated counts
# ---------------------------------------------------------------------- #
def simulated_counts(sim, nodes, link=None) -> dict[str, int]:
    """Counters of every layer, read from the public statistics objects."""
    counts: Counter = Counter(sim.stats.as_dict())
    for node in nodes:
        stats = node.statistics
        counts["instructions"] += stats.instructions_retired
        counts["iss_cycles"] += stats.cycles
        counts["quantum_warps"] += stats.quantum_warps
        counts["quantum_instructions"] += stats.quantum_instructions
        counts["decoded_entries"] += stats.decoded_entries
        counts["decoded_invalidations"] += stats.decoded_invalidations
        counts["interrupts"] += stats.interrupts_taken
        counts["bus_transfers"] += node.bus_fabric.transfer_count
        counts["eth_frames"] += node.ethernet.frames_sent
        counts["eth_dropped"] += node.ethernet.frames_dropped
        counts["eth_accesses"] += node.ethernet.access_count
    counts["link_frames_delivered"] = link.frames_delivered if link else 0
    return dict(counts)


def count_delta(after: dict, before: dict) -> dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def state_digest(cycles, instructions, registers, console) -> str:
    """SHA-256 over halt cycle, retired count, registers and console text."""
    text = json.dumps([cycles, instructions, sorted(registers.items()),
                       console])
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    """One checked operation: a boot, a cluster run or a fan-out cell.

    Operations with the same ``key`` repeat the same simulated work, call
    for call, so their host times can be lined up call by call.
    """

    ok: bool
    key: str
    detail: str = ""
    total_s: float = 0.0
    cycles: int = 0
    #: Host seconds of every ``run_cycles`` call, in order.
    calls: list[float] = field(default_factory=list)
    #: A :func:`host_probe` taken right after each call.
    probes: list[float] = field(default_factory=list)
    #: How many leading calls ran a whole step (the rest end on the halt
    #: cycle or drain the UARTs).
    full_steps: int = 0
    counts: dict[str, int] = field(default_factory=dict)


def run_cycles(rec: Recorder, target, cycles: int, calls: list[float],
               probes: list[float]) -> None:
    """One timed ``run_cycles`` call, then a host probe outside its time."""
    rec.call("run_cycles", target.run_cycles, cycles)
    calls.append(rec.last_s)
    probes.append(host_probe())


def run_steps(rec: Recorder, target, step_cycles: int, done,
              max_cycles: int) -> tuple[list[float], list[float]]:
    """Step ``target`` with fixed-size ``run_cycles`` calls until ``done()``.

    Returns the host time of every call, the last of which ends early on
    the halt cycle, and the probe after each.  Gives up after
    ``max_cycles``, which fails the check.
    """
    calls, probes = [], []
    while not done() and len(calls) * step_cycles < max_cycles:
        run_cycles(rec, target, step_cycles, calls, probes)
    return calls, probes


class BootWorkload:
    """A boot program run to halt on one configuration of one platform."""

    unit = 1
    setup_repeats = SETUP_REPEATS

    def __init__(self, name, variant, engine, bus_level, cpu_level, scale,
                 step_cycles, max_cycles, reference) -> None:
        self.name = name
        self.config = (variant, engine, bus_level, cpu_level)
        self.scale = scale
        self.step_cycles = step_cycles
        self.max_cycles = max_cycles
        self.reference = reference
        self.seed_note = (
            "seed: unused -- this boot program is fixed, so its halt cycle, "
            "registers and console are checked against a digest recorded "
            "in perfbench/reference.json")

    def prepare(self, rec: Recorder):
        variant, engine, bus_level, cpu_level = self.config
        program = rec.call("build_boot_program", build_boot_program,
                           BootParams().scaled(self.scale))
        platform = rec.call("VanillaNetPlatform", VanillaNetPlatform,
                            variant_config(variant, engine=engine,
                                           bus_level=bus_level,
                                           cpu_level=cpu_level))
        rec.call("load_program", platform.load_program, program)
        # End the run on the halt cycle, as VanillaNetCluster does, so the
        # measured cycles do not depend on the step size.
        platform.microblaze.finish_callback = platform.sim.stop
        return platform

    def operation(self, rec: Recorder) -> Outcome:
        start = time.perf_counter()
        platform = self.prepare(rec)
        before = simulated_counts(platform.sim, [platform])
        calls, probes = run_steps(rec, platform, self.step_cycles,
                                  lambda: platform.microblaze.finished,
                                  self.max_cycles)
        counts = count_delta(simulated_counts(platform.sim, [platform]),
                             before)
        digest = state_digest(platform.cycle_count,
                              platform.statistics.instructions_retired,
                              platform.architectural_state(),
                              platform.console_output)
        ok = digest == self.reference
        detail = "" if ok else (
            f"digest {digest} != reference {self.reference} (halt cycle "
            f"{platform.cycle_count}, {counts['instructions']} instructions)")
        return Outcome(ok, self.name, detail, time.perf_counter() - start,
                       platform.cycle_count, calls, probes, len(calls) - 1,
                       counts)


class ClusterWorkload:
    """Two-node ping/echo over the Ethernet link, with a seeded payload."""

    unit = 1
    setup_repeats = SETUP_REPEATS
    pings = 150
    payload_words = 32
    step_cycles = 2_000
    max_cycles = 1_000_000
    #: Cycles after the last halt that flush the UARTs, as in
    #: ``VanillaNetCluster.run_until_halt``.
    drain_cycles = 256

    def __init__(self, name, seed) -> None:
        self.name = name
        rng = random.Random(seed)
        self.payload = tuple(rng.getrandbits(32)
                             for _ in range(self.payload_words))
        self.seed_note = (
            f"seed: {seed} -> {self.payload_words} payload words; the ping "
            "firmware checks the echoed checksum itself")

    def prepare(self, rec: Recorder):
        programs = rec.call("ping_echo_programs", ping_echo_programs,
                            self.payload, self.pings)
        cluster = rec.call("VanillaNetCluster", VanillaNetCluster,
                           cluster_config(2, engine="clocked",
                                          bus_level="functional",
                                          cpu_level="quantum"))
        rec.call("load_programs", cluster.load_programs, programs)

        def stop_when_all_halted() -> None:
            if all(node.microblaze.finished for node in cluster.nodes):
                cluster.sim.stop()

        for node in cluster.nodes:
            node.microblaze.finish_callback = stop_when_all_halted
        return cluster

    def operation(self, rec: Recorder) -> Outcome:
        start = time.perf_counter()
        cluster = self.prepare(rec)
        nodes = cluster.nodes
        before = simulated_counts(cluster.sim, nodes, cluster.link)
        calls, probes = run_steps(
            rec, cluster, self.step_cycles,
            lambda: all(node.microblaze.finished for node in nodes),
            self.max_cycles)
        run_cycles(rec, cluster, self.drain_cycles, calls, probes)
        counts = count_delta(simulated_counts(cluster.sim, nodes,
                                              cluster.link), before)
        expected = [f"ping: {self.pings} replies ok\n",
                    f"echo: {self.pings} frames bounced\n"]
        frames = cluster.link.frames_delivered
        ok = cluster.console_outputs() == expected \
            and frames == 2 * self.pings
        detail = "" if ok else (f"consoles {cluster.console_outputs()!r}, "
                                f"{frames} frames delivered")
        return Outcome(ok, self.name, detail, time.perf_counter() - start,
                       cluster.cycle_count, calls, probes, len(calls) - 2,
                       counts)


class FanoutWorkload:
    """The sweep's warm start: one snapshot restored into all 12 seams."""

    unit = 12
    setup_repeats = FANOUT_SETUP_REPEATS
    step_cycles = 300
    window_steps = 10

    def __init__(self, name, seed) -> None:
        self.name = name
        self.warmup_instructions = 512 + seed % 64
        self.combos = list(itertools.product(
            ("generic", "clocked"), ("signal", "transaction", "functional"),
            ("cycle", "quantum")))
        self.program = None
        self.snapshot = None
        self.snapshot_bytes = 0
        self.reference = None
        self._warm = None
        self._next = 0
        self.seed_note = (
            f"seed: {seed} -> warm-up of {self.warmup_instructions} "
            "instructions; every cell must match the uninterrupted "
            "cycle-accurate run")

    def prepare(self, rec: Recorder):
        variant = VariantName.NATIVE_TYPES
        program = rec.call("build_boot_program", build_boot_program,
                           BootParams())
        platform = rec.call("VanillaNetPlatform", VanillaNetPlatform,
                            variant_config(variant))
        rec.call("load_program", platform.load_program, program)
        rec.call("run_instructions", platform.run_instructions,
                 self.warmup_instructions)
        snapshot = rec.call("save_snapshot", platform.save_snapshot,
                            variant=variant.value)
        data = rec.call("pickle.dumps", pickle.dumps, snapshot,
                        protocol=pickle.HIGHEST_PROTOCOL)
        self.snapshot = rec.call("pickle.loads", pickle.loads, data)
        self.snapshot_bytes = len(data)
        self.program = program
        # The uninterrupted run from the warm point is the reference every
        # restored cell is checked against; it is not part of the set-up.
        self._warm = platform
        self.reference = None
        return platform

    def _window(self, rec: Recorder, platform):
        calls, probes = [], []
        for _ in range(self.window_steps):
            run_cycles(rec, platform, self.step_cycles, calls, probes)
        observed = (platform.cycle_count,
                    platform.statistics.instructions_retired,
                    platform.architectural_state(), platform.console_output)
        return calls, probes, observed

    def operation(self, rec: Recorder) -> Outcome:
        if self.reference is None:
            self.reference = self._window(Recorder(), self._warm)[2]
            self._warm = None
        combo = self.combos[self._next % self.unit]
        engine, bus_level, cpu_level = combo
        self._next += 1
        start = time.perf_counter()
        platform = rec.call(
            "VanillaNetPlatform", VanillaNetPlatform,
            variant_config(VariantName.NATIVE_TYPES, engine=engine,
                           bus_level=bus_level, cpu_level=cpu_level))
        rec.call("load_program", platform.load_program, self.program)
        rec.call("restore_snapshot", platform.restore_snapshot,
                 self.snapshot)
        before = simulated_counts(platform.sim, [platform])
        calls, probes, observed = self._window(rec, platform)
        counts = count_delta(simulated_counts(platform.sim, [platform]),
                             before)
        ok = observed == self.reference
        detail = "" if ok else (
            f"{engine}/{bus_level}/{cpu_level}: cycle {observed[0]}, "
            f"{observed[1]} instructions differ from the reference "
            f"(cycle {self.reference[0]}, {self.reference[1]})")
        return Outcome(ok, "/".join(combo), detail,
                       time.perf_counter() - start,
                       self.window_steps * self.step_cycles, calls, probes,
                       self.window_steps, counts)


def make_workload(name: str, seed: int):
    references = json.loads(REFERENCE_PATH.read_text())
    if name == "boot_pin_cycle":
        return BootWorkload(name, VariantName.REDUCED_SCHEDULING,
                            "clocked", "signal", "cycle", scale=0.5,
                            step_cycles=500, max_cycles=250_000,
                            reference=references[name])
    if name == "boot_quantum":
        return BootWorkload(name, VariantName.REDUCED_SCHEDULING_2,
                            "clocked", "functional", "quantum", scale=12,
                            step_cycles=2_000, max_cycles=5_000_000,
                            reference=references[name])
    if name == "cluster_ping":
        return ClusterWorkload(name, seed)
    return FanoutWorkload(name, seed)


WORKLOADS = ("boot_pin_cycle", "boot_quantum", "cluster_ping",
             "snapshot_fanout")


# ---------------------------------------------------------------------- #
# the measurement protocol
# ---------------------------------------------------------------------- #
@dataclass
class Phase:
    """The operations measured in one timed loop."""

    measured: list[Outcome] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)

    @property
    def good(self) -> list[Outcome]:
        return [outcome for outcome in self.measured if outcome.ok]

    def typical(self) -> list[Outcome]:
        """Each operation key's typical repetition, at the reference speed.

        Every host time is first scaled to the reference host speed (see
        :func:`at_reference_speed`).  Every repetition of a key does the
        same simulated work, call for call, so each ``run_cycles`` call's
        time is then the median over the repetitions, and so is the rest of
        the operation (build, load, restore, check; probes excluded).  The
        median drops the few milliseconds another tenant steals from one
        call of one repetition; a cost that recurs at the same call in most
        repetitions, such as a collector pause, stays.
        """
        by_key: dict[str, list[Outcome]] = {}
        for outcome in self.good:
            by_key.setdefault(outcome.key, []).append(outcome)
        typical = []
        for key, reps in by_key.items():
            scaled = [at_reference_speed(o.calls, o.probes) for o in reps]
            calls = [statistics.median(call) for call in zip(*scaled)]
            rest_s = statistics.median(
                (o.total_s - sum(o.calls) - sum(o.probes))
                * REFERENCE_PROBE_S / statistics.median(o.probes)
                for o in reps)
            typical.append(Outcome(True, key, total_s=rest_s + sum(calls),
                                   cycles=reps[0].cycles, calls=calls,
                                   full_steps=reps[0].full_steps))
        return typical

    def sim_kcps(self) -> float:
        """Simulated cycles per host second of ``run_cycles``, in kHz."""
        typical = self.typical()
        return (sum(o.cycles for o in typical)
                / sum(sum(o.calls) for o in typical) / 1e3)

    def host_speed(self) -> float:
        """How much slower than the reference speed the host ran."""
        return statistics.median(probe for o in self.good
                                 for probe in o.probes) / REFERENCE_PROBE_S


def current_rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def measure(workload, seconds: float, rec: Recorder, checked: list,
            sampler=contextlib.nullcontext(),
            gc_clock=contextlib.nullcontext()) -> Phase:
    """Run whole units until ``seconds`` of host time have passed.

    A unit is one operation, or the full 12-cell matrix on the fan-out.
    Every operation is also appended to ``checked``.
    """
    phase = Phase()
    started = time.perf_counter()
    while not phase.measured or time.perf_counter() - started < seconds:
        for _ in range(workload.unit):
            gc.collect()
            rec.begin("operation")
            with sampler, gc_clock:
                outcome = workload.operation(rec)
            rec.end()
            checked.append(outcome)
            phase.measured.append(outcome)
            phase.rss_mb.append(current_rss_mb())
    return phase


def end_to_end_metrics(phase: Phase, setup_s: list[float]) -> dict:
    typical = phase.typical()
    steps = [step for o in typical for step in o.calls[:o.full_steps]]
    values = {
        "sim_kcps": (phase.sim_kcps(), "kHz"),
        "step_ms_p50": (statistics.median(steps) * 1e3, "ms"),
        "step_ms_p90": (statistics.quantiles(steps, n=10)[-1] * 1e3, "ms"),
        "cells_per_s": (len(typical) / sum(o.total_s for o in typical),
                        "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def per_layer_metrics(workload, untraced: Phase, traced: Phase,
                      rec: Recorder, sampler: LayerSampler,
                      gc_clock: GcClock) -> dict:
    good = traced.good
    ops = len(good)
    totals: Counter = Counter()
    for outcome in good:
        totals.update(outcome.counts)
    cycles = sum(o.cycles for o in good)
    instructions = totals["instructions"]

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    def median_span(name: str) -> float:
        durations = rec.durations(name)
        return statistics.median(durations) if durations else 0.0

    rss = traced.rss_mb
    values = {
        "software.assemble_s": (max(median_span("build_boot_program"),
                                    median_span("ping_echo_programs")), "s"),
        "platform.build_s": (max(median_span("VanillaNetPlatform"),
                                 median_span("VanillaNetCluster")), "s"),
        "platform.load_s": (max(median_span("load_program"),
                                median_span("load_programs")), "s"),
        "snapshot.capture_s": (median_span("save_snapshot"), "s"),
        "snapshot.pickle_s": (median_span("pickle.dumps"), "s"),
        "snapshot.unpickle_s": (median_span("pickle.loads"), "s"),
        "snapshot.restore_s": (median_span("restore_snapshot"), "s"),
        "snapshot.bytes": (getattr(workload, "snapshot_bytes", 0), "B"),
        "kernel.activations_per_cycle":
            (ratio(totals["process_activations"], cycles), "count/cycle"),
        "kernel.deltas_per_cycle":
            (ratio(totals["delta_cycles"], cycles), "count/cycle"),
        "kernel.timed_steps_per_cycle":
            (ratio(totals["timed_steps"], cycles), "count/cycle"),
        "kernel.channel_updates_per_cycle":
            (ratio(totals["channel_updates"], cycles), "count/cycle"),
        "kernel.events_per_cycle":
            (ratio(totals["events_notified"], cycles), "count/cycle"),
        "kernel.edges_skipped": (ratio(totals["edges_skipped"], ops),
                                 "count/op"),
        "bus.transfers_per_instr":
            (ratio(totals["bus_transfers"], instructions), "count/instr"),
        "iss.instructions": (ratio(instructions, ops), "count/op"),
        "iss.cpi": (ratio(totals["iss_cycles"], instructions), "cycle/instr"),
        "iss.warp_share":
            (ratio(totals["quantum_instructions"], instructions), "ratio"),
        "iss.instr_per_warp": (ratio(totals["quantum_instructions"],
                                     totals["quantum_warps"]), "count/warp"),
        "iss.decoded_entries": (ratio(totals["decoded_entries"], ops),
                                "count/op"),
        "iss.decoded_invalidations":
            (ratio(totals["decoded_invalidations"], ops), "count/op"),
        "iss.interrupts": (ratio(totals["interrupts"], ops), "count/op"),
        "peripherals.eth_frames": (ratio(totals["eth_frames"], ops),
                                   "count/op"),
        "peripherals.eth_dropped": (ratio(totals["eth_dropped"], ops),
                                    "count/op"),
        "peripherals.eth_accesses": (ratio(totals["eth_accesses"], ops),
                                     "count/op"),
        "platform.link_frames_delivered":
            (ratio(totals["link_frames_delivered"], ops), "count/op"),
        "runtime.gc_s": (ratio(gc_clock.seconds, ops), "s/op"),
        "runtime.gc_collections": (ratio(gc_clock.collections, ops),
                                   "count/op"),
        "runtime.rss_mb_per_cell":
            (ratio(rss[-1] - rss[0], len(rss) - 1), "MB/op"),
        "trace.overhead": (traced.sim_kcps() / untraced.sim_kcps(), "ratio"),
    }
    for layer, share in sampler.shares().items():
        values[f"{layer}.self_share"] = (share, "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


# ---------------------------------------------------------------------- #
# provenance and the command line
# ---------------------------------------------------------------------- #
def provenance(seed: int) -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    sources = hashlib.sha256()
    for path in sorted((SRC_DIR / "repro").rglob("*.py")):
        sources.update(path.relative_to(SRC_DIR).as_posix().encode())
        sources.update(path.read_bytes())
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fingerprint = hashlib.sha256(json.dumps(
        [host.machine(), host.system(), cpu_model, os.cpu_count(),
         os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")]).encode())
    return {
        "commit": commit,
        "source_sha256": sources.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "host": fingerprint.hexdigest()[:16],
        "cpu": cpu_model,
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object the CLI prints."""
    workload = make_workload(workload_name, seed)
    print(f"workload: {workload_name}")
    print(workload.seed_note)
    print(VALIDATION_NOTE)
    origin = provenance(seed)
    print("provenance: " + json.dumps(origin, sort_keys=True))
    # Set up several times, then discard one warm-up unit.  A traced run
    # records spans of its set-ups, measures half of ``seconds`` untraced
    # and half traced.  Each set-up is scaled to the reference speed by
    # the probes on either side of it.
    rec = Recorder(enabled=trace)
    setup_s = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        before = probe_median()
        start = time.perf_counter()
        workload.prepare(rec)
        elapsed = time.perf_counter() - start
        speed = (before + probe_median()) / 2
        setup_s.append(elapsed * REFERENCE_PROBE_S / speed)
    rec.enabled = False
    checked: list[Outcome] = []
    for _ in range(workload.unit):
        gc.collect()
        checked.append(workload.operation(rec))
    phases = [measure(workload, seconds / 2 if trace else seconds, rec,
                      checked)]
    if trace:
        rec.enabled = True
        sampler, gc_clock = LayerSampler(), GcClock()
        phases.append(measure(workload, seconds / 2, rec, checked, sampler,
                              gc_clock))
    failures = [outcome for outcome in checked if not outcome.ok]
    for outcome in failures:
        print(f"FAILED: {outcome.detail}")
    if any(not p.good for p in phases):
        metrics = {}
    elif not trace:
        metrics = end_to_end_metrics(phases[0], setup_s)
    else:
        metrics = per_layer_metrics(workload, *phases, rec, sampler,
                                    gc_clock)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{workload_name}-seed{seed}.trace.json"
        trace_path.write_text(json.dumps({
            "workload": workload_name,
            "provenance": origin,
            "span_fields": ["name", "start", "end", "parent"],
            "spans": rec.spans,
            "self_s": rec.self_times(),
            "samples": dict(sampler.samples),
        }) + "\n")
        print(f"spans: {len(rec.spans)} written to "
              f"{trace_path.relative_to(ROOT)}")
    measured = sum(len(p.measured) for p in phases)
    print(f"operations: {len(checked)} attempted ({measured} measured), "
          f"{len(failures)} failed")
    if metrics:
        typical = phases[0].typical()
        print(f"samples: {sum(o.full_steps for o in typical)} full steps per "
              f"unit, each the median of "
              f"{len(phases[0].good) / len(typical):g} repetitions")
        print(f"host speed: probes took {phases[0].host_speed():.3f} x the "
              "reference; host times below are scaled to the reference")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    return {"correct": not failures and bool(metrics),
            "attempted": len(checked), "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

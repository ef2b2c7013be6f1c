"""Standing differential-fuzz gate across every execution seam.

The repo has three independent execution seams -- ``engine``
(generic/clocked kernel), ``bus_level`` (signal/transaction/functional
fabric) and ``cpu_level`` (per-cycle/quantum ISS) -- and the standing
claim that all twelve combinations are *bit-identical* observers of the
same architecture: same registers, same console bytes, same cycle
counts.  Hand-written identity tests (test_cpu_levels,
test_bus_transport) pin known-interesting programs; this module keeps
the claim honest against programs nobody wrote:

* a fixed two-node ping/echo run, the acceptance gate for the cluster
  tentpole (frame traffic + RX interrupts through every seam combo);
* hypothesis-generated straight-line instruction streams on a single
  node;
* hypothesis-generated frame traffic (payload shapes x ping counts x
  link latencies, including back-to-back bursts inside one latency
  window) on a two-node cluster;
* deterministic link-latency corner cases: latency=1 (the degenerate
  warp horizon) and frames delivered exactly on a quantum boundary.

Reproducing a failure: hypothesis prints the falsifying example and a
``reproduce_failure`` blob on stderr, and stores it in ``.hypothesis/``
(the CI fuzz job uploads that directory as an artifact).  Re-running the
same example locally:

    PYTHONPATH=src python -m pytest tests/test_differential_fuzz.py \
        --hypothesis-seed=<seed printed by the failing run>

The example budget is deliberately small under tier-1 (this file is a
gate, not a soak) and raised in the dedicated CI fuzz job through
``REPRO_FUZZ_EXAMPLES``.
"""

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bus import bus_levels
from repro.datatypes import WORD_MASK
from repro.iss import cpu_levels
from repro.kernel import ENGINE_CLOCKED, ENGINE_GENERIC
from repro.isa.assembler import assemble
from repro.platform import (VanillaNetCluster, VanillaNetPlatform,
                            VariantName, cluster_config, memory_map as mm,
                            variant_config)
from repro.software import burst_echo_programs, ping_echo_programs
from repro.software.clib import clib_source
from repro.software.programs import BRAM_STACK_TOP

#: Per-test example budget; the CI fuzz job raises it well above the
#: tier-1 default.
MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "3"))

#: Every engine x bus_level x cpu_level combination (12 as of this PR).
COMBOS = [(engine, bus_level, cpu_level)
          for engine in (ENGINE_GENERIC, ENGINE_CLOCKED)
          for bus_level in bus_levels()
          for cpu_level in cpu_levels()]

FUZZ_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,                      # platform builds take ~1s
    suppress_health_check=[HealthCheck.too_slow],
)


def combo_id(combo) -> str:
    return "/".join(combo)


def observe_platform(platform) -> dict:
    """Everything the identity claim quantifies over, single node."""
    return {
        "registers": platform.architectural_state(),
        "memory": platform.memory_map.contents_digest(),
        "console": platform.console_output,
        "instructions": platform.statistics.instructions_retired,
        "cycles": platform.statistics.cycles,
        "sim_cycles": platform.cycle_count,
    }


def observe_cluster(cluster) -> dict:
    return {
        "states": cluster.architectural_states(),
        "memories": [node.memory_map.contents_digest()
                     for node in cluster.nodes],
        "consoles": cluster.console_outputs(),
        "sim_cycles": cluster.cycle_count,
        "frames_switched": cluster.link.frames_switched,
        "frames_delivered": cluster.link.frames_delivered,
    }


def assert_identical(results: dict) -> None:
    """All per-combo observations equal the first combo's observation."""
    reference_combo = COMBOS[0]
    reference = results[reference_combo]
    for combo, result in results.items():
        assert result == reference, (
            f"{combo_id(combo)} diverges from {combo_id(reference_combo)}")


# ---------------------------------------------------------------------- #
# the deterministic acceptance gate: 2-node ping/echo, all 12 combos
# ---------------------------------------------------------------------- #
class TestClusterSeamIdentity:
    def test_two_node_ping_echo_identical_on_every_combo(self):
        results = {}
        for engine, bus_level, cpu_level in COMBOS:
            cluster = VanillaNetCluster(cluster_config(
                2, engine=engine, bus_level=bus_level, cpu_level=cpu_level))
            cluster.load_programs(ping_echo_programs(count=2))
            finished = cluster.run_until_halt(max_cycles=100_000)
            assert finished, combo_id((engine, bus_level, cpu_level))
            results[engine, bus_level, cpu_level] = observe_cluster(cluster)
        reference = results[COMBOS[0]]
        assert reference["consoles"] == ["ping: 2 replies ok\n",
                                         "echo: 2 frames bounced\n"]
        assert reference["frames_delivered"] == 4
        assert_identical(results)


# ---------------------------------------------------------------------- #
# fuzzed straight-line instruction streams, single node
# ---------------------------------------------------------------------- #
#: General registers the generated stream may touch.  r0 is the zero
#: register, r1 the stack, r13 the scratch base, r14/r15 link registers,
#: r20-r23 are clib-clobbered -- the stream works in r2..r12.
STREAM_REGS = tuple(range(2, 13))

_reg = st.sampled_from(STREAM_REGS)
_imm16 = st.integers(min_value=-32768, max_value=32767)
_uimm16 = st.integers(min_value=0, max_value=0xFFFF)
_shift = st.integers(min_value=0, max_value=31)
_offset = st.sampled_from(range(0, 64, 4))

_three_reg = st.tuples(
    st.sampled_from(["add", "rsub", "and", "or", "xor", "mul"]),
    _reg, _reg, _reg,
).map(lambda t: f"{t[0]:<7} r{t[1]}, r{t[2]}, r{t[3]}")

_reg_imm = st.one_of(
    st.tuples(st.just("addik"), _reg, _reg, _imm16),
    st.tuples(st.sampled_from(["andi", "ori", "xori"]), _reg, _reg, _uimm16),
).map(lambda t: f"{t[0]:<7} r{t[1]}, r{t[2]}, {t[3]}")

_shift_imm = st.tuples(
    st.sampled_from(["bslli", "bsrai", "bsrli"]), _reg, _reg, _shift,
).map(lambda t: f"{t[0]:<7} r{t[1]}, r{t[2]}, {t[3]}")

_extend = st.tuples(
    st.sampled_from(["sext8", "sext16"]), _reg, _reg,
).map(lambda t: f"{t[0]:<7} r{t[1]}, r{t[2]}")

#: Loads and stores go through the bus fabrics under test -- the most
#: seam-sensitive instructions in the pool.  The scratch buffer keeps
#: them at safe, word-aligned addresses.
_memory = st.tuples(
    st.sampled_from(["swi", "lwi"]), _reg, _offset,
).map(lambda t: f"{t[0]:<7} r{t[1]}, r13, {t[2]}")

_instruction = st.one_of(_three_reg, _reg_imm, _shift_imm, _extend, _memory)

#: One register seed per stream register (loaded before the stream runs).
_seeds = st.lists(_imm16, min_size=len(STREAM_REGS),
                  max_size=len(STREAM_REGS))

_stream = st.lists(_instruction, min_size=1, max_size=40)


def stream_program(seeds, stream):
    """Assemble a straight-line stream into a bootable BRAM image.

    The epilogue routes one stream-derived byte through the console UART
    so the fuzz also differentiates the interrupt-driven print path, and
    then halts -- no branches inside the generated window.
    """
    seed_lines = "\n".join(
        f"    addik   r{reg}, r0, {value}"
        for reg, value in zip(STREAM_REGS, seeds))
    body = "\n".join(f"    {line}" for line in stream)
    source = f"""
_start:
    li      r1, {BRAM_STACK_TOP:#x}
    li      r13, scratch
{seed_lines}
{body}
    andi    r5, r3, 0x3F
    addik   r5, r5, 0x20        # printable ASCII
    brlid   r15, putchar
    nop
    bri     _halt
_halt:
    bri     _halt
""" + clib_source() + """
    .align 4
scratch:
    .space 64
"""
    return assemble(source, origin=mm.BRAM_BASE)


class TestInstructionStreamFuzz:
    @FUZZ_SETTINGS
    @given(seeds=_seeds, stream=_stream)
    def test_streams_identical_on_every_combo(self, seeds, stream):
        program = stream_program(seeds, stream)
        results = {}
        for engine, bus_level, cpu_level in COMBOS:
            platform = VanillaNetPlatform(variant_config(
                VariantName.NATIVE_TYPES, engine=engine,
                bus_level=bus_level, cpu_level=cpu_level))
            platform.load_program(program)
            finished = platform.run_until_halt(max_cycles=50_000,
                                               chunk_cycles=1_000)
            assert finished, combo_id((engine, bus_level, cpu_level))
            results[engine, bus_level, cpu_level] = observe_platform(platform)
        assert_identical(results)


# ---------------------------------------------------------------------- #
# fuzzed frame traffic, two-node cluster, link-latency sweep
# ---------------------------------------------------------------------- #
_payload = st.lists(st.integers(min_value=0, max_value=WORD_MASK),
                    min_size=1, max_size=8)
_ping_count = st.integers(min_value=1, max_value=3)
#: Link latencies the traffic fuzz sweeps.  latency=1 is the degenerate
#: horizon (the RX warp bound collapses to a single cycle), 8 the
#: default, the others probe odd/large strides of the leapfrog chaining.
_latency = st.sampled_from((1, 2, 8, 13))


def run_traffic(programs, latency, chunk_cycles=2_000,
                max_cycles=150_000) -> dict:
    """One program pair through all 12 combos; identical observations."""
    results = {}
    for engine, bus_level, cpu_level in COMBOS:
        cluster = VanillaNetCluster(cluster_config(
            2, engine=engine, bus_level=bus_level, cpu_level=cpu_level,
            link_latency_cycles=latency))
        cluster.load_programs(programs)
        finished = cluster.run_until_halt(max_cycles=max_cycles,
                                          chunk_cycles=chunk_cycles)
        assert finished, combo_id((engine, bus_level, cpu_level))
        results[engine, bus_level, cpu_level] = observe_cluster(cluster)
    assert_identical(results)
    return results[COMBOS[0]]


class TestTrafficPatternFuzz:
    @FUZZ_SETTINGS
    @given(payload=_payload, count=_ping_count, latency=_latency)
    def test_traffic_identical_on_every_combo(self, payload, count,
                                              latency):
        programs = ping_echo_programs(payload=tuple(payload), count=count)
        reference = run_traffic(programs, latency)
        assert reference["consoles"][0] == f"ping: {count} replies ok\n"
        assert reference["frames_switched"] == 2 * count

    @FUZZ_SETTINGS
    @given(payload=_payload, burst=st.integers(min_value=2, max_value=4),
           latency=_latency)
    def test_back_to_back_frames_identical_on_every_combo(
            self, payload, burst, latency):
        """All frames of a burst are in flight within one latency window.

        The burst-ping image commits every frame before waiting, so the
        echo node takes its RX interrupt with further frames still
        arriving, and re-enables ``RX_IE`` while the queue is non-empty
        -- the orderings the warp horizon must not blur.
        """
        programs = burst_echo_programs(payload=tuple(payload), burst=burst)
        reference = run_traffic(programs, latency)
        assert reference["consoles"][0] == f"burst: {burst} replies ok\n"
        assert reference["frames_switched"] == 2 * burst


class TestLinkLatencyEdgeCases:
    """Deterministic corner cases riding next to the fuzz."""

    def test_latency_one_identical_on_every_combo(self):
        """The tightest legal horizon: delivery one cycle after commit."""
        reference = run_traffic(ping_echo_programs(count=3), latency=1)
        assert reference["consoles"][0] == "ping: 3 replies ok\n"

    def test_frame_on_quantum_boundary_identical_on_every_combo(self):
        """Frames landing exactly on a quantum boundary change nothing.

        With ``chunk_cycles=1`` every cycle *is* a quantum boundary, so
        each frame delivery coincides with one by construction; the
        observation must match a coarsely-chunked run bit for bit
        (chunking is measurement cadence, never architecture).
        """
        programs = ping_echo_programs(count=2)
        boundary = run_traffic(programs, latency=8, chunk_cycles=1,
                               max_cycles=50_000)
        coarse = run_traffic(programs, latency=8, chunk_cycles=2_000,
                             max_cycles=50_000)
        assert boundary == coarse

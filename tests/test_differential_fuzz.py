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
* hypothesis-generated counted loops on a single node (ALU ops, byte /
  halfword / word loads and stores, delay-slot branches), which the
  quantum warp runs as superblocks -- plus pinned corners: page-boundary
  and region-edge buffers, a store into the loop's own code, a
  misaligned access, and run windows / budgets that split a pass;
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

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bus import bus_levels
from repro.datatypes import WORD_MASK
from repro.iss import cpu_levels
from repro.kernel import ENGINE_CLOCKED, ENGINE_GENERIC
from repro.kernel.errors import AlignmentError
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
        "iss": platform.statistics.retired_profile(),
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
        "iss": [node.statistics.retired_profile() for node in cluster.nodes],
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
# fuzzed counted loops, single node: the quantum warp's superblocks
# ---------------------------------------------------------------------- #
#: Where a loop's buffer lies.  The pointer r13 walks ``count`` strides;
#: each pass accesses [r13, r13 + 16).  ``*_page`` windows straddle a
#: 4 KiB page boundary, ``*_end`` windows end on the last byte of the
#: region -- BRAM (served over the LMB) or SDRAM (served by the memory
#: dispatcher on the suppress_main_memory variant, and over the bus
#: otherwise).
LOOP_PLACES = ("bram_page", "bram_end", "sdram_page", "sdram_end")

#: Variants the loop fuzz runs on: SDRAM behind the OPB, and SDRAM owned
#: by the memory dispatcher.
LOOP_VARIANTS = (VariantName.NATIVE_TYPES, VariantName.SUPPRESS_MAIN_MEMORY)

_loop_memory = st.one_of(
    st.tuples(st.sampled_from(["lbui", "sbi"]), _reg,
              st.integers(min_value=0, max_value=15)),
    st.tuples(st.sampled_from(["lhui", "shi"]), _reg,
              st.sampled_from(range(0, 16, 2))),
    st.tuples(st.sampled_from(["lwi", "swi"]), _reg,
              st.sampled_from(range(0, 16, 4))),
).map(lambda t: f"{t[0]:<7} r{t[1]}, r13, {t[2]}")

_loop_register_memory = st.tuples(
    st.sampled_from(["lbu", "lhu", "lw", "sb", "sh", "sw"]), _reg,
).map(lambda t: f"{t[0]:<7} r{t[1]}, r13, r0")

_loop_instruction = st.one_of(_three_reg, _reg_imm, _shift_imm, _extend,
                              _loop_memory, _loop_register_memory)

_loop_shape = st.fixed_dictionaries({
    "seeds": _seeds,
    "body": st.lists(_loop_instruction, min_size=1, max_size=8),
    "count": st.integers(min_value=1, max_value=24),
    "stride": st.sampled_from((4, 8, 16)),
    "place": st.sampled_from(LOOP_PLACES),
    # A forward branch inside the body: (register, skipped instruction,
    # its delay slot) or None.
    "fork": st.one_of(st.none(), st.tuples(_reg, _loop_instruction,
                                           _loop_instruction)),
    # The loop branch's delay slot, or None for a branch without one.
    "slot": st.one_of(st.none(), _loop_instruction),
})


def loop_base(place: str, strides: int, stride: int) -> int:
    """Start of the buffer pointer for ``place`` (see LOOP_PLACES) when
    its last access window lies ``strides`` strides further on."""
    walk = strides * stride
    if place.endswith("_page"):
        region = mm.BRAM_BASE if place.startswith("bram") else mm.SDRAM_BASE
        return region + 0x1000 - 8 - ((walk // 2) & ~3)
    end = mm.BRAM_BASE + mm.BRAM_SIZE if place.startswith("bram") \
        else mm.SDRAM_BASE + mm.SDRAM_SIZE
    return end - 16 - walk


def loop_program(seeds, body, count, stride, place, fork=None, slot=None,
                 prologue="", base=None):
    """Assemble a counted loop over a buffer into a bootable BRAM image.

    r24 counts ``count`` passes down, r13 walks the buffer by ``stride``;
    the loop branch has a delay slot when ``slot`` is given.  The
    epilogue prints one r3-derived byte and halts, like the stream fuzz.
    """
    seed_lines = "\n".join(
        f"    addik   r{reg}, r0, {value}"
        for reg, value in zip(STREAM_REGS, seeds))
    lines = list(body)
    if fork is not None:
        register, skipped, fork_slot = fork
        half = len(lines) // 2
        lines[half:half] = [f"bneid   r{register}, loop_skip", fork_slot,
                            skipped, "loop_skip_label"]
    body_text = "\n".join(
        "loop_skip:" if line == "loop_skip_label" else f"    {line}"
        for line in lines)
    if slot is None:
        branch = "    bnei    r24, loop"
    else:
        branch = f"    bneid   r24, loop\n    {slot}"
    if base is None:
        # A delay slot runs after the pointer moved: one stride further.
        base = loop_base(place, count - (slot is None), stride)
    source = f"""
_start:
    li      r1, {BRAM_STACK_TOP:#x}
    li      r13, {base:#x}
{seed_lines}
{prologue}
    addik   r24, r0, {count}
loop:
{body_text}
    addik   r13, r13, {stride}
    addik   r24, r24, -1
{branch}
    andi    r5, r3, 0x3F
    addik   r5, r5, 0x20        # printable ASCII
    brlid   r15, putchar
    nop
    bri     _halt
_halt:
    bri     _halt
""" + clib_source()
    program = assemble(source, origin=mm.BRAM_BASE)
    code_end = max(address for address, _ in program.words()) + 4
    assert code_end < 0x0E00, "loop image would overlap its buffer"
    return program


def run_loop(program, variant, mode="halt", step=0) -> dict:
    """One program through all 12 combos; identical observations.

    ``mode`` ``"cycles"`` runs ``run_cycles(step)`` windows and
    ``"instructions"`` ``run_instructions(step)`` budgets until the halt
    address, recording the retired count, PC and cycle after each call,
    so windows and budgets that split a pass are compared at every split.
    """
    results = {}
    for combo in COMBOS:
        engine, bus_level, cpu_level = combo
        platform = VanillaNetPlatform(variant_config(
            variant, engine=engine, bus_level=bus_level,
            cpu_level=cpu_level))
        platform.load_program(program)
        microblaze = platform.microblaze
        trace = []
        if mode == "halt":
            finished = platform.run_until_halt(max_cycles=60_000,
                                               chunk_cycles=1_000)
        else:
            for _ in range(60_000 // step):
                if mode == "cycles":
                    platform.run_cycles(step)
                    done = microblaze.finished
                else:
                    platform.run_instructions(step, chunk_cycles=step)
                    done = microblaze.core.pc == microblaze.halt_address
                trace.append((platform.statistics.instructions_retired,
                              microblaze.core.pc, platform.cycle_count))
                if done:
                    break
            finished = microblaze.core.pc == microblaze.halt_address
        assert finished, combo_id(combo)
        results[combo] = dict(observe_platform(platform), trace=trace)
    assert_identical(results)
    return results[COMBOS[0]]


class TestLoopFuzz:
    @FUZZ_SETTINGS
    @given(shape=_loop_shape, variant=st.sampled_from(LOOP_VARIANTS),
           run=st.one_of(st.just(("halt", 0)),
                         st.tuples(st.sampled_from(("cycles",
                                                    "instructions")),
                                   st.integers(min_value=5, max_value=60))))
    def test_loops_identical_on_every_combo(self, shape, variant, run):
        run_loop(loop_program(**shape), variant, *run)


class TestLoopCorners:
    """The loop cases the fuzz must always cover, pinned."""

    SEEDS = [3 * reg + 1 for reg in STREAM_REGS]
    BODY = ["sbi     r2, r13, 0", "shi     r3, r13, 2", "swi     r4, r13, 4",
            "lbui    r5, r13, 1", "lhui    r6, r13, 2", "lwi     r7, r13, 4",
            "add     r3, r3, r7", "xori    r4, r4, 0x55"]

    @pytest.mark.parametrize("variant", LOOP_VARIANTS,
                             ids=lambda variant: variant.value)
    @pytest.mark.parametrize("place", LOOP_PLACES)
    def test_page_boundary_and_region_edge(self, place, variant):
        program = loop_program(self.SEEDS, self.BODY, count=12, stride=4,
                               place=place, slot="addik   r2, r2, 3")
        reference = run_loop(program, variant)
        assert reference["iss"]["stores"] >= 36

    @pytest.mark.parametrize("mode,step", [("cycles", 7), ("cycles", 13),
                                           ("instructions", 3),
                                           ("instructions", 5)])
    def test_windows_and_budgets_split_passes(self, mode, step):
        program = loop_program(self.SEEDS, self.BODY, count=10, stride=4,
                               place="sdram_page")
        run_loop(program, VariantName.SUPPRESS_MAIN_MEMORY, mode, step)

    def test_store_into_own_code(self):
        """Each pass stores over the loop's first instruction: the first
        pass adds 1, every later one runs the patched word and adds 100."""
        patched = assemble("addik r3, r3, 100").words()[0][1]
        body = ["addik   r3, r3, 1", "swi     r21, r20, 0",
                "sbi     r3, r13, 0"]
        program = loop_program(
            [0] * len(STREAM_REGS), body, count=6, stride=4,
            place="bram_page",
            prologue=f"    li      r20, loop\n    li      r21, {patched:#x}")
        reference = run_loop(program, VariantName.SUPPRESS_MAIN_MEMORY)
        assert reference["registers"]["r3"] == 1 + 5 * 100

    def test_misaligned_access(self):
        """Passes 1-9 read aligned halfwords; pass 10 (r24 = 31) reads at
        an odd address.  Every combo stops on the same instruction with
        the same error."""
        body = ["andi    r26, r24, 0x10", "bsrli   r26, r26, 4",
                "lhu     r25, r13, r26", "sbi     r25, r13, 0"]
        program = loop_program(self.SEEDS, body, count=40, stride=4,
                               place="sdram_page")
        outcomes = {}
        for combo in COMBOS:
            engine, bus_level, cpu_level = combo
            platform = VanillaNetPlatform(variant_config(
                VariantName.SUPPRESS_MAIN_MEMORY, engine=engine,
                bus_level=bus_level, cpu_level=cpu_level))
            platform.load_program(program)
            with pytest.raises(AlignmentError) as error:
                platform.run_until_halt(max_cycles=20_000,
                                        chunk_cycles=1_000)
            outcomes[combo] = (str(error.value), observe_platform(platform))
        assert_identical(outcomes)
        assert outcomes[COMBOS[0]][1]["registers"]["r24"] == 31


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

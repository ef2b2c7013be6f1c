"""Checkpoint/restore warm-start snapshots (the sweep runner's substrate).

The contract under test (DESIGN intent of ``platform/snapshot.py``):

* **Determinism** -- restoring a snapshot into a fresh platform and
  continuing produces *exactly* the run the snapshotted platform would
  have produced uninterrupted: identical registers, console bytes, cycle
  counts and per-mnemonic instruction statistics.  This must hold on both
  simulation engines and at every bus/cpu abstraction level.
* **Trace identity** -- on a traced variant the VCD text itself is
  byte-identical, so even signal-level observables survive the round trip.
* **Isolation** -- a snapshot is a value: restoring it twice (or restoring
  a pickled copy) yields the same continuation, i.e. restore does not
  alias mutable state into the platform.
"""

import pickle

import pytest

from repro.bus import BUS_FUNCTIONAL, BUS_SIGNAL, BUS_TRANSACTION
from repro.iss import CPU_CYCLE, CPU_QUANTUM
from repro.kernel import (ENGINE_CLOCKED, ENGINE_GENERIC, KernelError,
                          ModelError)
from repro.core import ExperimentOptions
from repro.platform import (VanillaNetPlatform, VariantName,
                            all_systemc_variants, variant_config)
from repro.software import BootParams, build_boot_program

SMALL_BOOT = BootParams(bss_bytes=32, kernel_copy_bytes=48,
                        page_clear_bytes=16, page_clear_count=1,
                        rootfs_copy_bytes=16, checksum_words=4,
                        progress_dots=1, timer_ticks=1,
                        timer_period_cycles=300, device_probe_rounds=1)

#: Instructions executed before the snapshot point.
WARM = 80
#: Instructions executed after the snapshot point (the compared window).
POST = 150

# Both engines, every bus level and every cpu level are exercised at
# least once (the full cross product would re-test the same seams).
CONFIGS = [
    (ENGINE_GENERIC, BUS_SIGNAL, CPU_CYCLE),
    (ENGINE_GENERIC, BUS_TRANSACTION, CPU_CYCLE),
    (ENGINE_GENERIC, BUS_FUNCTIONAL, CPU_CYCLE),
    (ENGINE_GENERIC, BUS_SIGNAL, CPU_QUANTUM),
    (ENGINE_CLOCKED, BUS_SIGNAL, CPU_CYCLE),
    (ENGINE_CLOCKED, BUS_TRANSACTION, CPU_CYCLE),
    (ENGINE_CLOCKED, BUS_FUNCTIONAL, CPU_CYCLE),
    (ENGINE_CLOCKED, BUS_SIGNAL, CPU_QUANTUM),
]

CONFIG_IDS = ["/".join(config) for config in CONFIGS]


def build_platform(variant=VariantName.INITIAL, engine=ENGINE_GENERIC,
                   bus_level=BUS_SIGNAL, cpu_level=CPU_CYCLE):
    platform = VanillaNetPlatform(variant_config(
        variant, engine=engine, bus_level=bus_level, cpu_level=cpu_level))
    platform.load_program(build_boot_program(SMALL_BOOT))
    return platform


def observed_state(platform) -> dict:
    """Everything a continuation run is compared on."""
    stats = platform.statistics
    return {
        "registers": platform.architectural_state(),
        "console": platform.console_output,
        "cycles": platform.cycle_count,
        "instructions": stats.instructions_retired,
        "per_mnemonic": dict(stats.per_mnemonic),
        "time_ps": platform.sim.time_ps,
    }


def run_post(platform):
    platform.run_instructions(POST, chunk_cycles=200)
    return observed_state(platform)


class TestRestoreDeterminism:
    @pytest.mark.parametrize("engine,bus_level,cpu_level", CONFIGS,
                             ids=CONFIG_IDS)
    def test_restore_matches_uninterrupted_run(self, engine, bus_level,
                                               cpu_level):
        reference = build_platform(engine=engine, bus_level=bus_level,
                                   cpu_level=cpu_level)
        reference.run_instructions(WARM, chunk_cycles=200)
        snapshot = reference.save_snapshot()
        at_snapshot = observed_state(reference)
        expected = run_post(reference)

        restored = build_platform(engine=engine, bus_level=bus_level,
                                  cpu_level=cpu_level)
        restored.restore_snapshot(snapshot)
        assert observed_state(restored) == at_snapshot
        assert run_post(restored) == expected

    def test_restore_crosses_engines(self):
        """Architectural state transfers between simulation engines."""
        reference = build_platform(engine=ENGINE_GENERIC)
        reference.run_instructions(WARM, chunk_cycles=200)
        snapshot = reference.save_snapshot()
        expected = run_post(reference)

        restored = build_platform(engine=ENGINE_CLOCKED)
        restored.restore_snapshot(snapshot)
        assert run_post(restored) == expected

    def test_restore_crosses_cpu_levels(self):
        """A cycle-level snapshot warm-starts a quantum-level platform."""
        reference = build_platform(cpu_level=CPU_CYCLE)
        reference.run_instructions(WARM, chunk_cycles=200)
        snapshot = reference.save_snapshot()

        quantum = build_platform(cpu_level=CPU_QUANTUM)
        quantum.restore_snapshot(snapshot)
        baseline = build_platform(cpu_level=CPU_QUANTUM)
        baseline.run_instructions(WARM, chunk_cycles=200)
        expected = run_post(baseline)
        result = run_post(quantum)
        # Quantum execution is cycle-approximate, so cycle counts may
        # differ from the cycle-level warm-up; the architectural result
        # must not.
        assert result["registers"] == expected["registers"]
        assert result["console"] == expected["console"]
        assert result["instructions"] == expected["instructions"]


class TestSnapshotIsolation:
    def test_double_restore_is_identical(self):
        """One snapshot object warm-starts two platforms identically."""
        source = build_platform()
        source.run_instructions(WARM, chunk_cycles=200)
        snapshot = source.save_snapshot()

        first = build_platform()
        first.restore_snapshot(snapshot)
        first_result = run_post(first)

        second = build_platform()
        second.restore_snapshot(snapshot)
        assert run_post(second) == first_result

    def test_pickle_roundtrip(self):
        """Snapshots survive the process boundary (the sweep's transport)."""
        source = build_platform()
        source.run_instructions(WARM, chunk_cycles=200)
        snapshot = source.save_snapshot()
        expected = run_post(source)

        clone = pickle.loads(pickle.dumps(snapshot))
        restored = build_platform()
        restored.restore_snapshot(clone)
        assert run_post(restored) == expected

    def test_capture_is_nonintrusive(self):
        """Taking a snapshot does not perturb the snapshotted platform."""
        observed = build_platform()
        observed.run_instructions(WARM, chunk_cycles=200)
        observed.save_snapshot()
        baseline = build_platform()
        baseline.run_instructions(WARM, chunk_cycles=200)
        assert run_post(observed) == run_post(baseline)


class TestSnapshotSize:
    """Snapshots carry only written memory pages, not whole backing
    stores: every family's warm-start snapshot stays small to pickle,
    ship to sweep workers and restore."""

    LIMIT_BYTES = 1 << 20

    @pytest.mark.parametrize("variant", all_systemc_variants(),
                             ids=lambda variant: variant.value)
    def test_family_snapshot_under_limit(self, variant):
        # A sweep family boot (core/sweep.py) at the defaults of
        # examples/figure2_sweep.py: boot scale 0.4, 250 warm-up
        # instructions.
        options = ExperimentOptions(boot_scale=0.4, warmup_instructions=250)
        platform = VanillaNetPlatform(variant_config(variant))
        platform.load_program(build_boot_program(options.boot_params()))
        platform.run_instructions(options.warmup_instructions,
                                  chunk_cycles=options.chunk_cycles)
        blob = pickle.dumps(platform.save_snapshot(variant=variant.value),
                            protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < self.LIMIT_BYTES, \
            f"{variant.value}: snapshot pickles to {len(blob):,} bytes"


class TestTraceIdentity:
    def test_vcd_byte_identical_after_restore(self):
        reference = build_platform(variant=VariantName.INITIAL_TRACE)
        reference.run_instructions(WARM, chunk_cycles=200)
        snapshot = reference.save_snapshot()
        reference.run_instructions(POST, chunk_cycles=200)
        expected_vcd = reference.tracer.writer.getvalue()

        restored = build_platform(variant=VariantName.INITIAL_TRACE)
        restored.restore_snapshot(snapshot)
        restored.run_instructions(POST, chunk_cycles=200)
        assert restored.tracer.writer.getvalue() == expected_vcd
        assert len(expected_vcd) > 0


class TestErrorPaths:
    def test_capture_requires_loaded_program(self):
        platform = VanillaNetPlatform(variant_config(VariantName.INITIAL))
        with pytest.raises(ModelError):
            platform.save_snapshot()

    def test_restore_requires_loaded_program(self):
        source = build_platform()
        source.run_instructions(WARM, chunk_cycles=200)
        snapshot = source.save_snapshot()
        fresh = VanillaNetPlatform(variant_config(VariantName.INITIAL))
        with pytest.raises(ModelError):
            fresh.restore_snapshot(snapshot)

    def test_restore_requires_fresh_platform(self):
        source = build_platform()
        source.run_instructions(WARM, chunk_cycles=200)
        snapshot = source.save_snapshot()
        stale = build_platform()
        stale.run_instructions(WARM, chunk_cycles=200)
        with pytest.raises(KernelError):
            stale.restore_snapshot(snapshot)


class TestEthernetInterruptLevel:
    """Regression: capture/restore must carry the MAC interrupt level.

    The proxy's original ``capture_state`` returned only the register
    file, so a snapshot taken with the RX interrupt line asserted
    restored with it deasserted -- the restored run then never took the
    pending interrupt.
    """

    def test_peripheral_state_roundtrips_asserted_line(self):
        source = build_platform().ethernet
        source.interrupt.force(1)
        state = source.capture_state()
        assert state["interrupt_level"] == 1

        target = build_platform().ethernet
        assert target.interrupt.value == 0
        target.restore_state(state)
        assert target.interrupt.value == 1

    def test_linked_fifo_state_roundtrips(self):
        class _StubLink:
            def transmit(self, mac, payload):
                pass

        source = build_platform().ethernet
        source.attach_link(_StubLink(), 0)
        source.write_register(source.REG_CONTROL, source.CONTROL_RX_IE, 4)
        source.deliver_frame(b"\x01\x02\x03\x04\x05\x06")
        source.read_register(source.REG_RX_DATA, 4)   # advance the cursor
        source.write_register(source.REG_TX_DATA, 0xAABB_CCDD, 4)
        state = source.capture_state()

        target = build_platform().ethernet
        target.attach_link(_StubLink(), 0)
        target.restore_state(state)
        assert target.read_register(target.REG_RX_LEN, 4) == 6
        assert target.read_register(target.REG_RX_DATA, 4) == 0x0506_0000
        assert target._tx_staging == [0xAABB_CCDD]
        assert target.frames_received == 1

"""Integration tests: programs running on the full VanillaNet platform."""

from repro.bus import BUS_FUNCTIONAL
from repro.iss import CPU_CYCLE, CPU_QUANTUM, cpu_levels
from repro.kernel import ENGINE_CLOCKED
from repro.platform import (ModelConfig, VanillaNetPlatform, VariantName,
                            variant_config)
from repro.signals import DataMode
from repro.software import (BootParams, arithmetic_program,
                            build_boot_program, hello_program,
                            interrupt_program, memory_exercise_program)


def make_platform(**config_kwargs) -> VanillaNetPlatform:
    config = ModelConfig(name="test", data_mode=DataMode.NATIVE,
                         use_methods=True, **config_kwargs)
    return VanillaNetPlatform(config)


class TestArithmeticOnPlatform:
    def test_runs_to_halt_and_computes(self):
        platform = make_platform()
        program = arithmetic_program()
        platform.load_program(program)
        finished = platform.run_until_halt(max_cycles=60_000)
        assert finished
        result_address = program.symbols.address_of("result")
        assert platform.memory_map.read_word(result_address + 4) == 1234
        assert platform.memory_map.read_word(result_address + 8) == 54756

    def test_cycle_accurate_cpi_reflects_bus_latency(self):
        platform = make_platform()
        platform.load_program(arithmetic_program())
        platform.run_until_halt(max_cycles=60_000)
        stats = platform.statistics
        # Code runs from BRAM over the single-cycle LMB, so CPI should be
        # low but above 1 (stores to BRAM add cycles).
        assert stats.instructions_retired > 10
        assert stats.cycles >= stats.instructions_retired


class TestHelloOnPlatform:
    def test_console_output(self):
        platform = make_platform()
        platform.load_program(hello_program("hi there"))
        finished = platform.run_until_halt(max_cycles=400_000)
        assert finished
        assert "hi there" in platform.console_output

    def test_uart_transactions_went_over_the_bus(self):
        platform = make_platform()
        platform.load_program(hello_program("abc"))
        platform.run_until_halt(max_cycles=400_000)
        assert platform.console_uart.transactions > 0
        assert platform.arbiter.transactions_granted > 0


class TestResolvedSignalsVariant:
    def test_initial_model_produces_same_output(self):
        platform = VanillaNetPlatform(variant_config(VariantName.INITIAL))
        platform.load_program(hello_program("abc"))
        finished = platform.run_until_halt(max_cycles=400_000)
        assert finished
        assert "abc" in platform.console_output


class TestMemoryExerciseOnPlatform:
    def test_memset_memcpy_checksum(self):
        platform = make_platform()
        program = memory_exercise_program(region_bytes=32)
        platform.load_program(program)
        finished = platform.run_until_halt(max_cycles=500_000)
        assert finished
        result_address = program.symbols.address_of("result")
        assert platform.memory_map.read_word(result_address) == 0xA5 * 32


class TestInterruptsOnPlatform:
    def test_timer_interrupts_counted(self):
        platform = make_platform()
        program = interrupt_program(ticks=2, timer_period=300)
        platform.load_program(program)
        finished = platform.run_until_halt(max_cycles=300_000)
        assert finished
        result_address = program.symbols.address_of("result")
        assert platform.memory_map.read_word(result_address) >= 2
        assert platform.statistics.interrupts_taken >= 2


class TestDispatcherVariants:
    def test_instruction_suppression_reduces_cycles(self):
        results = {}
        for name, config_kwargs in (
                ("cycle_accurate", {}),
                ("dispatcher", {"suppress_instruction_memory": True,
                                "suppress_main_memory": True})):
            platform = make_platform(**config_kwargs)
            platform.load_program(hello_program("xyz"))
            assert platform.run_until_halt(max_cycles=400_000)
            results[name] = platform.statistics.cycles
            assert "xyz" in platform.console_output
        assert results["dispatcher"] <= results["cycle_accurate"]

    def test_runtime_toggle(self):
        platform = make_platform()
        platform.load_program(memory_exercise_program(region_bytes=16))
        platform.run_cycles(200)
        platform.set_instruction_memory_suppression(True)
        platform.set_main_memory_suppression(True)
        finished = platform.run_until_halt(max_cycles=300_000)
        assert finished
        assert platform.dispatcher.instruction_fetches >= 0


class TestProcessInventory:
    def test_process_count_matches_platform_scale(self):
        platform = VanillaNetPlatform(variant_config(VariantName.INITIAL))
        # The paper's pin/cycle accurate model has 17 processes; ours should
        # be in the same range (tracing and exact peripheral split vary).
        count = platform.process_count()
        assert 14 <= count <= 20

    def test_combined_processes_reduce_count(self):
        separate = VanillaNetPlatform(
            variant_config(VariantName.REDUCED_PORT_READING))
        combined = VanillaNetPlatform(
            variant_config(VariantName.REDUCED_SCHEDULING))
        assert combined.process_count() == separate.process_count() - 2


class TestIdleWarp:
    def test_idle_tail_warps_without_moving_the_resume_cycle(self):
        """A drained budget idles to the chunk end; the quantum level warps
        that idle time yet resumes every window on the same cycle."""
        results, activations = {}, {}
        for level in cpu_levels():
            platform = VanillaNetPlatform(variant_config(
                VariantName.SUPPRESS_MAIN_MEMORY, engine=ENGINE_CLOCKED,
                bus_level=BUS_FUNCTIONAL, cpu_level=level))
            platform.load_program(build_boot_program(
                BootParams().scaled(0.2)))
            windows = [platform.run_instructions(250, chunk_cycles=4_000)
                       for _ in range(4)]
            results[level] = (windows, platform.architectural_state(),
                              platform.console_output,
                              platform.statistics.cycles)
            activations[level] = platform.sim.stats.process_activations
        assert results[CPU_CYCLE] == results[CPU_QUANTUM]
        assert all(cycles == 4_000 for cycles in results[CPU_CYCLE][0])
        assert activations[CPU_QUANTUM] * 4 < activations[CPU_CYCLE]

"""Functional (untimed) execution harness for the MicroBlaze core.

Couples a :class:`~repro.iss.core.MicroBlazeCore` directly to a
:class:`~repro.peripherals.memory.MemoryMap`, with optional register-style
peripheral hooks.  No simulation kernel, no buses, no cycles -- this is the
reference executor used by the ISS unit tests and by the software package
to validate workloads before they are run on the cycle-accurate platform.
It also provides the golden architectural result the accuracy-contract
tests compare the platform variants against.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..isa.assembler import Program
from ..isa.symbols import SymbolTable
from ..peripherals.memory import MemoryMap, MemoryStorage
from .core import MicroBlazeCore
from .interception import InvalidatingDirectMemory, KernelFunctionInterceptor

#: ``(address, size) -> value`` hook signature for peripheral reads.
ReadHook = Callable[[int, int], int]
#: ``(address, value, size)`` hook signature for peripheral writes.
WriteHook = Callable[[int, int, int], None]


class FunctionalMicroBlaze:
    """An untimed MicroBlaze system: core + flat memory + IO hooks."""

    def __init__(self, memory_map: Optional[MemoryMap] = None,
                 memory_size: int = 0x10000,
                 reset_pc: int = 0) -> None:
        if memory_map is None:
            memory_map = MemoryMap([MemoryStorage("ram", 0, memory_size)])
        self.memory = memory_map
        self._io_regions: list[tuple[int, int, ReadHook, WriteHook]] = []
        self.core = MicroBlazeCore(fetch=self._fetch, load=self._load,
                                   store=self._store, reset_pc=reset_pc)
        self.symbols: Optional[SymbolTable] = None
        self.interceptor: Optional[KernelFunctionInterceptor] = None

    # -- configuration -----------------------------------------------------
    def add_io_region(self, base: int, size: int, read: ReadHook,
                      write: WriteHook) -> None:
        """Map ``[base, base+size)`` to peripheral-style read/write hooks."""
        self._io_regions.append((base, base + size, read, write))

    def load_program(self, program: Program,
                     set_pc_to_entry: bool = True) -> None:
        """Load an assembled program and attach its symbols."""
        self.memory.load_program(program)
        self.symbols = program.symbols
        self.core.stats.attach_symbols(program.symbols)
        self.core.clear_decoded_cache()
        if set_pc_to_entry:
            self.core.pc = program.entry_point

    def enable_interception(self) -> int:
        """Hook memset/memcpy through the kernel-function interceptor.

        Returns the number of functions hooked (requires a loaded program
        whose symbol table defines them).
        """
        if self.symbols is None:
            raise ValueError("load a program before enabling interception")
        self.interceptor = KernelFunctionInterceptor(
            InvalidatingDirectMemory(self.memory, self.core))
        return self.interceptor.register_standard_functions(self.symbols)

    # -- memory interface ------------------------------------------------------
    def _io_region_for(self, address: int):
        for low, high, read, write in self._io_regions:
            if low <= address < high:
                return read, write
        return None

    def _fetch(self, address: int) -> int:
        return self.memory.read(address, 4)

    def _load(self, address: int, size: int) -> int:
        hooks = self._io_region_for(address)
        if hooks is not None:
            return hooks[0](address, size)
        return self.memory.read(address, size)

    def _store(self, address: int, value: int, size: int) -> None:
        hooks = self._io_region_for(address)
        if hooks is not None:
            hooks[1](address, value, size)
            return
        self.memory.write(address, value, size)

    # -- execution ------------------------------------------------------------------
    def run(self, max_instructions: int = 1_000_000,
            halt_symbol: str = "_halt") -> int:
        """Execute until the halt symbol (if defined) or the budget runs out.

        Returns the number of retired instructions.
        """
        halt_address = None
        if self.symbols is not None:
            halt_address = self.symbols.get(halt_symbol)
        executed = 0
        core = self.core
        while executed < max_instructions:
            if halt_address is not None and core.pc == halt_address \
                    and not core.in_delay_slot:
                break
            if self.interceptor is not None:
                self.interceptor.maybe_intercept(core)
                if halt_address is not None and core.pc == halt_address:
                    break
            core.step()
            executed += 1
        return executed

    def register(self, index: int) -> int:
        """Convenience access to a general-purpose register."""
        return self.core.regs.read(index)

"""MicroBlaze instruction-set simulator core.

The core is a *functional* model: it executes instructions against
abstract ``fetch`` / ``load`` / ``store`` callbacks and knows nothing about
buses or simulation time.  Every instruction executes as a
:class:`~repro.isa.decoder.DecodedEntry`: the word at a program address,
compiled once into a closure generated from
:meth:`MicroBlazeCore._specialise`, the ISS's single table of instruction
semantics.  :meth:`MicroBlazeCore.step`
is the self-contained single step (interrupt check, fetch, entry,
execute); the SystemC-style wrapper (:mod:`repro.iss.wrapper`) instead
fetches and pre-executes data accesses over pin/cycle-accurate OPB
transactions before handing the entry to
:meth:`MicroBlazeCore.execute_decoded`.  This mirrors the paper's
structure, where "a notably large component is the Xilinx MicroBlaze ISS,
which is standard C++ implementation wrapped in a SystemC module"
(section 4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from string import Template
from typing import Callable, Optional

from ..datatypes import WORD_MASK, get_field, mask, sign_extend
from ..kernel.component import SimComponent
from ..kernel.errors import ModelError
from ..isa import encoding as enc
from ..isa.decoder import DecodeCache, DecodedEntry, Instruction
from ..isa.registers import (INTERRUPT_LINK_REGISTER, MachineStatusRegister,
                             RegisterFile)
from .statistics import ExecutionStatistics

FetchFn = Callable[[int], int]
LoadFn = Callable[[int, int], int]
StoreFn = Callable[[int, int, int], None]

#: Every implemented mnemonic, mapped to the semantics family
#: :meth:`MicroBlazeCore._specialise` compiles it as.
_FAMILIES = {
    mnemonic: family
    for family, mnemonics in (
        ("add", "add addc addk addkc addi addic addik addikc"),
        ("rsub", "rsub rsubc rsubk rsubkc rsubi rsubic rsubik rsubikc"),
        ("cmp", "cmp cmpu"),
        ("logic", "or and xor andn ori andi xori andni"),
        ("mul", "mul muli"),
        ("idiv", "idiv idivu"),
        ("barrel_shift", "bsrl bsra bsll bsrli bsrai bslli"),
        ("shift_one", "sra src srl"),
        ("sext", "sext8 sext16"),
        ("mfs", "mfs"),
        ("mts", "mts"),
        ("msr_bits", "msrset msrclr"),
        ("branch", "br brd brld bra brad brald "
                   "bri brid brlid brai braid bralid"),
        ("cond_branch", " ".join(f"b{cond}{suffix}"
                                 for cond in ("eq", "ne", "lt", "le", "gt", "ge")
                                 for suffix in ("", "d", "i", "id"))),
        ("return", "rtsd rtid rtbd rted"),
        ("imm", "imm"),
        ("load", "lbu lhu lw lbui lhui lwi"),
        ("store", "sb sh sw sbi shi swi"),
    )
    for mnemonic in mnemonics.split()
}

#: Families whose instructions always fall straight through to pc+4: no
#: branch, no IMM prefix, no memory access and no PC-reading special move
#: (``mfs`` can read the PC, so it is deliberately absent).  Such entries
#: are a superblock's ALU entries.
_FALLTHROUGH_FAMILIES = frozenset((
    "add", "rsub", "cmp", "logic", "mul", "idiv", "barrel_shift",
    "shift_one", "sext"))

#: Families whose fragments leave a branch target in ``target``.
_BRANCH_FAMILIES = frozenset(("branch", "cond_branch", "return"))

#: Operand spellings of a per-entry closure: parameters of its factory.
_CLOSURE_FIELDS = {"ra": "ra", "rb": "rb", "rd": "rd", "imm": "imm",
                   "raw": "raw", "pc": "core.pc"}

#: Process-wide memo: generated source text -> the ``make`` factory its
#: compiled code object defines.  Fresh cores, platforms, fan-out cells
#: and restores reuse it, so no text is compiled twice per process.
_GENERATED: dict[str, Callable] = {}


def generated_factory(source: str) -> Callable:
    """The ``make`` function defined by ``source``, compiled once."""
    factory = _GENERATED.get(source)
    if factory is None:
        namespace = {"__name__": __name__, "ModelError": ModelError}
        exec(compile(source, "<iss-generated>", "exec"), namespace)
        factory = _GENERATED[source] = namespace["make"]
    return factory


def generated_sources() -> int:
    """How many distinct source texts this process has compiled."""
    return len(_GENERATED)


def _effective_address(instruction: Instruction) -> str:
    """Source of the load/store address (operand fields as in
    :meth:`MicroBlazeCore._specialise`)."""
    if instruction.fmt is enc.Format.TYPE_B:
        return "(R[$ra] + $imm) & 0xFFFFFFFF"
    return "(R[$ra] + R[$rb]) & 0xFFFFFFFF"


def _indent(text: str, columns: int) -> str:
    pad = " " * columns
    return "".join(pad + line + "\n" for line in text.splitlines())


#: Closure factories per ``(word, kind)``; ``kind`` is the semantics
#: family, or ``"ea"`` for a load/store's effective-address closure.
_ENTRY_FACTORIES: dict[tuple[int, str], Callable] = {}


def _closure_source(instruction: Instruction, kind: str) -> str:
    """Source of the closure factory for ``instruction`` (see
    :meth:`MicroBlazeCore._compile`)."""
    access = ""
    if kind == "ea":
        body = "return " + _effective_address(instruction) + "\n"
    else:
        body = MicroBlazeCore._specialise(instruction, kind)
        if kind in _BRANCH_FAMILIES:
            body += "return target\n"
        size = instruction.access_size
        if kind == "load":
            access = (f"value = core.load(address, {size})\n"
                      "core.stats.loads += 1\n")
        elif kind == "store":
            access = (f"core.store(address, value, {size})\n"
                      "core.stats.stores += 1\n"
                      "if core._decoded:\n"
                      f"    core.invalidate_code(address, {size})\n")
    body = Template(body).substitute(_CLOSURE_FIELDS, access=access)
    return ("def make(R, msr, core, ra, rb, rd, imm, raw):\n"
            "    def execute():\n"
            + _indent(body, 8)
            + "    return execute\n")


@dataclass
class StepResult:
    """Outcome of executing a single instruction."""

    pc: int                      # address of the executed instruction
    instruction: Instruction
    next_pc: int                 # architectural PC after the instruction
    took_branch: bool = False
    took_interrupt: bool = False
    memory_address: Optional[int] = None
    memory_is_store: bool = False


class DecodedCacheState(SimComponent):
    """State-protocol face of a core's decoded-program cache.

    The cache entries hold compiled closures bound to their core's register
    file and cannot be serialized; the component therefore captures nothing
    and restoring simply invalidates the cache so a restored core rebuilds
    its entries deterministically on demand.
    """

    def __init__(self, core: "MicroBlazeCore") -> None:
        self._core = core

    def restore_state(self, state: dict) -> None:
        self._core.clear_decoded_cache()


class MicroBlazeCore(SimComponent):
    """Architectural state and instruction semantics of the MicroBlaze."""

    def __init__(self,
                 fetch: Optional[FetchFn] = None,
                 load: Optional[LoadFn] = None,
                 store: Optional[StoreFn] = None,
                 reset_pc: int = enc.RESET_VECTOR) -> None:
        self.regs = RegisterFile()
        self.msr = MachineStatusRegister()
        self.pc = reset_pc
        self.ear = 0
        self.esr = 0
        self.reset_pc = reset_pc
        self.halted = False
        self.interrupt_pending = False
        self.stats = ExecutionStatistics()
        self.decode_cache = DecodeCache()
        self.fetch: FetchFn = fetch if fetch is not None else _unconnected
        self.load: LoadFn = load if load is not None else _unconnected
        self.store: StoreFn = store if store is not None else _unconnected
        self._imm_prefix: Optional[int] = None
        self._branch_after_delay: Optional[int] = None
        #: Address-keyed decoded-program cache: the compiled entry of every
        #: program location executed so far (see :meth:`build_decoded`).
        self._decoded: dict[int, DecodedEntry] = {}
        self._decoded_state = DecodedCacheState(self)

    # ------------------------------------------------------------------ #
    # control
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Return the core to its power-up state (registers cleared)."""
        self.regs.reset()
        self.msr.reset()
        self.pc = self.reset_pc
        self.ear = 0
        self.esr = 0
        self.halted = False
        self.interrupt_pending = False
        self._imm_prefix = None
        self._branch_after_delay = None

    def raise_interrupt(self) -> None:
        """Assert the external interrupt input (level sensitive)."""
        self.interrupt_pending = True

    def clear_interrupt(self) -> None:
        """De-assert the external interrupt input."""
        self.interrupt_pending = False

    @property
    def in_delay_slot(self) -> bool:
        """True when the next instruction to execute sits in a delay slot."""
        return self._branch_after_delay is not None

    @property
    def imm_prefix_active(self) -> bool:
        """True when an IMM prefix is waiting to combine with the next word."""
        return self._imm_prefix is not None

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def step(self) -> StepResult:
        """Take a pending interrupt, or fetch and execute one instruction."""
        if self.halted:
            raise ModelError("cannot step a halted core")
        if self._should_take_interrupt():
            return self._take_interrupt()
        pc = self.pc
        entry = self.fetched_entry(pc, self.fetch(pc))
        address = None if entry.ea is None \
            else self.preview_effective_address(entry)
        took_branch = self.execute_decoded(entry)
        return StepResult(pc=pc, instruction=entry.instruction,
                          next_pc=self.pc, took_branch=took_branch,
                          memory_address=address,
                          memory_is_store=entry.is_store)

    def run(self, max_instructions: int = 1_000_000,
            until_pc: Optional[int] = None) -> int:
        """Functional (untimed) execution loop.

        Runs until ``until_pc`` is reached, the core halts, or
        ``max_instructions`` have retired.  Returns the number of retired
        instructions.  The cycle-accurate platform does *not* use this loop;
        it steps the core from its SystemC-style wrapper instead.
        """
        executed = 0
        while executed < max_instructions and not self.halted:
            if until_pc is not None and self.pc == until_pc \
                    and not self.in_delay_slot:
                break
            self.step()
            executed += 1
        return executed

    def interrupt_will_be_taken(self) -> bool:
        """True when the *next* ``step`` will vector to the interrupt handler.

        The cycle-accurate wrapper uses this to skip the instruction fetch
        for that step (the interrupt entry does not consume a bus transfer).
        """
        return self._should_take_interrupt()

    def preview_effective_address(self, entry: DecodedEntry) -> int:
        """Address ``entry``'s load/store will access if executed now."""
        prefix = self._imm_prefix
        if prefix is None:
            return entry.ea()
        return self._with_prefix(entry, prefix).prefixed_ea()

    # ------------------------------------------------------------------ #
    # interrupt entry
    # ------------------------------------------------------------------ #
    def _should_take_interrupt(self) -> bool:
        return (self.interrupt_pending
                and self.msr.interrupt_enable
                and not self.in_delay_slot
                and self._imm_prefix is None)

    def _take_interrupt(self) -> StepResult:
        return_address = self.pc
        self.regs.write(INTERRUPT_LINK_REGISTER, return_address)
        self.msr.interrupt_enable = False
        self.pc = enc.INTERRUPT_VECTOR
        self.stats.record_interrupt()
        dummy = Instruction(word=0, opcode=0, mnemonic="<interrupt>",
                            fmt=enc.Format.TYPE_A, rd=0, ra=0, rb=0, imm=0,
                            function=0)
        return StepResult(pc=return_address, instruction=dummy,
                          next_pc=self.pc, took_branch=True,
                          took_interrupt=True)

    # ------------------------------------------------------------------ #
    # decoded-program cache
    # ------------------------------------------------------------------ #
    def decoded_entry(self, pc: int) -> Optional[DecodedEntry]:
        """The cached decoded entry at ``pc`` (None on a miss)."""
        return self._decoded.get(pc)

    def fetched_entry(self, pc: int, word: int) -> DecodedEntry:
        """The entry executing ``word``, just fetched from ``pc``.

        Reuses the cached entry unless the word changed since it was
        decoded (code rewritten behind the cache), in which case the stale
        entry is invalidated and rebuilt from the fresh word.
        """
        entry = self._decoded.get(pc)
        if entry is not None:
            if entry.word == word:
                return entry
            self.invalidate_code(pc, 4)
        return self.build_decoded(pc, word)

    def build_decoded(self, pc: int, word: int) -> DecodedEntry:
        """Decode ``word`` at ``pc`` into a cached compiled entry."""
        instruction = self.decode_cache.lookup(word)
        family = _FAMILIES.get(instruction.mnemonic)
        if family is None:
            raise ModelError(f"unimplemented mnemonic "
                             f"{instruction.mnemonic!r} at {pc:#010x}")
        symbols = self.stats.symbols
        function_name = symbols.containing(pc) \
            if symbols is not None else None
        imm = sign_extend(instruction.imm, 16)
        entry = DecodedEntry(pc, word, instruction,
                             self._compile(instruction, family, imm),
                             function_name)
        entry.falls_through = family in _FALLTHROUGH_FAMILIES
        if instruction.is_load or instruction.is_store:
            entry.ea = self._compile(instruction, "ea", imm)
        self._decoded[pc] = entry
        self.stats.decoded_entries += 1
        return entry

    def execute_decoded(self, entry: DecodedEntry) -> bool:
        """Execute and retire ``entry``; returns ``took_branch``.

        Every execution path ends here (the warp's superblocks and
        load/store fast path batch the same retire in-line).  The caller
        has fetched the entry's word and ruled out a pending interrupt.
        While an IMM prefix is active the entry runs its closure compiled
        for the combined 32-bit immediate instead.
        """
        pc = self.pc
        prefix = self._imm_prefix
        if prefix is None:
            target = entry.execute()
        else:
            target = self._with_prefix(entry, prefix).prefixed_execute()
            if not entry.is_imm:
                self._imm_prefix = None

        if self._branch_after_delay is not None:
            next_pc = self._branch_after_delay
            self._branch_after_delay = None
        elif target is None:
            next_pc = (pc + 4) & WORD_MASK
        elif entry.delay_slot:
            # The branch target applies after the next (delay-slot) word.
            self._branch_after_delay = target
            next_pc = (pc + 4) & WORD_MASK
        else:
            next_pc = target

        self.pc = next_pc
        stats = self.stats
        stats.instructions_retired += 1
        stats.per_mnemonic[entry.mnemonic] += 1
        if target is not None:
            stats.branches_taken += 1
        if entry.function_name is not None:
            stats.per_function[entry.function_name] += 1
        return target is not None

    def invalidate_code(self, address: int, size: int) -> None:
        """Drop decoded entries overlapped by a write to ``address``.

        Called on every executed store (and by the interception layer's
        native writes), keeping the decoded-program cache safe under
        self-modifying code.  A dropped entry is flagged invalid, and so
        is every superblock built over it; other blocks stay valid.
        """
        cache = self._decoded
        if not cache:
            return
        first = address & ~3
        last = (address + size - 1) & ~3
        entry = cache.pop(first, None)
        if entry is not None:
            _drop(entry)
            self.stats.decoded_invalidations += 1
        if last != first:
            entry = cache.pop(last, None)
            if entry is not None:
                _drop(entry)
                self.stats.decoded_invalidations += 1

    def clear_decoded_cache(self) -> None:
        """Invalidate the whole decoded-program cache (program reload)."""
        for entry in self._decoded.values():
            _drop(entry)
        self._decoded.clear()

    def _with_prefix(self, entry: DecodedEntry, prefix: int) -> DecodedEntry:
        """``entry`` with its closures for IMM ``prefix`` memoised on it.

        An IMM/instruction pair is fixed in the code, so the single memo
        slot always hits after the first execution.
        """
        if entry.prefix != prefix:
            instruction = entry.instruction
            imm = ((prefix << 16) | instruction.imm) & WORD_MASK
            entry.prefixed_execute = self._compile(
                instruction, _FAMILIES[entry.mnemonic], imm)
            if entry.ea is not None:
                entry.prefixed_ea = self._compile(instruction, "ea", imm)
            entry.prefix = prefix
        return entry

    def _compile(self, instruction: Instruction, kind: str,
                 imm: int) -> Callable:
        """A zero-argument closure of ``instruction``'s semantics.

        ``kind`` is the semantics family (the closure returns the branch
        target when it branches, else None) or ``"ea"`` (it returns the
        load/store address).  ``imm`` is the resolved operand-B immediate
        (see :meth:`_specialise`).  Every value that varies between
        instructions of one template variant is a factory parameter, so
        all of them share one compiled code object; the factory is
        memoised per word as well, so each distinct instruction renders
        its source once.
        """
        key = (instruction.word, kind)
        factory = _ENTRY_FACTORIES.get(key)
        if factory is None:
            factory = _ENTRY_FACTORIES[key] = generated_factory(
                _closure_source(instruction, kind))
        return factory(self.regs._regs, self.msr, self, instruction.ra,
                       instruction.rb, instruction.rd, imm, instruction.imm)

    @staticmethod
    def _specialise(instruction: Instruction, family: str) -> str:
        """Python source of ``instruction``'s semantics.

        This is the ISS's one table of instruction semantics: per-entry
        closures (:meth:`_compile`) and the quantum warp's superblocks
        (:mod:`repro.iss.superblock`) are both generated from it.  The
        fragment works on ``R`` (the register list), ``msr`` and ``core``;
        branch families leave the branch target (or None) in ``target``.
        Operands are ``string.Template`` fields -- ``$ra``, ``$rb``,
        ``$rd``, ``$imm`` (the resolved operand-B immediate:
        ``sign_extend(imm, 16)`` or the combined 32-bit value behind an IMM
        prefix), ``$raw`` (the instruction's 16-bit immediate field) and
        ``$pc`` (the instruction's address) -- which a closure spells as
        names and a superblock as literals.  Loads and stores leave their
        memory access to the ``$access`` line: a load's access sets
        ``value`` from ``address``, a store's writes ``value`` there.
        Families that read their immediate field as a function code
        (barrel-shift amount, special-register number, MSR bits) ignore a
        prefix.  Register writes to ``r0`` are guarded out, exactly like
        ``RegisterFile.write``.
        """
        mnemonic = instruction.mnemonic
        fmt_b = instruction.fmt is enc.Format.TYPE_B
        b = "$imm" if fmt_b else "R[$rb]"
        signed = "((%s ^ 0x80000000) - 0x80000000)"

        if family == "add":
            use_carry = "c" in mnemonic.replace("addi", "add")[3:]
            keep_carry = "k" in mnemonic[3:5]
            carry_in = " + msr.carry" if use_carry else ""
            return (f"total = R[$ra] + {b}{carry_in}\n"
                    "if $rd: R[$rd] = total & 0xFFFFFFFF\n"
                    + ("" if keep_carry else
                       "msr.carry = 1 if total > 0xFFFFFFFF else 0\n"))

        if family == "rsub":
            suffix = mnemonic.replace("rsubi", "rsub")[4:]
            carry_in = "msr.carry" if "c" in suffix else "1"
            return (f"total = {b} + (0xFFFFFFFF ^ R[$ra]) + {carry_in}\n"
                    "if $rd: R[$rd] = total & 0xFFFFFFFF\n"
                    + ("" if "k" in suffix else
                       "msr.carry = 1 if total > 0xFFFFFFFF else 0\n"))

        if family == "cmp":
            # Signed order on the unsigned encodings: flipping the sign bit
            # biases both operands by 2**31.
            greater = "(a ^ 0x80000000) > (b ^ 0x80000000)" \
                if mnemonic == "cmp" else "a > b"
            return ("a = R[$ra]\n"
                    "b = R[$rb]\n"
                    "if $rd: R[$rd] = ((b - a) & 0x7FFFFFFF)"
                    f" | (0x80000000 if {greater} else 0)\n")

        if family == "logic":
            op = mnemonic.rstrip("i") if fmt_b else mnemonic
            result = {"or": f"R[$ra] | {b}", "and": f"R[$ra] & {b}",
                      "xor": f"R[$ra] ^ {b}", "andn": f"R[$ra] & ~{b}"}[op]
            return f"if $rd: R[$rd] = ({result}) & 0xFFFFFFFF\n"

        if family == "mul":
            return f"if $rd: R[$rd] = (R[$ra] * {b}) & 0xFFFFFFFF\n"

        if family == "idiv":
            quotient = ("int(%s / %s)" % (signed % "R[$rb]",
                                          signed % "divisor")
                        if mnemonic == "idiv" else "R[$rb] // divisor")
            return ("divisor = R[$ra]\n"
                    f"quotient = {quotient} if divisor else 0\n"
                    "if $rd: R[$rd] = quotient & 0xFFFFFFFF\n")

        if family == "barrel_shift":
            # The immediate form's amount and kind are function bits: an
            # IMM prefix does not reach them.
            kind = (instruction.imm if fmt_b else instruction.function) \
                & 0x600
            amount = "($raw & 0x1F)" if fmt_b else "(R[$rb] & 0x1F)"
            if kind == enc.BS_SLL:
                result = f"R[$ra] << {amount}"
            elif kind == enc.BS_SRA:
                result = f"{signed % 'R[$ra]'} >> {amount}"
            else:
                result = f"R[$ra] >> {amount}"
            return f"if $rd: R[$rd] = ({result}) & 0xFFFFFFFF\n"

        if family == "shift_one":
            result = {"sra": f"{signed % 'a'} >> 1", "srl": "a >> 1",
                      "src": "(a >> 1) | (msr.carry << 31)"}[mnemonic]
            return ("a = R[$ra]\n"
                    f"if $rd: R[$rd] = ({result}) & 0xFFFFFFFF\n"
                    "msr.carry = a & 1\n")

        if family == "sext":
            bits_mask, sign = (0xFF, 0x80) if mnemonic == "sext8" \
                else (0xFFFF, 0x8000)
            return (f"if $rd: R[$rd] = (((R[$ra] & {bits_mask:#x}) ^ {sign:#x})"
                    f" - {sign:#x}) & 0xFFFFFFFF\n")

        # Special-register number (mfs/mts) or MSR bit mask (msrset/msrclr).
        imm14 = instruction.imm & 0x3FFF
        if family == "mfs":
            value = {enc.SPR_PC: "$pc", enc.SPR_MSR: "msr.value",
                     enc.SPR_EAR: "core.ear"}.get(imm14, "core.esr")
            return f"if $rd: R[$rd] = ({value}) & 0xFFFFFFFF\n"

        if family == "mts":
            register = {enc.SPR_MSR: "msr.value", enc.SPR_EAR: "core.ear",
                        enc.SPR_ESR: "core.esr"}.get(imm14)
            if register is None:
                return ("raise ModelError("
                        f"'mts to read-only special register {imm14:#x}')\n")
            return f"{register} = R[$ra]\n"

        if family == "msr_bits":
            update = "old | ($raw & 0x3FFF)" if mnemonic == "msrset" \
                else "old & ~($raw & 0x3FFF)"
            return ("old = msr.value\n"
                    f"msr.value = {update}\n"
                    "if $rd: R[$rd] = old & 0xFFFFFFFF\n")

        if family == "branch":
            target = b if instruction.absolute \
                else f"($pc + {b}) & 0xFFFFFFFF"
            return (f"target = {target}\n"
                    + ("if $rd: R[$rd] = $pc\n" if instruction.link else ""))

        if family == "cond_branch":
            # The signed comparisons against zero re-expressed on the
            # unsigned register value (bit 31 set <=> negative).
            taken = {"eq": "a == 0", "ne": "a != 0",
                     "lt": "a >= 0x80000000",
                     "le": "a == 0 or a >= 0x80000000",
                     "gt": "0 < a < 0x80000000",
                     "ge": "a < 0x80000000"}[instruction.condition]
            return ("a = R[$ra]\n"
                    f"target = ($pc + {b}) & 0xFFFFFFFF if {taken} else None\n")

        if family == "return":
            side_effect = {"rtid": "msr.interrupt_enable = True\n",
                           "rtbd": "msr.break_in_progress = False\n"}
            return (side_effect.get(mnemonic, "")
                    + "target = (R[$ra] + $imm) & 0xFFFFFFFF\n")

        if family == "imm":
            return "core._imm_prefix = $raw\n"

        value_mask = mask(instruction.access_size * 8)
        if family == "load":
            return (f"address = {_effective_address(instruction)}\n"
                    "${access}"
                    f"if $rd: R[$rd] = value & {value_mask:#x}\n")

        return (f"address = {_effective_address(instruction)}\n"
                f"value = R[$rd] & {value_mask:#x}\n"
                "${access}")

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #
    #: Scalar ExecutionStatistics fields carried by a snapshot.  ``symbols``
    #: is deliberately absent: the restoring platform re-attaches its own
    #: symbol table when the program is reloaded.
    _STAT_FIELDS = ("instructions_retired", "loads", "stores",
                    "branches_taken", "interrupts_taken",
                    "instructions_intercepted", "interception_hits",
                    "cycles", "decoded_entries", "decoded_invalidations",
                    "quantum_warps", "quantum_instructions")

    def capture_state(self) -> dict:
        """Plain-data snapshot of the full architectural + statistics state.

        The decoded-program cache is *not* captured (its entries hold
        compiled closures bound to this core); a restored core rebuilds it
        deterministically on demand.
        """
        stats = self.stats
        return {
            "regs": list(self.regs._regs),
            "msr": self.msr.value,
            "pc": self.pc,
            "ear": self.ear,
            "esr": self.esr,
            "halted": self.halted,
            "interrupt_pending": self.interrupt_pending,
            "imm_prefix": self._imm_prefix,
            "branch_after_delay": self._branch_after_delay,
            "stats": {name: getattr(stats, name)
                      for name in self._STAT_FIELDS},
            "per_mnemonic": dict(stats.per_mnemonic),
            "per_function": dict(stats.per_function),
        }

    def restore_state(self, state: dict) -> None:
        """Restore the state captured by :meth:`capture_state`.

        Register contents are written *in place*: decoded-cache closures
        bind ``regs._regs`` (and the MSR object) by identity, so the
        containers themselves must never be replaced.
        """
        self.regs._regs[:] = state["regs"]
        self.msr.value = state["msr"]
        self.pc = state["pc"]
        self.ear = state["ear"]
        self.esr = state["esr"]
        self.halted = state["halted"]
        self.interrupt_pending = state["interrupt_pending"]
        self._imm_prefix = state["imm_prefix"]
        self._branch_after_delay = state["branch_after_delay"]
        stats = self.stats
        for name, value in state["stats"].items():
            setattr(stats, name, value)
        stats.per_mnemonic = Counter(state["per_mnemonic"])
        stats.per_function = Counter(state["per_function"])
        # Any decoded entries compiled against the pre-restore state are
        # stale; drop them (they are rebuilt deterministically on demand).
        self.clear_decoded_cache()

    def state_children(self) -> dict:
        return {"decoded_cache": self._decoded_state}

    # ------------------------------------------------------------------ #
    # debugging helpers
    # ------------------------------------------------------------------ #
    def register_state(self) -> dict[str, int]:
        """Architectural state snapshot (registers, PC, MSR)."""
        state = self.regs.dump()
        state["pc"] = self.pc
        state["msr"] = self.msr.value
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MicroBlazeCore(pc={self.pc:#010x}, "
                f"retired={self.stats.instructions_retired})")


def _drop(entry: DecodedEntry) -> None:
    """Flag ``entry`` and every superblock built over it invalid."""
    entry.valid = False
    for block in entry.blocks:
        block.valid = False


def _unconnected(*_args):
    raise ModelError("MicroBlazeCore memory interface is not connected")


def word_field(word: int, high: int, low: int) -> int:
    """Expose field extraction for wrapper-level peeking (test helper)."""
    return get_field(word, high, low)

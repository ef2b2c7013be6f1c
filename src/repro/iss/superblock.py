"""Superblocks: a hot run of decoded entries executed as one function.

The quantum warp (:meth:`~repro.iss.wrapper.MicroBlazeWrapper._quantum_burst`)
would otherwise spend most of its host time dispatching instructions
rather than executing them.  A superblock removes that dispatch for a hot
straight-line run: the fragments of :meth:`MicroBlazeCore._specialise
<repro.iss.core.MicroBlazeCore._specialise>` -- the ISS's one semantics
table -- are rendered with literal operands and joined into one generated
function, compiled once per process (:func:`~repro.iss.core.generated_factory`
memoises code by source text, so fresh platforms, fan-out cells and
restores compile nothing new).

Scope.  A block starts at an entry the warp reaches with no IMM prefix
and no pending delay slot.  It spans fall-through ALU entries, loads and
stores, and ends at a branch, conditional branch or ``rtsd`` plus that
instruction's delay slot -- or before the halt address, an interception
hook or any other entry, or after :data:`_BLOCK_CAP` entries.  Memory
accesses are served straight from the regions the warp hoists (LMB BRAM
and the dispatcher's main memory).  When the terminator branches back to
the block's own head, the function iterates in place for as many whole
passes as the warp's instruction and cycle budgets allow.

Side exits.  A misaligned access, an address outside the hoisted
regions or a store onto a decoded entry leaves the function *before*
that instruction.  :meth:`Superblock.retire` then leaves registers, PC
and counters exactly as per-instruction execution would have, and the
warp's per-instruction path replays the instruction.

Accounting.  The generated function batches the LMB, dispatcher and
memory access counters; :meth:`Superblock.retire` applies everything
else once per call: retired instructions, the per-mnemonic and
per-function profiles, loads, stores, taken branches and cycles.

Validity.  A block is valid while every entry it was built from is:
:meth:`MicroBlazeCore.invalidate_code
<repro.iss.core.MicroBlazeCore.invalidate_code>` drops the blocks of each
entry it drops, and nothing else.
"""

from __future__ import annotations

from string import Template
from typing import Optional

from ..bus.lmb import LMB_ACCESS_CYCLES
from ..datatypes import WORD_MASK, sign_extend
from ..isa import encoding as enc
from ..isa.decoder import DecodedEntry
from ..peripherals.dispatcher import MemoryDispatcher
from ..peripherals.memory import PAGE_MASK, PAGE_SHIFT
from .core import _FAMILIES, MicroBlazeCore, _indent, generated_factory

#: Upper bound on block length (entries).
_BLOCK_CAP = 64

#: Arrivals at a block head before its block is built: only code that has
#: run before is compiled.
_COMPILE_AFTER = 1

#: Data-access cycles per region, as the per-instruction warp charges them.
_REGION_CYCLES = {"main": MemoryDispatcher.ACCESS_CYCLES,
                  "bram": LMB_ACCESS_CYCLES}

#: Parameters of every generated block factory, in order.  ``D`` is the
#: core's decoded-entry dictionary; the rest is the warp's direct-memory
#: environment (:func:`direct_env`) minus its first two fields.
_PARAMETERS = ("R, msr, core, D, lmb, bram, bram_pages, bram_fill, bram_lo, "
               "bram_end, bram_wend, dispatcher, main, main_pages, main_fill, "
               "main_lo, main_end, main_wend")


def direct_env(epoch: int, halt: int, lmb, dispatcher) -> tuple:
    """Everything a block depends on besides its entries.

    ``(epoch, halt, lmb, bram, bram_pages, bram_fill, bram_lo, bram_end,
    bram_wend, dispatcher, main, main_pages, main_fill, main_lo,
    main_end, main_wend)``: the fetch-routing epoch, the halt address
    (-1 for none), and the LMB BRAM and dispatcher main memory as
    ``(storage, pages, fill page, base, end, writable end)``.  A missing
    region has an empty range, and a read-only one an empty writable
    range, so no access can hit it.
    """
    regions = []
    for owner, storage in (
            (lmb, lmb.bram if lmb is not None else None),
            (dispatcher, dispatcher.main_memory
             if dispatcher is not None and dispatcher.handle_main_memory
             else None)):
        if storage is None:
            regions.append((owner, None, None, None, 0, 0, 0))
            continue
        pages, fill = storage.direct_pages()
        base = storage.base_address
        end = base + storage.size
        regions.append((owner, storage, pages, fill, base, end,
                        base if storage.read_only else end))
    return (epoch, halt) + regions[0] + regions[1]


class Superblock:
    """One generated function plus the tables its retire needs.

    ``run`` is None for a head no block can start at (a stub that keeps
    the warp from retrying the build on every arrival).
    """

    __slots__ = ("env", "valid", "run", "entries", "size", "loops",
                 "pass_cycles", "end_pc", "branch_index", "fetch_cycles",
                 "loads", "stores", "mnemonics", "functions")

    def __init__(self, env: tuple, entries=(), run=None,
                 loops: bool = False) -> None:
        self.env = env
        self.valid = True
        self.run = run
        self.entries = tuple(entries)
        self.size = len(self.entries)
        self.loops = loops
        self.branch_index = self.size
        mnemonics: dict = {}
        functions: dict = {}
        self.fetch_cycles = self.loads = self.stores = 0
        for index, entry in enumerate(self.entries):
            mnemonics[entry.mnemonic] = mnemonics.get(entry.mnemonic, 0) + 1
            name = entry.function_name
            if name is not None:
                functions[name] = functions.get(name, 0) + 1
            self.fetch_cycles += entry.fetch_cycles
            self.loads += entry.is_load
            self.stores += entry.is_store
            if _role(entry) == "branch":
                self.branch_index = index
        self.mnemonics = tuple(mnemonics.items())
        self.functions = tuple(functions.items())
        self.pass_cycles = self.fetch_cycles + (self.loads + self.stores) \
            * max(_REGION_CYCLES.values())
        self.end_pc = (self.entries[-1].pc + 4) & WORD_MASK \
            if self.entries else 0

    def retire(self, core: MicroBlazeCore, done: int, k: int, target,
               data_cycles: int) -> tuple[int, int]:
        """Account a ``run`` that made ``done`` whole passes and stopped
        before entry ``k`` (``k == size``: at a pass boundary).

        Sets the PC (and a pending delay-slot branch) and every counter
        exactly as per-instruction execution would have; returns
        ``(instructions retired, cycles charged)``.
        """
        stats = core.stats
        per_mnemonic = stats.per_mnemonic
        per_function = stats.per_function
        taken = done
        if k == self.size:
            core.pc = self.end_pc if target is None else target
            if target is None:
                taken -= 1
            rest = ()
        else:
            core.pc = self.entries[k].pc
            if k > self.branch_index and target is not None:
                core._branch_after_delay = target
                taken += 1
            rest = self.entries[:k]
        cycles = data_cycles
        if done:
            stats.loads += done * self.loads
            stats.stores += done * self.stores
            for name, count in self.mnemonics:
                per_mnemonic[name] += done * count
            for name, count in self.functions:
                per_function[name] += done * count
            cycles += done * self.fetch_cycles
        for entry in rest:
            per_mnemonic[entry.mnemonic] += 1
            if entry.function_name is not None:
                per_function[entry.function_name] += 1
            stats.loads += entry.is_load
            stats.stores += entry.is_store
            cycles += entry.fetch_cycles
        retired = done * self.size + len(rest)
        stats.instructions_retired += retired
        stats.branches_taken += taken
        return retired, cycles


def superblock_at(core: MicroBlazeCore, head: DecodedEntry, env: tuple,
                  split_pcs) -> Optional[Superblock]:
    """The block headed by ``head`` under ``env``, built when hot.

    Returns None while ``head`` is still cold, or while a successor has
    not been fetched under the current routing epoch yet (the warp
    retries on a later arrival).  ``split_pcs`` are the interception
    hook addresses: no block runs across one, or loops back to one.
    """
    if head.heat < _COMPILE_AFTER:
        head.heat += 1
        return None
    entries = _walk(core, head, env, split_pcs)
    if entries is None:
        return None
    old = head.block
    if old is not None:
        for entry in old.entries:
            entry.blocks = tuple(block for block in entry.blocks
                                 if block is not old)
    if len(entries) < 2:
        block = Superblock(env)
    else:
        loops = head.pc not in split_pcs \
            and _static_target(entries) in (None, head.pc)
        factory = generated_factory(block_source(entries, loops))
        block = Superblock(env, entries,
                           factory(core.regs._regs, core.msr, core,
                                   core._decoded, *env[2:]),
                           loops)
        for entry in entries:
            entry.blocks += (block,)
    head.block = block
    return block


def block_source(entries, loops: bool) -> str:
    """The generated source of a block over ``entries``.

    Depends on the entries' addresses and instruction words only, so the
    same code at the same address renders byte-identically everywhere.
    """
    size = len(entries)
    counted = any(entry.is_load or entry.is_store for entry in entries)
    body = []
    for index, entry in enumerate(entries):
        instruction = entry.instruction
        access = ""
        if entry.is_load or entry.is_store:
            access = _access(index, instruction.access_size, entry.is_store)
        fragment = MicroBlazeCore._specialise(
            instruction, _FAMILIES[entry.mnemonic])
        body.append(f"# {entry.pc:#010x}: {entry.mnemonic}\n")
        body.append(Template(fragment).substitute(
            ra=instruction.ra, rb=instruction.rb, rd=instruction.rd,
            imm=f"{sign_extend(instruction.imm, 16):#x}",
            raw=instruction.imm, pc=f"{entry.pc:#x}", access=access))
    if loops:
        body.append("done += 1\n"
                    f"if target != {entries[0].pc:#x} or done == passes:\n"
                    "    break\n")
    else:
        body.append("done = 1\nbreak\n")
    lines = [f"def make({_PARAMETERS}):\n",
             "    def run(passes):\n",
             "        done = 0\n",
             f"        k = {size}\n",
             "        target = None\n"]
    if counted:
        lines.append("        lmb_reads = lmb_writes = 0\n"
                     "        main_reads = main_writes = 0\n")
    lines.append("        while True:\n")
    lines.append(_indent("".join(body), 12))
    if counted:
        lines.append(
            "        if lmb_reads or lmb_writes:\n"
            "            lmb.reads += lmb_reads\n"
            "            lmb.writes += lmb_writes\n"
            "            bram.read_accesses += lmb_reads\n"
            "            bram.write_accesses += lmb_writes\n"
            "        if main_reads or main_writes:\n"
            "            dispatcher.data_accesses += main_reads + main_writes\n"
            "            main.read_accesses += main_reads\n"
            "            main.write_accesses += main_writes\n"
            "        return done, k, target, "
            f"(lmb_reads + lmb_writes) * {_REGION_CYCLES['bram']} "
            f"+ (main_reads + main_writes) * {_REGION_CYCLES['main']}\n")
    else:
        lines.append("        return done, k, target, 0\n")
    lines.append("    return run\n")
    return "".join(lines)


def _access(index: int, size: int, store: bool) -> str:
    """A block's direct memory access for the entry at ``index``.

    Loads set ``value`` from ``address``; stores write ``value`` there.
    Every case the regions cannot serve exits before the instruction.
    """
    exit_ = f"    k = {index}\n    break\n"
    text = ""
    if size > 1:
        text += f"if address & {size - 1}:\n{exit_}"
    if store:
        text += f"if (address & -4) in D:\n{exit_}"
    keyword = "if"
    for region, counter in (("main", "main"), ("bram", "lmb")):
        end = f"{region}_wend" if store else f"{region}_end"
        text += (f"{keyword} {region}_lo <= address"
                 f" and address + {size} <= {end}:\n"
                 f"    offset = address - {region}_lo\n"
                 f"    start = offset & {PAGE_MASK:#x}\n")
        if store:
            text += (f"    index = offset >> {PAGE_SHIFT}\n"
                     f"    page = {region}_pages[index]\n"
                     f"    if page is {region}_fill:\n"
                     f"        page = {region}.writable_page(index)\n")
            if size == 1:
                text += "    page[start] = value\n"
            else:
                text += (f"    page[start:start + {size}]"
                         f" = value.to_bytes({size}, 'big')\n")
            text += f"    {counter}_writes += 1\n"
        else:
            page = f"{region}_pages[offset >> {PAGE_SHIFT}]"
            if size == 1:
                text += f"    value = {page}[start]\n"
            else:
                text += (f"    value = int.from_bytes({page}"
                         f"[start:start + {size}], 'big')\n")
            text += f"    {counter}_reads += 1\n"
        keyword = "elif"
    return text + f"else:\n{exit_}"


def _role(entry: DecodedEntry) -> Optional[str]:
    """How ``entry`` takes part in a block: ``"alu"``, ``"memory"``,
    ``"branch"`` (a terminator) or None (never)."""
    if entry.falls_through:
        return "alu"
    if entry.is_load or entry.is_store:
        return "memory"
    family = _FAMILIES[entry.mnemonic]
    if family in ("branch", "cond_branch") or entry.mnemonic == "rtsd":
        return "branch"
    return None


def _walk(core: MicroBlazeCore, head: DecodedEntry, env: tuple,
          split_pcs) -> Optional[list]:
    """The entries of the block headed by ``head`` (see module doc)."""
    epoch, halt = env[0], env[1]
    decoded = core._decoded
    entries = []
    entry = head
    while True:
        role = _role(entry)
        if role is None:
            return entries
        if role == "branch":
            if not entry.delay_slot:
                entries.append(entry)
                return entries
            slot = _successor(decoded, entry, epoch)
            if slot is None:
                return None
            if _role(slot) in ("alu", "memory") and slot.pc != halt \
                    and slot.pc not in split_pcs:
                entries += (entry, slot)
            return entries
        entries.append(entry)
        if len(entries) == _BLOCK_CAP:
            return entries
        entry = _successor(decoded, entry, epoch)
        if entry is None:
            return None
        if entry.pc == halt or entry.pc in split_pcs:
            return entries


def _successor(decoded: dict, entry: DecodedEntry,
               epoch: int) -> Optional[DecodedEntry]:
    """The entry at ``entry.pc + 4`` if fetched under ``epoch``."""
    successor = decoded.get((entry.pc + 4) & WORD_MASK)
    if successor is None or successor.fetch_epoch != epoch:
        return None
    return successor


def _static_target(entries) -> Optional[int]:
    """The terminator's target when it is fixed in the code, else None."""
    for entry in entries:
        if _role(entry) != "branch":
            continue
        instruction = entry.instruction
        if instruction.fmt is not enc.Format.TYPE_B \
                or entry.mnemonic == "rtsd":
            return None
        imm = sign_extend(instruction.imm, 16)
        if instruction.absolute:
            return imm
        return (entry.pc + imm) & WORD_MASK
    return -1

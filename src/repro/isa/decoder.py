"""Instruction decoder: 32-bit words to structured :class:`Instruction`.

The decoder is deliberately table-driven and free of execution semantics;
the ISS (``repro.iss.core``) consumes the decoded form, and the
disassembler renders it back to text.  Keeping decode separate also lets
the ISS cache decoded instructions, mirroring how a real C++ ISS avoids
re-decoding hot loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..kernel.errors import DecodeError
from . import encoding as enc


@dataclass(frozen=True)
class Instruction:
    """A decoded MicroBlaze instruction."""

    word: int
    opcode: int
    mnemonic: str
    fmt: enc.Format
    rd: int
    ra: int
    rb: int
    imm: int            # unsigned 16-bit immediate field (type B)
    function: int       # low function field (type A)
    #: True when the instruction has a delay slot.
    delay_slot: bool = False
    #: Branch condition ('eq', 'ne', ...) for conditional branches.
    condition: Optional[str] = None
    #: True for absolute (rather than PC-relative) branch targets.
    absolute: bool = False
    #: True when the branch links the return address into ``rd``.
    link: bool = False

    @property
    def is_branch(self) -> bool:
        """True for any control-transfer instruction."""
        return self.opcode in (enc.OP_BR, enc.OP_BRI, enc.OP_BCC,
                               enc.OP_BCCI, enc.OP_RET)

    @property
    def is_memory_access(self) -> bool:
        """True for loads and stores."""
        return self.is_load or self.is_store

    @property
    def is_load(self) -> bool:
        """True for load instructions."""
        return self.opcode in (enc.OP_LBU, enc.OP_LHU, enc.OP_LW,
                               enc.OP_LBUI, enc.OP_LHUI, enc.OP_LWI)

    @property
    def is_store(self) -> bool:
        """True for store instructions."""
        return self.opcode in (enc.OP_SB, enc.OP_SH, enc.OP_SW,
                               enc.OP_SBI, enc.OP_SHI, enc.OP_SWI)

    @property
    def access_size(self) -> int:
        """Size in bytes of the memory access (1, 2 or 4); 0 otherwise."""
        if self.opcode in (enc.OP_LBU, enc.OP_LBUI, enc.OP_SB, enc.OP_SBI):
            return 1
        if self.opcode in (enc.OP_LHU, enc.OP_LHUI, enc.OP_SH, enc.OP_SHI):
            return 2
        if self.opcode in (enc.OP_LW, enc.OP_LWI, enc.OP_SW, enc.OP_SWI):
            return 4
        return 0

    def __str__(self) -> str:
        return f"{self.mnemonic} (word={self.word:#010x})"


_ARITH_MNEMONICS = {
    enc.OP_ADD: "add", enc.OP_RSUB: "rsub", enc.OP_ADDC: "addc",
    enc.OP_RSUBC: "rsubc", enc.OP_ADDK: "addk", enc.OP_RSUBK: "rsubk",
    enc.OP_ADDKC: "addkc", enc.OP_RSUBKC: "rsubkc",
    enc.OP_ADDI: "addi", enc.OP_RSUBI: "rsubi", enc.OP_ADDIC: "addic",
    enc.OP_RSUBIC: "rsubic", enc.OP_ADDIK: "addik", enc.OP_RSUBIK: "rsubik",
    enc.OP_ADDIKC: "addikc", enc.OP_RSUBIKC: "rsubikc",
}

_LOGIC_MNEMONICS = {
    enc.OP_OR: "or", enc.OP_AND: "and", enc.OP_XOR: "xor",
    enc.OP_ANDN: "andn", enc.OP_ORI: "ori", enc.OP_ANDI: "andi",
    enc.OP_XORI: "xori", enc.OP_ANDNI: "andni",
}

_MEMORY_MNEMONICS = {
    enc.OP_LBU: "lbu", enc.OP_LHU: "lhu", enc.OP_LW: "lw",
    enc.OP_SB: "sb", enc.OP_SH: "sh", enc.OP_SW: "sw",
    enc.OP_LBUI: "lbui", enc.OP_LHUI: "lhui", enc.OP_LWI: "lwi",
    enc.OP_SBI: "sbi", enc.OP_SHI: "shi", enc.OP_SWI: "swi",
}

_SHIFT_MNEMONICS = {
    enc.SHIFT_SRA: "sra", enc.SHIFT_SRC: "src", enc.SHIFT_SRL: "srl",
    enc.SHIFT_SEXT8: "sext8", enc.SHIFT_SEXT16: "sext16",
}

_CONDITIONS = {
    enc.COND_EQ: "eq", enc.COND_NE: "ne", enc.COND_LT: "lt",
    enc.COND_LE: "le", enc.COND_GT: "gt", enc.COND_GE: "ge",
}

_RET_MNEMONICS = {
    enc.RET_RTSD: "rtsd", enc.RET_RTID: "rtid",
    enc.RET_RTBD: "rtbd", enc.RET_RTED: "rted",
}


def decode(word: int) -> Instruction:
    """Decode one instruction word.

    Raises :class:`~repro.kernel.errors.DecodeError` for opcodes outside the
    implemented subset.
    """
    word &= 0xFFFF_FFFF
    opcode = enc.opcode_of(word)
    fmt = enc.format_of(opcode)
    rd = enc.rd_of(word)
    ra = enc.ra_of(word)
    rb = enc.rb_of(word)
    imm = enc.imm_of(word)
    function = enc.function_of(word)

    common = dict(word=word, opcode=opcode, fmt=fmt, rd=rd, ra=ra, rb=rb,
                  imm=imm, function=function)

    # -- arithmetic ------------------------------------------------------------
    if opcode in _ARITH_MNEMONICS:
        mnemonic = _ARITH_MNEMONICS[opcode]
        if opcode == enc.OP_RSUBK and function in (enc.CMP_FUNC,
                                                   enc.CMPU_FUNC):
            mnemonic = "cmp" if function == enc.CMP_FUNC else "cmpu"
        return Instruction(mnemonic=mnemonic, **common)

    # -- logic --------------------------------------------------------------------
    if opcode in _LOGIC_MNEMONICS:
        return Instruction(mnemonic=_LOGIC_MNEMONICS[opcode], **common)

    # -- multiply / divide / barrel shift --------------------------------------------
    if opcode == enc.OP_MUL:
        return Instruction(mnemonic="mul", **common)
    if opcode == enc.OP_MULI:
        return Instruction(mnemonic="muli", **common)
    if opcode == enc.OP_IDIV:
        mnemonic = "idivu" if function & 0x2 else "idiv"
        return Instruction(mnemonic=mnemonic, **common)
    if opcode == enc.OP_BS:
        mnemonic = {enc.BS_SRL: "bsrl", enc.BS_SRA: "bsra",
                    enc.BS_SLL: "bsll"}.get(function & 0x600)
        if mnemonic is None:
            raise DecodeError(f"unknown barrel shift function {function:#x}")
        return Instruction(mnemonic=mnemonic, **common)
    if opcode == enc.OP_BSI:
        mnemonic = {enc.BS_SRL: "bsrli", enc.BS_SRA: "bsrai",
                    enc.BS_SLL: "bslli"}.get(imm & 0x600)
        if mnemonic is None:
            raise DecodeError(f"unknown barrel shift function {imm:#x}")
        return Instruction(mnemonic=mnemonic, **common)

    # -- single-bit shifts / sign extension ---------------------------------------------
    if opcode == enc.OP_SHIFT:
        func16 = enc.function16_of(word)
        mnemonic = _SHIFT_MNEMONICS.get(func16)
        if mnemonic is None:
            raise DecodeError(f"unknown shift function {func16:#06x}")
        return Instruction(mnemonic=mnemonic, **common)

    # -- special registers ----------------------------------------------------------------
    if opcode == enc.OP_MSR:
        func16 = enc.function16_of(word)
        if func16 & 0xC000 == 0xC000:
            mnemonic = "mts"
        elif func16 & 0x8000:
            mnemonic = "mfs"
        elif ra & 0x1:
            mnemonic = "msrclr"
        else:
            mnemonic = "msrset"
        return Instruction(mnemonic=mnemonic, **common)

    # -- unconditional branches ---------------------------------------------------------------
    if opcode in (enc.OP_BR, enc.OP_BRI):
        delay = bool(ra & enc.BR_DELAY)
        absolute = bool(ra & enc.BR_ABS)
        link = bool(ra & enc.BR_LINK)
        mnemonic = "br"
        if absolute:
            mnemonic += "a"
        if link:
            mnemonic += "l"
        if opcode == enc.OP_BRI:
            mnemonic += "i"
        if delay:
            mnemonic += "d"
        return Instruction(mnemonic=mnemonic, delay_slot=delay,
                           absolute=absolute, link=link, **common)

    # -- conditional branches -----------------------------------------------------------------
    if opcode in (enc.OP_BCC, enc.OP_BCCI):
        condition = _CONDITIONS.get(rd & 0xF)
        if condition is None:
            raise DecodeError(f"unknown branch condition {rd:#x}")
        delay = bool(rd & enc.COND_DELAY)
        mnemonic = f"b{condition}"
        if opcode == enc.OP_BCCI:
            mnemonic += "i"
        if delay:
            mnemonic += "d"
        return Instruction(mnemonic=mnemonic, delay_slot=delay,
                           condition=condition, **common)

    # -- returns / IMM prefix ----------------------------------------------------------------------
    if opcode == enc.OP_RET:
        mnemonic = _RET_MNEMONICS.get(rd)
        if mnemonic is None:
            raise DecodeError(f"unknown return flavour rd={rd:#x}")
        return Instruction(mnemonic=mnemonic, delay_slot=True, **common)
    if opcode == enc.OP_IMM:
        return Instruction(mnemonic="imm", **common)

    # -- memory ---------------------------------------------------------------------------------------
    if opcode in _MEMORY_MNEMONICS:
        return Instruction(mnemonic=_MEMORY_MNEMONICS[opcode], **common)

    raise DecodeError(f"unknown opcode {opcode:#04x} in word {word:#010x}")


class DecodedEntry:
    """One address-keyed entry of the ISS's decoded-program cache.

    Where :class:`DecodeCache` memoises *words*, a :class:`DecodedEntry`
    memoises one *program location*: the word fetched from ``pc``, its
    decoded form, a precompiled zero-argument closure executing it with
    operands already resolved (the only form in which the ISS executes
    instructions), and everything the per-instruction hot path
    would otherwise recompute (mnemonic string, profile function name,
    memory-access classification).  Entries link forward into basic blocks
    through ``next_entry`` so straight-line code executes without even a
    dictionary lookup; the link carries the successor's ``pc`` guard, so a
    stale link can never execute the wrong location.

    ``valid`` flips to False when a store overwrites the cached word
    (self-modifying code) -- consumers must check it before executing a
    chained entry.  ``fetch_cycles``/``fetch_epoch`` let the
    temporally-decoupled wrapper reuse the protocol cycle annotation of
    the first fetch while the fetch routing (dispatcher toggles) is
    unchanged.
    """

    __slots__ = ("pc", "word", "instruction", "mnemonic", "execute",
                 "function_name", "is_load", "is_store", "is_imm",
                 "access_size", "delay_slot", "valid", "next_entry",
                 "fetch_cycles", "fetch_epoch", "falls_through", "block",
                 "ea", "rd", "prefix", "prefixed_execute", "prefixed_ea")

    def __init__(self, pc: int, word: int, instruction: Instruction,
                 execute, function_name: Optional[str]) -> None:
        self.pc = pc
        self.word = word
        self.instruction = instruction
        self.mnemonic = instruction.mnemonic
        self.execute = execute
        self.function_name = function_name
        self.is_load = instruction.is_load
        self.is_store = instruction.is_store
        self.is_imm = instruction.mnemonic == "imm"
        self.access_size = instruction.access_size
        self.delay_slot = instruction.delay_slot
        self.valid = True
        self.next_entry: Optional["DecodedEntry"] = None
        self.fetch_cycles = -1
        self.fetch_epoch = -1
        #: True when executing can only advance the PC by 4: no branch,
        #: no IMM prefix, no memory access, no PC-reading special move.
        #: Set by the core from its semantics families.
        self.falls_through = False
        #: Cached straight-line block starting here (built by the wrapper).
        self.block = None
        #: Precompiled effective-address closure (loads/stores only; valid
        #: while no IMM prefix is active).  Set by the core.
        self.ea = None
        self.rd = instruction.rd
        #: The IMM prefix value ``prefixed_execute``/``prefixed_ea`` were
        #: compiled for (None until the entry first runs behind a prefix).
        self.prefix: Optional[int] = None
        self.prefixed_execute = None
        self.prefixed_ea = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DecodedEntry(pc={self.pc:#010x}, "
                f"mnemonic={self.mnemonic!r}, valid={self.valid})")


class DecodeCache:
    """A decoded-instruction cache keyed by instruction word.

    A real C++ ISS decodes each distinct word once; this cache gives the
    Python ISS the same property so the fetch path (the thing the paper's
    memory dispatcher accelerates) dominates, not Python-side decode.
    """

    def __init__(self, capacity: int = 65536) -> None:
        self.capacity = capacity
        self._cache: dict[int, Instruction] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, word: int) -> Instruction:
        """Decode ``word``, memoising the result."""
        cached = self._cache.get(word)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        instruction = decode(word)
        if len(self._cache) >= self.capacity:
            self._cache.clear()
        self._cache[word] = instruction
        return instruction

    def __len__(self) -> int:
        return len(self._cache)

"""Golden digests of the ISS instruction semantics over seeded programs.

A seeded generator builds straight-line-plus-forward-branch programs that
cover every mnemonic the decoder emits, including the corners the
hand-written golden tests in ``test_iss_core.py`` do not reach: IMM-prefixed
type-B forms (ALU, ``muli``, loads/stores, ``bri``/``brai``/``brlid``,
conditional ``b<cc>i``, ``rtsd``), the prefix-ignoring families behind an
IMM prefix, forward conditional branches with delay slots, ``idiv`` by
zero and by negative operands, shifts through the carry, ``mfs rpc``,
``msrset``/``msrclr`` and stores into upcoming code.  Each program body
runs twice (an outer loop), so every location also executes from an
already-built decoded entry.

``tests/data/iss_semantics_golden.json`` holds one SHA-256 digest per seed
over the final registers, PC, MSR, EAR, ESR, scratch memory and execution
statistics.  The digests were recorded with the ISS's former
per-instruction handlers, a second implementation of the semantics written
independently of the compiled closures that replaced them; the test
asserts that the ISS reproduces each of them exactly.  Re-record (only for
a deliberate semantic change) with::

    PYTHONPATH=src python tests/test_iss_semantics.py --record

:class:`TestSemanticsTable` checks the compiled table itself: every
mnemonic the decoder emits compiles, and exactly the fall-through families
may join basic blocks.
"""

import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.isa import decoder, encoding as enc
from repro.isa.assembler import Program
from repro.isa.decoder import decode
from repro.isa.symbols import SymbolTable
from repro.iss import FunctionalMicroBlaze, MicroBlazeCore
from repro.kernel.errors import DecodeError, ModelError

DATA_FILE = pathlib.Path(__file__).parent / "data" / "iss_semantics_golden.json"

#: The fixed seed list the golden data covers.
SEEDS = tuple(range(300))

#: Scratch data region every generated load/store targets.
SCRATCH_BASE = 0x8000
SCRATCH_SIZE = 0x200

#: Outer-loop counter; generated instructions never write it.
LOOP_REG = 31
#: Registers generated instructions may use freely.
FREE_REGS = tuple(range(1, LOOP_REG))

_ALU_A = {
    "add": (enc.OP_ADD, 0), "addc": (enc.OP_ADDC, 0),
    "addk": (enc.OP_ADDK, 0), "addkc": (enc.OP_ADDKC, 0),
    "rsub": (enc.OP_RSUB, 0), "rsubc": (enc.OP_RSUBC, 0),
    "rsubk": (enc.OP_RSUBK, 0), "rsubkc": (enc.OP_RSUBKC, 0),
    "cmp": (enc.OP_RSUBK, enc.CMP_FUNC), "cmpu": (enc.OP_RSUBK, enc.CMPU_FUNC),
    "or": (enc.OP_OR, 0), "and": (enc.OP_AND, 0), "xor": (enc.OP_XOR, 0),
    "andn": (enc.OP_ANDN, 0), "mul": (enc.OP_MUL, 0),
    "idiv": (enc.OP_IDIV, 0), "idivu": (enc.OP_IDIV, 2),
    "bsrl": (enc.OP_BS, enc.BS_SRL), "bsra": (enc.OP_BS, enc.BS_SRA),
    "bsll": (enc.OP_BS, enc.BS_SLL),
}
_ALU_B = (enc.OP_ADDI, enc.OP_ADDIC, enc.OP_ADDIK, enc.OP_ADDIKC,
          enc.OP_RSUBI, enc.OP_RSUBIC, enc.OP_RSUBIK, enc.OP_RSUBIKC,
          enc.OP_ORI, enc.OP_ANDI, enc.OP_XORI, enc.OP_ANDNI, enc.OP_MULI)
_SHIFT_ONE = (enc.SHIFT_SRA, enc.SHIFT_SRC, enc.SHIFT_SRL,
              enc.SHIFT_SEXT8, enc.SHIFT_SEXT16)
_BARREL_KINDS = (enc.BS_SRL, enc.BS_SRA, enc.BS_SLL)
#: (type-A opcode, type-B opcode, access size)
_MEMORY = ((enc.OP_LBU, enc.OP_LBUI, 1), (enc.OP_LHU, enc.OP_LHUI, 2),
           (enc.OP_LW, enc.OP_LWI, 4), (enc.OP_SB, enc.OP_SBI, 1),
           (enc.OP_SH, enc.OP_SHI, 2), (enc.OP_SW, enc.OP_SWI, 4))
_CONDITIONS = (enc.COND_EQ, enc.COND_NE, enc.COND_LT, enc.COND_LE,
               enc.COND_GT, enc.COND_GE)
_RETURNS = (enc.RET_RTSD, enc.RET_RTID, enc.RET_RTBD, enc.RET_RTED)
_SPECIAL_READ = (enc.SPR_PC, enc.SPR_MSR, enc.SPR_EAR, enc.SPR_ESR)
_SPECIAL_WRITE = (enc.SPR_MSR, enc.SPR_EAR, enc.SPR_ESR)
_INTERESTING = (0, 1, 2, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF, 0xFFFF_FFFE,
                0x0000_8000, 0xFFFF_8000, 0x0001_0000)


def _b(opcode, rd, ra, imm):
    return enc.pack_type_b(opcode, rd, ra, imm & 0xFFFF)


def _imm(prefix):
    return _b(enc.OP_IMM, 0, 0, prefix)


def _li(rd, value):
    value &= 0xFFFF_FFFF
    return [_imm(value >> 16), _b(enc.OP_ADDIK, rd, 0, value)]


def _sext16(value):
    return value - 0x1_0000 if value & 0x8000 else value


class _Generator:
    """Emits one random program; tracks addresses for branch targets."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.words: list[int] = []

    # -- helpers ---------------------------------------------------------------
    @property
    def here(self) -> int:
        return 4 * len(self.words)

    def reg(self, *exclude) -> int:
        while True:
            reg = self.rng.choice(FREE_REGS)
            if reg not in exclude:
                return reg

    def value(self) -> int:
        if self.rng.random() < 0.4:
            return self.rng.choice(_INTERESTING)
        return self.rng.randrange(1 << 32)

    def prefix(self):
        """An IMM prefix value, or None (no prefix) about half the time."""
        if self.rng.random() < 0.5:
            return None
        return self.rng.choice((0, 0xFFFF, 0x8000, self.rng.randrange(1 << 16)))

    def maybe_prefix(self) -> list[int]:
        prefix = self.prefix()
        return [] if prefix is None else [_imm(prefix)]

    # -- instruction pools -------------------------------------------------------
    def simple(self) -> list[int]:
        """One non-branch, non-memory instruction (delay-slot safe)."""
        kind = self.rng.randrange(6)
        rd, ra, rb = self.reg(), self.reg(), self.reg()
        if kind == 0:
            opcode, function = _ALU_A[self.rng.choice(sorted(_ALU_A))]
            return [enc.pack_type_a(opcode, rd, ra, rb, function)]
        if kind == 1:
            return [_b(self.rng.choice(_ALU_B), rd, ra, self.rng.randrange(1 << 16))]
        if kind == 2:
            noise = self.rng.randrange(1 << 16) & ~0x61F
            return [_b(enc.OP_BSI, rd, ra, self.rng.choice(_BARREL_KINDS)
                       | self.rng.randrange(32) | noise)]
        if kind == 3:
            return [(enc.OP_SHIFT << 26) | rd << 21 | ra << 16
                    | self.rng.choice(_SHIFT_ONE)]
        if kind == 4:
            return [_b(enc.OP_MSR, rd, 0, enc.MSR_MFS | self.rng.choice(_SPECIAL_READ))]
        bits = self.rng.randrange(1 << 14)
        if self.rng.random() < 0.5:
            return [_b(enc.OP_MSR, 0, ra, enc.MSR_MTS | self.rng.choice(_SPECIAL_WRITE))]
        return [_b(enc.OP_MSR, rd, self.rng.randrange(2), bits)]

    # -- snippets ------------------------------------------------------------------
    def snippet_prefixed_simple(self):
        # Every simple family behind an optional (usually ignored) prefix.
        return self.maybe_prefix() + self.simple()

    def snippet_alu_b(self):
        words = self.maybe_prefix()
        opcode = self.rng.choice(_ALU_B)
        return words + [_b(opcode, self.reg(), self.reg(), self.rng.randrange(1 << 16))]

    def snippet_double_prefix(self):
        return [_imm(self.rng.randrange(1 << 16)), _imm(self.rng.randrange(1 << 16)),
                _b(self.rng.choice(_ALU_B), self.reg(), self.reg(),
                   self.rng.randrange(1 << 16))]

    def snippet_idiv(self):
        divisor, dividend = self.reg(), self.reg()
        divisor_value = self.rng.choice((0, 0xFFFF_FFFF, 0xFFFF_FFF9, 7,
                                         0x8000_0000, self.value()))
        dividend_value = self.rng.choice((0x8000_0000, 0xFFFF_FF9C, 100,
                                          0, self.value()))
        function = self.rng.choice((0, 2))
        return (_li(divisor, divisor_value) + _li(dividend, dividend_value)
                + [enc.pack_type_a(enc.OP_IDIV, self.reg(), divisor, dividend,
                                   function)])

    def snippet_carry_shift(self):
        a, b = self.reg(), self.reg()
        return (_li(a, self.value()) + _li(b, self.value())
                + [enc.pack_type_a(enc.OP_ADD, self.reg(), a, b),
                   (enc.OP_SHIFT << 26) | self.reg() << 21 | a << 16
                   | self.rng.choice((enc.SHIFT_SRC, enc.SHIFT_SRC, enc.SHIFT_SRA,
                                      enc.SHIFT_SRL)),
                   enc.pack_type_a(enc.OP_ADDC, self.reg(), a, b)])

    def memory_access(self, base_reg, offset_reg):
        """Set-up words plus one load/store into the scratch region."""
        op_a, op_b, size = self.rng.choice(_MEMORY)
        target = SCRATCH_BASE + size * self.rng.randrange(SCRATCH_SIZE // size)
        rd = self.reg(base_reg, offset_reg)
        if self.rng.random() < 0.3:
            offset = self.value()
            setup = _li(base_reg, target - offset) + _li(offset_reg, offset)
            return setup, [enc.pack_type_a(op_a, rd, base_reg, offset_reg)]
        imm = self.rng.randrange(1 << 16)
        prefix = self.prefix()
        if prefix is None:
            combined = _sext16(imm)
            access = [_b(op_b, rd, base_reg, imm)]
        else:
            combined = (prefix << 16) | imm
            access = [_imm(prefix), _b(op_b, rd, base_reg, imm)]
        return _li(base_reg, target - combined), access

    def snippet_memory(self):
        base = self.reg()
        setup, access = self.memory_access(base, self.reg(base))
        return setup + access

    def snippet_store_into_code(self):
        # Patch the simple instruction that follows the store.
        value_reg, address_reg = self.reg(), self.reg()
        while address_reg == value_reg:
            address_reg = self.reg()
        patch = self.simple()[0]
        store = [_b(enc.OP_SWI, value_reg, address_reg, 0)]
        words = _li(value_reg, patch) + _li(address_reg, 0) + store
        target = self.here + 4 * len(words)
        words[2:4] = _li(address_reg, target)
        return words + self.simple()

    def delay_slot(self, exclude):
        """Set-up words and one delay-slot instruction."""
        if self.rng.random() < 0.25:
            base = self.reg(*exclude)
            setup, access = self.memory_access(base, self.reg(base, *exclude))
            if len(access) == 1:
                return setup, access
        return [], self.simple()

    def snippet_cond_branch(self):
        condition_reg = self.reg()
        delay = self.rng.random() < 0.5
        immediate = self.rng.random() < 0.6
        offset_reg = self.reg(condition_reg)
        setup = _li(condition_reg, self.value()) if self.rng.random() < 0.3 else []
        slot_setup, slot = self.delay_slot((condition_reg, offset_reg)) \
            if delay else ([], [])
        skipped = sum((self.simple() for _ in range(self.rng.randrange(1, 4))), [])
        rd_code = self.rng.choice(_CONDITIONS) | (enc.COND_DELAY if delay else 0)
        offset = 4 * (1 + len(slot) + len(skipped))
        if immediate:
            prefix = self.rng.random() < 0.4
            branch = [_imm(offset >> 16)] if prefix else []
            branch.append(_b(enc.OP_BCCI, rd_code, condition_reg, offset))
            head = setup + slot_setup
        else:
            head = setup + slot_setup + _li(offset_reg, offset)
            branch = [enc.pack_type_a(enc.OP_BCC, rd_code, condition_reg, offset_reg)]
        return head + branch + slot + skipped

    def snippet_branch(self):
        absolute = self.rng.random() < 0.5
        link = self.rng.random() < 0.4
        immediate = self.rng.random() < 0.6
        # Link variants only exist with a delay slot.
        delay = link or self.rng.random() < 0.5
        ra_code = ((enc.BR_ABS if absolute else 0) | (enc.BR_LINK if link else 0)
                   | (enc.BR_DELAY if delay else 0))
        link_reg = self.reg() if link else 0
        target_reg = self.reg(link_reg)
        slot_setup, slot = self.delay_slot((link_reg, target_reg)) \
            if delay else ([], [])
        skipped = sum((self.simple() for _ in range(self.rng.randrange(1, 3))), [])
        prefix = immediate and self.rng.random() < 0.5
        head = list(slot_setup)
        if not immediate:
            head += _li(target_reg, 0)
        branch_pc = self.here + 4 * (len(head) + (1 if prefix else 0))
        target = branch_pc + 4 * (1 + len(slot) + len(skipped))
        value = target if absolute else target - branch_pc
        if immediate:
            branch = [_imm(value >> 16)] if prefix else []
            branch.append(_b(enc.OP_BRI, link_reg, ra_code, value))
        else:
            head[-2:] = _li(target_reg, value)
            branch = [enc.pack_type_a(enc.OP_BR, link_reg, ra_code, target_reg)]
        return head + branch + slot + skipped

    def snippet_return(self):
        base_reg = self.reg()
        flavour = self.rng.choice(_RETURNS)
        imm = self.rng.randrange(1 << 16)
        prefix = self.prefix()
        slot_setup, slot = self.delay_slot((base_reg,))
        skipped = self.simple()
        head = slot_setup + _li(base_reg, 0)
        ret = [] if prefix is None else [_imm(prefix)]
        ret_pc = self.here + 4 * (len(head) + len(ret))
        target = ret_pc + 4 * (1 + len(slot) + len(skipped))
        combined = _sext16(imm) if prefix is None else (prefix << 16) | imm
        head[-2:] = _li(base_reg, target - combined)
        ret.append(_b(enc.OP_RET, flavour, base_reg, imm))
        return head + ret + slot + skipped

    SNIPPETS = ("snippet_prefixed_simple", "snippet_prefixed_simple",
                "snippet_alu_b", "snippet_double_prefix", "snippet_idiv",
                "snippet_carry_shift", "snippet_memory", "snippet_memory",
                "snippet_store_into_code", "snippet_cond_branch",
                "snippet_cond_branch", "snippet_branch", "snippet_return")

    def program(self) -> Program:
        for reg in FREE_REGS:
            self.words += _li(reg, self.value())
        self.words += _li(LOOP_REG, 2)
        body = self.here
        for _ in range(self.rng.randrange(30, 60)):
            self.words += getattr(self, self.rng.choice(self.SNIPPETS))()
        self.words.append(_b(enc.OP_ADDIK, LOOP_REG, LOOP_REG, -1))
        self.words.append(_b(enc.OP_BCCI, enc.COND_NE, LOOP_REG, body - self.here))
        halt = self.here
        self.words.append(_b(enc.OP_BRI, 0, 0, 0))
        assert halt < SCRATCH_BASE
        code = bytearray()
        for word in self.words:
            code += word.to_bytes(4, "big")
        scratch = bytearray(self.rng.randrange(256) for _ in range(SCRATCH_SIZE))
        symbols = SymbolTable()
        symbols.define("_start", 0)
        symbols.define("body", body)
        symbols.define("_halt", halt)
        return Program(segments=[(0, code), (SCRATCH_BASE, scratch)],
                       symbols=symbols, entry_point=0,
                       instruction_count=len(self.words))


def run_seed(seed: int) -> str:
    """Run seed's program to its halt loop; the digest of the final state."""
    system = FunctionalMicroBlaze()
    program = _Generator(seed).program()
    system.load_program(program)
    system.run(max_instructions=50_000)
    core = system.core
    assert core.pc == program.symbols.address_of("_halt"), seed
    stats = core.stats
    state = {
        "regs": list(core.regs._regs),
        "pc": core.pc, "msr": core.msr.value, "ear": core.ear, "esr": core.esr,
        "scratch": bytes(system.memory.read(SCRATCH_BASE + offset, 1)
                         for offset in range(SCRATCH_SIZE)).hex(),
        "retired": stats.instructions_retired, "loads": stats.loads,
        "stores": stats.stores, "branches": stats.branches_taken,
        "per_mnemonic": sorted(stats.per_mnemonic.items()),
        "per_function": sorted(stats.per_function.items()),
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def decoder_words() -> dict:
    """One instruction word for every mnemonic the decoder emits."""
    lows = (0, 2, enc.CMP_FUNC, enc.CMPU_FUNC, enc.BS_SRA, enc.BS_SLL,
            enc.MSR_MFS, enc.MSR_MTS | enc.SPR_MSR) + _SHIFT_ONE
    words = {}
    for opcode in range(64):
        # Only conditional branches and returns encode a flavour in rd.
        rds = range(32) if opcode in (enc.OP_BCC, enc.OP_BCCI, enc.OP_RET) \
            else (0,)
        for rd in rds:
            for ra in (0, 1, 4, 8, 12, 16, 20, 24, 28):
                for low in lows:
                    word = opcode << 26 | rd << 21 | ra << 16 | low
                    try:
                        mnemonic = decode(word).mnemonic
                    except DecodeError:
                        continue
                    words.setdefault(mnemonic, word)
    return words


#: Link-without-delay branch encodings: the decoder names them, but they
#: are not MicroBlaze instructions and the ISS rejects them.
UNIMPLEMENTED = {"brl", "brli", "bral", "brali"}

#: The families whose entries fall straight through to pc+4.
FALLS_THROUGH = set(
    "add addc addk addkc addi addic addik addikc "
    "rsub rsubc rsubk rsubkc rsubi rsubic rsubik rsubikc cmp cmpu "
    "or and xor andn ori andi xori andni mul muli idiv idivu "
    "bsrl bsra bsll bsrli bsrai bslli sra src srl sext8 sext16".split())


class TestSemanticsTable:
    @pytest.fixture(scope="class")
    def words(self):
        return decoder_words()

    def test_sweep_reaches_every_decoder_table(self, words):
        tables = (set(decoder._ARITH_MNEMONICS.values())
                  | set(decoder._LOGIC_MNEMONICS.values())
                  | set(decoder._MEMORY_MNEMONICS.values())
                  | set(decoder._SHIFT_MNEMONICS.values())
                  | set(decoder._RET_MNEMONICS.values())
                  | {f"b{cond}{suffix}"
                     for cond in decoder._CONDITIONS.values()
                     for suffix in ("", "d", "i", "id")})
        assert tables <= set(words)
        assert len(words) == 98 + len(UNIMPLEMENTED)

    def test_every_mnemonic_compiles(self, words):
        core = MicroBlazeCore()
        for mnemonic, word in sorted(words.items()):
            if mnemonic in UNIMPLEMENTED:
                with pytest.raises(ModelError, match="unimplemented"):
                    core.build_decoded(0, word)
                continue
            entry = core.build_decoded(0, word)
            assert entry.mnemonic == mnemonic
            assert callable(entry.execute)
            assert (entry.ea is not None) == (entry.is_load or entry.is_store)
            assert entry.falls_through == (mnemonic in FALLS_THROUGH), mnemonic

    def test_generator_covers_every_mnemonic(self, words):
        seen = set()
        for seed in SEEDS[:40]:
            system = FunctionalMicroBlaze()
            system.load_program(_Generator(seed).program())
            system.run(max_instructions=50_000)
            seen |= set(system.core.stats.per_mnemonic)
        assert seen == set(words) - UNIMPLEMENTED


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA_FILE.read_text())


def test_golden_covers_the_seed_list(golden):
    assert [int(seed) for seed in golden["digests"]] == list(SEEDS)


@pytest.mark.parametrize("chunk", range(10))
def test_semantics_reproduce_golden_digests(golden, chunk):
    for seed in SEEDS[chunk::10]:
        assert run_seed(seed) == golden["digests"][str(seed)], f"seed {seed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    DATA_FILE.parent.mkdir(exist_ok=True)
    digests = {str(seed): run_seed(seed) for seed in SEEDS}
    DATA_FILE.write_text(json.dumps({"seeds": len(SEEDS), "digests": digests},
                                    indent=1) + "\n")
    print(f"recorded {len(digests)} digests to {DATA_FILE}")

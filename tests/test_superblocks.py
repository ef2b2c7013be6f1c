"""Superblocks: the quantum warp's generated functions for hot code.

The cross-level identity of what superblocks compute is pinned by
``tests/test_cpu_levels.py`` and the loop fuzz in
``tests/test_differential_fuzz.py``.  These tests pin the machinery
itself: deterministic source text, the process-wide code memo, and
per-block invalidation.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.bus import BUS_FUNCTIONAL
from repro.iss import CPU_QUANTUM
from repro.iss.core import generated_sources
from repro.iss.superblock import block_source
from repro.platform import VanillaNetPlatform, VariantName, variant_config
from repro.software import BootParams, build_boot_program

BOOT = BootParams().scaled(0.2)


def booted_platform() -> VanillaNetPlatform:
    platform = VanillaNetPlatform(variant_config(
        VariantName.SUPPRESS_MAIN_MEMORY, bus_level=BUS_FUNCTIONAL,
        cpu_level=CPU_QUANTUM))
    platform.load_program(build_boot_program(BOOT))
    assert platform.run_until_halt(max_cycles=2_000_000, chunk_cycles=2_000)
    return platform


def live_blocks(platform) -> list:
    """Every superblock the warp built and still runs, by head address."""
    entries = platform.microblaze.core._decoded.values()
    blocks = [entry.block for entry in entries
              if entry.block is not None and entry.block.run is not None]
    return sorted(blocks, key=lambda block: block.entries[0].pc)


def sources_digest(platform) -> str:
    digest = hashlib.sha256()
    for block in live_blocks(platform):
        digest.update(block_source(block.entries, block.loops).encode())
    return digest.hexdigest()


def test_blocks_engage_and_loop_in_place():
    """The boot's SDRAM loops run as self-looping blocks.  (Its memcpy
    reads FLASH, which the warp does not hoist: that head always exits,
    so its block is given up.)"""
    platform = booted_platform()
    blocks = live_blocks(platform)
    heads = {block.entries[0].pc: block for block in blocks}
    symbols = platform.program.symbols
    for name in ("memset_loop", "checksum_loop"):
        block = heads[symbols.get(name)]
        assert block.loops
        assert block.entries[-1].mnemonic == "bnei"
    memcpy = platform.microblaze.core.decoded_entry(
        symbols.get("memcpy_loop"))
    assert memcpy.block is not None and memcpy.block.run is None


def test_source_is_byte_identical_across_hash_seeds():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_superblocks import booted_platform, sources_digest\n"
        "print(sources_digest(booted_platform()))\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    digests = set()
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        digests.add(result.stdout.strip())
    assert len(digests) == 1
    assert digests == {sources_digest(booted_platform())}


def test_second_platform_compiles_nothing_new():
    first = booted_platform()
    compiled = generated_sources()
    second = booted_platform()
    assert generated_sources() == compiled
    assert len(live_blocks(second)) == len(live_blocks(first))


def test_invalidating_an_entry_drops_only_its_blocks():
    platform = booted_platform()
    core = platform.microblaze.core
    blocks = live_blocks(platform)
    victim = blocks[0]
    entry = victim.entries[-1]
    holding = [block for block in blocks if entry in block.entries]
    others = [block for block in blocks if entry not in block.entries]
    assert others
    core.invalidate_code(entry.pc, 4)
    assert not entry.valid
    assert all(not block.valid for block in holding)
    assert all(block.valid for block in others)

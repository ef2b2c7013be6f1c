"""Byte-addressable memory storage.

:class:`MemoryStorage` is the backing store shared by every memory model in
the platform (BRAM, SDRAM, SRAM, FLASH).  The bus-facing peripherals wrap a
storage instance and add cycle behaviour; the memory dispatcher (paper
sections 5.1/5.2) and the kernel-function interceptor (section 5.4) access
the same storage directly, which is exactly how the paper's memory
dispatcher "can directly access the memory models inside the peripherals".

Storage is sparse: a region is a list of fixed :data:`PAGE_SIZE` pages,
and every page nobody has written is the same immutable fill page.  A
platform therefore costs memory only for what its software touches, and
a snapshot carries only the written pages.

MicroBlaze is big-endian; all multi-byte accesses here are big-endian.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Optional

from ..datatypes import mask
from ..kernel.component import SimComponent
from ..kernel.errors import AddressError, AlignmentError

#: Pages are ``1 << PAGE_SHIFT`` bytes.  Aligned 1/2/4-byte accesses never
#: cross a page, so the accessors index exactly one page.
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class MemoryStorage(SimComponent):
    """A byte-addressable region with word/halfword/byte accessors.

    Backed by a list of :data:`PAGE_SIZE` pages.  Untouched entries all
    share one immutable fill page (``bytes``); the first write to a page
    replaces it with a private ``bytearray`` (:meth:`writable_page`).
    """

    def __init__(self, name: str, base_address: int, size: int,
                 read_only: bool = False,
                 fill: int = 0x00) -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.name = name
        self.base_address = base_address
        self.size = size
        self.read_only = read_only
        self._pages: list = []
        #: Indices of the private (written) pages.
        self._written: set[int] = set()
        self._set_fill(fill)
        #: Access counters (reads/writes through any path).
        self.read_accesses = 0
        self.write_accesses = 0

    def _set_fill(self, value: int) -> None:
        """Make every page the (new) fill page, in place."""
        self._fill = value & 0xFF
        self._fill_page = bytes([self._fill]) * PAGE_SIZE
        self._pages[:] = [self._fill_page] * (
            (self.size + PAGE_MASK) >> PAGE_SHIFT)
        self._written.clear()

    # -- address helpers ---------------------------------------------------
    @property
    def end_address(self) -> int:
        """First address past the end of this memory."""
        return self.base_address + self.size

    def contains(self, address: int, size: int = 1) -> bool:
        """True when the access [address, address+size) falls inside."""
        return (self.base_address <= address
                and address + size <= self.end_address)

    def _offset(self, address: int, size: int) -> int:
        # The containment test of :meth:`contains`, inlined: every access
        # passes through here.
        offset = address - self.base_address
        if offset < 0 or offset + size > self.size:
            raise AddressError(
                f"address {address:#010x} (+{size}) outside memory "
                f"{self.name!r} [{self.base_address:#010x}, "
                f"{self.end_address:#010x})")
        if size > 1 and address % size != 0:
            raise AlignmentError(
                f"misaligned {size}-byte access at {address:#010x} "
                f"in {self.name!r}")
        return offset

    def _range_offset(self, address: int, length: int, what: str) -> int:
        """Offset of the whole range [address, address+length)."""
        if length < 0 or not self.contains(address, max(length, 1)):
            raise AddressError(
                f"{what} of {length} bytes at {address:#010x} does not "
                f"fit in {self.name!r}")
        return address - self.base_address

    @staticmethod
    def _spans(offset: int, length: int) -> Iterator[tuple[int, int, int,
                                                           int]]:
        """``(page, start in page, start in range, count)`` per page of
        the range [offset, offset+length)."""
        position = 0
        while position < length:
            index, start = divmod(offset + position, PAGE_SIZE)
            count = min(PAGE_SIZE - start, length - position)
            yield index, start, position, count
            position += count

    # -- pages -------------------------------------------------------------
    def writable_page(self, index: int) -> bytearray:
        """Page ``index`` as a private ``bytearray``.

        The one place a page is materialised: the first call copies the
        fill page.  Direct-memory users must call it before storing into a
        page that still ``is`` the fill page.
        """
        page = self._pages[index]
        if page is self._fill_page:
            page = self._pages[index] = bytearray(page)
            self._written.add(index)
        return page

    def direct_pages(self) -> tuple[list, bytes]:
        """``(pages, fill_page)`` for a direct memory interface.

        Byte ``offset`` of the region is
        ``pages[offset >> PAGE_SHIFT][offset & PAGE_MASK]``.  The list is
        updated in place and so stays valid; the fill page is replaced by
        :meth:`fill` and by restoring a different fill, so hold it only
        while no such call can happen.
        """
        return self._pages, self._fill_page

    # -- generic access ----------------------------------------------------------
    def read(self, address: int, size: int = 4) -> int:
        """Read ``size`` bytes (1, 2 or 4), big-endian."""
        offset = self._offset(address, size)
        self.read_accesses += 1
        start = offset & PAGE_MASK
        return int.from_bytes(
            self._pages[offset >> PAGE_SHIFT][start:start + size], "big")

    def write(self, address: int, value: int, size: int = 4,
              force: bool = False) -> None:
        """Write ``size`` bytes of ``value``, big-endian.

        ``force`` bypasses the read-only check (used to load FLASH images).
        """
        if self.read_only and not force:
            raise AddressError(f"write to read-only memory {self.name!r} "
                               f"at {address:#010x}")
        offset = self._offset(address, size)
        self.write_accesses += 1
        index = offset >> PAGE_SHIFT
        page = self._pages[index]
        if page is self._fill_page:
            page = self.writable_page(index)
        start = offset & PAGE_MASK
        page[start:start + size] = (value & mask(size * 8)).to_bytes(
            size, "big")

    # -- convenience accessors --------------------------------------------------------
    def read_word(self, address: int) -> int:
        """Read a 32-bit word."""
        return self.read(address, 4)

    def write_word(self, address: int, value: int) -> None:
        """Write a 32-bit word."""
        self.write(address, value, 4)

    def read_byte(self, address: int) -> int:
        """Read a single byte."""
        return self.read(address, 1)

    def write_byte(self, address: int, value: int) -> None:
        """Write a single byte."""
        self.write(address, value, 1)

    def load_bytes(self, address: int, data: bytes,
                   force: bool = True) -> None:
        """Bulk-load ``data`` at ``address`` (program/image loading)."""
        offset = self._range_offset(address, len(data), "image")
        if self.read_only and not force:
            raise AddressError(f"cannot load into read-only {self.name!r}")
        for index, start, position, count in self._spans(offset, len(data)):
            self.writable_page(index)[start:start + count] = \
                data[position:position + count]

    def dump(self, address: int, length: int) -> bytes:
        """Copy ``length`` bytes starting at ``address``.

        Raises :class:`AddressError` unless the whole range lies inside.
        """
        offset = self._range_offset(address, length, "dump")
        pages = self._pages
        return b"".join(pages[index][start:start + count]
                        for index, start, __, count
                        in self._spans(offset, length))

    def fill(self, value: int = 0) -> None:
        """Fill the whole memory with ``value``."""
        self._set_fill(value)

    # -- checkpoint / restore ----------------------------------------------
    def capture_state(self) -> dict:
        """The fill byte, the written pages and the access counters."""
        pages = self._pages
        return {
            "fill": self._fill,
            "pages": {index: bytes(pages[index])
                      for index in sorted(self._written)},
            "read_accesses": self.read_accesses,
            "write_accesses": self.write_accesses,
        }

    def restore_state(self, state: dict) -> None:
        """Return every page to the fill page, then copy in the
        snapshot's pages (the page list is kept, so DMI aliases survive)."""
        self._set_fill(state["fill"])
        for index, data in state["pages"].items():
            self.writable_page(index)[:] = data
        self.read_accesses = state["read_accesses"]
        self.write_accesses = state["write_accesses"]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MemoryStorage({self.name!r}, base={self.base_address:#x}, "
                f"size={self.size:#x})")


class MemoryMap(SimComponent):
    """A collection of :class:`MemoryStorage` regions with routing.

    Provides the flat ``read``/``write`` interface the functional ISS mode,
    the memory dispatcher and the kernel-function interceptor use.
    """

    def __init__(self, regions: Optional[Iterable[MemoryStorage]] = None
                 ) -> None:
        self._regions: list[MemoryStorage] = list(regions or [])

    def add(self, region: MemoryStorage) -> MemoryStorage:
        """Add a region; overlapping regions are rejected."""
        for existing in self._regions:
            if (region.base_address < existing.end_address
                    and existing.base_address < region.end_address):
                raise AddressError(
                    f"memory region {region.name!r} overlaps "
                    f"{existing.name!r}")
        self._regions.append(region)
        return region

    def region_for(self, address: int, size: int = 1) -> MemoryStorage:
        """The region containing the access; raises AddressError if none."""
        for region in self._regions:
            if region.contains(address, size):
                return region
        raise AddressError(f"no memory region claims address "
                           f"{address:#010x}")

    def region_named(self, name: str) -> MemoryStorage:
        """Look a region up by name."""
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(name)

    @property
    def regions(self) -> tuple[MemoryStorage, ...]:
        """All registered regions."""
        return tuple(self._regions)

    def state_children(self) -> dict:
        """Every region by name (the map itself holds no state)."""
        return {region.name: region for region in self._regions}

    def contents_digest(self) -> str:
        """SHA-256 over every region's contents.

        Only written pages that differ from their region's fill page are
        hashed, so the digest depends on what memory holds, not on which
        pages happen to have been materialised.
        """
        digest = hashlib.sha256()
        for region in self._regions:
            digest.update(f"{region.name}:{region._fill}".encode())
            for index in sorted(region._written):
                page = region._pages[index]
                if page != region._fill_page:
                    digest.update(index.to_bytes(4, "big"))
                    digest.update(page)
        return digest.hexdigest()

    # -- flat access ---------------------------------------------------------------
    def read(self, address: int, size: int = 4) -> int:
        """Read ``size`` bytes from whichever region claims ``address``."""
        return self.region_for(address, size).read(address, size)

    def write(self, address: int, value: int, size: int = 4) -> None:
        """Write ``size`` bytes to whichever region claims ``address``."""
        self.region_for(address, size).write(address, value, size)

    def read_word(self, address: int) -> int:
        """Read a 32-bit word."""
        return self.read(address, 4)

    def write_word(self, address: int, value: int) -> None:
        """Write a 32-bit word."""
        self.write(address, value, 4)

    def write_byte(self, address: int, value: int) -> None:
        """Write a single byte (program-loading callback)."""
        self.write(address, value, 1)

    def load_program(self, program) -> int:
        """Load an assembled :class:`~repro.isa.assembler.Program`.

        Returns the number of bytes loaded.
        """
        total = 0
        for base, data in program.segments:
            self.region_for(base, max(len(data), 1)).load_bytes(base,
                                                                bytes(data))
            total += len(data)
        return total

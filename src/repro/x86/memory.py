"""Sparse, byte-addressable flat memory for the functional emulator.

Memory is stored in fixed-size pages allocated on demand, which keeps small
workloads cheap while still supporting widely separated code, stack, and
heap regions (the synthetic workloads use realistic 32-bit layouts).
"""

from __future__ import annotations

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1


class Memory:
    """Sparse 32-bit byte-addressable memory with little-endian accessors."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}

    def _page(self, address: int) -> bytearray:
        page_number = address >> PAGE_BITS
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_number] = page
        return page

    def read(self, address: int, size: int) -> int:
        """Read ``size`` bytes at ``address`` as an unsigned little-endian value."""
        address &= 0xFFFFFFFF
        page = self._page(address)
        offset = address & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            data = page[offset : offset + size]
        else:  # access straddles a page boundary
            first = page[offset:]
            rest = self._page((address + len(first)) & 0xFFFFFFFF)
            data = bytes(first) + bytes(rest[: size - len(first)])
        return int.from_bytes(data, "little")

    def write(self, address: int, value: int, size: int) -> None:
        """Write ``size`` low-order bytes of ``value`` at ``address``."""
        address &= 0xFFFFFFFF
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        page = self._page(address)
        offset = address & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page[offset : offset + size] = data
        else:
            split = PAGE_SIZE - offset
            page[offset:] = data[:split]
            rest = self._page((address + split) & 0xFFFFFFFF)
            rest[: size - split] = data[split:]

    def write_bytes(self, address: int, data: bytes) -> None:
        """Bulk write, used to initialize workload data sections."""
        done = 0
        while done < len(data):
            start = (address + done) & 0xFFFFFFFF
            offset = start & PAGE_MASK
            chunk = min(PAGE_SIZE - offset, len(data) - done)
            self._page(start)[offset : offset + chunk] = data[done : done + chunk]
            done += chunk

    def read_bytes(self, address: int, size: int) -> bytes:
        """Bulk read, used by tests and workload checks."""
        return bytes(self.read(address + i, 1) for i in range(size))

    def touched_pages(self) -> int:
        """Number of pages allocated so far (observability for tests)."""
        return len(self._pages)

"""Sparse memory model."""

from repro.x86.memory import PAGE_SIZE, Memory


def test_uninitialized_reads_zero():
    assert Memory().read(0x1234, 4) == 0


def test_write_read_roundtrip_word():
    memory = Memory()
    memory.write(0x1000, 0xDEADBEEF, 4)
    assert memory.read(0x1000, 4) == 0xDEADBEEF


def test_little_endian_byte_order():
    memory = Memory()
    memory.write(0x1000, 0x11223344, 4)
    assert memory.read(0x1000, 1) == 0x44
    assert memory.read(0x1003, 1) == 0x11


def test_partial_width_write_preserves_neighbours():
    memory = Memory()
    memory.write(0x1000, 0xAABBCCDD, 4)
    memory.write(0x1001, 0x42, 1)
    assert memory.read(0x1000, 4) == 0xAABB42DD


def test_write_truncates_to_size():
    memory = Memory()
    memory.write(0x1000, 0x12345678, 2)
    assert memory.read(0x1000, 4) == 0x5678


def test_page_straddling_access():
    memory = Memory()
    address = PAGE_SIZE - 2  # crosses into the next page
    memory.write(address, 0xCAFEBABE, 4)
    assert memory.read(address, 4) == 0xCAFEBABE
    assert memory.read(address + 2, 2) == 0xCAFE


def test_bulk_write_read():
    memory = Memory()
    memory.write_bytes(0x2000, b"hello world")
    assert memory.read_bytes(0x2000, 11) == b"hello world"


def test_bulk_write_spans_pages():
    memory = Memory()
    data = bytes(range(256)) * 40  # longer than two pages
    address = PAGE_SIZE - 3
    memory.write_bytes(address, data)
    assert memory.read_bytes(address, len(data)) == data
    assert memory.read(address - 1, 1) == 0
    assert memory.read(address + len(data), 1) == 0
    assert memory.touched_pages() == 4


def test_address_wraps_at_32_bits():
    memory = Memory()
    memory.write(0xFFFFFFFF + 0x10, 0x5A, 1)  # same as 0x0F
    assert memory.read(0x0F, 1) == 0x5A


def test_pages_allocated_lazily():
    memory = Memory()
    assert memory.touched_pages() == 0
    memory.write(0x0, 1, 1)
    memory.write(0x100000, 1, 1)
    assert memory.touched_pages() == 2

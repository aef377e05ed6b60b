"""Unit tests for the node hardware models: memory, MMU, bus, CPU, params."""

import gc
import random
import tracemalloc

import pytest

from repro.hardware import (
    CPU,
    AddressSpace,
    DEFAULT_PARAMS,
    MachineParams,
    MemoryBus,
    OutOfMemoryError,
    PageFault,
    PageMode,
    PhysicalMemory,
    Protection,
)
from repro.node import Machine
from repro.sim import Simulator, StatsRegistry, Timeout


# ---------------------------------------------------------------- memory --

def _memory(pages=8, page_size=4096):
    return PhysicalMemory(pages * page_size, page_size)


def test_memory_size_must_be_whole_pages():
    with pytest.raises(ValueError):
        PhysicalMemory(5000, 4096)


def test_frame_allocation_and_exhaustion():
    mem = _memory(pages=2)
    assert mem.free_frames == 2
    a = mem.alloc_frame()
    b = mem.alloc_frame()
    assert a != b
    assert mem.free_frames == 0
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frame()
    mem.free_frame(a)
    assert mem.free_frames == 1
    assert mem.alloc_frame() == a
    assert mem.free_frames == 0


def test_allocation_order_matches_free_list_model():
    # The allocation order is frozen to that of a free list popped from
    # the end and appended to on free: the most recently freed frame
    # first, then never-used frames ascending.  Every committed BENCH
    # baseline depends on this order.
    pages = 32
    mem = _memory(pages=pages)
    model_free = list(range(pages - 1, -1, -1))
    held = []
    rng = random.Random(1998)
    for _ in range(2000):
        if held and (not model_free or rng.random() < 0.45):
            frame = held.pop(rng.randrange(len(held)))
            mem.free_frame(frame)
            model_free.append(frame)
        elif rng.random() < 0.2 and len(model_free) >= 3:
            frames = mem.alloc_frames(3)
            assert frames == [model_free.pop() for _ in range(3)]
            held.extend(frames)
        else:
            frame = mem.alloc_frame()
            assert frame == model_free.pop()
            held.append(frame)
        assert mem.free_frames == len(model_free)
        assert all(mem.is_allocated(f) for f in held)
    assert not any(mem.is_allocated(f) for f in model_free)


def test_double_free_rejected():
    mem = _memory()
    frame = mem.alloc_frame()
    mem.free_frame(frame)
    with pytest.raises(ValueError):
        mem.free_frame(frame)


@pytest.mark.parametrize("frame", [-1, 8, 9])
def test_out_of_range_frame_rejected(frame):
    mem = _memory(pages=8)
    allocated = mem.alloc_frames(8)
    with pytest.raises(ValueError, match=f"frame {frame} out of range"):
        mem.free_frame(frame)
    with pytest.raises(ValueError, match=f"frame {frame} out of range"):
        mem.is_allocated(frame)
    # The rejected calls changed nothing: all 8 frames are still held and
    # freeing one hands back that frame, never an out-of-range number.
    assert mem.free_frames == 0
    mem.free_frame(allocated[-1])
    assert mem.alloc_frame() == allocated[-1]


def test_freed_frame_is_zeroed():
    mem = _memory()
    frame = mem.alloc_frame()
    base = mem.frame_base(frame)
    mem.write(base, b"secret")
    mem.write(base + 4090, b"tail")
    mem.free_frame(frame)
    assert mem.read(base, 4096) == bytes(4096)
    assert mem.read_page(frame) == bytes(4096)
    frame2 = mem.alloc_frame()
    assert frame2 == frame
    assert mem.read_page(frame2) == bytes(4096)


def test_unwritten_memory_reads_zero_and_costs_nothing():
    mem = _memory()
    assert mem.read(0, 16) == bytes(16)
    assert mem.read(4000, 200) == bytes(200)  # spans frames 0 and 1
    assert mem.read_page(7) == bytes(4096)
    frame = mem.alloc_frame()
    assert mem.read_page(frame) == bytes(4096)
    assert not mem._pages
    mem.write(4096 * 3 + 10, b"x")
    assert sorted(mem._pages) == [3]


def test_read_write_roundtrip():
    cases = [
        (100, b"hello world"),
        (4090, bytes(range(1, 21))),  # spans frames 0 and 1
        (4096 - 1, b"ab"),  # one byte on each side of the boundary
        (1000, bytes(range(256)) * 36),  # 9216 bytes over frames 0-2
    ]
    for addr, payload in cases:
        mem = _memory()
        mem.write(addr, payload)
        assert mem.read(addr, len(payload)) == payload
        assert mem.read(addr - 1, 1) == b"\x00"
        assert mem.read(addr + len(payload), 1) == b"\x00"
        first, last = addr // 4096, (addr + len(payload) - 1) // 4096
        assert sorted(mem._pages) == list(range(first, last + 1))
        pages = b"".join(mem.read_page(f) for f in range(first, last + 1))
        start = addr - first * 4096
        assert pages[start : start + len(payload)] == payload


def test_out_of_range_access_rejected():
    mem = _memory(pages=1)
    with pytest.raises(ValueError):
        mem.read(4090, 10)
    with pytest.raises(ValueError):
        mem.write(-1, b"x")
    with pytest.raises(ValueError):
        mem.write(4096, b"x")
    with pytest.raises(ValueError):
        mem.read(0, -1)


def test_zero_length_access_at_end_of_memory():
    mem = _memory(pages=1)
    assert mem.read(4096, 0) == b""
    mem.write(4096, b"")
    mem.write(100, b"")
    assert not mem._pages


def test_write_page_requires_full_page():
    mem = _memory()
    with pytest.raises(ValueError):
        mem.write_page(0, b"short")
    with pytest.raises(ValueError, match="frame 8 out of range"):
        mem.write_page(8, bytes(4096))
    with pytest.raises(ValueError, match="frame 8 out of range"):
        mem.read_page(8)
    mem.write_page(2, b"\x07" * 4096)
    assert mem.read(2 * 4096 - 1, 3) == b"\x00\x07\x07"


def test_alloc_frames_bulk():
    mem = _memory(pages=4)
    frames = mem.alloc_frames(3)
    assert len(set(frames)) == 3
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frames(2)


def _traced_peak_bytes(build):
    gc.collect()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_machine_construction_memory_is_sparse():
    # Each node has 32 MiB of simulated memory; building a machine must not
    # pay for it up front.  Byte bounds only: host time is never gated.
    assert DEFAULT_PARAMS.memory_bytes == 32 * 2**20
    assert _traced_peak_bytes(lambda: Machine(num_nodes=16)) < 16 * 2**20
    assert _traced_peak_bytes(lambda: Machine(num_nodes=1024)) < 64 * 2**20


# ------------------------------------------------------------------- MMU --

def _space():
    return AddressSpace(_memory(pages=16))


def test_alloc_region_maps_pages():
    space = _space()
    base = space.alloc_region(3)
    assert base % space.page_size == 0
    vpage = base // space.page_size
    for i in range(3):
        assert space.is_mapped(vpage + i)


def test_translate_and_data_access():
    space = _space()
    base = space.alloc_region(2)
    space.write(base + 10, b"payload")
    assert space.read(base + 10, 7) == b"payload"


def test_cross_page_write_spans_frames():
    space = _space()
    base = space.alloc_region(2)
    blob = bytes(range(200)) * 30  # 6000 bytes, crosses the page boundary
    space.write(base, blob)
    assert space.read(base, len(blob)) == blob


def test_unmapped_access_faults():
    space = _space()
    with pytest.raises(PageFault) as info:
        space.read(0, 1)
    assert info.value.mapped is False


def test_write_to_readonly_page_faults():
    space = _space()
    base = space.alloc_region(1, protection=Protection.READ)
    assert space.read(base, 4) == bytes(4)
    with pytest.raises(PageFault) as info:
        space.write(base, b"x")
    assert info.value.mapped is True
    assert info.value.access == Protection.WRITE


def test_protection_none_blocks_reads():
    space = _space()
    base = space.alloc_region(1, protection=Protection.NONE)
    with pytest.raises(PageFault):
        space.read(base, 1)


def test_protect_transitions():
    space = _space()
    base = space.alloc_region(1)
    vpage = base // space.page_size
    space.protect(vpage, Protection.READ)
    with pytest.raises(PageFault):
        space.write(base, b"x")
    space.protect(vpage, Protection.WRITE)
    space.write(base, b"x")


def test_page_mode_set_and_query():
    space = _space()
    base = space.alloc_region(1)
    vpage = base // space.page_size
    assert space.entry(vpage).mode == PageMode.WRITE_BACK
    space.set_mode(vpage, PageMode.WRITE_THROUGH)
    assert space.entry(vpage).mode == PageMode.WRITE_THROUGH


def test_double_map_rejected():
    space = _space()
    frame = space.memory.alloc_frame()
    space.map_page(100, frame)
    with pytest.raises(ValueError):
        space.map_page(100, frame)


def test_unmap_page():
    space = _space()
    frame = space.memory.alloc_frame()
    space.map_page(100, frame)
    entry = space.unmap_page(100)
    assert entry.frame == frame
    with pytest.raises(ValueError):
        space.unmap_page(100)


# ------------------------------------------------------------------- bus --

def test_bus_transfer_time_scales_with_size():
    sim = Simulator()
    bus = MemoryBus(sim, DEFAULT_PARAMS)
    small = bus.transfer_time(4)
    large = bus.transfer_time(4096)
    assert large > small
    assert small == pytest.approx(
        DEFAULT_PARAMS.bus_transaction_us + 4 / DEFAULT_PARAMS.memory_bus_bandwidth
    )


def test_bus_bandwidth_cap():
    sim = Simulator()
    bus = MemoryBus(sim, DEFAULT_PARAMS)
    eisa = bus.transfer_time(1024, bandwidth=DEFAULT_PARAMS.eisa_bandwidth)
    full = bus.transfer_time(1024)
    assert eisa > full


def test_bus_serializes_masters():
    sim = Simulator()
    bus = MemoryBus(sim, DEFAULT_PARAMS)
    finish = []

    def master(tag):
        yield from bus.transfer(2400)  # 10us + transaction
        finish.append((tag, sim.now))

    sim.spawn(master("a"))
    sim.spawn(master("b"))
    sim.run()
    assert finish[0][0] == "a"
    # The second master finishes a full transfer later than the first.
    assert finish[1][1] == pytest.approx(2 * finish[0][1])


def test_bus_transaction_count_for_fragments():
    sim = Simulator()
    bus = MemoryBus(sim, DEFAULT_PARAMS)
    one = bus.transfer_time(1024, transactions=1)
    many = bus.transfer_time(1024, transactions=256)
    assert many - one == pytest.approx(255 * DEFAULT_PARAMS.bus_transaction_us)


# ------------------------------------------------------------------- CPU --

def test_cpu_compute_charges_cycles():
    sim = Simulator()
    stats = StatsRegistry()
    cpu = CPU(sim, DEFAULT_PARAMS, 0, stats)

    def proc():
        yield from cpu.compute(60.0)  # 60 cycles at 60 MHz = 1 us
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(1.0)
    assert stats.breakdown(0).computation == pytest.approx(1.0)


def test_cpu_interrupt_stealing_extends_next_busy():
    sim = Simulator()
    stats = StatsRegistry()
    cpu = CPU(sim, DEFAULT_PARAMS, 0, stats)
    cpu.steal(5.0)

    def proc():
        yield from cpu.busy(2.0)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(7.0)
    assert stats.breakdown(0).overhead == pytest.approx(5.0)
    assert cpu.pending_steal == 0.0


def test_cpu_busy_category_routing():
    sim = Simulator()
    stats = StatsRegistry()
    cpu = CPU(sim, DEFAULT_PARAMS, 3, stats)

    def proc():
        yield from cpu.busy(4.0, "barrier")

    sim.run_process(proc())
    assert stats.breakdown(3).barrier == pytest.approx(4.0)


# ---------------------------------------------------------------- params --

def test_params_derived_values():
    p = MachineParams()
    assert p.cycle_us == pytest.approx(1 / 60)
    assert p.words_per_page == 1024
    assert p.fifo_threshold_bytes == int(32 * 1024 * 0.75)
    assert p.cycles(120) == pytest.approx(2.0)


def test_params_with_overrides_is_a_copy():
    base = MachineParams()
    tweaked = base.with_overrides(page_size=1024)
    assert tweaked.page_size == 1024
    assert base.page_size == 4096


def test_params_describe():
    desc = DEFAULT_PARAMS.describe()
    assert desc["cpu_mhz"] == 60.0
    assert desc["mesh"] == "4x4"

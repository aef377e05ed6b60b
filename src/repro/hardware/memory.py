"""Physical memory: a sparse store of page frames.

Every node owns one ``PhysicalMemory``.  All real data handled by the
communication stack — receive buffers, SVM pages, socket streams — lives in
these frames, so transfers move *actual bytes* end to end and the test
suite can check data integrity, not just timing.

Only frames that have been written cost host memory: a frame's page is a
``bytearray`` created on its first write, and a frame never written reads
as zeros.  Building a node therefore costs nothing per byte of simulated
memory, and a run pays only for the pages it touches.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import DefaultDict, List, Set

__all__ = ["PhysicalMemory", "OutOfMemoryError"]


class OutOfMemoryError(MemoryError):
    """No free page frames remain on the node."""


class PhysicalMemory:
    """Byte-addressable memory with a simple page-frame allocator.

    Frames are handed out most recently freed first, then never-used
    frames in ascending order.  Every committed BENCH baseline depends on
    that order.
    """

    def __init__(self, size_bytes: int, page_size: int):
        if size_bytes % page_size != 0:
            raise ValueError("memory size must be a whole number of pages")
        self.page_size = page_size
        self.size = size_bytes
        self.num_frames = size_bytes // page_size
        # Writers index ``_pages`` (the factory materialises a zeroed page);
        # readers only ever use ``.get`` so a read never materialises one.
        self._pages: DefaultDict[int, bytearray] = defaultdict(
            partial(bytearray, page_size)
        )
        self._freed: List[int] = []
        self._next_fresh = 0
        self._allocated: Set[int] = set()

    # -- frame allocation -------------------------------------------------

    @property
    def free_frames(self) -> int:
        return len(self._freed) + self.num_frames - self._next_fresh

    def alloc_frame(self) -> int:
        """Allocate one page frame; returns the frame number."""
        if self._freed:
            frame = self._freed.pop()
        elif self._next_fresh < self.num_frames:
            frame = self._next_fresh
            self._next_fresh += 1
        else:
            raise OutOfMemoryError(
                f"out of physical memory ({self.num_frames} frames in use)"
            )
        self._allocated.add(frame)
        return frame

    def alloc_frames(self, count: int) -> List[int]:
        if count > self.free_frames:
            raise OutOfMemoryError(
                f"requested {count} frames, only {self.free_frames} free"
            )
        return [self.alloc_frame() for _ in range(count)]

    def free_frame(self, frame: int) -> None:
        self.frame_base(frame)
        if frame not in self._allocated:
            raise ValueError(f"double free of frame {frame}")
        self._allocated.remove(frame)
        # Drop the page so stale data never leaks between owners.
        self._pages.pop(frame, None)
        self._freed.append(frame)

    def is_allocated(self, frame: int) -> bool:
        self.frame_base(frame)
        return frame in self._allocated

    # -- byte access --------------------------------------------------------

    def frame_base(self, frame: int) -> int:
        if not 0 <= frame < self.num_frames:
            raise ValueError(f"frame {frame} out of range")
        return frame * self.page_size

    def read(self, addr: int, length: int) -> bytes:
        self._check_range(addr, length)
        page_size = self.page_size
        offset = addr % page_size
        end = offset + length
        if end <= page_size:
            page = self._pages.get(addr // page_size)
            if page is None:
                return bytes(length)
            return bytes(page[offset:end])
        frame = addr // page_size
        out = bytearray(length)
        pos = 0
        while pos < length:
            take = min(page_size - offset, length - pos)
            page = self._pages.get(frame)
            if page is not None:
                out[pos : pos + take] = page[offset : offset + take]
            pos += take
            frame += 1
            offset = 0
        return bytes(out)

    def write(self, addr: int, payload: bytes) -> None:
        length = len(payload)
        self._check_range(addr, length)
        page_size = self.page_size
        offset = addr % page_size
        end = offset + length
        if end <= page_size:
            if length:
                self._pages[addr // page_size][offset:end] = payload
            return
        frame = addr // page_size
        pos = 0
        while pos < length:
            take = min(page_size - offset, length - pos)
            self._pages[frame][offset : offset + take] = payload[pos : pos + take]
            pos += take
            frame += 1
            offset = 0

    def read_page(self, frame: int) -> bytes:
        self.frame_base(frame)
        page = self._pages.get(frame)
        return bytes(self.page_size) if page is None else bytes(page)

    def write_page(self, frame: int, payload: bytes) -> None:
        if len(payload) != self.page_size:
            raise ValueError("write_page payload must be exactly one page")
        self.frame_base(frame)
        self._pages[frame] = bytearray(payload)

    def _check_range(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise ValueError(
                f"physical access [{addr}, {addr + length}) outside memory "
                f"of {self.size} bytes"
            )

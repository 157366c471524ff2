"""The VIC's on-board "DV memory" (32 MB of QDR SRAM).

Word-addressable (64-bit words), readable and writable from both the host
(across PCIe) and the network.  Slots hold a single word and only the
last-written value can be read (paper §II) — there is no queueing at a
memory slot, which is why multiple writers to one address must coordinate.

Backing storage is chunked and committed on first touch, so a VIC holds
host RAM only for the words its program uses: GUPS, for one, uses just
the P count slots ``[0, P)`` of its termination exchange.  A chunk is
4 Ki words (32 KiB), below glibc's 128 KiB default mmap threshold, so it
is always a small heap block and costs the same fresh or recycled.
Larger chunks did not: 512 KiB chunks came from ``mmap`` (only the
touched page resident) until the first were freed, which raised glibc's
dynamic threshold above them; from then on every chunk came from the
heap and ``calloc`` zeroed, and so committed, all of it.  A 128-node
GUPS op then held 64 MiB for 1 KiB of counts: the process held 69 MB
after the first op and 133 MB after the fifth, against 72-73 MB
throughout with 32 KiB chunks.

One flat ``np.zeros(n_words)`` per VIC would be lazily committed by the
kernel too, but it reserves 32 MB of address space per VIC (32 GB at
1024 nodes) and ``tracemalloc`` counts all of it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

_CHUNK_WORDS = 1 << 12  # 4 Ki words (32 KiB) per chunk


def _runs(addrs: np.ndarray) -> Tuple[np.ndarray, List[Tuple[int, int, int]]]:
    """Sort flat ``addrs`` by chunk in one stable sort (duplicates keep
    their input order) and cut the sorted order into one run per chunk:
    returns ``order`` and ``(chunk index, start, stop)`` into it."""
    cids = addrs // _CHUNK_WORDS
    order = np.argsort(cids, kind="stable")
    cids = cids[order]
    cuts = (np.flatnonzero(cids[1:] != cids[:-1]) + 1).tolist()
    starts = [0, *cuts]
    stops = [*cuts, order.size]
    return order, [(int(cids[s]), s, e) for s, e in zip(starts, stops)]


class DVMemory:
    """Sparse, chunked 64-bit-word memory.

    All values are ``numpy.uint64``.  Vectorised gather/scatter mirrors
    how the benchmarks use the DV memory (bulk pre-caching of headers,
    payload staging, address-map lookups).
    """

    def __init__(self, n_words: int) -> None:
        if n_words < 1:
            raise ValueError("n_words must be positive")
        self.n_words = int(n_words)
        self._chunks: Dict[int, np.ndarray] = {}

    # -- storage and bounds --------------------------------------------------
    def _chunk(self, cidx: int) -> np.ndarray:
        """Chunk ``cidx``, committed (zero-filled) on first touch."""
        chunk = self._chunks.get(cidx)
        if chunk is None:
            chunk = self._chunks[cidx] = np.zeros(_CHUNK_WORDS, np.uint64)
        return chunk

    def _out_of_range(self, lo: int, hi: int) -> IndexError:
        return IndexError(
            f"DV memory address out of range: [{lo}, {hi}] "
            f"vs capacity {self.n_words} words")

    def _bounds(self, addrs: np.ndarray) -> Tuple[int, int]:
        """Lowest and highest of the non-empty ``addrs``, checked."""
        lo, hi = int(addrs.min()), int(addrs.max())
        if lo < 0 or hi >= self.n_words:
            raise self._out_of_range(lo, hi)
        return lo, hi

    # -- scalar ops ----------------------------------------------------------
    def read_word(self, addr: int) -> int:
        """Read one 64-bit word."""
        if not 0 <= addr < self.n_words:
            raise IndexError(f"address {addr} out of range")
        chunk = self._chunks.get(addr // _CHUNK_WORDS)
        if chunk is None:
            return 0
        return int(chunk[addr % _CHUNK_WORDS])

    def write_word(self, addr: int, value: int) -> None:
        """Write one 64-bit word (overwrites; slots hold one word)."""
        if not 0 <= addr < self.n_words:
            raise IndexError(f"address {addr} out of range")
        chunk = self._chunk(addr // _CHUNK_WORDS)
        chunk[addr % _CHUNK_WORDS] = np.uint64(value & (2**64 - 1))

    # -- vector ops ----------------------------------------------------------
    def scatter(self, addrs: np.ndarray, values: np.ndarray) -> None:
        """Write ``values[i]`` to ``addrs[i]``; later entries win ties
        (matching last-writer semantics).  A one-word write may pass a
        Python ``int`` address and value (a scalar :class:`MemWrite
        <repro.dv.vic.MemWrite>`)."""
        if addrs.__class__ is int and values.__class__ is int:
            if not 0 <= addrs < self.n_words:
                raise self._out_of_range(addrs, addrs)
            self._chunk(addrs // _CHUNK_WORDS)[addrs % _CHUNK_WORDS] = values
            return
        addrs = np.asarray(addrs, dtype=np.int64)
        values = np.asarray(values, dtype=np.uint64)
        if addrs.shape != values.shape:
            raise ValueError("addrs and values must have identical shapes")
        if addrs.size == 1:
            # one word (count exchanges, query replies): skip the
            # reductions and fancy indexing
            addr = addrs.item()
            if not 0 <= addr < self.n_words:
                raise self._out_of_range(addr, addr)
            chunk = self._chunk(addr // _CHUNK_WORDS)
            chunk[addr % _CHUNK_WORDS] = values.item()
            return
        if addrs.size == 0:
            return
        addrs, values = addrs.ravel(), values.ravel()
        lo, hi = self._bounds(addrs)
        if lo // _CHUNK_WORDS == hi // _CHUNK_WORDS:
            # common case: the whole batch lands in one chunk (fancy
            # assignment already gives later-entry-wins on duplicates)
            self._chunk(lo // _CHUNK_WORDS)[addrs % _CHUNK_WORDS] = values
            return
        order, runs = _runs(addrs)
        offs = addrs[order] % _CHUNK_WORDS
        for cidx, s, e in runs:
            self._chunk(cidx)[offs[s:e]] = values[order[s:e]]

    def gather(self, addrs: np.ndarray) -> np.ndarray:
        """Read ``addrs`` into a fresh array (zeros where untouched)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        flat = addrs.ravel()
        out = np.zeros(flat.size, np.uint64)
        if flat.size:
            self._bounds(flat)
            order, runs = _runs(flat)
            offs = flat[order] % _CHUNK_WORDS
            for cidx, s, e in runs:
                chunk = self._chunks.get(cidx)
                if chunk is not None:
                    out[order[s:e]] = chunk[offs[s:e]]
        return out.reshape(addrs.shape)

    def _spans(self, start: int, n: int):
        """Bounds-check ``[start, start + n)`` and split it into
        ``(chunk index, offset in chunk, offset in range, length)``."""
        end = start + n
        if start < 0 or end > self.n_words:
            raise self._out_of_range(start, end - 1)
        pos = start
        while pos < end:
            cidx, off = divmod(pos, _CHUNK_WORDS)
            take = min(_CHUNK_WORDS - off, end - pos)
            yield cidx, off, pos - start, take
            pos += take

    def write_range(self, start: int, values: np.ndarray) -> None:
        """Contiguous block write starting at ``start``."""
        values = np.asarray(values, dtype=np.uint64)
        if values.ndim != 1:
            raise ValueError("addrs and values must have identical shapes")
        if values.size == 0:
            return
        for cidx, off, at, take in self._spans(int(start), values.size):
            self._chunk(cidx)[off:off + take] = values[at:at + take]

    def read_range(self, start: int, n: int) -> np.ndarray:
        """Contiguous block read of ``n`` words (zeros where untouched)."""
        out = np.zeros(max(int(n), 0), np.uint64)
        if out.size:
            for cidx, off, at, take in self._spans(int(start), out.size):
                chunk = self._chunks.get(cidx)
                if chunk is not None:
                    out[at:at + take] = chunk[off:off + take]
        return out

    @property
    def touched_bytes(self) -> int:
        """Host RAM actually committed (diagnostics)."""
        return len(self._chunks) * _CHUNK_WORDS * 8

"""MPI collective algorithms over point-to-point messaging.

The algorithms mirror what OpenMPI 1.8 uses at these scales:

* ``barrier`` — Bruck dissemination (ceil(log2 P) rounds);
* ``bcast`` / ``reduce`` — binomial trees;
* ``allreduce`` — reduce + bcast (the robust small-cluster choice);
* ``gather`` / ``scatter`` — linear at the root;
* ``allgather`` — ring;
* ``alltoall`` — pairwise exchange.

Every round charges the per-stage software overhead from
:class:`~repro.ib.config.IBConfig`, and all traffic rides the contended
fabric, so collective latency inherits the fat-tree knee (Fig. 4).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.ib.mpi import MPIEndpoint


def _stage(ep: "MPIEndpoint") -> Generator:
    yield ep.engine.timeout(ep.config.collective_stage_overhead_s)


def barrier(ep: "MPIEndpoint") -> Generator:
    """Bruck dissemination barrier."""
    p, rank = ep.size, ep.rank
    if p == 1:
        yield from _stage(ep)
        return
    tag = ep._ctag()
    k = 1
    while k < p:
        dest = (rank + k) % p
        src = (rank - k) % p
        yield from _stage(ep)
        yield from ep.sendrecv(dest, 0, src, sendtag=tag, recvtag=tag,
                               nbytes=8)
        k *= 2


def bcast(ep: "MPIEndpoint", data: Any, root: int = 0) -> Generator:
    """Binomial-tree broadcast; returns the broadcast value on all ranks."""
    p = ep.size
    tag = ep._ctag()
    if p == 1:
        return data
    vrank = (ep.rank - root) % p
    # climb: receive from the parent at this rank's lowest set bit
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank - mask) + root) % p
            yield from _stage(ep)
            data, _, _ = yield from ep.recv(parent, tag=tag)
            break
        mask <<= 1
    # descend: forward to children at every bit below the receive bit
    mask >>= 1
    while mask >= 1:
        child_v = vrank + mask
        if child_v < p:
            child = (child_v + root) % p
            yield from _stage(ep)
            yield from ep.send(child, data, tag=tag)
        mask >>= 1
    return data


def reduce(ep: "MPIEndpoint", data: Any, op: Callable,
           root: int = 0) -> Generator:
    """Binomial-tree reduction; the result is returned at ``root`` (other
    ranks get ``None``)."""
    p = ep.size
    tag = ep._ctag()
    if p == 1:
        return data
    vrank = (ep.rank - root) % p
    acc = data
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % p
            yield from _stage(ep)
            yield from ep.send(parent, acc, tag=tag)
            acc = None
            break
        child_v = vrank | mask
        if child_v < p:
            child = (child_v + root) % p
            yield from _stage(ep)
            other, _, _ = yield from ep.recv(child, tag=tag)
            acc = op(acc, other)
        mask <<= 1
    return acc if ep.rank == root else None


def allreduce(ep: "MPIEndpoint", data: Any, op: Callable) -> Generator:
    """Reduce-to-root followed by broadcast."""
    result = yield from reduce(ep, data, op, root=0)
    result = yield from bcast(ep, result, root=0)
    return result


def gather(ep: "MPIEndpoint", data: Any, root: int = 0) -> Generator:
    """Linear gather; the root receives a list indexed by rank."""
    p = ep.size
    tag = ep._ctag()
    if ep.rank == root:
        out: List[Any] = [None] * p
        out[root] = data
        for _ in range(p - 1):
            yield from _stage(ep)
            payload, src, _ = yield from ep.recv(tag=tag)
            out[src] = payload
        return out
    yield from _stage(ep)
    yield from ep.send(root, data, tag=tag)
    return None


def allgather(ep: "MPIEndpoint", data: Any) -> Generator:
    """Allgather: recursive doubling for power-of-two sizes (log P
    rounds of doubling blocks), ring otherwise."""
    p, rank = ep.size, ep.rank
    out: List[Any] = [None] * p
    out[rank] = data
    if p == 1:
        return out
    tag = ep._ctag()
    if p & (p - 1) == 0:
        have = {rank: data}
        mask = 1
        while mask < p:
            partner = rank ^ mask
            yield from _stage(ep)
            got, _, _ = yield from ep.sendrecv(
                partner, dict(have), partner, sendtag=tag, recvtag=tag)
            have.update(got)
            mask <<= 1
        for i, v in have.items():
            out[i] = v
        return out
    right = (rank + 1) % p
    left = (rank - 1) % p
    block = data
    src_idx = rank
    for _ in range(p - 1):
        yield from _stage(ep)
        block_in, _, _ = yield from ep.sendrecv(
            right, (src_idx, block), left, sendtag=tag, recvtag=tag)
        src_idx, block = block_in
        out[src_idx] = block
    return out


def scatter(ep: "MPIEndpoint", chunks: Optional[List[Any]],
            root: int = 0) -> Generator:
    """Linear scatter from the root; returns this rank's chunk."""
    p = ep.size
    tag = ep._ctag()
    if ep.rank == root:
        if chunks is None or len(chunks) != p:
            raise ValueError("root must pass one chunk per rank")
        for r in range(p):
            if r != root:
                yield from _stage(ep)
                yield from ep.send(r, chunks[r], tag=tag)
        return chunks[root]
    yield from _stage(ep)
    data, _, _ = yield from ep.recv(root, tag=tag)
    return data


def alltoall(ep: "MPIEndpoint", chunks: List[Any]) -> Generator:
    """Non-blocking linear all-to-all; returns received chunks by rank.

    All P-1 receives and P-1 sends are posted up front and completed
    together (the OpenMPI "basic linear" algorithm): per-message software
    overheads still serialise on the host CPU, but wire transfers and
    rendezvous handshakes overlap.
    """
    p, rank = ep.size, ep.rank
    if len(chunks) != p:
        raise ValueError("need one chunk per rank")
    out: List[Any] = [None] * p
    out[rank] = chunks[rank]
    tag = ep._ctag()
    yield from _stage(ep)
    order = [(rank + i) % p for i in range(1, p)]
    recvs = {src: ep.irecv(src, tag=tag) for src in order}
    sends = [ep.isend(dst, chunks[dst], tag=tag) for dst in order]
    if order:
        yield ep.waitall(list(recvs.values()) + sends)
    for src, req in recvs.items():
        out[src] = req.value[0]
    return out

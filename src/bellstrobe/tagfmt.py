"""Binary time-tag file format: fixed-width little-endian records.

Layout (all little-endian), documented with a hex dump in
docs/tagfile-format.md:

    header, 40 bytes:
        offset  0  magic            8 bytes  b"BSTROBE1"
        offset  8  version          u16      currently 1
        offset 10  station_id       u8       0 = A, 1 = B
        offset 11  pad              1 zero byte
        offset 12  clock_resolution u32      picoseconds per tick (1)
        offset 16  record_count     u64
        offset 24  reserved         16 zero bytes
    record, 16 bytes each:
        offset  0  channel          u8       1 = det+, 2 = det-, 3 = trigger
        offset  1  pad              7 zero bytes
        offset  8  timestamp        u64      picoseconds, local clock

Records are sorted by timestamp, ties broken by ascending channel; duplicate
(timestamp, channel) pairs are invalid. File size is exactly 40 + 16*N bytes.

The writer runs on the calling thread. The reader reads, checks and unpacks
its chunks of CHUNK_RECORDS records in two halves (`worker.map_chunks`): the
first half of the file on the calling thread, the later half on the
process's one persistent worker thread, each through its own buffers,
allocated on the calling thread. A chunk's work depends only on the file's
bytes, and it writes only its own slice of the output arrays, so the arrays
cannot depend on which thread finished first; the error raised is the one of
the first chunk in record order that holds one, as in a serial read. The
later half is read to its end or its own first error even when the first
half has failed, so the later half of a file corrupt early is still read
before the error is raised.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import worker

MAGIC = b"BSTROBE1"
VERSION = 1
HEADER_STRUCT = struct.Struct("<8sHBxIQ16s")
HEADER_SIZE = HEADER_STRUCT.size
CHUNK_RECORDS = 1 << 16  # records read, checked or written at a time (1 MiB)

# numpy view of one record; "pad" must stay zeroed.
RECORD_DTYPE = np.dtype([("channel", "<u1"), ("pad", "V7"), ("timestamp", "<u8")])
RECORD_SIZE = RECORD_DTYPE.itemsize

assert HEADER_SIZE == 40 and RECORD_SIZE == 16


class TagFormatError(ValueError):
    """Malformed tag file or invalid record sequence."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        if index is not None:
            message = f"{message} (record index {index})"
        super().__init__(message)


@dataclass(frozen=True)
class TagFileHeader:
    station_id: int
    record_count: int

    def __post_init__(self) -> None:
        if not 0 <= self.station_id <= 255:
            raise ValueError(f"station_id out of range: {self.station_id}")
        if self.record_count < 0:
            raise ValueError("record_count must be >= 0")

    def pack(self) -> bytes:
        return HEADER_STRUCT.pack(
            MAGIC,
            VERSION,
            self.station_id,
            1,  # clock resolution: picoseconds per tick
            self.record_count,
            b"\x00" * 16,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "TagFileHeader":
        if len(raw) < HEADER_SIZE:
            raise TagFormatError(f"file shorter than the {HEADER_SIZE}-byte header")
        magic, version, station_id, resolution, count, _reserved = HEADER_STRUCT.unpack(
            raw[:HEADER_SIZE]
        )
        if magic != MAGIC:
            raise TagFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise TagFormatError(f"unsupported version {version}, expected {VERSION}")
        if resolution != 1:
            raise TagFormatError(f"clock resolution {resolution} ps per tick, expected 1")
        return cls(station_id=station_id, record_count=count)


def _check_records(channels: np.ndarray, timestamps: np.ndarray, first: int = 0) -> None:
    """Channel range, timestamps in 0..2**63 - 1 ps, and the (timestamp,
    channel) sort invariant of records `first`, `first` + 1, ...; the
    arrays are checked as given, so a channel of 257 or a uint64 timestamp
    of 2**63 fails here instead of being stored as another value."""
    bad = (channels < 1) | (channels > 3)
    if bad.any():
        i = int(np.argmax(bad))
        raise TagFormatError(f"channel {channels[i]} out of range", index=first + i)
    # A uint64 from 2**63 on is negative as int64. Until the order breaks,
    # every record is at or past the first, so the first negative timestamp
    # is the first record or the one that breaks the order.
    unsigned = timestamps.dtype == np.uint64
    times = timestamps.view(np.int64) if unsigned else timestamps.astype(np.int64, copy=False)
    t0, t1 = times[:-1], times[1:]
    bad = (t1 < t0) | ((t1 == t0) & (channels[1:] <= channels[:-1]))
    broken = bool(bad.any())
    i = int(np.argmax(bad)) + 1 if broken and times[0] >= 0 else 0
    if times.size and times[i] < 0:
        raise TagFormatError(
            f"timestamp {timestamps[i]} outside 0..2**63 - 1 ps", index=first + i
        )
    if broken:
        raise TagFormatError(
            "records not sorted by (timestamp, channel): monotonicity violation",
            index=first + i,
        )


def write_tags(
    header: TagFileHeader,
    records: tuple[np.ndarray, np.ndarray],
    sink: BinaryIO | str | Path,
) -> int:
    """Write a tag file; returns the byte count (40 + 16*N).

    `records` is a (channels, timestamps) pair of integer arrays, timestamps
    in picoseconds. Records must already satisfy the sort invariant, the
    channel range and 0 <= timestamp < 2**63; violations raise TagFormatError
    with the record index, and nothing is written. Every chunk is checked
    before the first byte goes out, then the records are packed and written
    one CHUNK_RECORDS buffer at a time.
    """
    channels, timestamps = np.asarray(records[0]), np.asarray(records[1])
    if channels.shape != timestamps.shape:
        raise ValueError("channels and timestamps must have equal length")
    n = channels.size
    for start in range(0, n, CHUNK_RECORDS):
        first = max(start - 1, 0)  # overlap the chunk before by one record
        stop = min(start + CHUNK_RECORDS, n)
        _check_records(channels[first:stop], timestamps[first:stop], first)

    buffer = np.zeros(min(n, CHUNK_RECORDS), RECORD_DTYPE)  # pad bytes stay zero
    path = isinstance(sink, (str, Path))
    with open(sink, "wb") if path else contextlib.nullcontext(sink) as fh:
        fh.write(replace(header, record_count=n).pack())
        for start in range(0, n, CHUNK_RECORDS):
            chunk = buffer[: min(CHUNK_RECORDS, n - start)]
            chunk["channel"] = channels[start : start + chunk.size]
            chunk["timestamp"] = timestamps[start : start + chunk.size]
            fh.write(chunk)
    return HEADER_SIZE + RECORD_SIZE * n


def read_tag_arrays(
    source: bytes | str | Path,
) -> tuple[TagFileHeader, np.ndarray, np.ndarray]:
    """Load and validate a whole tag file, or its bytes, as (header,
    channels, timestamps_ps).

    Every violation of docs/tagfile-format.md raises TagFormatError, with the
    offending record index where the format defines one. Timestamps come back
    as int64 picoseconds; one of 2**63 or more is refused, not wrapped.

    Beside the output arrays, each of the two threads has one buffer of a
    chunk plus one record, raw and unpacked, all allocated here. Both read
    the one file position under a lock. Each chunk is read with the last
    record of the chunk before it and checked with it, so an order violation
    across a chunk boundary is caught and reported with its index in the file.
    """
    path = isinstance(source, (str, Path))
    with open(source, "rb") if path else io.BytesIO(source) as fh:
        lock = threading.Lock()  # one file position for both threads

        def read_at(buffer: np.ndarray, offset: int) -> int:
            with lock:
                fh.seek(offset)
                return fh.readinto(buffer)

        size = os.fstat(fh.fileno()).st_size if path else len(source)
        head = np.zeros(HEADER_SIZE, np.uint8)
        header = TagFileHeader.unpack(head[: read_at(head, 0)].tobytes())
        n, tail = divmod(size - HEADER_SIZE, RECORD_SIZE)
        if tail:
            raise TagFormatError(f"truncated record: trailing {tail} bytes", index=n)
        if n != header.record_count:
            raise TagFormatError(
                f"record_count mismatch: header says {header.record_count}, "
                f"file holds {n}"
            )
        channels = np.empty(n, np.uint8)
        timestamps = np.empty(n, np.int64)

        def read_chunk(start: int, stop: int, buffers: tuple) -> None:
            first = max(start - 1, 0)  # overlap the chunk before by one record
            chunk, ch, ts = (b[: stop - first] for b in buffers)
            if read_at(chunk.view(np.uint8), HEADER_SIZE + RECORD_SIZE * first) != chunk.nbytes:
                raise TagFormatError("file shrank while being read", index=start)
            ch[...] = chunk["channel"]
            ts[...] = chunk["timestamp"]
            _check_records(ch, ts, first)
            channels[start:stop] = ch[start - first :]
            timestamps[start:stop] = ts[start - first :].view(np.int64)

        m = min(n, CHUNK_RECORDS) + 1
        buffers = [
            (np.empty(m, RECORD_DTYPE), np.empty(m, np.uint8), np.empty(m, np.uint64))
            for _ in range(2)
        ]
        worker.map_chunks(read_chunk, n, CHUNK_RECORDS, buffers)
    return header, channels, timestamps

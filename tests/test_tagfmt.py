import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellstrobe.tagfmt import (
    CHUNK_RECORDS,
    HEADER_SIZE,
    RECORD_SIZE,
    TagFileHeader,
    TagFormatError,
    read_tag_arrays,
    write_tags,
)


def make_records(rng: np.random.Generator, n: int):
    """Random valid record arrays: sorted, channels 1-3, no (t, ch) duplicates."""
    times = np.cumsum(rng.integers(0, 1_000_000, n).astype(np.uint64))
    channels = rng.integers(1, 4, n).astype(np.uint8)
    key = times * np.uint64(4) + channels
    key = np.unique(key)
    return (key & np.uint64(3)).astype(np.uint8), (key >> np.uint64(2))


def arrays(*rows):
    """(channel, timestamp) rows as the (channels, timestamps) pair write_tags takes."""
    return (
        np.array([r[0] for r in rows], np.uint8),
        np.array([r[1] for r in rows], np.uint64),
    )


def tag_bytes(*rows):
    buf = io.BytesIO()
    write_tags(TagFileHeader(station_id=0, record_count=len(rows)), arrays(*rows), buf)
    return buf.getvalue()


def test_empty_stream_is_header_only():
    buf = io.BytesIO()
    n = write_tags(TagFileHeader(station_id=0, record_count=0), arrays(), buf)
    assert n == 40 == HEADER_SIZE
    assert len(buf.getvalue()) == 40


def test_three_records_are_88_bytes():
    buf = io.BytesIO()
    records = arrays((1, 5), (3, 5), (2, 10))
    n = write_tags(TagFileHeader(station_id=1, record_count=3), records, buf)
    assert n == 88 == HEADER_SIZE + 3 * RECORD_SIZE


def test_roundtrip_small():
    buf = io.BytesIO()
    records = arrays((1, 5), (3, 5), (2, 10))
    write_tags(TagFileHeader(station_id=1, record_count=3), records, buf)
    header, channels, timestamps = read_tag_arrays(buf.getvalue())
    assert header.station_id == 1 and header.record_count == 3
    assert channels.tolist() == [1, 3, 2]
    assert timestamps.tolist() == [5, 5, 10]


def test_unsorted_input_rejected():
    with pytest.raises(TagFormatError, match="not sorted"):
        write_tags(TagFileHeader(station_id=0, record_count=2),
                   arrays((1, 10), (1, 5)), io.BytesIO())


def test_duplicate_timestamp_channel_rejected():
    with pytest.raises(TagFormatError, match="not sorted"):
        write_tags(TagFileHeader(station_id=0, record_count=2),
                   arrays((2, 7), (2, 7)), io.BytesIO())


def test_channel_out_of_range_rejected():
    with pytest.raises(TagFormatError, match="channel"):
        write_tags(TagFileHeader(station_id=0, record_count=1),
                   arrays((4, 1)), io.BytesIO())


def test_bad_magic():
    corrupted = bytearray(tag_bytes())
    corrupted[0] ^= 0xFF
    with pytest.raises(TagFormatError, match="magic"):
        read_tag_arrays(bytes(corrupted))


def test_truncated_record():
    with pytest.raises(TagFormatError, match="truncated") as exc:
        read_tag_arrays(tag_bytes((1, 5), (2, 9))[:-3])
    assert exc.value.index == 1


def test_monotonicity_violation_reports_index():
    # hand-build a file with out-of-order records
    raw = bytearray(tag_bytes((1, 5), (1, 10)))
    # swap the two 16-byte records
    raw[40:56], raw[56:72] = raw[56:72], raw[40:56]
    with pytest.raises(TagFormatError, match="monotonicity") as exc:
        read_tag_arrays(bytes(raw))
    assert exc.value.index == 1


def test_record_count_mismatch():
    raw = tag_bytes((1, 5), (1, 10)) + bytes(16)  # extra zero record
    with pytest.raises(TagFormatError, match="record_count"):
        read_tag_arrays(raw)


def _swap_records(raw, i, j):
    a, b = HEADER_SIZE + RECORD_SIZE * i, HEADER_SIZE + RECORD_SIZE * j
    raw[a:a + RECORD_SIZE], raw[b:b + RECORD_SIZE] = (
        raw[b:b + RECORD_SIZE], raw[a:a + RECORD_SIZE]
    )


def _copy_record(raw, src, dst):
    a, b = HEADER_SIZE + RECORD_SIZE * src, HEADER_SIZE + RECORD_SIZE * dst
    raw[b:b + RECORD_SIZE] = raw[a:a + RECORD_SIZE]


def _corrupt_magic(raw):
    raw[0] ^= 0xFF
    return raw


def _corrupt_version(raw):
    raw[8] = 2
    return raw


def _corrupt_resolution(raw):
    raw[12] = 10  # 10 ps per tick: the timestamps would not be picoseconds
    return raw


def _corrupt_channel(raw):
    raw[HEADER_SIZE + 2 * RECORD_SIZE] = 4
    return raw


def _corrupt_channel_zero(raw):
    raw[HEADER_SIZE + 1 * RECORD_SIZE] = 0
    return raw


def _corrupt_order(raw):
    _swap_records(raw, 2, 3)
    return raw


def _corrupt_count(raw):
    raw[16] += 1
    return raw


# One case per row of the error contract in docs/tagfile-format.md:
# (corruption, message fragment, promised record index or None).
CONTRACT = {
    "magic": (_corrupt_magic, "bad magic", None),
    "version": (_corrupt_version, "unsupported version", None),
    "resolution": (_corrupt_resolution, "clock resolution 10", None),
    "truncated": (lambda raw: raw[:-5], "truncated record", 3),
    "channel": (_corrupt_channel, "channel 4 out of range", 2),
    "channel0": (_corrupt_channel_zero, "channel 0 out of range", 1),
    "order": (_corrupt_order, "monotonicity violation", 3),
    "count": (_corrupt_count, "record_count mismatch", None),
}


@pytest.mark.parametrize("kind", ["path", "bytes"])
@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_reader_error_contract(case, kind, tmp_path):
    corrupt, message, index = CONTRACT[case]
    raw = bytes(corrupt(bytearray(tag_bytes((3, 0), (1, 5), (2, 9), (3, 20)))))
    source = raw
    if kind == "path":
        source = tmp_path / "bad.tags"
        source.write_bytes(raw)
    with pytest.raises(TagFormatError, match=message) as exc:
        read_tag_arrays(source)
    assert exc.value.index == index


def test_file_roundtrip_via_path(tmp_path):
    rng = np.random.default_rng(6)
    channels, times = make_records(rng, 1000)
    path = tmp_path / "station.tags"
    write_tags(TagFileHeader(station_id=1, record_count=len(channels)),
               (channels, times), path)
    header, ch2, t2 = read_tag_arrays(path)
    assert header.station_id == 1
    assert np.array_equal(ch2, channels)
    assert np.array_equal(t2.astype(np.uint64), times)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_roundtrip_property(data):
    n = data.draw(st.integers(0, 400))
    deltas = data.draw(
        st.lists(st.integers(0, 2**40), min_size=n, max_size=n)
    )
    chans = data.draw(st.lists(st.sampled_from([1, 2, 3]), min_size=n, max_size=n))
    times = np.cumsum(np.asarray(deltas, dtype=np.uint64))
    channels = np.asarray(chans, dtype=np.uint8)
    key = times * np.uint64(4) + channels
    key = np.unique(key)
    channels = (key & np.uint64(3)).astype(np.uint8)
    times = key >> np.uint64(2)

    buf = io.BytesIO()
    size = write_tags(
        TagFileHeader(station_id=0, record_count=len(channels)),
        (channels, times),
        buf,
    )
    assert size == HEADER_SIZE + RECORD_SIZE * len(channels)
    assert len(buf.getvalue()) == size
    header, ch2, t2 = read_tag_arrays(buf.getvalue())
    assert header.record_count == len(channels)
    assert np.array_equal(ch2, channels)
    assert np.array_equal(t2.astype(np.uint64), times)


def _written(kind, raw, tmp_path):
    """The file's bytes, or a path holding them."""
    if kind == "bytes":
        return raw
    path = tmp_path / "station.tags"
    path.write_bytes(raw)
    return path


@pytest.mark.parametrize("kind", ["path", "bytes"])
@pytest.mark.parametrize("at", [CHUNK_RECORDS, CHUNK_RECORDS + 1])
def test_order_violation_at_a_chunk_boundary_reports_its_index(at, kind, tmp_path):
    # record `at` repeats its predecessor; at == CHUNK_RECORDS is the first
    # record of the second chunk, compared only with the last of the first
    n = CHUNK_RECORDS + 5
    buf = io.BytesIO()
    write_tags(TagFileHeader(station_id=0, record_count=n),
               (np.full(n, 3, np.uint8), np.arange(n, dtype=np.uint64)), buf)
    raw = bytearray(buf.getvalue())
    _copy_record(raw, at - 1, at)
    with pytest.raises(TagFormatError, match="monotonicity") as exc:
        read_tag_arrays(_written(kind, bytes(raw), tmp_path))
    assert exc.value.index == at


def test_file_shrinking_while_read_reports_the_short_chunk(tmp_path):
    # the header and the size seen at open promise two chunks; the second is gone
    path = tmp_path / "station.tags"
    n = CHUNK_RECORDS + 10
    header = TagFileHeader(station_id=0, record_count=n)
    write_tags(header, (np.full(n, 3, np.uint8), np.arange(n, dtype=np.uint64)), path)
    path.write_bytes(path.read_bytes()[: HEADER_SIZE + RECORD_SIZE * CHUNK_RECORDS])
    at_open = mock.Mock(st_size=HEADER_SIZE + RECORD_SIZE * n)
    with mock.patch("bellstrobe.tagfmt.os.fstat", return_value=at_open):
        with pytest.raises(TagFormatError, match="file shrank") as exc:
            read_tag_arrays(path)
    assert exc.value.index == CHUNK_RECORDS


@pytest.mark.parametrize("kind", ["path", "bytes"])
def test_roundtrip_over_a_partial_last_chunk(kind, tmp_path):
    channels, times = make_records(np.random.default_rng(8), 2 * CHUNK_RECORDS + 123)
    assert channels.size % CHUNK_RECORDS != 0
    buf = io.BytesIO()
    write_tags(TagFileHeader(station_id=1, record_count=channels.size),
               (channels, times), buf)
    header, ch2, t2 = read_tag_arrays(_written(kind, buf.getvalue(), tmp_path))
    assert header.record_count == channels.size
    assert ch2.dtype == np.uint8 and t2.dtype == np.int64
    assert np.array_equal(ch2, channels)
    assert np.array_equal(t2.astype(np.uint64), times)


@pytest.mark.parametrize("kind", ["path", "bytes"])
def test_writer_rejects_an_order_violation_in_the_last_chunk_and_writes_nothing(
    kind, tmp_path
):
    # every chunk is checked before the first byte goes out
    n = 2 * CHUNK_RECORDS + 5
    at = n - 2
    times = np.arange(n, dtype=np.int64)
    times[at] = times[at - 1]
    sink = tmp_path / "station.tags" if kind == "path" else io.BytesIO()
    with pytest.raises(TagFormatError, match="monotonicity") as exc:
        write_tags(TagFileHeader(station_id=0, record_count=n),
                   (np.full(n, 3, np.uint8), times), sink)
    assert exc.value.index == at
    if kind == "path":
        assert not sink.exists()
    else:
        assert sink.getvalue() == b""


@pytest.mark.parametrize("at", [0, CHUNK_RECORDS + 3])
@pytest.mark.parametrize("dtype, bad", [(np.int64, -7), (np.uint64, 2**63)])
def test_writer_rejects_a_timestamp_outside_int64_with_its_index(dtype, bad, at):
    # cast to the other type it would wrap and surface one record later as "not sorted"
    n = CHUNK_RECORDS + 10
    times = np.arange(n, dtype=dtype)
    times[at] = bad
    buf = io.BytesIO()
    with pytest.raises(TagFormatError, match=f"timestamp {bad} outside") as exc:
        write_tags(TagFileHeader(station_id=0, record_count=n),
                   (np.full(n, 3, np.uint8), times), buf)
    assert exc.value.index == at
    assert buf.getvalue() == b""


@pytest.mark.parametrize("channel", [0, 4, 257, -255])
def test_writer_checks_channels_before_narrowing_them(channel):
    # 257 and -255 are channel 1 as a uint8
    channels = np.array([3, 1, channel, 2], np.int64)
    buf = io.BytesIO()
    with pytest.raises(TagFormatError, match=f"channel {channel} out of range") as exc:
        write_tags(TagFileHeader(station_id=0, record_count=4),
                   (channels, np.arange(4, dtype=np.int64)), buf)
    assert exc.value.index == 2
    assert buf.getvalue() == b""


@pytest.mark.parametrize("kind", ["path", "bytes"])
@pytest.mark.parametrize("at", [0, 2, CHUNK_RECORDS, CHUNK_RECORDS + 4])
def test_reader_refuses_a_timestamp_past_int64_with_its_index(at, kind, tmp_path):
    # a u64 on disk from 2**63 on would come back as a negative int64
    n = CHUNK_RECORDS + 5
    buf = io.BytesIO()
    write_tags(TagFileHeader(station_id=0, record_count=n),
               (np.full(n, 3, np.uint8), np.arange(n, dtype=np.uint64)), buf)
    raw = bytearray(buf.getvalue())
    offset = HEADER_SIZE + RECORD_SIZE * at + 8
    raw[offset : offset + 8] = (2**63 + 5).to_bytes(8, "little")
    with pytest.raises(TagFormatError, match=f"timestamp {2**63 + 5} outside") as exc:
        read_tag_arrays(_written(kind, bytes(raw), tmp_path))
    assert exc.value.index == at


def test_the_largest_int64_timestamp_round_trips():
    top = np.iinfo(np.int64).max
    header, channels, times = read_tag_arrays(tag_bytes((1, top - 1), (2, top)))
    assert times.tolist() == [top - 1, top]


def _serial_map(fn, n, size, scratch):
    return [fn(start, min(start + size, n), scratch[0]) for start in range(0, n, size)]


def _read_outcome(source):
    """read_tag_arrays's (channels, timestamps), or the TagFormatError it raised."""
    try:
        return read_tag_arrays(source)[1:]
    except TagFormatError as exc:
        return exc


def test_a_two_thread_read_equals_a_serial_read(tmp_path, first_chunk_last):
    # The reader runs its chunks on two threads. It must return the arrays,
    # or raise the TagFormatError (message and record index), of a read that
    # runs them in order, for defects in an even chunk, an odd chunk and both,
    # and for a file that shrinks while it is read. Chunk 0 finishes last, so
    # raising the first error to finish would fail the "both" cases.
    c = CHUNK_RECORDS
    n = 4 * c + 100
    buf = io.BytesIO()
    channels = np.where(np.arange(n) % 7 == 0, 1, 3).astype(np.uint8)
    write_tags(TagFileHeader(station_id=0, record_count=n),
               (channels, np.arange(n, dtype=np.uint64) * 7), buf)
    valid = buf.getvalue()

    def channel(at):
        return lambda raw: raw.__setitem__(HEADER_SIZE + RECORD_SIZE * at, 9)

    def repeat(at):
        return lambda raw: _copy_record(raw, at - 1, at)

    def past_int64(at):
        offset = HEADER_SIZE + RECORD_SIZE * at + 8
        return lambda raw: raw.__setitem__(
            slice(offset, offset + 8), (2**63 + 5).to_bytes(8, "little")
        )

    # case: (corruptions, records left when the file is read, first bad record)
    cases = {
        "valid": ([], n, None),
        "even": ([channel(2 * c + 5)], n, 2 * c + 5),
        "odd": ([repeat(3 * c + 9)], n, 3 * c + 9),
        "odd_boundary": ([repeat(c)], n, c),
        "both": ([past_int64(c // 2), channel(c + 3)], n, c // 2),
        "both_later": ([repeat(2 * c + 1), channel(3 * c)], n, 2 * c + 1),
        "shrunk": ([], 2 * c + c // 2, 2 * c),
        "shrunk_after_both": ([channel(c - 1), repeat(c + 4)], 2 * c + 1, c - 1),
    }
    for case, (corruptions, kept, first_bad) in cases.items():
        raw = bytearray(valid)
        for corrupt in corruptions:
            corrupt(raw)
        raw = bytes(raw[: HEADER_SIZE + RECORD_SIZE * kept])
        path = tmp_path / f"{case}.tags"
        path.write_bytes(raw)
        at_open = mock.Mock(st_size=len(valid))  # the size when the file was opened
        sources = [path] if kept < n else [path, raw]
        for source in sources:
            with mock.patch("bellstrobe.tagfmt.os.fstat", return_value=at_open):
                with mock.patch("bellstrobe.worker.map_chunks", _serial_map):
                    serial = _read_outcome(source)
                got = _read_outcome(source)
            if first_bad is None:
                assert np.array_equal(got[0], serial[0]), case
                assert np.array_equal(got[1], serial[1]), case
                assert np.array_equal(got[0], channels), case
            else:
                assert isinstance(serial, TagFormatError) and serial.index == first_bad, case
                assert type(got) is type(serial), case
                assert (str(got), got.index) == (str(serial), serial.index), case

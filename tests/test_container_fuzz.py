"""Damaged prepared datasets and checkpoints: truncated at any offset, with any
one bit flipped, or extended by 1-64 bytes.  Loading raises the format's
typed base error, never any other exception; only a flipped file may load
(a flip inside array data, or inside a JSON value that stays valid)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegnet import dataset as ds
from eegnet import training


def _damaged(blob: bytes, fmt):
    """Strategy over ``(damaged copy of blob, whether it may load)``; offsets
    are drawn from the magic, fixed fields and header as often as from the
    whole file."""
    start = len(fmt.magic) + fmt.prefix.size
    header_end = start + fmt.prefix.unpack(blob[len(fmt.magic):start])[-1]
    offset = st.one_of(st.integers(0, header_end - 1), st.integers(0, len(blob) - 1))

    def flip(i: int, bit: int) -> bytes:
        out = bytearray(blob)
        out[i] ^= 1 << bit
        return bytes(out)

    return st.one_of(
        offset.map(lambda n: (blob[:n], False)),
        st.builds(flip, offset, st.integers(0, 7)).map(lambda damaged: (damaged, True)),
        st.binary(min_size=1, max_size=64).map(lambda tail: (blob + tail, False)),
    )


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def tiny_dataset(small_prepared, work_dir):
    """Windows 0..2 overlap by half and share their frames; window 7 does not
    continue window 2 and stores all of its own, so the frames, starts and
    labels blocks are all in reach of the flips."""
    path = work_dir / "tiny.eegw"
    ds.save_prepared(path, small_prepared.subset([0, 1, 2, 7]))
    blob = path.read_bytes()
    q, s, n, f = struct.unpack_from("<IHHI", blob, 6)
    assert (q, s, f) == (4, 10, 20 + 10)
    return blob


@pytest.mark.parametrize("past", [1, 2**31, 2**32 - 1 - 20])
def test_window_start_past_the_frames_rejected(tiny_dataset, work_dir, past):
    # the last window's start is the u32 just before the labels block
    path = work_dir / "start.eegw"
    blob = bytearray(tiny_dataset)
    f = struct.unpack_from("<I", blob, 14)[0]
    struct.pack_into("<I", blob, len(blob) - 4 - 4, f - 10 + past)
    path.write_bytes(bytes(blob))
    with pytest.raises(ds.DatasetFormatError, match="window 3 starts at frame"):
        ds.load_prepared(path)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_damaged_dataset_raises_only_dataset_errors(tiny_dataset, work_dir, data):
    path = work_dir / "damaged.eegw"
    damaged, may_load = data.draw(_damaged(tiny_dataset, ds.PREPARED_FORMAT))
    path.write_bytes(damaged)
    try:
        ds.load_prepared(path)
    except ds.DatasetError:
        return
    assert may_load, "a truncated or extended dataset loaded"


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_damaged_checkpoint_raises_only_checkpoint_errors(tiny_checkpoint, work_dir, data):
    path = work_dir / "damaged.eegc"
    blob = tiny_checkpoint.read_bytes()
    damaged, may_load = data.draw(_damaged(blob, training.CHECKPOINT_FORMAT))
    path.write_bytes(damaged)
    try:
        training.load_checkpoint(path)
    except training.CheckpointError:
        return
    assert may_load, "a truncated or extended checkpoint loaded"

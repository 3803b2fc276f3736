"""Binary weight checkpoints: round-trips, versioning, corruption handling."""

import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeptrack.numcore import (
    CHECKPOINT_MAGIC,
    ConfigurationError,
    Tensor,
    load_weights,
    save_weights,
)

from helpers import loads_or_rejects

HASH = hashlib.sha256(b"config").hexdigest()


def resealed(body: bytes) -> bytes:
    """A version 2 file body followed by its own valid CRC32 trailer."""
    return body + struct.pack("<I", zlib.crc32(body))


def sample_state(rng, dtype=np.float64):
    params = {
        "enc.w": Tensor(rng.normal(size=(4, 2, 3)).astype(dtype)),
        "enc.b": Tensor(rng.normal(size=4).astype(dtype)),
        "head.w": Tensor(rng.normal(size=(2, 4)).astype(dtype)),
    }
    buffers = {"enc.bn.mean": rng.normal(size=4).astype(dtype),
               "enc.bn.var": np.abs(rng.normal(size=4)).astype(dtype)}
    return params, buffers


class TestRoundTrip:
    def test_values_and_names_survive(self, tmp_path):
        rng = np.random.default_rng(0)
        params, buffers = sample_state(rng)
        path = tmp_path / "weights.bin"
        save_weights(path, params, buffers, HASH)
        loaded = load_weights(path)
        assert loaded.config_hash == HASH
        assert set(loaded.params) == set(params)
        assert set(loaded.buffers) == set(buffers)
        for name, tensor in params.items():
            assert np.array_equal(loaded.params[name], tensor.data)
        for name, arr in buffers.items():
            assert np.array_equal(loaded.buffers[name], arr)

    def test_save_is_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        params, buffers = sample_state(rng)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_weights(a, params, buffers, HASH)
        save_weights(b, dict(reversed(list(params.items()))), buffers, HASH)
        assert a.read_bytes() == b.read_bytes()

    def test_float32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        params, buffers = sample_state(rng, dtype=np.float32)
        path = tmp_path / "w32.bin"
        save_weights(path, params, buffers, HASH)
        loaded = load_weights(path)
        for name, tensor in params.items():
            back = loaded.params[name].astype(np.float32)
            assert back.tobytes() == tensor.data.tobytes()

    def test_save_load_save_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        params, buffers = sample_state(rng)
        first = tmp_path / "first.bin"
        second = tmp_path / "second.bin"
        save_weights(first, params, buffers, HASH)
        loaded = load_weights(first)
        save_weights(second, loaded.params, loaded.buffers, loaded.config_hash)
        assert first.read_bytes() == second.read_bytes()


class TestFormatChecks:
    def test_magic_present(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, {}, {}, HASH)
        assert path.read_bytes().startswith(CHECKPOINT_MAGIC)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not weights")
        with pytest.raises(ConfigurationError):
            load_weights(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, {}, {}, HASH)
        blob = bytearray(path.read_bytes())
        blob[len(CHECKPOINT_MAGIC)] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigurationError, match="version"):
            load_weights(path)

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        params, buffers = sample_state(rng)
        path = tmp_path / "w.bin"
        save_weights(path, params, buffers, HASH)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ConfigurationError):
            load_weights(path)

    def test_version_2_ends_in_crc32_of_the_rest(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, *sample_state(np.random.default_rng(6)), HASH)
        blob = path.read_bytes()
        assert struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC)) == (2,)
        assert blob == resealed(blob[:-4])

    def test_version_1_still_loads(self, tmp_path):
        """A version 1 file is the version 2 layout without the trailer."""
        params, buffers = sample_state(np.random.default_rng(7))
        path = tmp_path / "w.bin"
        save_weights(path, params, buffers, HASH)
        blob = bytearray(path.read_bytes()[:-4])
        blob[len(CHECKPOINT_MAGIC):len(CHECKPOINT_MAGIC) + 4] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        loaded = load_weights(path)
        assert loaded.config_hash == HASH
        for name, tensor in params.items():
            assert loaded.params[name].tobytes() == tensor.data.tobytes()
        for name, arr in buffers.items():
            assert loaded.buffers[name].tobytes() == arr.tobytes()

    def test_bad_hash_string_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_weights(tmp_path / "w.bin", {}, {}, "abcd")



@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The bytes of a small checkpoint, and a path to write altered copies to."""
    directory = tmp_path_factory.mktemp("corrupt")
    save_weights(directory / "w.bin", *sample_state(np.random.default_rng(5)), HASH)
    return (directory / "w.bin").read_bytes(), directory / "altered.bin"


class TestCorruptFiles:
    """A cut or a flipped byte either still loads or raises ConfigurationError."""

    def test_every_cut_is_rejected(self, saved):
        blob, path = saved
        for length in range(len(blob)):
            assert not loads_or_rejects(load_weights, blob[:length], path), length

    def test_huge_dimension_is_rejected_before_reading(self, saved):
        blob, path = saved
        altered = bytearray(blob)
        # the first record follows the 48-byte header: kind u8, name_len u16,
        # name, ndim u8, then its first dimension
        name_len = int.from_bytes(altered[49:51], "little")
        altered[52 + name_len:56 + name_len] = (2 ** 32 - 1).to_bytes(4, "little")
        # a matching checksum gets the dimension past the CRC to the bound check
        path.write_bytes(resealed(bytes(altered[:-4])))
        with pytest.raises(ConfigurationError, match="bytes left"):
            load_weights(path)

    def test_every_flipped_byte_is_rejected(self, saved):
        """A CRC32 catches every error burst up to 32 bits, so no flipped byte
        anywhere in the file (header, records or trailer) loads: each byte is
        flipped by every single-bit mask and by 0x5A and 0xFF."""
        blob, path = saved
        for at in range(len(blob)):
            for mask in (1, 2, 4, 8, 16, 32, 64, 128, 0x5A, 0xFF):
                altered = bytearray(blob)
                altered[at] ^= mask
                assert not loads_or_rejects(load_weights, bytes(altered), path), (at, mask)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_flipped_byte_loads_or_is_rejected(self, saved, data):
        blob, path = saved
        altered = bytearray(blob)
        at = data.draw(st.integers(0, len(blob) - 1))
        altered[at] ^= data.draw(st.integers(1, 255))
        loads_or_rejects(load_weights, bytes(altered), path)

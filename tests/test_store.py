"""Container parsing and KBQ serialization round trips."""

import hashlib
import json
import os
import stat
import struct

import numpy as np
import pytest

from kbitq import (
    QuantConfig,
    codebook_for,
    dequantize_tensor,
    payload_sections,
    quantize_mixed,
    quantize_tensor,
    read_container,
    read_kbq,
    total_model_bits,
    write_container,
    write_kbq,
)
from kbitq.errors import CorruptDataError, FormatError, LengthError, ParseError
from kbitq import store
from kbitq.store import KBQ_MAGIC


def rng(salt=0):
    return np.random.Generator(np.random.Philox(key=4242 + salt))


def container_bytes(header: dict, data: bytes) -> bytes:
    encoded = json.dumps(header).encode()
    return struct.pack("<Q", len(encoded)) + encoded + data


class TestContainer:
    def test_minimal_round_trip(self, tmp_path):
        path = tmp_path / "t.st"
        x = np.array([[1.5, -2.25], [0.0, 3e-5]], dtype=np.float32)
        write_container(path, {"w": x})
        back = read_container(path)
        assert back.names() == ["w"]
        assert back.shape("w") == (2, 2)
        assert np.array_equal(back.tensor("w"), x)

    def test_float16_preserved(self, tmp_path):
        path = tmp_path / "t.st"
        x = rng(1).standard_normal((8, 4)).astype(np.float16)
        write_container(path, {"w": x})
        assert np.array_equal(read_container(path).tensor("w"), x.astype(np.float32))

    def test_ten_megabyte_write_read_checksum(self, tmp_path):
        path = tmp_path / "big.st"
        x = rng(2).standard_normal((1600, 1640)).astype(np.float32)  # ~10.5 MB
        write_container(path, {"w": x})
        digest_written = hashlib.sha256(path.read_bytes()).hexdigest()
        back = read_container(path).tensor("w")
        assert np.array_equal(back, x)
        write_container(tmp_path / "again.st", {"w": back})
        assert hashlib.sha256((tmp_path / "again.st").read_bytes()).hexdigest() == digest_written

    def test_overlapping_offsets_rejected(self, tmp_path):
        path = tmp_path / "bad.st"
        header = {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        }
        path.write_bytes(container_bytes(header, b"\0" * 12))
        with pytest.raises(ParseError):
            read_container(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "short.st"
        header = {"a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}}
        path.write_bytes(container_bytes(header, b"\0" * 10))
        with pytest.raises(LengthError):
            read_container(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "junk.st"
        path.write_bytes(struct.pack("<Q", 4) + b"nope")
        with pytest.raises(ParseError):
            read_container(path)

    def test_header_overrunning_file_rejected(self, tmp_path):
        path = tmp_path / "over.st"
        path.write_bytes(struct.pack("<Q", 1 << 20) + b"{}")
        with pytest.raises(LengthError):
            read_container(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        path = tmp_path / "dt.st"
        header = {"a": {"dtype": "I8", "shape": [2], "data_offsets": [0, 2]}}
        path.write_bytes(container_bytes(header, b"\0" * 2))
        with pytest.raises(ParseError):
            read_container(path)

    def test_size_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "sz.st"
        header = {"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}
        path.write_bytes(container_bytes(header, b"\0" * 8))
        with pytest.raises(ParseError):
            read_container(path)


def quantize_fixture(kind="int", bits=4, block=64, centered=False, outliers=0, salt=0):
    x = rng(salt).standard_normal((24, 16))
    p = outliers / x.shape[0]
    config = QuantConfig(
        kind=kind, bits=bits, block_size=block, centered=centered, outlier_fraction=p
    )
    book = codebook_for(x, config)
    if outliers:
        dims = np.sort(rng(salt + 1).choice(x.shape[0], size=outliers, replace=False))
        return x, quantize_mixed(x, dims, book, config)
    return x, quantize_tensor(x, book, config)


def relabelled_three_d():
    """A 64x64 tensor with 3 outlier rows relabelled as [32, 64, 2], outlier dims [0, 1, 2]."""
    config = QuantConfig(kind="int", bits=3, block_size=64)
    x = rng(9).standard_normal((64, 64))
    q = quantize_mixed(x, [5, 9, 40], codebook_for(x, config), config)
    q.shape, q.outlier_dims = (32, 64, 2), np.arange(3, dtype=np.int32)
    return q


def means_mutated():
    config = QuantConfig(kind="int", bits=4, block_size=4, centered=True)
    q = quantize_tensor(np.arange(8.0), codebook_for(np.arange(8.0), config), config)
    q.means = np.zeros(1, dtype=np.float16)  # two blocks need two means
    return q


class TestKbq:
    @pytest.mark.parametrize("make", [means_mutated, relabelled_three_d])
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, make):
        path = tmp_path / "bad.kbq"
        with pytest.raises(CorruptDataError):
            write_kbq({"w": make()}, path)
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["int", "float", "dynamic"])
    def test_stray_codebook_values_rejected(self, tmp_path, kind):
        _, q = quantize_fixture(kind=kind, bits=4)
        q.codebook_values = np.linspace(-1.0, 1.0, 16)
        path = tmp_path / "stray.kbq"
        with pytest.raises(CorruptDataError):
            write_kbq({"w": q}, path)
        assert not path.exists()
        with pytest.raises(CorruptDataError):
            dequantize_tensor(q)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.kbq"
        write_kbq({}, path)
        assert read_kbq(path) == {}
        assert path.read_bytes()[:4] == KBQ_MAGIC

    def test_full_feature_round_trip(self, tmp_path):
        path = tmp_path / "full.kbq"
        _, q = quantize_fixture(kind="quantile", bits=4, block=64, centered=True, outliers=2)
        write_kbq({"w": q}, path)
        back = read_kbq(path)
        assert list(back) == ["w"]
        assert back["w"] == q

    def test_multiple_tensors_keep_order(self, tmp_path):
        path = tmp_path / "multi.kbq"
        tensors = {}
        for i, kind in enumerate(["int", "float", "dynamic"]):
            _, tensors[f"layer{i}"] = quantize_fixture(kind=kind, bits=5, salt=i)
        write_kbq(tensors, path)
        back = read_kbq(path)
        assert list(back) == list(tensors)
        assert all(back[k] == tensors[k] for k in tensors)

    def test_flipped_magic_rejected(self, tmp_path):
        path = tmp_path / "flip.kbq"
        _, q = quantize_fixture()
        write_kbq({"w": q}, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_kbq(path)

    def test_truncated_section_rejected(self, tmp_path):
        path = tmp_path / "trunc.kbq"
        _, q = quantize_fixture()
        write_kbq({"w": q}, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CorruptDataError):
            read_kbq(path)

    def test_manifest_section_arithmetic_checked(self, tmp_path):
        path = tmp_path / "bad.kbq"
        _, q = quantize_fixture()
        write_kbq({"w": q}, path)
        blob = path.read_bytes()
        (mlen,) = struct.unpack("<I", blob[4:8])
        manifest = json.loads(blob[8 : 8 + mlen])
        manifest["tensors"]["w"]["n_quantized"] += 64  # now inconsistent with sections
        encoded = json.dumps(manifest, separators=(",", ":")).encode()
        # keep the same length by padding the version field is fiddly;
        # simply rewrite with the new manifest length
        path.write_bytes(blob[:4] + struct.pack("<I", len(encoded)) + encoded + blob[8 + mlen :])
        with pytest.raises(CorruptDataError):
            read_kbq(path)

    def test_quantile_file_is_self_contained(self, tmp_path):
        path = tmp_path / "q.kbq"
        x, q = quantize_fixture(kind="quantile", bits=3, block=32)
        expected = dequantize_tensor(q)
        write_kbq({"w": q}, path)
        back = read_kbq(path)["w"]
        assert np.array_equal(dequantize_tensor(back), expected)

    def test_sections_are_aligned_and_match_accounting(self, tmp_path):
        path = tmp_path / "acct.kbq"
        tensors = {}
        for i, kind in enumerate(["int", "quantile"]):
            _, tensors[f"t{i}"] = quantize_fixture(kind=kind, centered=bool(i), outliers=i, salt=i)
        write_kbq(tensors, path)
        blob = path.read_bytes()
        (mlen,) = struct.unpack("<I", blob[4:8])
        manifest = json.loads(blob[8 : 8 + mlen])
        section_bits = 0
        for name, entry in manifest["tensors"].items():
            for offset, length in entry["sections"].values():
                assert offset % 8 == 0
                assert offset + length <= len(blob)
                section_bits += 8 * length
        assert section_bits == total_model_bits(tensors.values())
        assert sum(sum(payload_sections(q).values()) for q in tensors.values()) * 8 == section_bits


def write_kbq_file(path):
    write_kbq({"w": quantize_fixture()[1]}, path)


def write_container_file(path):
    write_container(path, {"w": rng(5).standard_normal((8, 4)).astype(np.float32)})


class TestAtomicWrites:
    """Outputs appear whole or not at all, through a sibling file renamed into place."""

    def test_failure_mid_write_leaves_no_file(self, tmp_path):
        def chunks():
            yield b"partial"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            store._write_atomically(tmp_path / "out.kbq", chunks())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("write", [write_kbq_file, write_container_file])
    def test_failed_rename_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch, write):
        path = tmp_path / "out"
        path.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(store.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write(path)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert path.read_bytes() == b"old"

    @pytest.mark.parametrize("write", [write_kbq_file, write_container_file])
    def test_replaces_output_with_umask_mode(self, tmp_path, write):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        old_umask = os.umask(0o027)
        try:
            write(path)
        finally:
            os.umask(old_umask)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert path.read_bytes() != b"old"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

"""One table of KBQ sections: each section's stored dtype and value count are stated once,
so validate() refuses an array the file cannot hold exactly, every manifest length equals
payload_sections, and manifest offsets are integers, never bools."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from kbitq import (
    DynamicSpec,
    QuantConfig,
    build_dynamic_codebook,
    build_int_codebook,
    dequantize_tensor,
    pack_indices,
    payload_sections,
    quantize_mixed,
    quantize_tensor,
    read_kbq,
    unpack_indices,
    write_container,
    write_kbq,
)
from kbitq.errors import CorruptDataError, KbitqError
from test_cli import assert_one_line_error, rewrite_manifest, run_cli


def centered_int4():
    x = np.random.default_rng(13).standard_normal((8, 16))
    return quantize_tensor(x, None, QuantConfig(kind="int", bits=4, block_size=16, centered=True))


class TestStoredDtypes:
    """An array of another dtype than its section's would be rounded by the writer."""

    @pytest.mark.parametrize("field, change", [
        ("absmax", lambda a: a.astype(np.float64) * (1 + 1e-4)),
        ("means", lambda a: a.astype(np.float64) + 1e-5),
        ("outlier_rows", lambda a: a.astype(np.float32)),
        ("outlier_dims", lambda a: a.astype(np.int64)),
    ], ids=["absmax-f8", "means-f8", "rows-f4", "dims-i8"])
    def test_refused_by_validate_decoder_and_writer(self, tmp_path, field, change):
        q = centered_int4()
        bad = dataclasses.replace(q, **{field: change(getattr(q, field))})
        for call in (bad.validate, lambda: dequantize_tensor(bad),
                     lambda: write_kbq({"w": bad}, tmp_path / "w.kbq")):
            with pytest.raises(CorruptDataError, match=field):
                call()
        assert list(tmp_path.iterdir()) == []

    def test_float32_quantile_codebook_refused(self):
        x = np.random.default_rng(14).standard_normal((8, 16))
        q = quantize_tensor(x, None, QuantConfig(kind="quantile", bits=3, block_size=16))
        with pytest.raises(CorruptDataError, match="codebook"):
            dataclasses.replace(q, codebook_values=q.codebook_values.astype(np.float32)).validate()


class TestSectionLengths:
    @pytest.mark.parametrize("kind", ["int", "quantile"])
    @pytest.mark.parametrize("centered", [False, True])
    @pytest.mark.parametrize("rows", [[], [2, 5]], ids=["no-rows", "two-rows"])
    def test_each_manifest_length_is_its_payload_section(self, tmp_path, kind, centered, rows):
        x = np.random.default_rng(15).standard_normal((12, 10))
        config = QuantConfig(kind=kind, bits=3, block_size=16, centered=centered)
        q = quantize_mixed(x, rows, None, config)
        write_kbq({"w": q}, tmp_path / "w.kbq")
        blob = (tmp_path / "w.kbq").read_bytes()
        (length,) = struct.unpack("<I", blob[4:8])
        sections = json.loads(blob[8 : 8 + length])["tensors"]["w"]["sections"]
        sizes = payload_sections(q)
        if kind != "quantile":  # the one section written only when present
            assert sizes.pop("codebook") == 0
        assert {name: size for name, (_, size) in sections.items()} == sizes
        assert list(sections) == list(sizes)


class TestBitWidthIsAnInteger:
    @pytest.mark.parametrize("call", [
        lambda: build_int_codebook(4.7),
        lambda: build_dynamic_codebook(DynamicSpec(4.5)),
        lambda: pack_indices([1, 2, 3], 4.7),
        lambda: unpack_indices(b"\x21", 4.5, 2),
        lambda: build_int_codebook(True),
        lambda: build_int_codebook("4"),
    ], ids=["int-4.7", "dynamic-4.5", "pack-4.7", "unpack-4.5", "int-true", "int-str"])
    def test_refused(self, call):
        with pytest.raises(KbitqError, match="bit width must be an integer"):
            call()

    def test_numpy_integer_width_accepted(self):
        assert np.array_equal(build_int_codebook(np.int64(4)).values, build_int_codebook(4).values)
        assert build_dynamic_codebook(DynamicSpec(np.uint8(4))).bits == 4


class TestNumpyIntegerCounts:
    @pytest.mark.parametrize("field, value", [
        ("shape", (np.int64(8), 16)), ("shape", (8, np.int32(16))),
        ("n_quantized", np.int64(128)),
    ], ids=["rows-i8", "width-i4", "n_quantized-i8"])
    def test_written_as_json_integers(self, tmp_path, field, value):
        q = centered_int4()
        write_kbq({"w": dataclasses.replace(q, **{field: value})}, tmp_path / "w.kbq")
        assert read_kbq(tmp_path / "w.kbq")["w"] == q

    @pytest.mark.parametrize("field, value", [
        ("shape", (8.0, 16)), ("shape", (True, 16)), ("n_quantized", 128.0),
    ], ids=["float-size", "bool-size", "float-n_quantized"])
    def test_non_integers_refused(self, tmp_path, field, value):
        bad = dataclasses.replace(centered_int4(), **{field: value})
        with pytest.raises(CorruptDataError, match="non-integer"):
            write_kbq({"w": bad}, tmp_path / "w.kbq")
        assert list(tmp_path.iterdir()) == []


class TestOffsetsAreIntegers:
    @pytest.fixture
    def files(self, capsys, tmp_path):
        write_container(tmp_path / "x.st", {"w": np.linspace(-1, 1, 16, dtype=np.float32)
                                            .reshape(2, 8)})
        assert run_cli(capsys, "quantize", tmp_path / "x.st", tmp_path / "w.kbq")[0] == 0
        return tmp_path

    @pytest.mark.parametrize("section, value", [
        ("indices", [True, 8]), ("indices", [False, 8]), ("absmax", [None, 2]),
        ("absmax", [8.5, 2]),
    ], ids=["indices-true", "indices-false", "absmax-null", "absmax-float"])
    @pytest.mark.parametrize("command", ["dequantize", "inspect"])
    def test_kbq_section_exits_3(self, capsys, files, command, section, value):
        def edit(manifest):  # 0 for false and 0.0 makes room for the longer value
            manifest["tensors"]["w"].update(centered=0, outlier_fraction=0)
            manifest["tensors"]["w"]["sections"][section] = value
            return manifest

        rewrite_manifest(files / "w.kbq", edit)
        before = sorted(files.iterdir())
        argv = ([files / "w.kbq", files / "d.st"] if command == "dequantize"
                else [files / "w.kbq", "--against", files / "x.st"])
        assert_one_line_error(run_cli(capsys, command, *argv), 3, command)
        assert sorted(files.iterdir()) == before

    def test_integral_float_offset_reads_as_the_integer(self, capsys, files):
        def edit(manifest):  # 0 for 0.0 makes room for the ".0"
            entry = manifest["tensors"]["w"]
            entry["outlier_fraction"] = 0
            entry["sections"]["indices"][0] = float(entry["sections"]["indices"][0])
            return manifest

        expected = read_kbq(files / "w.kbq")
        rewrite_manifest(files / "w.kbq", edit)
        assert read_kbq(files / "w.kbq") == expected

    @pytest.mark.parametrize("offsets", [[False, 4], [0, True]], ids=["false-4", "0-true"])
    def test_container_offsets_exit_3(self, capsys, tmp_path, offsets):
        header = json.dumps({"w": {"dtype": "F32", "shape": [1], "data_offsets": offsets}})
        bad = tmp_path / "bad.st"
        bad.write_bytes(struct.pack("<Q", len(header)) + header.encode() + bytes(4))
        result = run_cli(capsys, "quantize", bad, tmp_path / "t.kbq")
        assert_one_line_error(result, 3, "quantize")
        assert "malformed" in result[2] and not (tmp_path / "t.kbq").exists()

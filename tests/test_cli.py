"""Command-line surface: payload formats, determinism, and exit codes."""

import itertools
import json
import math
import struct
import warnings

import numpy as np
import pytest

from kbitq import (
    DynamicSpec,
    FloatSpec,
    build_dynamic_codebook,
    build_float_codebook,
    build_int_codebook,
    default_exponent_bits,
    dequantize_tensor,
    error_metrics,
    read_container,
    read_kbq,
    write_container,
    write_kbq,
)
from kbitq import accounting, cli, quantizer
from kbitq.cli import main
from kbitq.quantizer import QuantConfig, QuantizedTensor


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


HEADER = "family,n_params,precision_bits,total_bits,metric_kind,value\n"


@pytest.fixture
def planted_csv(tmp_path):
    rows = [HEADER.strip()]
    for precision, offset in ((3.0, -0.02), (4.0, 0.08), (5.0, 0.03), (16.0, 0.0)):
        for x in (20, 23, 26):
            rows.append(f"synth,{2**x // 4},{precision},{2**x},accuracy,{0.01 * x + offset}")
    path = tmp_path / "records.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


class TestQuantizeCommand:
    def test_synthetic_reports_quarter_bit_overhead(self, capsys, tmp_path):
        out_path = tmp_path / "t.kbq"
        code, out, _ = run_cli(
            capsys, "quantize", out_path, "--synthetic", "gaussian", "--seed", 7,
            "--shape", "128x64", "--bits", 4, "--block-size", 64,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tensors"]["synthetic_0"]["bits_per_param"]["total"] == 4.25
        assert read_kbq(out_path)  # file is readable

    def test_invalid_bits_is_usage_error(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "quantize", tmp_path / "t.kbq", "--bits", 9,
                               "--synthetic", "gaussian")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("block", ["0", "x"])
    def test_bad_block_size_is_usage_error(self, capsys, tmp_path, block):
        code, out, err = run_cli(capsys, "quantize", tmp_path / "t.kbq", "--synthetic", "gaussian",
                                 "--block-size", block)
        assert code == 2 and out == "" and "--block-size" in err
        assert not (tmp_path / "t.kbq").exists()

    def test_binary16_overflow_is_runtime_error(self, capsys, tmp_path):
        x = np.random.default_rng(3).standard_normal((64, 64)) * 1e6
        write_container(tmp_path / "big.st", {"w": x.astype(np.float32)})
        code, out, err = run_cli(capsys, "quantize", tmp_path / "big.st", tmp_path / "t.kbq",
                                 "--bits", 8, "--block-size", 64)
        assert code == 1 and out == "" and "binary16" in err
        assert not (tmp_path / "t.kbq").exists()

    def test_missing_input_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "quantize", tmp_path / "t.kbq")
        assert code == 2 and err

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "quantize", tmp_path / "no.st", tmp_path / "t.kbq")
        assert code == 1 and err

    def test_float_two_bits_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "quantize", tmp_path / "t.kbq", "--synthetic", "gaussian",
            "--bits", 2, "--dtype", "float",
        )
        assert code == 2 and err

    def test_quantize_dequantize_requantize_is_byte_identical(self, capsys, tmp_path):
        first, back, second = tmp_path / "a.kbq", tmp_path / "b.st", tmp_path / "c.kbq"
        args = ["--bits", 4, "--block-size", 64, "--dtype", "int"]
        assert run_cli(capsys, "quantize", first, "--synthetic", "gaussian",
                       "--seed", 3, "--shape", "96x64", *args)[0] == 0
        assert run_cli(capsys, "dequantize", first, back)[0] == 0
        assert run_cli(capsys, "quantize", back, second, *args)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_outlier_fraction_creates_sidecar_rows(self, capsys, tmp_path):
        out_path = tmp_path / "o.kbq"
        code, out, _ = run_cli(
            capsys, "quantize", out_path, "--synthetic", "gaussian", "--shape",
            "64x64,64x64", "--bits", 3, "--outlier-p", 0.05,
        )
        assert code == 0
        payload = json.loads(out)
        # chained 2-D tensors: first layer untreated, second gets round(.05*64)=3
        assert payload["tensors"]["synthetic_0"]["outlier_dims"] == 0
        assert payload["tensors"]["synthetic_1"]["outlier_dims"] == 3


class TestDequantizeCommand:
    def test_output_container_matches_library_decode(self, capsys, tmp_path):
        kbq, out_st = tmp_path / "t.kbq", tmp_path / "t.st"
        run_cli(capsys, "quantize", kbq, "--synthetic", "uniform", "--shape", "40x10",
                "--bits", 5)
        code, out, _ = run_cli(capsys, "dequantize", kbq, out_st)
        assert code == 0
        assert json.loads(out)["tensors"]["synthetic_0"] == [40, 10]
        from kbitq import dequantize_tensor

        expected = dequantize_tensor(read_kbq(kbq)["synthetic_0"]).astype(np.float32)
        assert np.array_equal(read_container(out_st).tensor("synthetic_0"), expected)

    def test_bad_magic_is_format_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.kbq"
        bad.write_bytes(b"NOPE" + b"\0" * 16)
        code, _, err = run_cli(capsys, "dequantize", bad, tmp_path / "o.st")
        assert code == 3 and err


class TestInspectCommand:
    def test_reports_bits_and_errors(self, capsys, tmp_path):
        kbq, st = tmp_path / "t.kbq", tmp_path / "orig.st"
        run_cli(capsys, "quantize", kbq, "--synthetic", "gaussian", "--shape", "64x32",
                "--bits", 4, "--block-size", 64)
        run_cli(capsys, "dequantize", kbq, tmp_path / "dec.st")
        # rebuild the original container for the metrics
        from kbitq import make_tensor, write_container

        write_container(st, {"synthetic_0": make_tensor("gaussian", (64, 32), 0).astype(np.float32)})
        code, out, _ = run_cli(capsys, "inspect", kbq, "--against", st)
        assert code == 0
        payload = json.loads(out)
        entry = payload["tensors"]["synthetic_0"]
        assert entry["bits_per_param"]["total"] == 4.25
        assert entry["error"]["mse"] > 0
        assert payload["total_model_bits"] == 64 * 32 * 4 + 16 * 32


def summary_container(path):
    """A chain of two matrices (the second gets outlier rows), a 1-D tensor, a lossless grid."""
    gen = np.random.Generator(np.random.Philox(key=77))
    up = gen.standard_normal((24, 40))
    down = gen.standard_normal((40, 24)) + 3.0
    down[[5, 17]] *= 25.0
    grid = np.tile(np.arange(-3.0, 4.0), (6, 1))
    tensors = {"up": up, "down": down, "bias": gen.standard_t(2, 50), "grid": grid}
    write_container(path, {name: a.astype(np.float32) for name, a in tensors.items()})


class TestErrorSummary:
    """The quantize and inspect error fields, summed slab by slab, against error_metrics."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--dtype", "int", "--bits", 4, "--block-size", 16],
            ["--dtype", "int", "--bits", 3, "--block-size", "whole"],
            ["--dtype", "float", "--bits", 3, "--block-size", 8, "--centered"],
            ["--dtype", "dynamic", "--bits", 5, "--block-size", "whole", "--outlier-p", 0.1],
            ["--dtype", "quantile", "--bits", 4, "--block-size", 16, "--outlier-p", 0.1],
            ["--dtype", "quantile", "--bits", 8, "--block-size", "whole", "--centered"],
            ["--dtype", "int", "--bits", 8, "--block-size", 7, "--centered", "--outlier-p", 0.1],
        ],
    )
    def test_quantize_and_inspect_match_error_metrics(self, capsys, tmp_path, monkeypatch, flags):
        monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 48)
        st, kbq = tmp_path / "in.st", tmp_path / "t.kbq"
        summary_container(st)
        code, out, _ = run_cli(capsys, "quantize", st, kbq, *flags)
        assert code == 0
        reported = {name: t["error"] for name, t in json.loads(out)["tensors"].items()}
        code, out, _ = run_cli(capsys, "inspect", kbq, "--against", st)
        assert code == 0
        assert {name: t["error"] for name, t in json.loads(out)["tensors"].items()} == reported

        originals, quantized = read_container(st), read_kbq(kbq)
        outlier_rows = 0
        for name, q in quantized.items():
            x = originals.tensor(name).astype(np.float64)
            expected = error_metrics(x, dequantize_tensor(q), q).as_dict()
            got = reported[name]
            for key in ("max_abs_error", "lossless", "codebook_utilization"):
                assert got[key] == expected[key], (name, key)
            for key in ("mae", "mse", "snr_db"):
                if expected[key] is None:
                    assert got[key] is None
                else:
                    assert got[key] == pytest.approx(expected[key], rel=1e-12, abs=0), (name, key)
            outlier_rows += q.outlier_dims.size
        assert (outlier_rows > 0) == ("--outlier-p" in flags)
        if flags[1:4] == ["int", "--bits", 3]:  # int3 decodes the -3..3 grid of a whole block exactly
            assert reported["grid"]["lossless"] and reported["grid"]["snr_db"] is None


class TestCodebookCommand:
    def test_int_values_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "codebook", "--kind", "int", "--bits", 3)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "int" and payload["bits"] == 3
        assert payload["values"] == build_int_codebook(3).values.tolist()

    @pytest.mark.parametrize(
        "argv, book",
        [
            (("float", 4), build_float_codebook(FloatSpec(4, default_exponent_bits(4)))),
            (("float", 6, "--exponent-bits", 2), build_float_codebook(FloatSpec(6, 2))),
            (("dynamic", 5), build_dynamic_codebook(DynamicSpec(5))),
        ],
        ids=["float-default", "float-e2", "dynamic"],
    )
    def test_fixed_kinds_match_library(self, capsys, argv, book):
        kind, bits, *rest = argv
        code, out, _ = run_cli(capsys, "codebook", "--kind", kind, "--bits", bits, *rest)
        assert code == 0
        assert json.loads(out) == {
            "kind": book.kind.value, "bits": book.bits, "values": book.values.tolist(),
        }

    @pytest.mark.parametrize("kind", ["int", "dynamic", "quantile"])
    def test_non_float_kind_refuses_exponent_bits(self, capsys, tmp_path, kind):
        """As quantize does: exit 2 with QuantConfig's message (quantile has its sample)."""
        sample = tmp_path / "s.st"
        write_container(sample, {"w": np.linspace(-1, 1, 96, dtype=np.float32)})
        code, out, err = run_cli(capsys, "codebook", "--kind", kind, "--bits", 4,
                                 "--exponent-bits", 2, "--sample", sample)
        assert (code, out) == (2, "")
        assert err == "kbitq codebook: exponent_bits only applies to the float kind\n"

    def test_quantile_requires_sample(self, capsys):
        code, _, err = run_cli(capsys, "codebook", "--kind", "quantile", "--bits", 4)
        assert code == 2 and err

    def test_quantile_from_container(self, capsys, tmp_path):
        from kbitq import write_container

        st = tmp_path / "s.st"
        rng = np.random.Generator(np.random.Philox(key=1))
        write_container(st, {"w": rng.standard_normal(5000).astype(np.float32)})
        code, out, _ = run_cli(capsys, "codebook", "--kind", "quantile", "--bits", 4,
                               "--sample", st)
        assert code == 0
        values = json.loads(out)["values"]
        assert len(values) == 16 and max(abs(v) for v in values) == 1.0


class TestSweepCommand:
    def test_grid_row_count_and_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--synthetic", "gaussian", "--shape", "64x64",
            "--bits", "3,4", "--dtype", "int,float",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("kind,bits,exponent_bits,block_size,centered,outlier_p")
        assert len(lines) == 1 + 4

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--synthetic", "student-t", "--seed", 5, "--shape", "32x32",
                "--bits", "3,4", "--dtype", "int", "--block-size", "16,whole")
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second and first[0] == 0

    def test_quantile_beats_int_at_whole_tensor_k4(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--synthetic", "gaussian", "--seed", 11, "--shape", "1024x256",
            "--bits", "4", "--dtype", "int,quantile", "--block-size", "whole",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        header = rows[0]
        mse = {row[0]: float(row[header.index("mse")]) for row in rows[1:]}
        assert mse["quantile"] < mse["int"]

    @pytest.mark.parametrize("source", ["student-t", "integer-grid"])
    def test_rows_equal_quantize_error_fields(self, capsys, tmp_path, source):
        if source == "integer-grid":
            # int3 codes are j/3, so a whole-tensor block of -3..3 decodes losslessly
            grid = tmp_path / "grid.st"
            write_container(grid, {"w": np.tile(np.arange(-3.0, 4.0), (6, 1)).astype(np.float32)})
            paths, flags, name = [grid], [], "w"
        else:
            paths, flags = [], ["--synthetic", source, "--seed", 4, "--shape", "48x40"]
            name = "synthetic_0"
        code, out, _ = run_cli(
            capsys, "sweep", *paths, *flags, "--dtype", "int,float,dynamic,quantile",
            "--bits", "3,8", "--block-size", "16,whole", "--centered", "0,1",
        )
        assert code == 0
        header, *rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 32
        lossless_rows = 0
        for row in rows:
            cell = dict(zip(header, row))
            argv = [
                "quantize", *paths, tmp_path / "t.kbq", *flags, "--dtype", cell["kind"],
                "--bits", cell["bits"], "--block-size", cell["block_size"],
            ]
            if cell["centered"] == "1":
                argv.append("--centered")
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            error = json.loads(out)["tensors"][name]["error"]
            for key in ("mae", "mse", "max_abs_error"):
                assert float(cell[key]) == error[key]
            assert (float(cell["snr_db"]) if cell["snr_db"] else None) == error["snr_db"]
            assert (cell["lossless"] == "1") is error["lossless"]
            lossless_rows += error["lossless"]
        assert (lossless_rows > 0) == (source == "integer-grid")

    def test_grouped_rows_equal_per_config_path(self, capsys, tmp_path, monkeypatch):
        # up's columns 5 and 17 carry the largest std, so down's rows 5 and 17 are outliers
        monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 48)
        gen = np.random.Generator(np.random.Philox(key=91))
        up, down = gen.standard_normal((24, 40)), gen.standard_normal((40, 24)) + 2.0
        up[:, [5, 17]] *= 8.0
        down[[5, 17]] *= 25.0
        st = tmp_path / "chain.st"
        write_container(st, {"up": up.astype(np.float32), "down": down.astype(np.float16)})
        code, out, _ = run_cli(
            capsys, "sweep", st, "--dtype", "int,float,quantile", "--bits", "3,8",
            "--block-size", "16,whole", "--centered", "0,1", "--outlier-p", "0,0.05",
        )
        assert code == 0
        tensors = {name: a.astype(np.float64) for name, a in read_container(st).items()}
        total = sum(a.size for a in tensors.values())
        expected, outlier_rows = [], 0
        for kind, k, block, center, p in itertools.product(
            ["float", "int", "quantile"], [3, 8], [16, None], [False, True], [0.0, 0.05]
        ):
            config = QuantConfig(kind=kind, bits=k, block_size=block, centered=center,
                                 outlier_fraction=p)
            quantized = cli._quantize_all(tensors, config)
            sums, util = accounting.ErrorSums(), 0.0
            for name, q in quantized.items():
                used, n_codes = sums.add_quantized(tensors[name], q)
                util += q.element_count * used / n_codes
                outlier_rows += q.outlier_dims.size
            e_bits = default_exponent_bits(k) if kind == "float" else None
            cells = (kind, k, e_bits, block or "whole", center, p,
                     accounting.total_model_bits(quantized.values()) / total,
                     *sums.report(util / total).as_dict().values())
            expected.append(",".join(cli._csv_cell(v) for v in cells))
        assert out.splitlines()[1:] == expected
        assert outlier_rows == 2 * 24

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--synthetic", "gaussian", "--bits", "")
        assert code == 2 and err


class TestZeroSizeTensor:
    """A (0, 6) tensor is valid in KBQ and container files; over no elements errors are null."""

    @pytest.fixture
    def files(self, tmp_path):
        kbq, st = tmp_path / "e.kbq", tmp_path / "e.st"
        q = QuantizedTensor(
            shape=(0, 6), config=QuantConfig(kind="int", bits=4, block_size=64),
            packed_indices=np.zeros(0, np.uint8), n_quantized=0, absmax=np.zeros(0, np.float16),
            means=None,
            outlier_dims=np.zeros(0, np.int32), outlier_rows=np.zeros((0, 0), np.float16),
        )
        write_kbq({"w": q}, kbq)
        write_container(st, {"w": np.zeros((0, 6), np.float32)})
        return kbq, st

    @pytest.mark.parametrize("against", [False, True])
    def test_inspect(self, capsys, files, against):
        kbq, st = files
        code, out, _ = run_cli(capsys, "inspect", kbq, *(["--against", st] if against else []))
        assert code == 0
        entry = json.loads(out)["tensors"]["w"]
        assert entry["shape"] == [0, 6] and entry["n_quantized"] == 0
        assert entry["error"] == ({
            "mae": None, "mse": None, "max_abs_error": None, "snr_db": None,
            "lossless": True, "codebook_utilization": 0.0,
        } if against else None)

    def test_dequantize(self, capsys, tmp_path, files):
        code, out, _ = run_cli(capsys, "dequantize", files[0], tmp_path / "d.st")
        assert code == 0 and json.loads(out)["tensors"] == {"w": [0, 6]}
        assert read_container(tmp_path / "d.st").tensor("w").shape == (0, 6)


def rewrite_manifest(path, edit):
    """Apply edit to a KBQ manifest in place; padding keeps every section offset."""
    blob = bytearray(path.read_bytes())
    (length,) = struct.unpack("<I", blob[4:8])
    encoded = json.dumps(edit(json.loads(blob[8 : 8 + length])), separators=(",", ":")).encode()
    assert len(encoded) <= length
    blob[8 : 8 + length] = encoded.ljust(length)
    path.write_bytes(bytes(blob))


def edit_section(path, name, section, edit):
    """Replace one KBQ section's bytes with edit(old bytes), of the same length."""
    blob = bytearray(path.read_bytes())
    (length,) = struct.unpack("<I", blob[4:8])
    offset, size = json.loads(blob[8 : 8 + length])["tensors"][name]["sections"][section]
    blob[offset : offset + size] = edit(bytes(blob[offset : offset + size]))
    path.write_bytes(bytes(blob))


class TestMalformedFiles:
    """Crafted files exit 3 with a message on stderr, never a traceback."""

    @pytest.fixture
    def mixed_kbq(self, capsys, tmp_path):
        path = tmp_path / "m.kbq"
        code, _, _ = run_cli(
            capsys, "quantize", path, "--synthetic", "gaussian", "--shape", "64x64,64x64",
            "--bits", 3, "--outlier-p", 0.05,
        )
        assert code == 0
        return path

    @staticmethod
    def assert_format_error(capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "" and err.startswith(f"kbitq {argv[0]}: ")

    @pytest.mark.parametrize(
        "edit",
        [lambda m: [m["version"]], lambda m: {**m, "tensors": list(m["tensors"].values())}],
        ids=["manifest-list", "tensors-list"],
    )
    def test_manifest_that_is_not_an_object(self, capsys, tmp_path, mixed_kbq, edit):
        rewrite_manifest(mixed_kbq, edit)
        self.assert_format_error(capsys, "dequantize", mixed_kbq, tmp_path / "o.st")

    @pytest.mark.parametrize("shape", [[-2, -2], [2.0, 2]], ids=["negative", "float"])
    def test_container_shape_that_is_not_sizes(self, capsys, tmp_path, shape):
        header = json.dumps({"w": {"dtype": "F32", "shape": shape, "data_offsets": [0, 16]}})
        bad = tmp_path / "bad.st"
        bad.write_bytes(struct.pack("<Q", len(header)) + header.encode() + bytes(16))
        self.assert_format_error(capsys, "quantize", bad, tmp_path / "o.kbq")

    @pytest.mark.parametrize("dims", [[4, 9, 64], [4, 4, 9]], ids=["out-of-range", "duplicated"])
    def test_bad_outlier_dims(self, capsys, tmp_path, mixed_kbq, dims):
        new = np.asarray(dims, dtype="<i4").tobytes()
        edit_section(mixed_kbq, "synthetic_1", "outlier_dims", lambda _: new)
        self.assert_format_error(capsys, "dequantize", mixed_kbq, tmp_path / "o.st")

    def test_malformed_quantile_codebook(self, capsys, tmp_path):
        path = tmp_path / "q.kbq"
        assert run_cli(capsys, "quantize", path, "--synthetic", "gaussian", "--shape", "32x32",
                       "--dtype", "quantile")[0] == 0
        edit_section(  # values made descending
            path, "synthetic_0", "codebook", lambda raw: np.frombuffer(raw, "<f8")[::-1].tobytes()
        )
        self.assert_format_error(capsys, "dequantize", path, tmp_path / "o.st")

    def test_shape_disagreeing_with_n_quantized(self, capsys, tmp_path, mixed_kbq):
        def edit(manifest):
            manifest["tensors"]["synthetic_0"]["shape"] = [64, 63]
            return manifest

        rewrite_manifest(mixed_kbq, edit)
        self.assert_format_error(capsys, "inspect", mixed_kbq)


    @pytest.mark.parametrize("command", ["dequantize", "inspect"])
    def test_three_d_relabel_with_outlier_rows(self, capsys, tmp_path, mixed_kbq, command):
        def edit(manifest):  # rows of width 128, not 64; outlier_fraction 0 keeps the length
            manifest["tensors"]["synthetic_1"].update(shape=[32, 64, 2], outlier_fraction=0)
            return manifest

        rewrite_manifest(mixed_kbq, edit)
        new = np.arange(3, dtype="<i4").tobytes()
        edit_section(mixed_kbq, "synthetic_1", "outlier_dims", lambda _: new)
        argv = [mixed_kbq, tmp_path / "o.st"] if command == "dequantize" else [mixed_kbq]
        self.assert_format_error(capsys, command, *argv)


class TestScalingFitCommand:
    def test_planted_optimum_fixture(self, capsys, planted_csv):
        budgets = ",".join(str(2.0**x) for x in (20.5, 22, 24, 25.5))
        code, out, _ = run_cli(capsys, "scaling-fit", planted_csv, "--budgets", budgets)
        assert code == 0
        payload = json.loads(out)
        assert [entry["best_precision"] for entry in payload["pareto"]] == [4.0] * 4

    def test_missing_header_is_data_format_error(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("synth,1000,4,1048576,accuracy,0.4\n")
        code, _, err = run_cli(capsys, "scaling-fit", path)
        assert code == 3 and err

    def test_single_group(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            HEADER + "synth,262144,4,1048576,accuracy,0.4\n"
            + "synth,4194304,4,16777216,accuracy,0.6\n"
        )
        code, out, _ = run_cli(capsys, "scaling-fit", path, "--budgets", str(2**21))
        assert code == 0
        payload = json.loads(out)
        assert list(payload["curves"]) == ["4.0"]
        assert payload["pareto"][0]["best_precision"] == 4.0


class TestStdoutDiscipline:
    def test_stdout_is_pure_json(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "quantize", tmp_path / "t.kbq", "--synthetic", "gaussian",
            "--shape", "16x16",
        )
        assert code == 0
        json.loads(out)  # must parse cleanly

    def test_diagnostics_go_to_stderr(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "dequantize", tmp_path / "missing.kbq",
                                 tmp_path / "o.st")
        assert code == 1
        assert out == "" and err != ""


class TestExponentBitsContract:
    """A float exponent width outside [1, bits) is a usage error on the command line, a format
    error in a KBQ file; only None means the default width."""

    @pytest.mark.parametrize("e", [0, 5, -1])
    def test_flag_outside_range_is_usage_error(self, capsys, tmp_path, e):
        code, out, err = run_cli(capsys, "quantize", tmp_path / "t.kbq", "--synthetic",
                                 "gaussian", "--shape", 96, "--dtype", "float", "--bits", 5,
                                 "--exponent-bits", e)
        assert code == 2 and out == "" and "exponent_bits" in err
        assert not (tmp_path / "t.kbq").exists()
        code, out, err = run_cli(capsys, "codebook", "--kind", "float", "--bits", 5,
                                 "--exponent-bits", e)
        assert code == 2 and out == "" and err.startswith("kbitq codebook: ")

    @pytest.mark.parametrize("e", [9, -1, 2.5, "uint", 0])
    @pytest.mark.parametrize("command", ["dequantize", "inspect"])
    def test_file_value_outside_range_is_format_error(self, capsys, tmp_path, command, e):
        path, original = tmp_path / "f.kbq", tmp_path / "x.st"
        write_container(original, {"synthetic_0": np.linspace(-1, 1, 96, dtype=np.float32)})
        assert run_cli(capsys, "quantize", original, path, "--dtype", "float", "--bits", 5,
                       "--exponent-bits", 2)[0] == 0

        def edit(manifest):  # 0 for false and for 0.0 leaves room for the longer value
            entry = manifest["tensors"]["synthetic_0"]
            entry.update(centered=0, outlier_fraction=0)
            entry["dtype"]["exponent_bits"] = e
            return manifest

        rewrite_manifest(path, edit)
        argv = [path, tmp_path / "o.st"] if command == "dequantize" else [path, "--against",
                                                                          original]
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 3 and out == "" and "exponent_bits" in err


class TestBadGridAndRecords:
    @pytest.mark.parametrize("centered, bad", [("2", "2"), ("-1", "-1"), ("0,2", "2")])
    def test_sweep_centered_other_than_0_or_1(self, capsys, centered, bad):
        code, out, err = run_cli(capsys, "sweep", "--synthetic", "gaussian", "--shape", "8x8",
                                 "--centered", centered)
        assert code == 2 and out == ""
        assert err.startswith("kbitq sweep: ") and err.split()[-1] == bad

    @pytest.mark.parametrize("valid_rows", [0, 2000], ids=["in-header", "after-first-read"])
    def test_scaling_fit_non_utf8_is_format_error(self, capsys, tmp_path, valid_rows):
        path = tmp_path / "r.csv"
        rows = "synth,262144,4,1048576,accuracy,0.4\n" * valid_rows
        path.write_bytes(HEADER.encode()[:-1] + b"\xff\n" if not valid_rows
                         else (HEADER + rows).encode() + b"synth\xff,1,4,4,accuracy,0.5\n")
        code, out, err = run_cli(capsys, "scaling-fit", path)
        assert code == 3 and out == "" and str(path) in err and "UTF-8" in err


def assert_one_line_error(result, code, command):
    """The exit code, no stdout, and one stderr line naming the command, with no traceback."""
    assert result[0] == code and result[1] == ""
    assert result[2].startswith(f"kbitq {command}: ") and result[2].count("\n") == 1


class TestScalingFitBudgets:
    """--budgets is parsed like the sweep's lists: empty items are skipped, and an item that is
    not a finite positive number is a usage error naming it."""

    @pytest.mark.parametrize("budgets, bad", [
        ("x", "x"), ("8x8", "8x8"), ("nan", "nan"), ("0", "0"), ("-5", "-5"), ("inf", "inf"),
        ("4194304,y", "y"),
    ])
    def test_bad_item_is_usage_error(self, capsys, planted_csv, budgets, bad):
        result = run_cli(capsys, "scaling-fit", planted_csv, "--budgets", budgets)
        assert_one_line_error(result, 2, "scaling-fit")
        assert repr(bad) in result[2]

    @pytest.mark.parametrize("budgets, count", [(",", 0), (f"{2**22},,{2**25},", 2)])
    def test_empty_items_are_skipped(self, capsys, planted_csv, budgets, count):
        code, out, _ = run_cli(capsys, "scaling-fit", planted_csv, "--budgets", budgets)
        assert code == 0 and len(json.loads(out)["pareto"]) == count

    def test_budget_outside_every_fitted_range_is_runtime_error(self, capsys, planted_csv):
        result = run_cli(capsys, "scaling-fit", planted_csv, "--budgets", "1")
        assert_one_line_error(result, 1, "scaling-fit")


class TestBlockSizeReason:
    @pytest.mark.parametrize("block, reason", [
        ("0", "block size must be >= 1"), ("x", "bad block size 'x'; use an integer or 'whole'"),
    ])
    def test_quantize_names_the_reason(self, capsys, tmp_path, block, reason):
        code, out, err = run_cli(capsys, "quantize", tmp_path / "t.kbq", "--synthetic",
                                 "gaussian", "--block-size", block)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == f"kbitq quantize: error: argument --block-size: {reason}"


class TestInputRouting:
    """Which paths and --synthetic a command takes; each misuse is a one-line usage error."""

    @pytest.fixture
    def container(self, tmp_path):
        path = tmp_path / "x.st"
        write_container(path, {"w": np.linspace(-1, 1, 64, dtype=np.float32).reshape(8, 8)})
        return path

    @pytest.mark.parametrize("argv, command", [
        (["quantize", "{out}", "--synthetic", "gaussian", "--shape", "4x"], "quantize"),
        (["quantize", "{out}", "--synthetic", "gaussian", "--shape", "0x4"], "quantize"),
        (["quantize", "{src}", "{out}", "--synthetic", "gaussian"], "quantize"),
        (["quantize", "{out}"], "quantize"),
        (["quantize", "{src}", "{src}", "{out}"], "quantize"),
        (["sweep", "{src}", "{src}"], "sweep"),
        (["sweep"], "sweep"),
        (["sweep", "{src}", "--synthetic", "gaussian"], "sweep"),
        (["sweep", "{src}", "--bits", "x"], "sweep"),
    ], ids=["shape-4x", "shape-0x4", "input-and-synthetic", "no-input", "three-paths",
            "sweep-two-inputs", "sweep-no-input", "sweep-input-and-synthetic", "sweep-bits-x"])
    def test_misuse_is_usage_error(self, capsys, tmp_path, container, argv, command):
        argv = [a.format(src=container, out=tmp_path / "t.kbq") for a in argv]
        assert_one_line_error(run_cli(capsys, *argv), 2, command)
        assert not (tmp_path / "t.kbq").exists()


class TestUnreachedExitPaths:
    """Malformed containers and KBQ files exit 3, a shape mismatch exits 1: one stderr line."""

    @pytest.fixture
    def kbq(self, capsys, tmp_path):
        path = tmp_path / "m.kbq"
        assert run_cli(capsys, "quantize", path, "--synthetic", "gaussian", "--shape", "16x16",
                       "--block-size", 64)[0] == 0
        return path

    def test_against_tensor_of_another_shape(self, capsys, tmp_path, kbq):
        write_container(tmp_path / "o.st", {"synthetic_0": np.zeros((8, 32), np.float32)})
        result = run_cli(capsys, "inspect", kbq, "--against", tmp_path / "o.st")
        assert_one_line_error(result, 1, "inspect")
        assert "shape mismatch" in result[2]

    @pytest.mark.parametrize("header, needle", [
        (None, "too short"),
        ([], "must be a JSON object"),
        ({"w": {"dtype": "F32", "shape": [1]}}, "missing 'data_offsets'"),
        ({"w": {"dtype": "F32", "shape": [1], "data_offsets": ["a", 4]}}, "malformed"),
        ({"w": {"dtype": "F32", "shape": [1], "data_offsets": None}}, "malformed"),
        ({"w": {"dtype": "F32", "shape": [1], "data_offsets": [0.0, 4]}}, "malformed"),
        ({"w": {"dtype": ["F32"], "shape": [1], "data_offsets": [0, 4]}}, "unsupported dtype"),
    ], ids=["shorter-than-8-bytes", "header-not-object", "no-data-offsets", "offset-not-int",
            "offsets-null", "offset-float", "dtype-list"])
    def test_malformed_container(self, capsys, tmp_path, header, needle):
        encoded = json.dumps(header).encode()
        blob = b"\x02\x00\x00" if header is None else struct.pack("<Q", len(encoded)) + encoded
        (tmp_path / "bad.st").write_bytes(blob + (b"" if header is None else bytes(4)))
        result = run_cli(capsys, "quantize", tmp_path / "bad.st", tmp_path / "t.kbq")
        assert_one_line_error(result, 3, "quantize")
        assert needle in result[2]

    @pytest.mark.parametrize("variant, needle", [
        ("no-manifest-length", "missing manifest length"),
        ("manifest-past-end", "manifest overruns file"),
        ("manifest-not-json", "not valid JSON"),
        ("version-2", "unsupported version 2"),
        ("missing-section", "missing section 'absmax'"),
        ("negative-shape", "negative size"),
        ("infinite-shape", "cannot convert float infinity"),
    ])
    def test_malformed_kbq(self, capsys, tmp_path, kbq, variant, needle):
        blob = kbq.read_bytes()
        (length,) = struct.unpack("<I", blob[4:8])
        manifest = json.loads(blob[8 : 8 + length])
        entry = manifest["tensors"]["synthetic_0"]
        edits = {
            "version-2": lambda: manifest.update(version=2),
            "missing-section": lambda: entry["sections"].pop("absmax"),
            "negative-shape": lambda: entry.update(shape=[-1, 16]),
            # 0 for false and 0.0 leaves room for Infinity
            "infinite-shape": lambda: entry.update(shape=[math.inf, 16], centered=0,
                                                   outlier_fraction=0),
        }
        if variant in edits:
            edits[variant]()
            encoded = json.dumps(manifest, separators=(",", ":")).encode()
            assert len(encoded) <= length
            blob = blob[:8] + encoded.ljust(length) + blob[8 + length :]
        else:
            blob = {
                "no-manifest-length": b"KBQ1\x01",
                "manifest-past-end": blob[:4] + struct.pack("<I", len(blob)) + blob[8:],
                "manifest-not-json": blob[:8] + b"{not json".ljust(length) + blob[8 + length :],
            }[variant]
        kbq.write_bytes(blob)
        result = run_cli(capsys, "dequantize", kbq, tmp_path / "d.st")
        assert_one_line_error(result, 3, "dequantize")
        assert needle in result[2] and not (tmp_path / "d.st").exists()

    def test_non_finite_codebook_value(self, capsys, tmp_path):
        path = tmp_path / "q.kbq"
        assert run_cli(capsys, "quantize", path, "--synthetic", "gaussian", "--shape", "32x32",
                       "--dtype", "quantile")[0] == 0
        nan = np.array([0x7FF0_0000_0000_0001], "<u8").tobytes()  # a signaling NaN
        edit_section(path, "synthetic_0", "codebook", lambda raw: nan + raw[8:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # arithmetic on the NaN would warn
            result = run_cli(capsys, "dequantize", path, tmp_path / "d.st")
        assert_one_line_error(result, 3, "dequantize")
        assert "finite" in result[2]

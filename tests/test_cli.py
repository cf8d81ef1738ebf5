"""Command-line surface: payload formats, determinism, and exit codes."""

import json
import struct

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
)
from kbitq import quantizer
from kbitq.cli import main


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
            (("int", 4, "--exponent-bits", 2), build_int_codebook(4)),
        ],
        ids=["float-default", "float-e2", "dynamic", "int-ignores-exponent"],
    )
    def test_fixed_kinds_match_library(self, capsys, argv, book):
        kind, bits, *rest = argv
        code, out, _ = run_cli(capsys, "codebook", "--kind", kind, "--bits", bits, *rest)
        assert code == 0
        assert json.loads(out) == {
            "kind": book.kind.value, "bits": book.bits, "values": book.values.tolist(),
        }

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

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--synthetic", "gaussian", "--bits", "")
        assert code == 2 and err


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

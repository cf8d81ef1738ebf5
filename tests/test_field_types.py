"""QuantConfig alone checks a config's fields and gives each one Python type: the library,
read_kbq and the CLI pass values through it unconverted, so a value it cannot hold exactly
is refused, never truncated or parsed. Also: a tensor's outlier dims must be integers."""

import dataclasses

import numpy as np
import pytest

from kbitq import (
    QuantConfig,
    dequantize_tensor,
    outliers,
    quantize_mixed,
    quantize_tensor,
    read_kbq,
    write_container,
    write_kbq,
)
from kbitq.errors import CorruptDataError, InvalidFractionError, InvalidSpecError, KbitqError
from test_cli import rewrite_manifest, run_cli


class TestConfigFields:
    @pytest.mark.parametrize("field, value, error", [
        ("bits", 4.5, InvalidSpecError), ("bits", 4.0, InvalidSpecError),
        ("bits", "4", InvalidSpecError), ("bits", True, InvalidSpecError),
        ("block_size", 16.0, InvalidSpecError), ("block_size", True, InvalidSpecError),
        ("block_size", "16", InvalidSpecError), ("block_size", np.float64(16), InvalidSpecError),
        ("centered", "no", InvalidSpecError), ("centered", 2, InvalidSpecError),
        ("centered", None, InvalidSpecError), ("centered", np.int64(-1), InvalidSpecError),
        ("outlier_fraction", "0.1", InvalidFractionError),
        ("outlier_fraction", True, InvalidFractionError),
        ("outlier_fraction", None, InvalidFractionError),
        ("kind", "bogus", InvalidSpecError), ("kind", ["int"], InvalidSpecError),
        ("kind", None, InvalidSpecError),
    ])
    def test_refused(self, field, value, error):
        with pytest.raises(error) as info:
            QuantConfig(**{"kind": "int", "bits": 4, field: value})
        assert isinstance(info.value, KbitqError)

    def test_exponent_bits_refuses_a_bool(self):  # floats: tests/test_quantizer.py
        with pytest.raises(InvalidSpecError):
            QuantConfig(kind="float", bits=5, exponent_bits=True)

    def test_each_field_is_stored_as_one_python_type(self):
        config = QuantConfig("float", np.uint8(5), np.int32(64), np.True_, np.float32(0.25),
                             np.int64(2))
        assert config == QuantConfig("float", 5, 64, True, 0.25, 2)
        assert [type(v) for v in vars(config).values()] == [
            type(config.kind), int, int, bool, float, int]
        plain = QuantConfig("int", 4, None, 0, 0)
        assert (plain.block_size, plain.centered, plain.outlier_fraction) == (None, False, 0.0)
        assert type(plain.centered) is bool and type(plain.outlier_fraction) is float

    def test_numpy_fields_round_trip_through_a_kbq_file(self, tmp_path):
        config = QuantConfig("int", np.int64(4), np.int32(64), 1)
        x = np.random.default_rng(5).standard_normal((16, 16))
        write_kbq({"w": quantize_tensor(x, None, config)}, tmp_path / "w.kbq")
        back = read_kbq(tmp_path / "w.kbq")["w"].config
        assert back == config == QuantConfig("int", 4, 64, True)
        assert (type(back.bits), type(back.block_size), type(back.centered)) == (int, int, bool)


class TestManifestValuesPassThrough:
    """A centered 8x16 int4 tensor at B=16 whose manifest holds a value the config or the
    tensor cannot hold exactly: dequantize and inspect --against exit 3 with one stderr line."""

    @pytest.fixture
    def files(self, capsys, tmp_path):
        x = np.random.default_rng(12).standard_normal((8, 16)).astype(np.float32)
        write_container(tmp_path / "x.st", {"w": x})
        assert run_cli(capsys, "quantize", tmp_path / "x.st", tmp_path / "w.kbq", "--bits", 4,
                       "--block-size", 16, "--centered")[0] == 0
        return tmp_path

    @staticmethod
    def edit(path, **changes):
        """Set entry or dtype fields; 1 for true and 0 for 0.0 make room for longer values."""
        def apply(manifest):
            entry = manifest["tensors"]["w"]
            entry.update(centered=1, outlier_fraction=0)
            for key, value in changes.items():
                (entry["dtype"] if key in entry["dtype"] else entry)[key] = value
            return manifest

        rewrite_manifest(path, apply)

    def commands(self, root):
        return {"dequantize": [root / "w.kbq", root / "d.st"],
                "inspect": [root / "w.kbq", "--against", root / "x.st"]}

    @pytest.mark.parametrize("changes", [
        {"block_size": 16.0}, {"block_size": 16.5}, {"shape": [8.5, 16]}, {"shape": ["8", 16]},
        {"shape": [True, 16]}, {"shape": "816"}, {"bits": 4.7}, {"bits": "4"},
        {"n_quantized": 128.9}, {"n_quantized": "128"}, {"outlier_fraction": "0"},
        {"centered": "no"}, {"centered": 2},
    ], ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
    @pytest.mark.parametrize("command", ["dequantize", "inspect"])
    def test_exits_3(self, capsys, files, command, changes):
        self.edit(files / "w.kbq", **changes)
        before = sorted(files.iterdir())
        code, out, err = run_cli(capsys, command, *self.commands(files)[command])
        assert code == 3 and out == ""
        assert err.startswith(f"kbitq {command}: ") and err.count("\n") == 1
        assert sorted(files.iterdir()) == before  # no output file

    def test_room_making_edit_still_reads(self, capsys, files):
        """The 1 for true and 0 for 0.0 that make room are valid values themselves."""
        self.edit(files / "w.kbq")
        for command, argv in self.commands(files).items():
            assert run_cli(capsys, command, *argv)[0] == 0

    def test_integral_float_shape_size_reads_as_the_integer(self, capsys, files):
        self.edit(files / "w.kbq")
        assert run_cli(capsys, "dequantize", files / "w.kbq", files / "a.st")[0] == 0
        self.edit(files / "w.kbq", shape=[8.0, 16.0])
        assert read_kbq(files / "w.kbq")["w"].shape == (8, 16)
        assert run_cli(capsys, "dequantize", files / "w.kbq", files / "b.st")[0] == 0
        assert (files / "a.st").read_bytes() == (files / "b.st").read_bytes()


class TestOutlierDimsMustBeIntegers:
    @pytest.mark.parametrize("dims", [np.array([2.5]), np.array([2.0]), np.array([True])])
    def test_refused_by_validate_decoder_and_writer(self, tmp_path, dims):
        x = np.random.default_rng(8).standard_normal((6, 8))
        q = quantize_mixed(x, [2], None, QuantConfig(kind="int", bits=4, block_size=8))
        bad = dataclasses.replace(q, outlier_dims=dims)
        with pytest.raises(CorruptDataError):
            bad.validate()
        with pytest.raises(CorruptDataError):
            dequantize_tensor(bad)
        with pytest.raises(CorruptDataError):
            write_kbq({"w": bad}, tmp_path / "w.kbq")
        assert list(tmp_path.iterdir()) == []

    def test_empty_float_dims_refused_too(self):
        q = quantize_tensor(np.ones((4, 4)), None, QuantConfig(kind="int", bits=4))
        with pytest.raises(CorruptDataError):
            dataclasses.replace(q, outlier_dims=np.zeros(0)).validate()


def test_sweep_detects_outlier_rows_once_per_fraction(capsys, tmp_path, monkeypatch):
    """Two chains, four (block size, centering) groups per fraction: one detection per chain
    for each non-zero fraction, with the CSV unchanged."""
    gen = np.random.default_rng(30)
    write_container(tmp_path / "c.st", {
        "a": gen.standard_normal((8, 16)).astype(np.float32),
        "b": gen.standard_normal((16, 8)).astype(np.float32),
        "c": gen.standard_normal((5, 7)).astype(np.float32),
        "d": gen.standard_normal((7, 4)).astype(np.float32),
    })
    argv = ["sweep", tmp_path / "c.st", "--block-size", "8,whole", "--centered", "0,1",
            "--outlier-p", "0,0.2,0.4"]
    expected = run_cli(capsys, *argv)
    calls = []
    detect = outliers.detect_outlier_dims
    monkeypatch.setattr(outliers, "detect_outlier_dims",
                        lambda chain, p: calls.append(p) or detect(chain, p))
    assert run_cli(capsys, *argv) == expected and expected[0] == 0
    assert sorted(calls) == [0.2, 0.2, 0.4, 0.4]

"""codebooks.sorted_unique stands in for np.unique, which imports numpy.ma on its first call.

It equals np.unique on outlier rows and gives every float and quantile codebook bit for bit,
and no command run in a fresh interpreter imports numpy.ma.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kbitq
from kbitq import QuantConfig, codebooks, quantize_tensor, write_container, write_kbq
from kbitq.codebooks import FloatSpec, QuantileSpec, sorted_unique


def rng(salt=0):
    return np.random.Generator(np.random.Philox(key=5151 + salt))


@pytest.mark.parametrize("dims", [
    np.array([], dtype=np.int64), np.asarray(()), np.array([3, 3, 3], dtype=np.int64),
    np.array([9, 2, 7, 2, 0, 9], dtype=np.int64), np.array([200, 5, 5, 17], dtype=np.uint8),
    np.array([[4, 1], [1, 4]], dtype=np.int32), np.array([2**40, -1, 2**40], dtype=np.int64),
], ids=["empty", "empty-float", "repeated", "unsorted", "uint8", "2-d", "int64"])
def test_equals_np_unique_on_rows(dims):
    got, want = sorted_unique(dims), np.unique(dims)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_equals_np_unique_on_signed_zeros():
    for values in ([0.0, -0.0], [-0.0, 0.0], [1.0, -0.0, 0.0, -1.0, 0.0], [0.0, 1.0, -0.0]):
        got, want = sorted_unique(np.array(values)), np.unique(np.array(values))
        assert got.tobytes() == want.tobytes()


def pairs():
    return [(bits, e) for bits in range(3, 9) for e in range(1, bits)]


@pytest.mark.parametrize("bits,exponent_bits", pairs())
def test_every_float_codebook_is_unchanged(monkeypatch, bits, exponent_bits):
    spec = FloatSpec(bits, exponent_bits)
    got = codebooks.build_float_codebook(spec).values
    monkeypatch.setattr(codebooks, "sorted_unique", np.unique)
    assert got.tobytes() == codebooks.build_float_codebook(spec).values.tobytes()


def samples():
    gen = rng(1)
    zeros = np.where(gen.random(400) < 0.5, -0.0, 0.0)
    return {
        "repeats": gen.integers(-3, 4, 1000) / 3.0,
        "signed-zeros": np.concatenate([zeros, [-1.0, 0.5, 1.0]]),
        "mostly-negative-zero": np.concatenate([np.full(300, -0.0), gen.standard_normal(20)]),
        "student-t": gen.standard_t(3, 5000),
        "two-values": np.array([-2.0, 2.0] * 50),
    }


@pytest.mark.parametrize("name", samples())
@pytest.mark.parametrize("bits", range(2, 9))
def test_every_quantile_codebook_is_unchanged(monkeypatch, name, bits):
    spec = QuantileSpec(bits, samples()[name])
    got = codebooks.build_quantile_codebook(spec).values
    monkeypatch.setattr(codebooks, "sorted_unique", np.unique)
    assert got.tobytes() == codebooks.build_quantile_codebook(spec).values.tobytes()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A container with planted outlier rows and a centered float3 KBQ of it."""
    root = tmp_path_factory.mktemp("inputs")
    up = rng(2).standard_normal((48, 64))
    up[:, [3, 40]] *= 8.0
    down = rng(3).standard_normal((64, 48))
    down[[3, 40]] *= 30.0
    write_container(root / "in.st", {"up": up.astype(np.float32), "down": down.astype(np.float16)})
    config = QuantConfig(kind="float", bits=3, block_size=64, centered=True)
    write_kbq({"down": quantize_tensor(down, None, config)}, root / "f.kbq")
    return root


COMMANDS = {
    "quantize-int": ["quantize", "in.st", "out.kbq"],
    "quantize-int-outliers": ["quantize", "in.st", "out.kbq", "--outlier-p", "0.05"],
    "quantize-float": ["quantize", "in.st", "out.kbq", "--dtype", "float"],
    "quantize-float-outliers": ["quantize", "in.st", "out.kbq", "--dtype", "float",
                                "--outlier-p", "0.05"],
    "quantize-quantile": ["quantize", "in.st", "out.kbq", "--dtype", "quantile"],
    "quantize-quantile-outliers": ["quantize", "in.st", "out.kbq", "--dtype", "quantile",
                                   "--outlier-p", "0.05"],
    "dequantize-float": ["dequantize", "f.kbq", "out.st"],
    "inspect-against": ["inspect", "f.kbq", "--against", "in.st"],
    "sweep": ["sweep", "in.st", "--dtype", "int,float,quantile", "--outlier-p", "0,0.05"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_no_command_imports_numpy_ma(inputs, tmp_path, argv):
    argv = [str(inputs / a) if a in ("in.st", "f.kbq") else a for a in argv]
    script = ("import sys\nfrom kbitq import cli\n"
              f"code = cli.main({argv!r})\nprint(code, 'numpy.ma' in sys.modules)\n")
    src = str(Path(kbitq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1:] == ["0 False"], done.stderr

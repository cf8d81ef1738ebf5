"""The CLI's entry function defaults OPENBLAS_NUM_THREADS to 1; the library sets nothing.

kbitq calls no BLAS routine, so `kbitq.__main__.main`, which `python -m kbitq` and the console
script run, sets the default before numpy is first imported, and a caller's own value is
kept. That holds only while `import kbitq` loads no numpy. Each case runs in a fresh
interpreter, since this one imported numpy long ago. Also here: `unpack_indices` refuses data
that is not a 1-D uint8 array, and a sweep's quantile books, built from one sorted sample,
equal build_quantile_codebook's of that sample in any order.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kbitq
from kbitq import (QuantConfig, QuantileSpec, build_quantile_codebook, pack_indices,
                   quantize_tensor, unpack_indices, write_container, write_kbq)
from kbitq import quantizer
from kbitq.errors import InvalidValueError

SRC = str(Path(kbitq.__file__).resolve().parents[1])
LAUNCHERS = {  # python -m kbitq, the console script's wrapper, and cli.main with sys.exit
    "module": ["-m", "kbitq"],
    "script": ["-c", "import sys\nfrom kbitq.__main__ import main\nsys.exit(main())"],
    "main": ["-c", "import sys\nfrom kbitq import cli\nsys.exit(cli.main(sys.argv[1:]))"],
}
FIRST_NUMPY = """\
import json, os, sys
from importlib.machinery import PathFinder

class FirstNumpy:  # reports the variable as numpy's import starts, the threads once it is done
    def find_spec(self, name, path=None, target=None):
        if name != "numpy":
            return None
        sys.meta_path.remove(self)
        spec = PathFinder.find_spec(name, path)
        load = spec.loader.exec_module

        def exec_module(module):
            value = os.environ.get("OPENBLAS_NUM_THREADS")
            load(module)
            task = "/proc/self/task"
            threads = len(os.listdir(task)) if os.path.isdir(task) else None
            print(json.dumps([value, threads]), file=sys.stderr, flush=True)

        spec.loader.exec_module = exec_module
        return spec

sys.meta_path.insert(0, FirstNumpy())
from kbitq.__main__ import main
assert "numpy" not in sys.modules
sys.argv[1:] = ["codebook", "--kind", "int", "--bits", "3"]
main()
"""


def fresh(args, cwd, openblas=None) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this kbitq, with OPENBLAS_NUM_THREADS unset or set."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def numpy_import(tmp_path, openblas=None) -> list:
    """[variable, thread count] at numpy's first import, run through kbitq.__main__.main."""
    done = fresh(["-c", FIRST_NUMPY], tmp_path, openblas)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["kind"] == "int"
    (line,) = done.stderr.splitlines()
    return json.loads(line)


def test_import_kbitq_loads_no_numpy(tmp_path):
    done = fresh(["-c", "import sys, kbitq\nprint('numpy' in sys.modules)"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_numpy_is_first_imported_with_one_openblas_thread(tmp_path):
    value, threads = numpy_import(tmp_path)
    assert value == "1"
    if threads is None:
        pytest.skip("no /proc/self/task to count the process's threads")
    assert threads == 1


def test_a_callers_openblas_setting_is_kept(tmp_path):
    assert numpy_import(tmp_path, openblas="2")[0] == "2"
    assert numpy_import(tmp_path, openblas="")[0] == ""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry_default")
    gen = np.random.Generator(np.random.Philox(key=2929))
    up = gen.standard_normal((48, 64)).astype(np.float32)
    write_container(root / "in.st", {"up": up})
    write_kbq({"w": quantize_tensor(up, None, QuantConfig("int", 4, 64))}, root / "int4.kbq")
    return root


CASES = {
    "quantize": (["quantize", "../in.st", "q.kbq", "--dtype", "quantile", "--bits", "3"], 0),
    "dequantize": (["dequantize", "../int4.kbq", "d.st"], 0),
    "sweep": (["sweep", "../in.st", "--dtype", "int,quantile", "--bits", "3,4"], 0),
    "usage-error": (["quantize", "t.kbq", "--synthetic", "gaussian", "--bits", "9"], 2),
}


@pytest.mark.parametrize("argv, code", CASES.values(), ids=CASES.keys())
def test_every_launcher_gives_the_same_outcome(inputs, argv, code):
    results = {}
    for launcher, args in LAUNCHERS.items():
        cwd = inputs / f"{launcher}_{len(list(inputs.iterdir()))}"
        cwd.mkdir()
        done = fresh([*args, *argv], cwd)
        left = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
        results[launcher] = (done.returncode, done.stdout, done.stderr, left)
    assert results["module"] == results["script"] == results["main"]
    got, out, err, left = results["module"]
    assert got == code and (err == "") == (code == 0) and bool(out) == (code == 0)
    assert bool(left) == (argv[0] in ("quantize", "dequantize") and code == 0)


@pytest.mark.parametrize("data, got", [
    (b"\x21\x43", "bytes"),
    (np.array([0x121, 0x43]), "int64 (2,)"),
    (np.array([[0x21, 0x43]], np.uint8), "uint8 (1, 2)"),
], ids=["bytes", "int64", "2-d"])
def test_unpack_refuses_data_that_is_not_a_1d_uint8_array(data, got):
    message = f"data must be a 1-D uint8 array, got {got}"
    with pytest.raises(InvalidValueError, match=f"^{re.escape(message)}$"):
        unpack_indices(data, 4, 3)


def test_unpack_decodes_strided_and_read_only_data():
    packed = pack_indices([1, 2, 3], 4)
    strided = np.zeros(2 * packed.size, np.uint8)
    strided[::2] = packed
    read_only = packed.copy()
    read_only.flags.writeable = False
    for data in (strided[::2], read_only):
        assert unpack_indices(data, 4, 3).tolist() == [1, 2, 3]


@pytest.mark.parametrize("block_size, centered", [(64, False), (None, True)])
@pytest.mark.parametrize("df", [None, 3], ids=["gaussian", "student-t"])
def test_quantile_books_equal_build_quantile_codebook(monkeypatch, block_size, centered, df):
    gen = np.random.Generator(np.random.Philox(key=77 + (df or 0)))
    arr = gen.standard_normal((96, 80)) if df is None else gen.standard_t(df, (96, 80))
    samples = []

    def spy(spec):
        samples.append(spec.sample.copy())
        return built(spec)

    built = quantizer.build_quantile_codebook
    monkeypatch.setattr(quantizer, "build_quantile_codebook", spy)
    widths = list(range(2, 9))
    books = quantizer._quantile_books(widths, arr, QuantConfig("quantile", 4, block_size,
                                                               centered=centered))
    assert list(books) == widths and len(samples) == len(widths)
    shuffled = gen.permutation(samples[0])  # sorted by the public function itself
    for k, sample in zip(widths, samples):
        assert np.array_equal(sample, samples[0])
        for given in (sample, shuffled):
            expected = build_quantile_codebook(QuantileSpec(k, given))
            assert (books[k].kind, books[k].bits) == (expected.kind, expected.bits)
            assert books[k].values.tobytes() == expected.values.tobytes()

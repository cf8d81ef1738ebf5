"""The entry point ends the process with os._exit, the code marks stop once a book is full,
and two library arguments are refused at the array boundary.

cli.main writes and flushes stdout itself, and `python -m kbitq` (cli.run) then ends with
os._exit, skipping the interpreter's teardown. Each command below runs twice, each time in a fresh
interpreter: through the entry point, and as `sys.exit(cli.main(argv))`. Exit code, stdout, stderr
and the files the command leaves must be the same, and no `.tmp` sibling may be left behind.
Children run with block-buffered stdout (PYTHONUNBUFFERED unset), as a terminal-less shell runs
them, so a payload that fits the buffer meets a broken pipe only at main's flush.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kbitq
from kbitq import (QuantConfig, build_int_codebook, dequantize_tensor, lookup_indices,
                   quantize_tensor, write_container, write_kbq)
from kbitq.accounting import ErrorSums, _marked
from kbitq.errors import InvalidSpecError, InvalidValueError
from kbitq.quantizer import _CHUNK_ELEMENTS

SRC = str(Path(kbitq.__file__).resolve().parents[1])
LAUNCHERS = {  # the entry point, and the exit it replaces
    "run": ["-m", "kbitq"],
    "main": ["-c", "import sys\nfrom kbitq import cli\nsys.exit(cli.main(sys.argv[1:]))"],
}
SWEEP_144 = ["sweep", "--synthetic", "gaussian", "--shape", "64x64",
             "--dtype", "int,float,dynamic,quantile", "--bits", "3,4,8", "--block-size", "7,64,whole", "--centered", "0,1", "--outlier-p", "0,0.05"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fresh_exit")
    gen = np.random.Generator(np.random.Philox(key=2626))
    up = gen.standard_normal((48, 64)).astype(np.float32)
    write_container(root / "in.st", {"up": up, "zeros": np.zeros((8, 8), np.float32)})
    write_kbq({"w": quantize_tensor(up, None, QuantConfig("int", 4, 64))}, root / "int4.kbq")
    (root / "corrupt.kbq").write_bytes(b"KBQ1" + b"\xff" * 60)
    return root


def env(unbuffered: bool = False) -> dict:
    out = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    out["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    return {**out, "PYTHONUNBUFFERED": "1"} if unbuffered else out


def reported(stderr: str) -> str:
    """stderr with a traceback cut to its last line: its frames name each launcher's own code."""
    head, sep, trace = stderr.partition("Traceback (most recent call last):\n")
    return head + sep + trace.rstrip("\n").rsplit("\n", 1)[-1] if sep else stderr


def files(where: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


def launch(launcher: str, argv, cwd: Path, stdout=subprocess.PIPE, close_stdout=False,
           unbuffered=False) -> subprocess.Popen:
    command = [sys.executable, *LAUNCHERS[launcher], *argv]
    if close_stdout:  # the shell's `>&-`: the child starts with no descriptor 1
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
    return subprocess.Popen(command, cwd=cwd, env=env(unbuffered), stdout=stdout,
                            stderr=subprocess.PIPE, text=True)


def same_outcome(argv, inputs: Path, **options) -> tuple:
    """Run argv through both launchers; assert they agree and return the entry point's."""
    results = {}
    for launcher in LAUNCHERS:
        cwd = inputs / f"{launcher}_{len(list(inputs.iterdir()))}"
        cwd.mkdir()
        child = launch(launcher, argv, cwd, **options)
        out, err = child.communicate(timeout=120)
        left = files(cwd)
        assert not [name for name in left if name.endswith(".tmp")], left
        results[launcher] = (child.returncode, out, reported(err), left)
    assert results["run"] == results["main"]
    return results["run"]


CASES = {
    "quantize": (["quantize", "t.kbq", "--synthetic", "gaussian", "--shape", "64x64",
                  "--block-size", "64"], 0),
    "dequantize": (["dequantize", "../int4.kbq", "d.st"], 0),
    "sweep": (["sweep", "--synthetic", "student-t", "--shape", "64x64", "--dtype",
               "int,quantile", "--bits", "3,4"], 0),
    "usage-error": (["quantize", "t.kbq", "--synthetic", "gaussian", "--bits", "9"], 2),
    "runtime-error": (["quantize", "../in.st", "t.kbq", "--dtype", "quantile"], 1),
    "corrupt-kbq": (["dequantize", "../corrupt.kbq", "d.st"], 3),
}


@pytest.mark.parametrize("argv, code", CASES.values(), ids=CASES.keys())
def test_entry_point_reports_as_sys_exit(inputs, argv, code):
    got, out, err, left = same_outcome(argv, inputs)
    assert got == code
    assert (err == "") == (code == 0)
    assert bool(left) == (code == 0 and argv[0] != "sweep")  # a failed write leaves nothing


@pytest.mark.parametrize("argv, code", [
    (CASES["quantize"][0], 1),  # the payload meets no stdout: one error line
    (CASES["usage-error"][0], 2),  # nothing is written to stdout
    (CASES["runtime-error"][0], 1),
], ids=["quantize", "usage-error", "runtime-error"])
def test_closed_stdout_reports_as_sys_exit(inputs, argv, code):
    got, out, err, left = same_outcome(argv, inputs, close_stdout=True)
    assert got == code and out == "" and err
    assert "t.kbq" in left if argv is CASES["quantize"][0] else not left


def test_sweep_into_a_reader_that_stops_early(inputs):
    """The reader takes one line and closes its end; every row is already in the pipe."""
    results = {}
    for launcher in LAUNCHERS:
        child = launch(launcher, SWEEP_144, inputs)
        first = child.stdout.readline()
        child.stdout.close()
        results[launcher] = (child.wait(timeout=120), first, reported(child.stderr.read()))
        child.stderr.close()
    assert results["run"] == results["main"]
    assert results["run"][1].startswith("kind,bits,")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, codes", [
    (SWEEP_144, (1, 1)),  # rows past the buffer: the write in main breaks, either way
    (["codebook", "--kind", "int", "--bits", "3"], (1, 1)),  # buffered: the flush in main breaks
], ids=["sweep-144", "codebook"])
def test_output_into_a_closed_pipe(inputs, argv, codes, unbuffered):
    """A reader gone before anything is written."""
    results = {}
    for launcher in LAUNCHERS:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = launch(launcher, argv, inputs, stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        _, err = child.communicate(timeout=120)
        results[launcher] = (child.returncode, reported(err))
    assert results["run"] == results["main"]
    assert results["run"][0] == codes[unbuffered] and "Broken pipe" in results["run"][1]


def test_a_stdout_fault_is_one_error_line(inputs):
    """A closed stdout, or a pipe whose reader is gone, ends the command with exit 1 and one
    line on stderr: no traceback, and no code outside 0-3."""
    closed = same_outcome(CASES["quantize"][0], inputs, close_stdout=True)
    assert closed[:3] == (1, "", "kbitq quantize: stdout is closed\n")
    for argv, prog in ((["codebook", "--kind", "int", "--bits", "3"], "kbitq codebook"),
                       (["--help"], "kbitq")):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = launch("run", argv, inputs, stdout=write_end)
        finally:
            os.close(write_end)
        _, err = child.communicate(timeout=120)
        assert (child.returncode, err) == (1, f"{prog}: [Errno 32] Broken pipe\n")


def book_codes(n_codes: int, fills: str) -> np.ndarray:
    """Codes of four chunks from a book of n_codes: all codes in the first chunk, code
    n_codes - 1 only in the last, or never that code."""
    gen = np.random.Generator(np.random.Philox(key=n_codes))
    codes = gen.integers(0, n_codes - 1, 4 * _CHUNK_ELEMENTS, dtype=np.uint8)
    if fills == "first":
        codes[:n_codes] = np.arange(n_codes)
    elif fills == "last":
        codes[-1] = n_codes - 1
    return codes


@pytest.mark.parametrize("fills", ["first", "last", "never"])
@pytest.mark.parametrize("n_codes", [7, 15, 255])
def test_marks_that_stop_equal_marks_over_every_chunk(n_codes, fills):
    codes = book_codes(n_codes, fills)
    used = _marked(codes, n_codes)
    assert np.array_equal(used, _marked(codes))
    assert np.count_nonzero(used) == (n_codes - (fills == "never"))
    x = np.zeros(codes.size)
    assert ErrorSums.partial(x, x, codes, n_codes=n_codes)[5].tolist() == used.tolist()


def test_lookup_indices_refuses_an_out_it_cannot_fill():
    book, x = build_int_codebook(8), np.linspace(-1, 1, 8).reshape(2, 4)
    for out in (np.full((2, 8), 99, np.intp)[:, ::2],  # not C-contiguous
                np.zeros((8,), np.intp),  # not x's shape
                np.zeros((2, 4), np.int8),  # cannot hold index 254
                np.zeros((2, 4)),  # not integers
                np.zeros((2, 4), bool),
                np.zeros((2, 4), np.intp).tolist()):
        with pytest.raises(InvalidValueError, match="^out must be"):
            lookup_indices(book, x, out=out)
    read_only = np.zeros((2, 4), np.uint8)
    read_only.flags.writeable = False
    with pytest.raises(InvalidValueError, match="^out must be"):
        lookup_indices(book, x, out=read_only)
    small = np.zeros((2, 4), np.int8)  # a 3-bit book's indices fit an int8
    assert lookup_indices(build_int_codebook(3), x, out=small) is small
    assert small.tolist() == lookup_indices(build_int_codebook(3), x).tolist()


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, bool, np.complex128, "U4",
                                   "no such type"])
def test_dequantize_refuses_a_dtype_that_is_not_a_float(dtype):
    q = quantize_tensor(np.linspace(-3, 3, 64), None, QuantConfig("int", 4, 16))
    with pytest.raises(InvalidSpecError, match="^dtype must be a float type"):
        dequantize_tensor(q, dtype=dtype)
    assert dequantize_tensor(q, dtype=np.float16).dtype == np.float16

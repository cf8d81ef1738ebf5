"""Input files are read through a read-only mapping, or read whole where the OS maps none.

A pipe gives the same tensors and output as the file it carries; short files and a directory
fail as they always have; container tensors are read-only views that outlive a replaced file;
a loaded KBQ tensor owns its arrays; and a command may write over its own input.
"""

import contextlib
import os
import threading

import numpy as np
import pytest

from kbitq import QuantConfig, quantize_tensor, read_container, read_kbq, write_container, write_kbq
from kbitq.cli import main
from kbitq.quantizer import QuantizedTensor

needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")


def gaussian(shape, salt):
    return np.random.Generator(np.random.Philox(key=2323 + salt)).standard_normal(shape)


def tensors() -> dict[str, np.ndarray]:
    up = gaussian((48, 64), 0)
    up[:, [5, 40]] *= 8.0
    return {"up": up.astype(np.float32), "down": gaussian((64, 48), 1).astype(np.float16)}


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sections(q: QuantizedTensor) -> dict:
    return {name: None if a is None else (a.dtype.str, a.shape, a.tobytes())
            for name, a in q.sections().items()}


@contextlib.contextmanager
def fed(pipes: dict):
    """A named pipe at each path, fed its bytes once by a writer thread; removed on exit."""
    def feed(path, data):
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)

    threads = []
    for path, data in pipes.items():
        os.mkfifo(path)
        threads.append(threading.Thread(target=feed, args=(path, data), daemon=True))
        threads[-1].start()
    try:
        yield
    finally:
        for path, thread in zip(pipes, threads):
            if thread.is_alive():  # a pipe no reader opened: open it, so its writer ends
                os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            thread.join(timeout=30)
            os.remove(path)
        assert not any(thread.is_alive() for thread in threads)


@pytest.fixture
def files(tmp_path):
    """A container and a centered float4 KBQ file of its tensors, written to tmp_path."""
    write_container(tmp_path / "in.st", tensors())
    config = QuantConfig(kind="float", bits=4, block_size=64, centered=True)
    write_kbq({name: quantize_tensor(t, None, config) for name, t in tensors().items()},
              tmp_path / "t.kbq")
    return tmp_path / "in.st", tmp_path / "t.kbq"


@needs_fifo
def test_a_pipe_reads_as_its_file(files, tmp_path):
    container, kbq = files
    with fed({tmp_path / "p.st": container.read_bytes(), tmp_path / "p.kbq": kbq.read_bytes()}):
        piped, piped_kbq = read_container(tmp_path / "p.st"), read_kbq(tmp_path / "p.kbq")
    regular = read_container(container)
    assert piped.names() == regular.names()
    for name, t in regular.items():
        assert piped.tensor(name).dtype == t.dtype
        np.testing.assert_array_equal(piped.tensor(name), t)
        assert not piped.tensor(name).flags.writeable
    assert {n: sections(q) for n, q in piped_kbq.items()} == {
        n: sections(q) for n, q in read_kbq(kbq).items()}


@needs_fifo
def test_a_pipe_gives_the_cli_output_of_its_file(files, tmp_path, monkeypatch, capsys):
    """Each command run in a directory of regular files, then in one of pipes by those names."""
    container, kbq = files
    blobs = {"in.st": container.read_bytes(), "t.kbq": kbq.read_bytes()}
    commands = [("quantize", "in.st", "q.kbq", "--outlier-p", "0.05"),
                ("dequantize", "t.kbq", "d.st"),
                ("inspect", "t.kbq", "--against", "in.st"),
                ("codebook", "--kind", "quantile", "--bits", "3", "--sample", "in.st")]
    outcomes = {}
    for side in ("regular", "piped"):
        work = tmp_path / side
        work.mkdir()
        monkeypatch.chdir(work)
        for argv in commands:
            inputs = {name: data for name, data in blobs.items() if name in argv}
            if side == "regular":
                for name, data in inputs.items():
                    (work / name).write_bytes(data)
                outcomes[side, argv] = run_cli(capsys, *argv)
            else:
                with fed({work / name: data for name, data in inputs.items()}):
                    outcomes[side, argv] = run_cli(capsys, *argv)
        for name in ("q.kbq", "d.st"):
            outcomes[side, name] = (work / name).read_bytes()
    for key in [*commands, "q.kbq", "d.st"]:
        assert outcomes["piped", key] == outcomes["regular", key]
    assert all(outcomes["regular", argv][0] == 0 for argv in commands)


@pytest.mark.parametrize("blob,command,message", [
    (b"", "quantize", "too short for a container header"),
    (b"1234567", "quantize", "too short for a container header"),
    (b"", "dequantize", "not a KBQ file (bad magic)"),
    (b"1234567", "dequantize", "not a KBQ file (bad magic)"),
    (b"KBQ1abc", "dequantize", "missing manifest length"),
], ids=["empty-container", "7-byte-container", "empty-kbq", "7-byte-kbq", "7-byte-kbq-magic"])
def test_short_files_fail_as_before(tmp_path, monkeypatch, capsys, blob, command, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f").write_bytes(blob)
    output = "t.kbq" if command == "quantize" else "d.st"
    assert run_cli(capsys, command, "f", output) == (3, "", f"kbitq {command}: f: {message}\n")
    assert not (tmp_path / output).exists()


@pytest.mark.parametrize("argv", [("quantize", "adir", "t.kbq"), ("dequantize", "adir", "d.st"),
                                  ("inspect", "adir")], ids=lambda argv: argv[0])
def test_a_directory_fails_as_before(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    assert run_cli(capsys, *argv) == (
        1, "", f"kbitq {argv[0]}: [Errno 21] Is a directory: 'adir'\n")


def test_container_tensors_are_read_only(files):
    for _, t in read_container(files[0]).items():
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[(0,) * t.ndim] = 1.0


def test_a_replaced_container_keeps_its_values(files, tmp_path):
    container = read_container(files[0])
    before = {name: t.copy() for name, t in container.items()}
    write_container(tmp_path / "other.st", {name: -t for name, t in before.items()})
    os.replace(tmp_path / "other.st", files[0])
    write_container(files[0], {"up": np.zeros(3, np.float32)})  # renamed over it again
    for name, t in before.items():
        np.testing.assert_array_equal(container.tensor(name), t)


def test_a_loaded_tensor_owns_its_arrays(files):
    kbq = files[1]
    loaded = read_kbq(kbq)
    before = {name: sections(q) for name, q in loaded.items()}
    for q in loaded.values():
        assert isinstance(q.packed_indices, bytes)
        for a in q.sections().values():
            if a is not None:
                while isinstance(a.base, np.ndarray):  # a reshape's base, or a bytes view
                    a = a.base
                assert a.flags.owndata or isinstance(a.base, bytes)
    with open(kbq, "r+b") as fh:  # the same file, rewritten in place
        fh.write(b"\xff" * kbq.stat().st_size)
    assert {name: sections(q) for name, q in loaded.items()} == before


@pytest.mark.parametrize("argv,separate", [
    (("quantize", "in.st", "in.st", "--outlier-p", "0.05"), "other.kbq"),
    (("dequantize", "t.kbq", "t.kbq"), "other.st"),
], ids=["quantize", "dequantize"])
def test_a_command_may_write_over_its_input(files, tmp_path, monkeypatch, capsys, argv, separate):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv[:2], separate, *argv[3:])
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv) == (0, out.replace(separate, argv[2]), "")
    assert (tmp_path / argv[2]).read_bytes() == (tmp_path / separate).read_bytes()

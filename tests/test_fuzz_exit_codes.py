"""Exit-code fuzz: on mutated KBQ and container files and on argv drawn from the parser's
grammar, `cli.main` returns 0, 1, 2 or 3 and never raises.

Examples are derandomized and bounded, so the module is deterministic and quick. The
inputs are rewritten before every example, because a fuzzed call may overwrite them.
"""

import contextlib
import io
import json
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kbitq import cli, read_kbq, write_container  # noqa: E402

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

RECORDS = "family,n_params,precision_bits,total_bits,metric_kind,value\n" + "".join(
    f"synth,{2**x // 4},{p},{2**x},accuracy,{0.01 * x + p / 100}\n"
    for p in (3.0, 4.0) for x in (20, 23, 26))

# JSON values a manifest or header field may be replaced with
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.sampled_from([2**31, 2**63, -(2**40)]),
    st.floats(allow_nan=True, allow_infinity=True, width=32), st.text(max_size=3),
    st.integers(-3, 70).map(float), st.sampled_from(["0", "1", "4", "8", "16", "0.5"]),
    st.lists(st.integers(-2, 70), max_size=4), st.dictionaries(st.text(max_size=2),
                                                               st.integers(0, 9), max_size=2),
)


def run(argv) -> int:
    """cli.main(argv) with its output captured; the exit code must be one of 0-3."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    return code


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Directory and original bytes of a chained container, two KBQ files and a records CSV."""
    root = tmp_path_factory.mktemp("fuzz")
    gen = np.random.Generator(np.random.Philox(key=91))
    up, down = gen.standard_normal((8, 16)), gen.standard_normal((16, 8))
    up[:, 5] *= 20.0  # down's row 5 becomes an outlier row
    write_container(root / "x.st", {"up": up.astype(np.float32), "down": down.astype(np.float16),
                                    "bias": gen.standard_normal(6).astype(np.float32)})
    (root / "r.csv").write_text(RECORDS)
    assert run(["quantize", root / "x.st", root / "m.kbq", "--bits", 3, "--block-size", 8,
                "--centered", "--outlier-p", 0.1]) == 0
    assert run(["quantize", root / "x.st", root / "q.kbq", "--dtype", "quantile"]) == 0
    originals = {p.name: p.read_bytes() for p in root.iterdir()}
    return root, originals


def restore(inputs):
    root, originals = inputs
    for name, data in originals.items():
        (root / name).write_bytes(data)
    return root, originals


def fields(document, prefix=()):
    """Every key path of a JSON document, into nested objects and lists."""
    items = document.items() if isinstance(document, dict) else enumerate(document)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from fields(value, (*prefix, key))


def mutate_field(data, blob: bytes, magic: int, fmt: str) -> bytes:
    """blob with one field of its JSON document (after magic bytes and a fmt length) replaced.

    The document is padded to its old length when it fits, so section offsets still hold.
    """
    start = magic + struct.calcsize(fmt)
    (length,) = struct.unpack(fmt, blob[magic:start])
    document = json.loads(blob[start : start + length])
    *path, last = data.draw(st.sampled_from(sorted(fields(document), key=repr)))
    node = document
    for key in path:
        node = node[key]
    node[last] = data.draw(JSON_VALUES)
    encoded = json.dumps(document, separators=(",", ":")).encode()
    encoded = encoded.ljust(length) if len(encoded) <= length else encoded
    return blob[:magic] + struct.pack(fmt, len(encoded)) + encoded + blob[start + length :]


def mutate_bytes(data, blob: bytes) -> bytes:
    """blob with up to four bytes overwritten, then truncated anywhere."""
    out = bytearray(blob)
    for pos, value in data.draw(st.lists(st.tuples(st.integers(0, len(out) - 1),
                                                   st.integers(0, 255)), min_size=1, max_size=4)):
        out[pos] = value
    return bytes(out[: data.draw(st.integers(0, len(out)))])


def check_kbq(root, blob: bytes) -> None:
    """dequantize and inspect exit 0-3; dequantize exits 0 only for a file read_kbq accepts."""
    (root / "f.kbq").write_bytes(blob)
    if run(["dequantize", root / "f.kbq", root / "d.st"]) == 0:
        read_kbq(root / "f.kbq")
    run(["inspect", root / "f.kbq", "--against", root / "x.st"])


def check_container(root, blob: bytes) -> None:
    """Every command that reads a container exits 0-3 on blob."""
    c = root / "c.st"
    c.write_bytes(blob)
    run(["quantize", c, root / "o.kbq", "--bits", 3, "--outlier-p", 0.1, "--block-size", 4])
    run(["quantize", c, root / "o.kbq", "--dtype", "quantile"])
    run(["sweep", c, "--dtype", "int,quantile", "--outlier-p", "0,0.1", "--block-size", "4"])
    run(["inspect", root / "m.kbq", "--against", c])
    run(["codebook", "--kind", "quantile", "--bits", 3, "--sample", c])


@FUZZ
@given(data=st.data(), which=st.sampled_from(["m.kbq", "q.kbq"]))
def test_kbq_manifest_fields(inputs, data, which):
    root, originals = restore(inputs)
    check_kbq(root, mutate_field(data, originals[which], 4, "<I"))


@FUZZ
@given(data=st.data(), which=st.sampled_from(["m.kbq", "q.kbq"]))
def test_kbq_bytes(inputs, data, which):
    root, originals = restore(inputs)
    check_kbq(root, mutate_bytes(data, originals[which]))


@settings(FUZZ, max_examples=50)  # five commands per example
@given(data=st.data())
def test_container_header_fields(inputs, data):
    root, originals = restore(inputs)
    check_container(root, mutate_field(data, originals["x.st"], 0, "<Q"))


@settings(FUZZ, max_examples=50)  # five commands per example
@given(data=st.data())
def test_container_bytes(inputs, data):
    root, originals = restore(inputs)
    check_container(root, mutate_bytes(data, originals["x.st"]))


# the parser's grammar: each command's flags, and the values and paths they may be given
FLAGS = {
    "quantize": ["--bits", "--dtype", "--exponent-bits", "--block-size", "--centered",
                 "--outlier-p", "--synthetic", "--seed", "--shape"],
    "dequantize": [],
    "inspect": ["--against"],
    "codebook": ["--kind", "--bits", "--exponent-bits", "--sample"],
    "sweep": ["--bits", "--dtype", "--block-size", "--centered", "--outlier-p", "--synthetic",
              "--seed", "--shape"],
    "scaling-fit": ["--budgets"],
}
VALUES = ["0", "1", "2", "3", "4", "8", "9", "-1", "-5", "0.1", "1.0", "nan", "inf", "x", "",
          ",", "1e300", "whole", "none", "4x", "0x4", "8x8", "3,4", "0,1", "0,0.1", "7,whole",
          "int", "float", "dynamic", "quantile", "uint", "int,quantile", "gaussian",
          "student-t", "uniform", "4194304", "4194304,,33554432", "--", "-h"]
PATHS = ["x.st", "m.kbq", "q.kbq", "r.csv", "missing.st", "o.kbq", "o.st"]


@FUZZ
@given(data=st.data(), command=st.sampled_from(sorted(FLAGS)))
def test_argv_from_the_grammar(inputs, data, command):
    root, _ = restore(inputs)
    token = st.one_of(st.sampled_from(FLAGS[command] or ["--help"]), st.sampled_from(VALUES),
                      st.sampled_from(PATHS).map(lambda name: str(root / name)))
    argv = [command, *data.draw(st.lists(token, max_size=7))]
    if command in ("quantize", "sweep"):  # small synthetic tensors unless a later flag says
        argv[1:1] = ["--shape", "8x8"]
    run(argv)

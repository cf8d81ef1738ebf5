"""Every JSON payload on stdout is strict JSON: no NaN, Infinity or -Infinity constants.

Each JSON-printing command runs in process on finite inputs, lossless and zero-signal ones
among them, and its stdout must parse with every non-standard constant refused."""

import json

import numpy as np
import pytest

from kbitq import write_container
from test_cli import run_cli


def strict(text: str):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("strict_json")
    gen = np.random.Generator(np.random.Philox(key=2626))
    up = gen.standard_normal((32, 48))
    up[:, [5, 20]] *= 8.0
    write_container(root / "chain.st", {
        "up": up.astype(np.float32),
        "down": gen.standard_t(3, (48, 32)).astype(np.float16),
        "grid": np.tile(np.arange(-3.0, 4.0), (4, 1)).astype(np.float32),  # int3: lossless
        "zeros": np.zeros((8, 8), np.float32),  # zero signal
    })
    rows = ["family,n_params,precision_bits,total_bits,metric_kind,value"]
    rows += [f"synth,{2**x // 4},{p},{2**x},perplexity,{30.0 - x + p / 10}"
             for p in (3.0, 4.0, 16.0) for x in (20, 23, 26)]
    (root / "records.csv").write_text("\n".join(rows) + "\n")
    return root


@pytest.mark.parametrize("flags", [
    ["--bits", "3"],
    ["--dtype", "float", "--block-size", "64", "--centered"],
    ["--dtype", "dynamic", "--bits", "8", "--outlier-p", "0.05"],
], ids=["int3", "float4-b64-centered", "dynamic8-outliers"])
def test_quantize_dequantize_and_inspect_print_strict_json(capsys, inputs, tmp_path, flags):
    chain = inputs / "chain.st"
    code, out, _ = run_cli(capsys, "quantize", chain, tmp_path / "t.kbq", *flags)
    assert code == 0
    errors = {name: t["error"] for name, t in strict(out)["tensors"].items()}
    assert errors["zeros"]["snr_db"] is None and errors["zeros"]["lossless"]
    for argv in (["dequantize", tmp_path / "t.kbq", tmp_path / "d.st"],
                 ["inspect", tmp_path / "t.kbq"],
                 ["inspect", tmp_path / "t.kbq", "--against", chain]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and strict(out)


@pytest.mark.parametrize("kind", ["int", "float", "dynamic", "quantile"])
def test_codebook_prints_strict_json(capsys, inputs, kind):
    code, out, _ = run_cli(capsys, "codebook", "--kind", kind, "--bits", "4",
                           "--sample", inputs / "chain.st")
    assert code == 0 and len(strict(out)["values"]) <= 16


def test_scaling_fit_prints_strict_json(capsys, inputs):
    code, out, _ = run_cli(capsys, "scaling-fit", inputs / "records.csv",
                           "--budgets", "2097152,33554432")
    assert code == 0 and len(strict(out)["pareto"]) == 2

"""Non-finite inputs are refused, never reported as numbers.

`scaling-fit` refuses a record whose precision_bits, total_bits or value is NaN or infinite,
naming each bad line, with exit code 3; a ScalingRecord refuses one in the library. `inspect
--against` refuses an original holding a NaN or an infinity, in a kept slab or in an outlier
row, with exit code 1 and nothing on stdout, as `quantize` does; ErrorSums.add_quantized
raises before any partial joins its sums.
"""

import math

import numpy as np
import pytest

from kbitq import quantizer, read_kbq, write_container
from kbitq.accounting import ErrorSums
from kbitq.errors import InvalidSpecError, InvalidValueError
from kbitq.scaling import ScalingRecord
from test_cli import run_cli

HEADER = "family,n_params,precision_bits,total_bits,metric_kind,value"
COLUMNS = {"precision_bits": 2, "total_bits": 3, "value": 5}
NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def records_csv(tmp_path, column=None, text=None):
    """Three precisions at three sizes; the record on line 6 gets text in column, if given."""
    rows = [HEADER]
    for p in (3.0, 4.0, 16.0):
        for x in (20, 23, 26):
            rows.append(f"synth,{2**x // 4},{p},{2**x},perplexity,{30.0 - x + p / 10}")
    if column is not None:
        cells = rows[5].split(",")
        cells[COLUMNS[column]] = text
        rows[5] = ",".join(cells)
    path = tmp_path / "records.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("text", list(NON_FINITE))
@pytest.mark.parametrize("column", list(COLUMNS))
def test_scaling_fit_refuses_a_non_finite_field(capsys, tmp_path, column, text):
    path = records_csv(tmp_path, column, text)
    code, out, err = run_cli(capsys, "scaling-fit", path, "--budgets", "16777216")
    value = float(text)
    assert (code, out) == (3, "")
    assert err == f"kbitq scaling-fit: {path}: line 6: {column} must be finite, got {value}\n"


def test_scaling_fit_names_every_non_finite_line(capsys, tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(f"{HEADER}\na,1,4,16,perplexity,nan\na,1,4,32,perplexity,inf\n"
                    "a,1,4,64,perplexity,3.5\n")
    code, out, err = run_cli(capsys, "scaling-fit", path)
    assert (code, out) == (3, "")
    assert "line 2: value must be finite, got nan; line 3: value must be finite, got inf" in err


def test_finite_records_still_fit(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "scaling-fit", records_csv(tmp_path))
    assert code == 0 and out.startswith("{")


@pytest.mark.parametrize("value", list(NON_FINITE.values()), ids=list(NON_FINITE))
@pytest.mark.parametrize("field", list(COLUMNS))
@pytest.mark.parametrize("kind", ["accuracy", "perplexity"])
def test_scaling_record_refuses_a_non_finite_field(kind, field, value):
    fields = {"family": "f", "n_params": 10, "precision_bits": 4.0, "total_bits": 40.0,
              "metric_kind": kind, "value": 0.5}
    with pytest.raises(InvalidSpecError, match=f"^{field} must be finite"):
        ScalingRecord(**{**fields, field: value})


def chain(bad=None):
    """up -> down: at p=0.05 down's rows 3 and 40 are among its outlier rows. bad = (where,
    value) puts value in its kept row 50 ("slab") or in its outlier row 40 ("row")."""
    gen = np.random.Generator(np.random.Philox(key=2424))
    up = gen.standard_normal((48, 64))
    up[:, [3, 40]] *= 8.0
    down = gen.standard_normal((64, 48)) + 1.5
    down[[3, 40]] *= 30.0
    tensors = {"up": up.astype(np.float32), "down": down.astype(np.float32)}
    if bad is not None:
        where, value = bad
        tensors["down"][(50, 7) if where == "slab" else (40, 7)] = value
    return tensors


@pytest.fixture
def quantized_chain(capsys, tmp_path):
    write_container(tmp_path / "chain.st", chain())
    assert run_cli(capsys, "quantize", tmp_path / "chain.st", tmp_path / "t.kbq",
                   "--block-size", 64, "--outlier-p", 0.05)[0] == 0
    q = read_kbq(tmp_path / "t.kbq")["down"]
    assert 40 in q.outlier_dims and 50 not in q.outlier_dims
    return tmp_path / "t.kbq", q


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("where", ["slab", "row"])
@pytest.mark.parametrize("value", list(NON_FINITE.values()), ids=list(NON_FINITE))
def test_inspect_against_refuses_a_non_finite_original(monkeypatch, capsys, tmp_path,
                                                      quantized_chain, value, where, workers):
    monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 256)  # down's kept rows: 12 slabs
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    kbq, q = quantized_chain
    tensors = chain((where, value))
    write_container(tmp_path / "bad.st", tensors)
    assert run_cli(capsys, "inspect", kbq, "--against", tmp_path / "bad.st") == (
        1, "", "kbitq inspect: tensor contains non-finite values\n")

    sums = ErrorSums()
    sums.add_quantized(chain()["up"], read_kbq(kbq)["up"])
    before = dict(vars(sums))
    with pytest.raises(InvalidValueError, match="^tensor contains non-finite values$"):
        sums.add_quantized(tensors["down"], q)
    assert vars(sums) == before
    fresh = ErrorSums()
    with pytest.raises(InvalidValueError):
        fresh.add_quantized(tensors["down"], q)
    assert vars(fresh) == vars(ErrorSums())


def test_inspect_against_finite_originals_still_scores(capsys, quantized_chain, tmp_path):
    kbq, _ = quantized_chain
    code, out, _ = run_cli(capsys, "inspect", kbq, "--against", tmp_path / "chain.st")
    assert code == 0 and '"mae": NaN' not in out and '"snr_db": null' not in out

"""Each command imports only the modules it calls.

`kbitq/__init__.py` resolves its exports and submodules on first use (PEP 562), `cli.py`
imports accounting, outliers and scaling inside the commands that call them, and
`build_dynamic_codebook` imports fractions itself. Each command runs in a fresh interpreter,
since an import made by an earlier test would hide one made by the command.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kbitq
from kbitq import QuantConfig, quantize_tensor, write_container, write_kbq

WATCHED = ("kbitq.accounting", "kbitq.outliers", "kbitq.scaling", "fractions")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    gen = np.random.Generator(np.random.Philox(key=2526))
    up, down = gen.standard_normal((48, 64)), gen.standard_normal((64, 48))
    write_container(root / "in.st", {"up": up.astype(np.float32), "down": down.astype(np.float32)})
    write_kbq({"w": quantize_tensor(up, None, QuantConfig("int", 4, 64))}, root / "int4.kbq")
    return root


def loaded(script: str, cwd: Path) -> list[str]:
    """The stdout lines of script run in a fresh interpreter that imports this kbitq."""
    src = str(Path(kbitq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def modules_after(argv, cwd: Path) -> list[str]:
    """The WATCHED modules loaded by a fresh process once cli.main(argv) has returned 0."""
    argv = [str(cwd / a) if a.endswith((".st", ".kbq")) else a for a in argv]
    script = ("import contextlib, io, sys\nfrom kbitq import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = cli.main({argv!r})\n"
              f"print(code, *[m for m in {WATCHED!r} if m in sys.modules])\n")
    code, *names = loaded(script, cwd)[-1].split()
    assert code == "0"
    return names


def test_dequantize_loads_no_accounting_outliers_scaling_or_fractions(inputs):
    assert modules_after(["dequantize", "int4.kbq", "out.st"], inputs) == []


COMMANDS = {
    "quantize": ["quantize", "in.st", "out.kbq", "--dtype", "quantile"],
    "quantize-dynamic": ["quantize", "in.st", "out.kbq", "--dtype", "dynamic"],
    "sweep": ["sweep", "in.st", "--dtype", "int,float,quantile", "--block-size", "64,whole"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_no_outlier_fraction_loads_no_outliers_or_scaling(inputs, argv):
    names = modules_after(argv, inputs)
    assert "kbitq.accounting" in names
    assert "kbitq.outliers" not in names and "kbitq.scaling" not in names


def test_an_outlier_fraction_loads_outliers_but_not_scaling(inputs):
    names = modules_after(["sweep", "in.st", "--outlier-p", "0,0.05"], inputs)
    assert "kbitq.outliers" in names and "kbitq.scaling" not in names


def test_star_import_binds_every_export(tmp_path):
    """Each name is bound to the object its home module holds."""
    script = ("import importlib, kbitq\nnames = {}\nexec('from kbitq import *', names)\n"
              "homes = {n: importlib.import_module('kbitq.' + kbitq._HOME[n]) for n in names\n"
              "         if n in kbitq.__all__}\n"
              "print(sorted(homes) == kbitq.__all__,\n"
              "      all(names[n] is getattr(homes[n], n) for n in kbitq.__all__))\n")
    assert loaded(script, tmp_path) == ["True True"]


def test_submodules_resolve_after_a_bare_import(tmp_path):
    script = ("import sys, kbitq\nprint('kbitq.outliers' in sys.modules)\n"
              "print(kbitq.outliers.__name__, kbitq.scaling.__name__, kbitq.cli.__name__)\n"
              "print(set(kbitq.__all__) <= set(dir(kbitq)), 'outliers' in dir(kbitq))\n")
    assert loaded(script, tmp_path) == ["False", "kbitq.outliers kbitq.scaling kbitq.cli",
                                        "True True"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        kbitq.nothing
    assert not hasattr(kbitq, "nothing")

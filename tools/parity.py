"""Byte-for-byte parity of the kbitq CLI between two git revisions.

    python3 tools/parity.py PARENT_REV CHANGE_REV

Each revision's committed tree is exported with `git archive` into its own
temporary directory, so the working tree and the repository's `.git` are
left alone. A fixed battery of `cli.main` calls then runs once per
revision, each revision in a fresh interpreter that imports its own
`src/`: quantize, dequantize and `inspect` (with and without `--against`)
for every codebook kind, a few widths and block sizes, centering and
outlier rows; a chained F16 pair wider than one slab; a 0-d tensor and a
container with no tensors; short, overrun and cut-short containers and KBQ
files, a directory as input, and commands that write over their own input;
sweep grids (a 144-config one, one whose whole blocks are longer than a
slab, one of an all-F16 chain with outlier rows and quantile widths, and a
whole-block quantile8 one whose book takes two lookup probes, among them); `codebook`, quantile books sampled from a mixed F32/F16
container among them; `scaling-fit`; and the usage, runtime and format
errors, NaN and infinite originals of `inspect --against` and scaling
records among them. A few more cases run each call through `python -m kbitq`
in a fresh interpreter, so the entry point's own exit is compared too:
quantize, dequantize, sweep, a usage error and a closed stdout. The inputs
are written by this script, not by kbitq, so both revisions read the same
bytes.

Exit codes, stdout, stderr and every file a case writes are compared byte
for byte (a fresh call's traceback by its last line, since its frames name
each revision's own files), and a stdout of the second revision that starts
with `{` must parse as strict JSON (no NaN or Infinity constants). The summary goes to
stdout; the exit status is 0 when every call matched and 1 otherwise. This
is a development tool, not part of the tests; it needs Python 3.10.12 or
3.11.4 and later (tarfile's "data" filter).
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import struct
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

KINDS = ("int", "float", "dynamic", "quantile")
SWEEP_144 = ["--dtype", "int,float,dynamic,quantile", "--bits", "3,4,8",
             "--block-size", "7,64,whole", "--centered", "0,1", "--outlier-p", "0,0.05"]


def write_inputs(root: Path) -> None:
    """Containers of the battery: u64 header length, JSON header, little-endian data."""
    gen = np.random.Generator(np.random.Philox(key=2212))
    up = gen.standard_normal((48, 64))
    up[:, [3, 40]] *= 8.0  # down's rows 3 and 40 become outlier rows
    down = gen.standard_normal((64, 48)) + 1.5
    down[[3, 40]] *= 30.0
    chain = {
        "up": up.astype("<f4"),
        "down": down.astype("<f2"),
        "bias": gen.standard_t(2, 64).astype("<f4"),
        "conv": gen.standard_normal((4, 6, 8)).astype("<f4"),
        "grid": np.tile(np.arange(-3.0, 4.0), (6, 1)).astype("<f4"),  # int3 is lossless here
    }
    # a chained pair wider than one 2^18-element slab: down's kept rows of 600 values
    # cross slab boundaries mid-row, between its planted outlier rows
    wide_up = gen.standard_normal((600, 1000))
    wide_up[:, [7, 300, 301, 999]] *= 8.0
    wide_down = gen.standard_normal((1000, 600)) + 0.5
    wide_down[[7, 300, 301, 999]] *= 30.0
    root.mkdir(parents=True, exist_ok=True)
    _write_container(root / "chain.st", chain)
    _write_container(root / "wide.st", {"up": wide_up.astype("<f2"),
                                        "down": wide_down.astype("<f2")})
    _write_container(root / "half.st", {"up": up.astype("<f2"), "down": down.astype("<f2")})
    # a NaN in a kept row of up; +inf in down's outlier row 40
    for name, layer, at, value in (("nan", "up", (10, 20), np.nan),
                                   ("inf", "down", (40, 5), np.inf)):
        bad = {**chain, layer: chain[layer].copy()}
        bad[layer][at] = value
        _write_container(root / f"chain_{name}.st", bad)
    _write_container(root / "scalar.st", {"s": np.array(-2.5, "<f4"),
                                          "v": np.arange(5, dtype="<f2")})
    _write_container(root / "empty.st", {})
    _write_container(root / "zeros.st", {"w": np.zeros((16, 16), "<f4")})
    _write_container(root / "big.st", {"w": (gen.standard_normal((64, 64)) * 1e6).astype("<f4")})
    # read-path faults: files too short for a header, a header past the end, cut-short data
    (root / "zero.st").write_bytes(b"")
    (root / "seven.st").write_bytes(b"\x10\0\0\0\0\0\0")
    (root / "overrun.st").write_bytes(struct.pack("<Q", 4096) + b"{}")
    whole = (root / "chain.st").read_bytes()
    (root / "cut.st").write_bytes(whole[: len(whole) - 100])
    (root / "zero.kbq").write_bytes(b"")
    (root / "overrun.kbq").write_bytes(_kbq_past_the_end())
    records = ["family,n_params,precision_bits,total_bits,metric_kind,value"]
    records += [f"synth,{2**x // 4},{p},{2**x},accuracy,{0.01 * x + p / 100}"
                for p in (3.0, 4.0, 16.0) for x in (20, 23, 26)]
    (root / "records.csv").write_text("\n".join(records) + "\n")
    nonfinite = [records[0]] + [f"synth,{2**x // 4},{p},{2**x},perplexity,{30 - x + p / 10}"
                                for p in (3.0, 4.0) for x in (20, 23)]
    nonfinite += [f"synth,1,{p},{bits},perplexity,{value}"
                  for p, bits, value in (("3.0", "2e6", "nan"), ("inf", "2e6", "9.5"),
                                         ("4.0", "inf", "9.5"), ("4.0", "2e6", "inf"))]
    (root / "nonfinite.csv").write_text("\n".join(nonfinite) + "\n")
    nan_values = nonfinite[:5] + [f"synth,1,{p},4e6,perplexity,{v}"
                                  for p, v in (("3.0", "nan"), ("4.0", "inf"))]
    (root / "nan_values.csv").write_text("\n".join(nan_values) + "\n")
    (root / "latin1.csv").write_bytes("\n".join(records[:2]).encode() + b"\xff\n")
    # heavy tails: the whole-block quantile8 book of this tensor takes 2 lookup probes
    heavy = np.random.Generator(np.random.Philox(key=2520)).standard_t(2, (1024, 1024))
    _write_container(root / "heavy.st", {"w": heavy.astype("<f4")})


def _write_container(path: Path, tensors: dict[str, np.ndarray]) -> None:
    header, offset = {}, 0
    for name, arr in tensors.items():
        header[name] = {"dtype": "F16" if arr.dtype == np.float16 else "F32",
                        "shape": list(arr.shape), "data_offsets": [offset, offset + arr.nbytes]}
        offset += arr.nbytes
    encoded = json.dumps(header, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<Q", len(encoded)) + encoded
                     + b"".join(arr.tobytes() for arr in tensors.values()))


def _kbq_past_the_end() -> bytes:
    """A KBQ file of one int4 tensor of 16 elements whose indices section runs past its end."""
    sections = {"indices": [64, 4096], "absmax": [64, 2], "means": [64, 0],
                "outlier_dims": [64, 0], "outlier_rows": [64, 0]}
    entry = {"shape": [16], "dtype": {"kind": "int", "bits": 4, "exponent_bits": None},
             "block_size": 64, "centered": False, "outlier_fraction": 0.0, "n_quantized": 16,
             "sections": sections}
    manifest = json.dumps({"version": 1, "tensors": {"w": entry}}).encode()
    head = b"KBQ1" + struct.pack("<I", len(manifest)) + manifest
    return head + b"\0" * 16


def battery() -> list[list[list[str]]]:
    """Cases of calls; the calls of one case share a directory, inputs live in ../inputs."""
    chain = "../inputs/chain.st"
    cases = []
    for kind in KINDS:
        for bits in ("3", "4", "8"):
            for block in ("7", "64", "whole"):
                for extra in ([], ["--centered"], ["--outlier-p", "0.05"],
                              ["--centered", "--outlier-p", "0.05"]):
                    cases.append([
                        ["quantize", chain, "t.kbq", "--dtype", kind, "--bits", bits,
                         "--block-size", block, *extra],
                        ["dequantize", "t.kbq", "d.st"],
                        ["inspect", "t.kbq", "--against", chain],
                        ["inspect", "t.kbq"],
                    ])
    for kind in ("int", "quantile"):
        for block in ("64", "whole"):
            for extra in ([], ["--centered"], ["--outlier-p", "0.05"],
                          ["--centered", "--outlier-p", "0.05"]):
                cases.append([
                    ["quantize", "../inputs/wide.st", "t.kbq", "--dtype", kind,
                     "--block-size", block, *extra],
                    ["dequantize", "t.kbq", "d.st"],
                    ["inspect", "t.kbq", "--against", "../inputs/wide.st"],
                ])
    for path in ("../inputs/scalar.st", "../inputs/empty.st"):
        cases.append([["quantize", path, "t.kbq"], ["dequantize", "t.kbq", "d.st"],
                      ["inspect", "t.kbq", "--against", path], ["sweep", path],
                      ["codebook", "--kind", "quantile", "--bits", "3", "--sample", path]])
    cases += [
        [["quantize", "t.kbq", "--synthetic", "student-t", "--seed", "5", "--shape",
          "64x64,64x64", "--dtype", "quantile", "--outlier-p", "0.05"],
         ["dequantize", "t.kbq", "d.st"]],
        [["quantize", "t.kbq", "--synthetic", "gaussian", "--shape", "96", "--dtype", "float",
          "--exponent-bits", "1", "--bits", "5"]],
        [["sweep", chain, *SWEEP_144]],
        # whole blocks of 600000 kept elements, each cut into leaves of at most one slab
        [["sweep", "../inputs/wide.st", "--dtype", "int,quantile", "--bits", "3,8",
          "--block-size", "64,whole", "--centered", "0,1", "--outlier-p", "0,0.05"]],
        [["sweep", "--synthetic", "student-t", "--seed", "7", "--shape", "256x256",
          "--bits", "3,4,8", "--dtype", "int,float,quantile", "--block-size", "64,whole"]],
        [["sweep", "--synthetic", "gaussian", "--shape", "64x64,64x64", "--dtype",
          "quantile,int", "--bits", "2,5", "--outlier-p", "0.1,0", "--centered", "1,0"]],
        # a book of more than one probe: its lookup runs past the first one
        [["sweep", "../inputs/heavy.st", "--dtype", "quantile", "--bits", "8", "--block-size",
          "whole"]],
        [["codebook", "--kind", kind, "--bits", bits, "--sample", chain]
         for kind in KINDS for bits in ("3", "8")],
        # an all-F16 chain: each slab cast from binary16, outlier rows at two fractions
        [["sweep", "../inputs/half.st", "--dtype", "quantile,int", "--bits", "2,3,5,8",
          "--block-size", "32,whole", "--centered", "0,1", "--outlier-p", "0,0.05,0.1"]],
        # quantile books of every width from the mixed F32/F16 chain and the F16 wide pair
        [["codebook", "--kind", "quantile", "--bits", bits, "--sample", sample]
         for sample in (chain, "../inputs/wide.st") for bits in map(str, range(2, 9))],
        # runtime and usage errors
        [["quantize", "../inputs/zeros.st", "t.kbq", "--dtype", "quantile"]],
        [["quantize", "../inputs/big.st", "t.kbq", "--bits", "8", "--block-size", "64"]],
        [["sweep", "../inputs/zeros.st", "--dtype", "int,quantile", "--centered", "0,1"]],
        [["sweep", "../inputs/big.st", "--dtype", "int,quantile", "--block-size", "64"]],
        [["sweep", chain, "--bits", ""], ["sweep", chain, "--block-size", "0,64"],
         ["sweep", chain, "--dtype", "float", "--bits", "2,3"],
         ["sweep", chain, "--outlier-p", "0,1.0"], ["sweep", chain, "--dtype", "uint"],
         ["sweep", chain, "--centered", "x"], ["quantize", "t.kbq", "--synthetic", "gaussian",
                                               "--block-size", "0"]],
        [["dequantize", "missing.kbq", "d.st"], ["inspect", chain]],
        [["scaling-fit", "../inputs/records.csv", "--budgets", "4194304,33554432"]],
        # a float width outside [1, bits), a centering flag other than 0/1, non-UTF-8 records
        [["quantize", "t.kbq", "--synthetic", "gaussian", "--shape", "96", "--dtype", "float",
          "--exponent-bits", "0", "--bits", "5"],
         ["codebook", "--kind", "float", "--bits", "5", "--exponent-bits", "0"],
         ["sweep", chain, "--centered", "2"], ["scaling-fit", "../inputs/latin1.csv"]],
        # read-path faults, a directory as input, and commands writing over their own input
        [["quantize", f"../inputs/{name}.st", "t.kbq"]
         for name in ("zero", "seven", "overrun", "cut")]
        + [["dequantize", f"../inputs/{name}.kbq", "d.st"] for name in ("zero", "overrun")]
        + [["inspect", "../inputs/overrun.kbq"], ["quantize", "../inputs", "t.kbq"],
           ["dequantize", "../inputs", "d.st"], ["inspect", "../inputs"]],
        [["quantize", "self.st", "--synthetic", "student-t", "--seed", "9", "--shape", "40x24"],
         ["dequantize", "self.st", "self.st"], ["quantize", "self.st", "self.st",
                                                "--dtype", "float", "--outlier-p", "0.05"],
         ["inspect", "self.st"], ["dequantize", "self.st", "self.st"]],
        # input routing: one path without --synthetic, three paths, an input and --synthetic
        [["quantize", "t.kbq"], ["quantize", chain, chain, "t.kbq"],
         ["quantize", chain, "t.kbq", "--synthetic", "gaussian"], ["sweep", chain, chain],
         ["sweep"], ["sweep", chain, "--synthetic", "gaussian"]],
        # budgets that are not finite positive numbers, and a list of empty items
        [["scaling-fit", "../inputs/records.csv", "--budgets", budgets]
         for budgets in ("x", "nan", "-5", ",")],
        # non-finite inputs: scaling records, and originals scored by inspect --against
        [["scaling-fit", "../inputs/nonfinite.csv"],
         ["scaling-fit", "../inputs/nan_values.csv", "--budgets", "4194304"]],
        [["quantize", chain, "t.kbq", "--outlier-p", "0.05"],
         ["inspect", "t.kbq", "--against", "../inputs/chain_nan.st"],
         ["inspect", "t.kbq", "--against", "../inputs/chain_inf.st"]],
    ]
    return cases


def fresh_battery() -> list[list[list[str]]]:
    """Cases whose calls each run as `python -m kbitq` in a fresh interpreter; a call that
    starts with ">&-" runs with its stdout closed, as the shell's `>&-` closes it."""
    chain = "../inputs/chain.st"
    return [
        [["quantize", chain, "t.kbq", "--outlier-p", "0.05"]],
        [["quantize", chain, "t.kbq", "--dtype", "quantile"], ["dequantize", "t.kbq", "d.st"]],
        [["sweep", chain, *SWEEP_144]],
        [["quantize", "t.kbq", "--synthetic", "gaussian", "--bits", "9"]],
        [[">&-", "quantize", chain, "t.kbq"], [">&-", "sweep", chain, "--dtype", "uint"]],
    ]


def run_fresh(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of argv run through `python -m kbitq` in this directory,
    with stdout block-buffered (PYTHONUNBUFFERED unset), as it is by default."""
    closed = argv[0] == ">&-"
    command = [sys.executable, "-m", "kbitq", *argv[closed:]]
    if closed:
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run(command, capture_output=True, text=True, env=env)
    head, sep, trace = done.stderr.partition("Traceback (most recent call last):\n")
    return done.returncode, done.stdout, head + sep + trace.rstrip("\n").rsplit("\n", 1)[-1]


def run_here(argv: list[str]) -> tuple[int | str, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv) in this interpreter."""
    from kbitq import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is an outcome to compare, not a stop
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def run_battery(work: Path, result_path: Path) -> None:
    """Run every case in work/case_<i> with the kbitq on sys.path; write the outcomes as JSON."""
    outcomes, cases = [], battery()
    for i, case in enumerate(cases + fresh_battery()):
        case_dir = work / f"case_{i:03d}"
        case_dir.mkdir()
        os.chdir(case_dir)
        for argv in case:
            code, out, err = (run_here if i < len(cases) else run_fresh)(argv)
            outcomes.append({"case": i, "argv": argv, "code": code, "stdout": out,
                             "stderr": err})
    result_path.write_text(json.dumps(outcomes))


def export(rev: str, dest: Path) -> str:
    """Write the committed tree of rev into dest; return its full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], check=True,
                         capture_output=True, text=True).stdout.strip()
    tar_path = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(tar_path), sha], check=True)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    tar_path.unlink()
    return sha


def compare(root: Path, revs: list[str]) -> int:
    runs = []
    for side, rev in zip(("a", "b"), revs):
        tree, work = root / f"tree_{side}", root / f"work_{side}"
        sha = export(rev, tree)
        work.mkdir()
        write_inputs(work / "inputs")
        result = root / f"result_{side}.json"
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run-battery",
                        str(work), str(result)], check=True, env=env)
        runs.append((sha, work, json.loads(result.read_text())))

    (sha_a, work_a, calls_a), (sha_b, work_b, calls_b) = runs
    differ = [f"{' '.join(a['argv'])}: {field} differs"
              for a, b in zip(calls_a, calls_b) for field in ("code", "stdout", "stderr")
              if a[field] != b[field]]
    differ += [f"{' '.join(b['argv'])}: stdout is not strict JSON"
               for b in calls_b if b["stdout"].startswith("{") and not _strict_json(b["stdout"])]
    files = 0
    for case_a in sorted(p for p in work_a.iterdir() if p.name.startswith("case_")):
        case_b = work_b / case_a.name
        names = sorted({p.name for p in case_a.iterdir()} | {p.name for p in case_b.iterdir()})
        for name in names:
            files += 1
            if not (case_a / name).exists() or not (case_b / name).exists():
                differ.append(f"{case_a.name}/{name}: written by one revision only")
            elif not filecmp.cmp(case_a / name, case_b / name, shallow=False):
                differ.append(f"{case_a.name}/{name}: bytes differ")
    failures = sum(isinstance(c["code"], str) for c in calls_a + calls_b)
    n_cases = len(battery()) + len(fresh_battery())
    print(f"parity {sha_a[:12]} -> {sha_b[:12]}: {len(calls_a)} calls in "
          f"{n_cases} cases, {files} written files; {len(differ)} differences; "
          f"{failures} calls raised instead of returning an exit code")
    for line in differ:
        print(f"  {line}")
    return 1 if differ else 0


def _strict_json(text: str) -> bool:
    """Whether text parses as JSON with no NaN, Infinity or -Infinity constant."""
    def refuse(constant):
        raise ValueError(f"non-standard constant {constant}")

    try:
        json.loads(text, parse_constant=refuse)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revs", nargs="*", metavar="REV")
    parser.add_argument("--run-battery", nargs=2, metavar=("WORK", "RESULT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_battery:
        run_battery(Path(args.run_battery[0]), Path(args.run_battery[1]))
        return 0
    if len(args.revs) != 2:
        parser.error("give two revisions")
    with tempfile.TemporaryDirectory(prefix="kbitq-parity-") as tmp:
        return compare(Path(tmp), args.revs)


if __name__ == "__main__":
    sys.exit(main())

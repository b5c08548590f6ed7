"""Regenerate the committed golden reports under tests/golden.

Runs the command line fci method on the 2-orbital hydrogen fixture and
stores the eigenvalue list, after checking it against the independent
dense-algebra oracle used by the test suite. It also runs two seeded
sampled methods on the same fixture and stores the `result` and `shots`
sections of their reports (the config echo holds the output path, which
varies between runs). Finally it runs every method once with its defaults,
two non-default variants and one sweep per axis, and stores their `result`
sections and sweep.csv rows. A fourth file pins the `result` sections of
seven runs on the wider fixtures (h4_toy and h3_plus, 6 to 8 qubits), where
the Pauli kernels, QITE, the group models and the Trotter steps work on
more than one qubit pair; two of them sample fully commuting groups. The
committed files pin the exact floating-point output of one BLAS thread,
so any platform or code drift shows up as a bit-level mismatch.
Run from the repository root:

    python scripts/make_golden.py           # rewrite the committed files
    python scripts/make_golden.py --check   # report what a rewrite would change

--check regenerates everything in memory, writes nothing, prints each
field that differs from the committed files with its absolute and
relative change, and exits 1 if any field differs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pathlib
import sys
import tempfile

# one BLAS thread before numpy is imported, as tests/conftest.py and
# perfbench/run.py set it: a threaded OpenBLAS may sum in another order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import sector_fci  # noqa: E402

from qsubspace.cli import main as run_cli  # noqa: E402
from qsubspace.integrals import parse_fcidump  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "h2_sto3g.fcidump"
OUT = ROOT / "tests" / "golden" / "fci_h2_sto3g.json"
SAMPLED_OUT = ROOT / "tests" / "golden" / "sampled_h2_sto3g.json"
SAMPLED_RUNS = (
    ("qfd", "--shots", "2048", "--seed", "7"),
    ("qse", "--level", "S", "--shots", "10000", "--seed", "7"),
)
METHODS_OUT = ROOT / "tests" / "golden" / "methods_h2_sto3g.json"
# qeom --tda is not pinned here; tests/test_cli.py checks its gaps against
# the full pencil. qlanczos --mode qite runs at n=2: at the default n=4 its
# overlap is indefinite on this fixture (exit 5)
METHOD_RUNS = (
    ("fci",),
    ("lanczos",),
    ("davidson",),
    ("power-krylov",),
    ("chebyshev",),
    ("gaussian-power",),
    ("qse",),
    ("qeom",),
    ("qfd",),
    ("qlanczos",),
    ("spectrum",),
    ("fastforward",),
    ("qlanczos", "--mode", "qite", "--n", "2"),
    ("spectrum", "--op", "ham", "--omega-points", "5"),
    ("lanczos", "--sweep", "n=1,2,3"),
    ("qfd", "--sweep", "dt=0.2,0.4,0.8"),
    ("power-krylov", "--sweep", "eps=1e-12,1e-6,1e-2"),
    ("qfd", "--sweep", "shots=500,2000", "--seed", "3"),
)
WIDE_OUT = ROOT / "tests" / "golden" / "wide_fixtures.json"
WIDE_RUNS = (
    ("h4_toy", ("qlanczos", "--mode", "qite")),
    ("h4_toy", ("spectrum", "--op", "ham")),
    ("h4_toy", ("qfd", "--shots", "10000", "--seed", "3")),
    ("h3_plus", ("qse", "--level", "S", "--eps-target", "1e-3", "--seed", "3")),
    ("h4_toy", ("qfd", "--shots", "2000", "--grouping", "full", "--seed", "3")),
    ("h3_plus", ("qse", "--level", "S", "--eps-target", "1e-3", "--grouping", "full",
                 "--seed", "3")),
    ("h4_toy", ("qfd", "--backend", "trotter", "--n", "6", "--substeps", "2",
                "--sweep", "dt=0.2,0.4,0.8")),
)


def run_report(args, fixture=FIXTURE):
    """The parsed result.json of one run, and its sweep.csv rows or None."""
    with tempfile.TemporaryDirectory() as tmp:
        code = run_cli([*args, "--input", str(fixture), "--out", tmp])
        if code != 0:
            raise SystemExit(f"{args[0]} run failed with exit code {code}")
        out = pathlib.Path(tmp)
        report = json.loads((out / "result.json").read_text())
        rows = None
        if (out / "sweep.csv").exists():
            with (out / "sweep.csv").open(newline="") as handle:
                rows = list(csv.reader(handle))
        return report, rows


def build() -> dict:
    """path -> the JSON text of each golden file."""
    eigenvalues = run_report(["fci"])[0]["result"]["eigenvalues"]

    ints = parse_fcidump(FIXTURE.read_text())
    want, _ = sector_fci(
        ints.e_nuc, ints.one_body, ints.two_body, ints.num_up, ints.num_down
    )
    np.testing.assert_allclose(eigenvalues, want, atol=1e-9)
    files = {OUT: {"input": FIXTURE.name, "method": "fci", "eigenvalues": eigenvalues}}

    runs = []
    for args in SAMPLED_RUNS:
        report, _ = run_report(list(args))
        runs.append({"args": list(args), "result": report["result"], "shots": report["shots"]})
    files[SAMPLED_OUT] = {"input": FIXTURE.name, "runs": runs}

    runs = []
    for args in METHOD_RUNS:
        report, rows = run_report(list(args))
        runs.append({"args": list(args), "result": report["result"], "sweep_csv": rows})
    files[METHODS_OUT] = {"input": FIXTURE.name, "runs": runs}

    runs = []
    for name, args in WIDE_RUNS:
        fixture = FIXTURE.with_name(f"{name}.fcidump")
        report, _ = run_report(list(args), fixture)
        runs.append({"input": fixture.name, "args": list(args), "result": report["result"]})
    files[WIDE_OUT] = {"runs": runs}
    return {path: json.dumps(data, indent=2) + "\n" for path, data in files.items()}


def _number(value):
    """value as a float if it is a JSON number or a numeric CSV cell."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def changes(old, new, path=""):
    """Lines naming each leaf that differs between two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                out.append(f"{path}/{key}: only in {'new' if key in new else 'committed'}")
            else:
                out += changes(old[key], new[key], f"{path}/{key}")
        return out
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path}: length {len(old)} -> {len(new)}"]
        return [line for k, (a, b) in enumerate(zip(old, new))
                for line in changes(a, b, f"{path}[{k}]")]
    if old == new:
        return []
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return [f"{path}: {old!r} -> {new!r}"]
    diff = abs(b - a)
    rel = diff / abs(a) if a else float("inf")
    return [f"{path}: {old!r} -> {new!r} (abs {diff:.3e}, rel {rel:.3e})"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="report changed fields and exit 1 if any; write nothing")
    args = parser.parse_args(argv)
    files = build()
    if not args.check:
        for path, text in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"wrote {path.relative_to(ROOT)}")
        return 0
    changed = 0
    for path, text in files.items():
        old = json.loads(path.read_text()) if path.exists() else None
        lines = changes(old, json.loads(text))
        changed += len(lines)
        for line in lines:
            print(f"{path.relative_to(ROOT)}{line}")
    print(f"{changed} field(s) differ from the committed golden files")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

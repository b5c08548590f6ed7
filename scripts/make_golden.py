"""Regenerate the committed golden reports under tests/golden.

Runs the command line fci method on the 2-orbital hydrogen fixture and
stores the eigenvalue list, after checking it against the independent
dense-algebra oracle used by the test suite. It also runs two seeded
sampled methods on the same fixture and stores the `result` and `shots`
sections of their reports (the config echo holds the output path, which
varies between runs). The committed files pin the exact floating-point
output, so any platform or code drift shows up as a bit-level mismatch.
Run from the repository root:

    python scripts/make_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import sector_fci  # noqa: E402

from qsubspace.cli import main  # noqa: E402
from qsubspace.integrals import parse_fcidump  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "h2_sto3g.fcidump"
OUT = ROOT / "tests" / "golden" / "fci_h2_sto3g.json"
SAMPLED_OUT = ROOT / "tests" / "golden" / "sampled_h2_sto3g.json"
SAMPLED_RUNS = (
    ("qfd", "--shots", "2048", "--seed", "7"),
    ("qse", "--level", "S", "--shots", "10000", "--seed", "7"),
)


def run_report(args):
    with tempfile.TemporaryDirectory() as tmp:
        code = main([*args, "--input", str(FIXTURE), "--out", tmp])
        if code != 0:
            raise SystemExit(f"{args[0]} run failed with exit code {code}")
        return json.loads((pathlib.Path(tmp) / "result.json").read_text())


def build():
    eigenvalues = run_report(["fci"])["result"]["eigenvalues"]

    ints = parse_fcidump(FIXTURE.read_text())
    want, _ = sector_fci(
        ints.e_nuc, ints.one_body, ints.two_body, ints.num_up, ints.num_down
    )
    np.testing.assert_allclose(eigenvalues, want, atol=1e-9)

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(
        json.dumps(
            {"input": FIXTURE.name, "method": "fci", "eigenvalues": eigenvalues},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {OUT} ({len(eigenvalues)} eigenvalues, oracle agreement <= 1e-9)")

    runs = []
    for args in SAMPLED_RUNS:
        report = run_report(list(args))
        runs.append({"args": list(args), "result": report["result"], "shots": report["shots"]})
    SAMPLED_OUT.write_text(
        json.dumps({"input": FIXTURE.name, "runs": runs}, indent=2) + "\n"
    )
    print(f"wrote {SAMPLED_OUT} ({len(runs)} sampled runs)")


if __name__ == "__main__":
    build()

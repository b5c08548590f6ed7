"""Shared fixture loading for the test suite."""

from __future__ import annotations

import functools
import importlib.util
import os
import pathlib

# one BLAS thread, set before numpy is imported, as perfbench/run.py does:
# the golden files pin one-thread bits, and a threaded OpenBLAS may sum
# in another order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from qsubspace.integrals import MolecularIntegrals, parse_fcidump

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent / "fixtures"

# every committed integral fixture; regenerate with scripts/make_fixtures.py
FIXTURE_NAMES = [
    "he_minimal",
    "h2_sto3g",
    "h2_stretched",
    "heh_like",
    "h3_plus",
    "h4_toy",
]

# two-electron systems in a canonical mean-field basis
TWO_ELECTRON_NAMES = ["h2_sto3g", "h2_stretched", "heh_like", "h3_plus"]


@functools.cache
def _workloads():
    path = FIXTURE_DIR.parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scan_integrals(stretch: float, m: int = 7, n_up: int = 3, n_down: int = 3):
    """The benchmark's sector-scan molecule: by default 7 orbitals, (3,3),
    dimension 1225; other shapes come from the same construction."""
    return _workloads().synthetic_integrals(stretch, m, n_up, n_down)


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURE_DIR / f"{name}.fcidump"


def load_integrals(name: str):
    return parse_fcidump(fixture_path(name).read_text())


def random_integrals(m, n_up, n_down, seed, zero_share=0.0):
    """Random integrals with 8-fold symmetry; a zero_share of the two-body
    entries, drawn symmetrically, are exactly zero."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((m, m))
    g = rng.standard_normal((m,) * 4)
    keep = rng.random((m,) * 4) >= zero_share
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        g = g + g.transpose(perm)
        keep = keep & keep.transpose(perm)
    return MolecularIntegrals(m, n_up, n_down, 0.7, (h + h.T) / 2, 0.1 * g * keep)


@pytest.fixture(scope="session")
def h2():
    return load_integrals("h2_sto3g")


@pytest.fixture(scope="session")
def h2_stretched():
    return load_integrals("h2_stretched")


@pytest.fixture(scope="session")
def heh():
    return load_integrals("heh_like")


@pytest.fixture(scope="session")
def h3_plus():
    return load_integrals("h3_plus")


@pytest.fixture(scope="session")
def h4_toy():
    return load_integrals("h4_toy")

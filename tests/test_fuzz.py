"""Mutated FCIDUMP files and INI configs run through `cli.main`.

Every run must end in a documented exit code, never 6 (internal error), and
every failing run must print the JSON error object carrying that code. The
mutations draw from fixed pools of tokens and lines on the h2 fixture, so a
run stays small: orbital counts above the parser's cap are refused before
anything is allocated. Inputs that once ended in exit 6, or in exit 0 with
null energies, are kept below as explicit cases.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import fixture_path  # noqa: E402
from qsubspace.cli import METHODS, main  # noqa: E402

H2 = str(fixture_path("h2_sto3g"))
H2_TEXT = fixture_path("h2_sto3g").read_text()

FCIDUMP_TOKENS = [
    "nan", "inf", "-inf", "1e999", "1e308", "-1", "0", "3", "99", "x", "", "1.5",
    "D", "&END", "/", "&FCI", "NORB=3", "NORB=0", "NORB=40", "NELEC=7", "MS2=1",
    "MS2=-9", ",", "=", "99999999999999999999", "\x00", "é", "1d-3", "1e-320",
]

INI_LINES = [
    "[run]", "[params]", "[shots]", "[sweep]", "[DEFAULT]", "[wat]", "[run", "%",
    "novalue", "= 3", "  indented = 1", "x = %(nope)s", "input = a%b",
    "input = /nonexistent.fcidump", "method = qse", "method = wat", "n = 3", "n = 0",
    "n = -2", "n = x", "dt = 0", "dt = nan", "dt = -0.1", "eps = 1e-300", "eps = -1",
    "eps = nan", "k = 0", "k = 99", "level = S", "level = Q", "tda = maybe",
    "tda = yes", "backend = trotter", "backend = wat", "substeps = 0", "mode = qite",
    "mode = x", "op = occ:9", "op = ham", "op = wat", "omega_points = 3",
    "omega_points = -1", "omega_min = nan", "eta = 0", "eta = -1", "bounds = 1,0",
    "bounds = x", "tau = -1", "time = nan", "dtau = 0", "enabled = true",
    "enabled = maybe", "seed = -1", "seed = 18446744073709551616", "shots = 0",
    "shots = 5", "shots = -3", "eps_target = 1e-3", "eps_target = 0",
    "eps_target = nan", "eps_target = 1e-300", "eps_target = -1", "grouping = full",
    "grouping = wat", "axis = n", "axis = shots", "axis = dt", "axis = wat",
    "values = 2,3", "values = ", "values = x", "values = 0,1", "values = nan",
    "jobs = 0", "jobs = 2", "jobs = x",
]
INI_CHARS = ["%", "[", "]", "=", ":", "\t", "#", ";", "\x00", "é", " ", "\n", "$"]


def run_main(argv):
    """(exit code, last stdout line) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


def check_outcome(code, last_line, outdir, allowed):
    assert code in allowed, last_line
    if code == 0:
        report = json.loads((outdir / "result.json").read_text())
        assert None not in report["result"].get("eigenvalues", [])
    else:
        assert json.loads(last_line)["error"]["exit_code"] == code


def run_fcidump(data: bytes, method: str = "fci"):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "in.fcidump"
        path.write_bytes(data)
        outdir = pathlib.Path(tmp) / "out"
        code, last = run_main([method, "--input", str(path), "--out", str(outdir)])
        check_outcome(code, last, outdir, allowed=(0, 2, 3))
    return code, last


def run_ini(method: str, text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "run.ini"
        path.write_text(text)
        outdir = pathlib.Path(tmp) / "out"
        code, last = run_main([method, "--config", str(path), "--out", str(outdir)])
        # 1: a mutated input path; 4 and 5: data the method cannot handle
        check_outcome(code, last, outdir, allowed=(0, 1, 2, 3, 4, 5))
    return code, last


def mutate_text(text, edits):
    for kind, at, width, token in edits:
        at %= len(text) + 1
        if kind == "cut":
            text = text[:at] + text[at + width:]
        elif kind == "insert":
            text = text[:at] + token + text[at:]
        else:  # replace a whitespace-separated word
            words = text.split(" ")
            words[at % len(words)] = token
            text = " ".join(words)
    return text


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(["cut", "insert", "replace"]),
            st.integers(0, 2000),
            st.integers(1, 8),
            st.sampled_from(FCIDUMP_TOKENS),
        ),
        min_size=1,
        max_size=4,
    ),
    raw=st.sampled_from([b"", b"\xff", b"\x80\x80", b"\x00"]),
    at=st.integers(0, 2000),
)
def test_mutated_fcidump_exits_cleanly(edits, raw, at):
    data = mutate_text(H2_TEXT, edits).encode()
    at %= len(data) + 1
    run_fcidump(data[:at] + raw + data[at:])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    method=st.sampled_from(METHODS),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["line", "drop", "char"]),
            st.integers(0, 200),
            st.sampled_from(INI_LINES),
            st.sampled_from(INI_CHARS),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_mutated_ini_exits_cleanly(method, edits):
    lines = ["[run]", f"input = {H2}"]
    for kind, at, line, char in edits:
        if kind == "line":
            lines.insert(at % (len(lines) + 1), line)
        elif kind == "drop" and lines:
            del lines[at % len(lines)]
        elif lines:
            k = at % len(lines)
            cut = at % (len(lines[k]) + 1)
            lines[k] = lines[k][:cut] + char + lines[k][cut:]
    run_ini(method, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# inputs the fuzzing found: each ended in exit 6, or in exit 0 with null
# eigenvalues, before the fix it pins


@pytest.mark.parametrize(
    "old, new, code",
    [
        ("0.71375394999999997    0    0    0    0", "nan 0 0 0 0", 2),
        ("0.71375394999999997    0    0    0    0", "inf 0 0 0 0", 2),
        ("-1.2524774949999999", "1e308", 2),
        ("NORB=2", "NORB=1000", 3),
        ("NORB=2", "NORB=99999999999999999999", 3),
    ],
)
def test_fcidump_found_cases(old, new, code):
    assert old in H2_TEXT
    assert run_fcidump(H2_TEXT.replace(old, new).encode())[0] == code


def test_undecodable_fcidump_is_a_parse_error():
    code, last = run_fcidump(b"\xff" + H2_TEXT.encode())
    assert code == 2 and "UTF-8" in last


def test_statevector_cap_is_checked_before_allocating():
    # 32 orbitals fit the parser but not the 24-qubit statevector
    code, last = run_fcidump(H2_TEXT.replace("NORB=2", "NORB=32").encode(), method="qse")
    assert code == 3 and "statevector" in last


@pytest.mark.parametrize(
    "text",
    [
        f"[run]\ninput = {H2}\n[params]\nk =% 2#\n",
        f"[run]\ninput = {H2[:5]}\x00{H2[5:]}\n",
    ],
    ids=["percent-in-value", "nul-in-input-path"],
)
def test_ini_found_cases(text):
    assert run_ini("fci", text)[0] == 2

"""Command line driver: config handling, reports, exit codes, sweeps."""

from __future__ import annotations

import csv
import json
import pathlib
import re
import subprocess
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest

from conftest import FIXTURE_NAMES, fixture_path, load_integrals, random_integrals, scan_integrals

import qsubspace.qubits as qubits_module
from qsubspace.classical import kaniel_paige_saad, lanczos, power_krylov
from qsubspace.cli import (
    _SETTINGS,
    _SPECS,
    EXIT_CODES,
    METHODS,
    build_parser,
    load_config_file,
    main,
    merge_config,
    resolve_config,
)
from qsubspace.engine import Statevector, statevector_from_fock
from qsubspace.errors import ValidationError
from qsubspace.fock import (
    basis_vector,
    exact_eigenpairs,
    reference_configuration,
    spectral_measure,
)
from qsubspace.geev import eigenvalue_roundoff, solve
from qsubspace.integrals import serialize_fcidump
from qsubspace.quantum import (
    QfdGrid,
    chebyshev_krylov_build,
    epperly_qfd_bound,
    gaussian_power_build,
    qfd_build,
    qlanczos_build,
    qse_build,
)

H2 = str(fixture_path("h2_sto3g"))
ROOT = pathlib.Path(__file__).resolve().parent.parent

SCHEMA = json.loads(
    (
        ROOT
        / "src"
        / "qsubspace"
        / "schemas"
        / "result-v1.json"
    ).read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    report = None
    path = out / "result.json"
    if path.exists():
        report = json.loads(path.read_text())
    return code, report, out


def error_payload(capsys):
    return json.loads(capsys.readouterr().out)["error"]


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestReports:
    def test_fci_matches_committed_golden_bit_for_bit(self, tmp_path):
        golden = json.loads(
            (pathlib.Path(__file__).resolve().parent / "golden" / "fci_h2_sto3g.json").read_text()
        )
        code, report, _ = run_cli(tmp_path, "fci", "--input", H2)
        assert code == 0
        assert report["result"]["eigenvalues"] == golden["eigenvalues"]

    def test_sampled_runs_match_committed_golden_bit_for_bit(self, tmp_path):
        golden = json.loads(
            (pathlib.Path(__file__).resolve().parent / "golden" / "sampled_h2_sto3g.json").read_text()
        )
        assert len(golden["runs"]) == 2
        for k, run in enumerate(golden["runs"]):
            code, report, _ = run_cli(tmp_path / str(k), *run["args"], "--input", H2)
            assert code == 0
            assert report["result"] == run["result"]
            assert report["shots"] == run["shots"]

    def test_cond_before_is_null_when_s_is_singular(self, tmp_path):
        # h2 qse S: the overlap's smallest eigenvalue is roundoff, and the
        # ratio once printed as 3.9e16 carried no information
        code, report, _ = run_cli(tmp_path, "qse", "--input", H2, "--level", "S",
                                  "--shots", "10000", "--seed", "7")
        assert code == 0
        assert report["result"]["cond_before"] is None
        VALIDATOR.validate(report)
        # a well-conditioned overlap keeps its number, bit for bit
        code, report, _ = run_cli(tmp_path / "qfd", "qfd", "--input", H2, "--shots", "2048",
                                  "--seed", "7")
        assert code == 0
        assert report["result"]["cond_before"] == 797.3242314795206

    def test_every_method_matches_committed_golden_bit_for_bit(self, tmp_path):
        # one default run of each method, two variants and one sweep per
        # axis, pinned by scripts/make_golden.py
        golden = json.loads(
            (pathlib.Path(__file__).resolve().parent / "golden" / "methods_h2_sto3g.json").read_text()
        )
        assert len(golden["runs"]) == 18
        for k, run in enumerate(golden["runs"]):
            code, report, out = run_cli(tmp_path / str(k), *run["args"], "--input", H2)
            assert code == 0, run["args"]
            assert report["result"] == run["result"], run["args"]
            if run["sweep_csv"] is None:
                assert not (out / "sweep.csv").exists()
            else:
                with open(out / "sweep.csv", newline="") as handle:
                    assert list(csv.reader(handle)) == run["sweep_csv"], run["args"]

    def test_wide_fixture_runs_match_committed_golden_bit_for_bit(self, tmp_path):
        # exact, sampled and Trotter runs on 6 and 8 qubits, qubitwise and
        # fully commuting groups, pinned by scripts/make_golden.py
        golden = json.loads(
            (pathlib.Path(__file__).resolve().parent / "golden" / "wide_fixtures.json").read_text()
        )
        assert len(golden["runs"]) == 7
        for k, run in enumerate(golden["runs"]):
            fixture = str(fixture_path(run["input"].removesuffix(".fcidump")))
            code, report, _ = run_cli(tmp_path / str(k), *run["args"], "--input", fixture)
            assert code == 0, run["args"]
            assert report["result"] == run["result"], run["args"]

    def test_report_validates_against_shipped_schema(self, tmp_path):
        code, report, _ = run_cli(tmp_path, "fci", "--input", H2)
        assert code == 0
        VALIDATOR.validate(report)

    def test_report_embeds_seed_and_generator(self, tmp_path):
        code, report, _ = run_cli(tmp_path, "qse", "--input", H2, "--seed", "9",
                                  "--shots", "2000")
        assert code == 0
        assert report["generator"] == "philox"
        assert report["seed"] == 9
        assert report["shots"]["generator"] == "philox"
        assert report["shots"]["seed"] == 9
        assert report["config"]["shots"]["enabled"] is True
        VALIDATOR.validate(report)

    def test_every_method_report_validates(self, tmp_path):
        invocations = [
            ("davidson", "--k", "2"),
            ("lanczos", "--n", "4"),
            ("power-krylov", "--n", "3"),
            ("chebyshev", "--n", "3"),
            ("gaussian-power", "--n", "3", "--tau", "0.5"),
            ("qse", "--level", "SD"),
            ("qeom", "--tda"),
            ("qfd", "--n", "4", "--dt", "0.4"),
            ("qfd", "--n", "4", "--dt", "0.4", "--shots", "5000"),
            ("qlanczos", "--n", "4", "--dtau", "0.5"),
            ("spectrum", "--n", "6", "--dt", "0.4", "--omega-points", "7"),
            ("fastforward", "--n", "4", "--dt", "0.6", "--time", "100"),
        ]
        for i, argv in enumerate(invocations):
            code, report, _ = run_cli(tmp_path / str(i), *argv, "--input", H2)
            assert code == 0, argv
            VALIDATOR.validate(report)

    def test_identical_runs_are_identical(self, tmp_path):
        args = ("qfd", "--input", H2, "--n", "4", "--dt", "0.4",
                "--shots", "3000", "--seed", "21")
        _, first, _ = run_cli(tmp_path / "a", *args)
        _, second, _ = run_cli(tmp_path / "b", *args)
        first["config"]["out"] = second["config"]["out"] = ""
        assert first == second

    def test_run_reproducible_from_config_echo(self, tmp_path):
        code, report, _ = run_cli(
            tmp_path / "flag", "qfd", "--input", H2, "--n", "5", "--dt", "0.3",
            "--shots", "4000", "--seed", "13",
        )
        assert code == 0
        echo = report["config"]
        lines = ["[run]", f"input = {echo['input']}", "[params]"]
        for key, value in echo["params"].items():
            if value is None:
                continue
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, list):
                value = ",".join(repr(x) for x in value)
            lines.append(f"{key} = {value}")
        shots = echo["shots"]
        lines += ["[shots]", f"enabled = {str(shots['enabled']).lower()}",
                  f"seed = {shots['seed']}", f"grouping = {shots['grouping']}"]
        if shots["shots"] is not None:
            lines.append(f"shots = {shots['shots']}")
        if shots["eps_target"] is not None:
            lines.append(f"eps_target = {shots['eps_target']}")
        ini = tmp_path / "echo.ini"
        ini.write_text("\n".join(lines) + "\n")
        code, replay, _ = run_cli(tmp_path / "ini", echo["method"], "--config", str(ini))
        assert code == 0
        assert replay["result"] == report["result"]
        assert replay["shots"] == report["shots"]

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qsubspace.cli", "fci", "--input", H2,
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ground energy" in proc.stdout
        assert (tmp_path / "result.json").exists()

    def test_help_documents_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsubspace.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "exit codes" in proc.stdout
        for code, text in EXIT_CODES.items():
            assert f"{code}  {text}" in proc.stdout


class TestMethodResults:
    def test_subspace_methods_agree_with_fci_on_two_electrons(self, tmp_path):
        exact = float(exact_eigenpairs(load_integrals("h2_sto3g")).eigenvalues[0])
        for i, method in enumerate(("lanczos", "power-krylov", "qse", "qfd", "qlanczos")):
            code, report, _ = run_cli(tmp_path / str(i), method, "--input", H2)
            assert code == 0
            assert abs(report["result"]["ground_energy"] - exact) < 1e-6
            assert abs(report["result"]["error_vs_fci"]) < 1e-6

    def test_qfd_exact_and_huge_shot_runs_agree(self, tmp_path):
        args = ("qfd", "--input", H2, "--n", "4", "--dt", "0.4")
        _, clean, _ = run_cli(tmp_path / "clean", *args)
        _, noisy, _ = run_cli(tmp_path / "noisy", *args, "--shots", "100000000",
                              "--seed", "5")
        diff = abs(clean["result"]["ground_energy"] - noisy["result"]["ground_energy"])
        assert diff < 1e-3

    @pytest.mark.parametrize(
        "args",
        [("qfd",), ("qfd", "--backend", "trotter"), ("gaussian-power",), ("qlanczos",),
         ("lanczos",), ("power-krylov",), ("chebyshev",)],
        ids=["qfd", "qfd-trotter", "gaussian-power", "qlanczos", "lanczos", "power-krylov",
             "chebyshev"],
    )
    def test_exact_filter_runs_report_the_reference_ground_weight(self, tmp_path, args):
        for name in ("h2_sto3g", "h2_stretched"):
            code, report, _ = run_cli(tmp_path / name, *args, "--input", str(fixture_path(name)))
            assert code == 0
            VALIDATOR.validate(report)
            ints = load_integrals(name)
            _, weights = spectral_measure(ints, basis_vector(ints.sector,
                                                             reference_configuration(ints)))
            assert report["result"]["w0"] == weights[0]
        # the stretched reference misses the ground state, which is why the
        # filtered basis stays 20.75 mHa above it
        assert report["result"]["w0"] == 0.0
        assert report["result"]["error_vs_fci"] > 2e-2

    @pytest.mark.parametrize(
        "args",
        [("qlanczos", "--mode", "qite", "--n", "2"), ("qfd", "--shots", "1000")],
        ids=["qlanczos-qite", "qfd-sampled"],
    )
    def test_other_runs_report_no_ground_weight(self, tmp_path, args):
        code, report, _ = run_cli(tmp_path, *args, "--input", H2)
        assert code == 0
        assert "w0" not in report["result"]

    def test_qeom_gaps_match_fci(self, tmp_path):
        ints = load_integrals("h2_sto3g")
        spectrum = exact_eigenpairs(ints, k=ints.sector_dimension)
        want = np.asarray(spectrum.eigenvalues[1:]) - spectrum.eigenvalues[0]
        code, report, _ = run_cli(tmp_path, "qeom", "--input", H2)
        assert code == 0
        got = np.sort(report["result"]["excitation_energies"])
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_qeom_tda_reports_positive_gaps_only(self, tmp_path):
        h4 = str(fixture_path("h4_toy"))
        code, full, _ = run_cli(tmp_path / "full", "qeom", "--input", h4)
        assert code == 0
        code, tda, _ = run_cli(tmp_path / "tda", "qeom", "--input", h4, "--tda")
        assert code == 0
        gaps = tda["result"]["excitation_energies"]
        assert len(gaps) == 35
        assert min(gaps) > 0
        assert abs(gaps[0] - full["result"]["excitation_energies"][0]) < 1e-8

    def test_spectrum_sum_rule_and_csv(self, tmp_path):
        code, report, out = run_cli(
            tmp_path, "spectrum", "--input", H2, "--n", "6", "--dt", "0.4",
            "--omega-points", "9", "--omega-max", "1.5",
        )
        assert code == 0
        rule = report["result"]["sum_rule"]
        assert abs(rule["residual"]) < 1e-8
        rows = read_rows(out / "spectrum.csv")
        sticks = [r for r in rows if r["kind"] == "stick"]
        response = [r for r in rows if r["kind"] == "response"]
        assert len(sticks) == report["result"]["num_sticks"]
        assert len(response) == 9
        total = sum(float(r["re"]) for r in sticks)
        assert abs(total - rule["weight_sum"]) < 1e-12

    def test_spectrum_ham_probe_peaks_at_zero_gap(self, tmp_path):
        code, report, out = run_cli(
            tmp_path, "spectrum", "--input", H2, "--n", "6", "--dt", "0.4",
            "--op", "ham",
        )
        assert code == 0
        assert abs(report["result"]["sum_rule"]["residual"]) < 1e-8

    def test_fastforward_contained_reference_is_faithful(self, tmp_path):
        # the mean-field reference couples two sector eigenstates, so a
        # 4-point grid contains it and t = 100 evolves exactly
        code, report, _ = run_cli(
            tmp_path, "fastforward", "--input", H2, "--n", "4", "--dt", "0.6",
            "--time", "100",
        )
        assert code == 0
        assert report["result"]["projection_weight"] > 1 - 1e-10
        assert report["result"]["fidelity"] >= 1 - 1e-6
        assert report["result"]["low_weight"] is False

    def test_davidson_reports_iterations(self, tmp_path):
        code, report, _ = run_cli(tmp_path, "davidson", "--input", H2, "--k", "2")
        assert code == 0
        assert report["result"]["iterations"] >= 1
        assert len(report["result"]["eigenvalues"]) == 2
        assert max(report["result"]["residual_norms"]) < 1e-8

    def test_fci_copies_no_eigenvectors(self, tmp_path):
        # fci prints eigenvalues only; a k = dim exact_eigenpairs slice of
        # the 1225-dimensional scan molecule copies all its vectors (24 MB)
        ints = scan_integrals(1.3)
        cfg, explicit = merge_config(build_parser().parse_args(["fci", "--input", "-"]), {})
        cfg = resolve_config(cfg, ints, explicit)
        dim = ints.sector_dimension
        assert cfg.params["k"] == dim
        want = [float(x) for x in exact_eigenpairs(ints, k=dim).eigenvalues]  # warms the cache
        tracemalloc.start()
        try:
            result = _SPECS["fci"].run(cfg, ints, tmp_path)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result["eigenvalues"] == want
        assert peak < 2_000_000

    def test_exact_spectra_and_trotter_runs_stay_in_the_sector(self, tmp_path, monkeypatch):
        # spectrum probes, fast-forwarding, qEOM and Trotter snapshots are
        # sector operations: none of these runs builds a statevector on the
        # 2^(2m) register or a Jordan-Wigner image
        touched = []
        post_init, image = Statevector.__post_init__, qubits_module.jordan_wigner

        def record_state(state):
            touched.append(f"Statevector({state.num_qubits})")
            post_init(state)

        def record_image(ints):
            touched.append("jordan_wigner")
            return image(ints)

        monkeypatch.setattr(Statevector, "__post_init__", record_state)
        for module in [m for n, m in sys.modules.items() if n.startswith("qsubspace")]:
            if getattr(module, "jordan_wigner", None) is image:
                monkeypatch.setattr(module, "jordan_wigner", record_image)
        h4 = str(fixture_path("h4_toy"))
        trotter = ("qfd", "--backend", "trotter", "--n", "6", "--substeps", "2")
        for k, argv in enumerate((
            ("spectrum", "--omega-points", "3"),
            ("spectrum", "--op", "ham", "--omega-points", "3"),
            ("fastforward",),
            ("qeom",),
            trotter,
            (*trotter, "--sweep", "dt=0.2,0.4,0.8"),
        )):
            code, _, _ = run_cli(tmp_path / str(k), *argv, "--input", h4)
            assert code == 0, argv
        assert touched == []


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return str(path)

    def test_file_supplies_input_and_params(self, tmp_path):
        ini = self.write(
            tmp_path,
            f"[run]\ninput = {H2}\n\n[params]\nn = 5\ndt = 0.4\n",
        )
        code, report, _ = run_cli(tmp_path, "qfd", "--config", ini)
        assert code == 0
        assert report["config"]["params"]["n"] == 5
        assert report["config"]["params"]["dt"] == 0.4

    def test_flags_override_file(self, tmp_path):
        ini = self.write(
            tmp_path,
            f"[run]\ninput = {H2}\n\n[params]\nn = 5\n\n"
            "[shots]\nenabled = true\nshots = 1000\nseed = 4\n",
        )
        code, report, _ = run_cli(
            tmp_path, "qfd", "--config", ini, "--n", "3", "--no-sampling"
        )
        assert code == 0
        assert report["config"]["params"]["n"] == 3
        assert report["config"]["shots"]["enabled"] is False
        assert report["shots"] is None

    def test_grouping_flag_selects_the_mode_and_beats_the_file(self, tmp_path):
        code, report, _ = run_cli(
            tmp_path, "qse", "--input", H2, "--shots", "2000", "--grouping", "full"
        )
        assert code == 0
        assert report["config"]["shots"]["grouping"] == "full"
        assert report["shots"]["mode"] == "full"
        ini = self.write(tmp_path, "[shots]\ngrouping = qubitwise\n")
        code, report, _ = run_cli(
            tmp_path, "qse", "--config", ini, "--input", H2, "--shots", "2000",
            "--grouping", "full",
        )
        assert code == 0
        assert report["config"]["shots"]["grouping"] == "full"
        assert report["shots"]["mode"] == "full"
        code, report, _ = run_cli(tmp_path, "qse", "--config", ini, "--input", H2,
                                  "--shots", "2000")
        assert code == 0 and report["shots"]["mode"] == "qubitwise"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        ini = self.write(tmp_path, "[params]\nwibble = 3\n")
        assert main(["qfd", "--input", H2, "--config", ini]) == 2
        err = error_payload(capsys)
        assert err["exit_code"] == 2
        assert "wibble" in err["message"]

    def test_unknown_section_rejected(self, tmp_path, capsys):
        ini = self.write(tmp_path, "[wat]\nx = 1\n")
        assert main(["qfd", "--input", H2, "--config", ini]) == 2
        assert "[wat]" in error_payload(capsys)["message"]

    def test_bad_value_rejected(self, tmp_path, capsys):
        ini = self.write(tmp_path, f"[run]\ninput = {H2}\n\n[params]\nn = much\n")
        assert main(["qfd", "--config", ini]) == 2
        assert "much" in error_payload(capsys)["message"]

    @pytest.mark.parametrize(
        "method, text",
        [
            ("qse", "[shots]\ngrouping = wat\n"),
            ("qse", "[params]\nlevel = sd\n"),
            ("qfd", "[params]\nbackend = Trotter\n"),
            ("qlanczos", "[params]\nmode = x\n"),
        ],
        ids=["grouping", "level", "backend", "mode"],
    )
    def test_values_outside_the_choices_rejected_on_load(self, tmp_path, capsys, method, text):
        # checked when the file loads, like the flag, whether or not the run
        # reads the value: sampling is off here
        ini = self.write(tmp_path, f"[run]\ninput = {H2}\n\n{text}")
        code, report, _ = run_cli(tmp_path, method, "--config", ini)
        assert code == 2 and report is None
        err = error_payload(capsys)
        assert err["type"] == "ValidationError"
        assert "bad value" in err["message"] and "choose from" in err["message"]

    def test_method_is_not_a_config_key(self, tmp_path, capsys):
        # the positional method is required and always used
        ini = self.write(tmp_path, f"[run]\ninput = {H2}\nmethod = qse\n")
        assert main(["fci", "--config", ini, "--out", str(tmp_path)]) == 2
        assert error_payload(capsys)["message"] == "config: unknown key 'method' in section [run]"

    def test_readme_example_keys_are_table_rows(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        ini = self.write(tmp_path, readme.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = load_config_file(ini)
        assert set(cfg) == {s.section for s in _SETTINGS.values()}
        for section, values in cfg.items():
            assert values and all(_SETTINGS[key].section == section for key in values)

    def test_readme_library_block_runs_from_the_repository_root(self, monkeypatch, capsys):
        # the README's Library example runs as printed, so the signatures it
        # shows cannot drift from the library's
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(ROOT)
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
        assert capsys.readouterr().out.count("\n") == block.count("print(")

    def test_readme_lists_each_section_s_keys(self):
        # the README's "| `[section]` | `key`, ... |" rows against the table
        listed = {}
        for line in (ROOT / "README.md").read_text().splitlines():
            if line.startswith("| `["):
                cells = line.split("|")
                listed[cells[1].strip(" `[]")] = set(re.findall(r"`(\w+)`", cells[2]))
        table = {}
        for name, s in _SETTINGS.items():
            table.setdefault(s.section, set()).add(name)
        assert listed == table

    def test_config_echo_is_pinned(self, tmp_path):
        # the goldens compare `result` only; these pin `config`
        exact = {"enabled": False, "seed": 0, "shots": None, "eps_target": None,
                 "grouping": "qubitwise"}
        qfd = {"n": 4, "dt": 0.1, "eps": None, "backend": "exact", "substeps": 1}
        ini = self.write(
            tmp_path,
            f"[run]\ninput = {H2}\njobs = 2\n\n[params]\nn = 5\ndt = 0.4\n\n"
            "[shots]\nenabled = true\nshots = 1000\nseed = 4\ngrouping = full\n",
        )
        runs = [
            (["qfd", "--input", H2, "--n", "5", "--dt", "0.4"],
             1, qfd | {"n": 5, "dt": 0.4}, exact, None),
            (["qfd", "--config", ini, "--n", "3", "--eps-target", "0.05"],
             2, qfd | {"n": 3, "dt": 0.4},
             {"enabled": True, "seed": 4, "shots": None, "eps_target": 0.05, "grouping": "full"},
             None),
            (["lanczos", "--input", H2, "--sweep", "n=2,3,4", "--jobs", "2"],
             2, {"n": 4, "eps": None}, exact, {"axis": "n", "values": [2, 3, 4]}),
            # a shots sweep turns sampling on; each row carries its own count
            (["qfd", "--input", H2, "--sweep", "shots=100,1000", "--seed", "5"],
             1, qfd, exact | {"enabled": True, "seed": 5},
             {"axis": "shots", "values": [100, 1000]}),
        ]
        for argv, jobs, params, shots, sweep in runs:
            code, report, out = run_cli(tmp_path, *argv)
            assert code == 0, argv
            assert report["config"] == {
                "method": argv[0], "input": H2, "out": str(out), "jobs": jobs,
                "params": params, "shots": shots, "sweep": sweep,
            }, argv

    def test_config_sweep_section(self, tmp_path):
        ini = self.write(
            tmp_path,
            f"[run]\ninput = {H2}\n\n[sweep]\naxis = n\nvalues = 2,3,4\n",
        )
        code, report, out = run_cli(tmp_path, "lanczos", "--config", ini)
        assert code == 0
        assert [r["value"] for r in report["result"]["rows"]] == [2, 3, 4]
        assert (out / "sweep.csv").exists()


class TestExitCodes:
    def test_unknown_method_names_the_field(self, capsys):
        assert main(["frobnicate", "--input", H2]) == 2
        err = error_payload(capsys)
        assert err["exit_code"] == 2
        assert "method" in err["message"]

    def test_missing_input_file_is_io(self, capsys):
        assert main(["fci", "--input", "/no/such/file.fcidump"]) == 1
        assert error_payload(capsys)["exit_code"] == 1

    def test_malformed_fcidump_is_validation(self, tmp_path, capsys):
        bad = tmp_path / "bad.fcidump"
        bad.write_text("this is not an integral file\n")
        assert main(["fci", "--input", str(bad)]) == 2

    def test_inapplicable_parameter_rejected(self, capsys):
        assert main(["fci", "--input", H2, "--dt", "0.5"]) == 2
        assert "dt" in error_payload(capsys)["message"]

    def test_sampling_limited_to_qse_and_qfd(self, capsys):
        assert main(["davidson", "--input", H2, "--shots", "100"]) == 2
        assert "sampling" in error_payload(capsys)["message"]

    def test_shots_and_eps_target_conflict(self, capsys):
        code = main(["qse", "--input", H2, "--shots", "10", "--eps-target", "0.1"])
        assert code == 2

    @pytest.mark.parametrize("budget", [["--shots", "100"], ["--eps-target", "0.1"]])
    def test_seed_beyond_64_bits_is_validation(self, tmp_path, capsys, budget):
        code, _, _ = run_cli(tmp_path, "qse", "--input", H2, *budget,
                             "--seed", str(2**64))
        assert code == 2
        err = error_payload(capsys)
        assert err["exit_code"] == 2
        assert "seed" in err["message"]

    def test_largest_64_bit_seed_runs(self, tmp_path):
        code, report, _ = run_cli(tmp_path, "qse", "--input", H2, "--shots", "100",
                                  "--seed", str(2**64 - 1))
        assert code == 0
        assert report["seed"] == report["shots"]["seed"] == 2**64 - 1
        VALIDATOR.validate(report)

    def test_capacity_cap_is_exit_3(self, capsys):
        assert main(["power-krylov", "--input", H2, "--n", "50"]) == 3
        assert error_payload(capsys)["exit_code"] == 3

    def test_shot_count_above_2_53_is_exit_2(self, capsys):
        # histogram sums are exact in float64 only up to 2^53 shots
        assert main(["qse", "--input", H2, "--shots", "99999999999999999999"]) == 2
        err = error_payload(capsys)
        assert err["type"] == "ValidationError" and "2^53" in err["message"]

    @pytest.mark.parametrize("eps", ["1e-9", "1e-12", "1e-200"])
    def test_target_needing_more_than_2_53_shots_is_exit_3(self, eps, capsys):
        assert main(["qse", "--input", H2, "--eps-target", eps]) == 3
        err = error_payload(capsys)
        assert err["type"] == "CapacityError" and "2^53" in err["message"]

    def test_oversized_sector_is_exit_3(self, tmp_path, capsys):
        # m=10 (5,5): dimension 63,504 but 55.6M stored matrix entries
        path = tmp_path / "m10.fcidump"
        path.write_text(serialize_fcidump(random_integrals(10, 5, 5, seed=10)))
        code, report, _ = run_cli(tmp_path, "davidson", "--input", str(path))
        assert code == 3 and report is None
        err = error_payload(capsys)
        assert err["exit_code"] == 3
        assert err["type"] == "CapacityError"
        assert "entries" in err["message"]

    @pytest.mark.parametrize("name", ["h3_plus", "h4_toy"])
    def test_oversized_qse_recipe_is_exit_3(self, tmp_path, capsys, name):
        # the default SD recipe expands past the Pauli string-product budget
        code, _, _ = run_cli(tmp_path, "qse", "--input", str(fixture_path(name)),
                             "--shots", "100")
        assert code == 3
        err = error_payload(capsys)
        assert err["type"] == "CapacityError"
        assert "Pauli string products" in err["message"]

    def test_degenerate_method_data_error_is_exit_5(self, capsys):
        # the stretched-dimer excitation metric has no significant directions
        stretched = str(fixture_path("h2_stretched"))
        assert main(["qeom", "--input", stretched]) == 5
        assert error_payload(capsys)["exit_code"] == 5

    def test_overtight_threshold_is_exit_5(self, tmp_path, capsys):
        assert main(["qfd", "--input", H2, "--eps", "1e6",
                     "--out", str(tmp_path)]) == 5
        assert "eps" in error_payload(capsys)["message"]

    def test_invalid_sweep_axis_for_method(self, capsys):
        assert main(["lanczos", "--input", H2, "--sweep", "dt=0.1,0.2"]) == 2
        assert "sweep" in error_payload(capsys)["message"]

    @pytest.mark.parametrize(
        "args, ini",
        [
            (["fastforward", "--time", "nan"], None),
            (["spectrum", "--omega-points", "3", "--omega-min", "nan"], None),
            (["lanczos", "--eps", "nan"], None),
            (["gaussian-power", "--tau", "nan"], None),
            (["qlanczos", "--dtau", "inf"], None),
            (["qfd", "--eps-target", "inf"], None),
            (["qfd", "--sweep", "dt=inf"], None),
            (["chebyshev", "--bounds=-inf,1"], None),
            (["qfd"], "[params]\ndt = -inf\n"),
            (["qse"], "[shots]\neps_target = nan\n"),
            (["qfd"], "[sweep]\naxis = dt\nvalues = 0.1,nan\n"),
        ],
        ids=["time", "omega-min", "eps", "tau", "dtau", "eps-target", "sweep", "bounds",
             "ini-dt", "ini-eps-target", "ini-sweep"],
    )
    def test_non_finite_float_is_validation(self, tmp_path, capsys, args, ini):
        # flags, INI keys, bounds and sweep values share one conversion
        if ini is not None:
            (tmp_path / "run.ini").write_text(ini)
            args = [*args, "--config", str(tmp_path / "run.ini")]
        code, report, out = run_cli(tmp_path, *args, "--input", H2)
        assert code == 2
        assert error_payload(capsys)["exit_code"] == 2
        assert report is None and not out.exists()


# The method table as the command line documents it: the parameters each
# method accepts, the sweep axes it allows and the methods that can be
# sampled. Written out here, not read from the cli module, so that a change
# to the table shows up as a failure.
ACCEPTED_PARAMS = {
    "fci": ("k",),
    "lanczos": ("n", "eps"),
    "davidson": ("k",),
    "power-krylov": ("n", "eps"),
    "chebyshev": ("n", "eps", "bounds"),
    "gaussian-power": ("n", "eps", "tau"),
    "qse": ("eps", "level"),
    "qeom": ("tda",),
    "qfd": ("n", "dt", "eps", "backend", "substeps"),
    "qlanczos": ("n", "dtau", "eps", "mode"),
    "spectrum": ("n", "dt", "eps", "op", "omega_min", "omega_max", "omega_points", "eta"),
    "fastforward": ("n", "dt", "eps", "time"),
}
SWEEP_AXES = {
    "fci": (),
    "lanczos": ("n", "eps"),
    "davidson": (),
    "power-krylov": ("n", "eps"),
    "chebyshev": ("n", "eps"),
    "gaussian-power": ("n", "eps"),
    "qse": ("eps", "shots"),
    "qeom": (),
    "qfd": ("n", "dt", "eps", "shots"),
    "qlanczos": ("n", "eps"),
    "spectrum": (),
    "fastforward": (),
}
SAMPLED = ("qse", "qfd")
PARAM_FLAGS = {
    "n": ("--n", "3"),
    "k": ("--k", "1"),
    "dt": ("--dt", "0.3"),
    "dtau": ("--dtau", "0.3"),
    "eps": ("--eps", "1e-6"),
    "level": ("--level", "S"),
    "tda": ("--tda",),
    "tau": ("--tau", "0.5"),
    "time": ("--time", "2"),
    "bounds": ("--bounds=-2,1",),
    "backend": ("--backend", "trotter"),
    "substeps": ("--substeps", "2"),
    "mode": ("--mode", "qite"),
    "op": ("--op", "ham"),
    "omega_min": ("--omega-min", "0.1"),
    "omega_max": ("--omega-max", "1"),
    "omega_points": ("--omega-points", "3"),
    "eta": ("--eta", "0.1"),
}
SWEEP_VALUES = {"n": "n=2,3", "dt": "dt=0.2", "eps": "eps=1e-6", "shots": "shots=100"}


# Each exact pencil the command line solves, rebuilt through the library
# from the resolved parameters p, and whether its basis is filtered (its
# record then holds w0). Written out here, not read from the method table.
PENCILS = {
    "lanczos": (lambda ints, v0, p: lanczos(ints, v0, p["n"])[1], True),
    "power-krylov": (lambda ints, v0, p: power_krylov(ints, v0, p["n"]), True),
    "chebyshev": (lambda ints, v0, p: chebyshev_krylov_build(v0, ints, p["n"],
                                                             tuple(p["bounds"])), True),
    "gaussian-power": (lambda ints, v0, p: gaussian_power_build(v0, ints, p["n"], p["tau"]),
                       True),
    "qse": (lambda ints, v0, p: qse_build(statevector_from_fock(v0), ints, level=p["level"]),
            False),
    "qfd": (lambda ints, v0, p: qfd_build(v0, ints, QfdGrid(p["dt"], p["n"], p["backend"],
                                                            p["substeps"])), True),
    "qlanczos": (lambda ints, v0, p: qlanczos_build(v0, ints, p["dtau"], p["n"],
                                                    mode=p["mode"]), True),
    "spectrum": (lambda ints, v0, p: qfd_build(v0, ints, QfdGrid(p["dt"], p["n"])), True),
    "fastforward": (lambda ints, v0, p: qfd_build(v0, ints, QfdGrid(p["dt"], p["n"])), True),
}


class TestPencilRecord:
    """Every exactly solved pencil is recorded alike: each eigenvalue's
    roundoff floor, and w0 exactly where the basis is filtered."""

    @staticmethod
    def rebuilt(name, method, params, eps=None):
        ints = load_integrals(name)
        v0 = basis_vector(ints.sector, reference_configuration(ints))
        prob = PENCILS[method][0](ints, v0, params)
        return ints, v0, prob, solve(prob, eps)

    def test_table_covers_every_built_pencil(self):
        assert set(PENCILS) == {m for m, spec in _SPECS.items() if spec.build is not None}

    @pytest.mark.parametrize("name", ["h2_sto3g", "h4_toy"])
    @pytest.mark.parametrize("method", tuple(PENCILS))
    def test_record_floor_and_ground_weight(self, tmp_path, name, method):
        code, report, _ = run_cli(tmp_path, method, "--input", str(fixture_path(name)))
        assert code == 0
        VALIDATOR.validate(report)
        result = report["result"]
        record = result.get("subspace", result)
        ints, v0, prob, sol = self.rebuilt(name, method, report["config"]["params"],
                                           record["eps"])
        assert len(record["eigenvalue_roundoff"]) == len(record["eigenvalues"])
        assert record["eigenvalue_roundoff"] == eigenvalue_roundoff(prob, sol).tolist()
        if PENCILS[method][1]:
            assert record["w0"] == spectral_measure(ints, v0)[1][0]
        else:
            assert "w0" not in record
        # the qfd filter bound is evaluated at its own step, not the run's dt
        assert ("qfd_error_bound" in record["bounds"]) == (method == "qfd")

    @pytest.mark.parametrize("name", ["h2_sto3g", "h4_toy"])
    def test_exact_sweep_row_floor(self, tmp_path, name):
        code, report, _ = run_cli(tmp_path, "gaussian-power", "--input", str(fixture_path(name)),
                                  "--sweep", "n=2,3")
        assert code == 0
        for row in report["result"]["rows"]:
            params = {**report["config"]["params"], "n": row["value"]}
            _, _, prob, sol = self.rebuilt(name, "gaussian-power", params)
            assert row["eigenvalue_roundoff"] == eigenvalue_roundoff(prob, sol)[0]

    def test_own_bounds_on_exact_runs_only(self, tmp_path):
        # a method's a-priori bounds describe the noise-free pencil; a
        # sampled run records its noise bounds only
        code, exact, _ = run_cli(tmp_path / "exact", "qfd", "--input", H2)
        assert code == 0
        assert "qfd_error_bound" in exact["result"]["bounds"]
        code, sampled, _ = run_cli(tmp_path / "sampled", "qfd", "--input", H2, "--shots", "200")
        assert code == 0
        VALIDATOR.validate(sampled)
        bounds = sampled["result"]["bounds"]
        assert "qfd_error_bound" not in bounds and "arctangent_bound" in bounds

    def test_one_state_sector_records_no_gap_bound(self, tmp_path):
        # he_minimal has one state: neither the qfd filter bound nor the
        # Kaniel-Paige-Saad bound has a gap to read
        path = str(fixture_path("he_minimal"))
        code, report, _ = run_cli(tmp_path / "single", "qfd", "--input", path)
        assert code == 0
        VALIDATOR.validate(report)
        assert "qfd_error_bound" not in report["result"]["bounds"]
        assert len(report["result"]["eigenvalue_roundoff"]) == 1
        for method in ("qfd", "lanczos"):
            code, report, out = run_cli(tmp_path / method, method, "--input", path,
                                        "--sweep", "n=2,3")
            assert code == 0, method
            VALIDATOR.validate(report)
            assert [row["bound"] for row in read_rows(out / "sweep.csv")] == ["", ""], method
        # the library functions keep refusing such a sector
        ints = load_integrals("he_minimal")
        v0 = basis_vector(ints.sector, reference_configuration(ints))
        with pytest.raises(ValidationError, match="one state"):
            epperly_qfd_bound(ints, v0, 4)
        with pytest.raises(ValidationError, match="non-top"):
            kaniel_paige_saad(ints, exact_eigenpairs(ints, k=1), v0, 2)


# The fixture x method guard: one sweep per axis, and the calls that exit
# nonzero, pinned as they are, (fixture, method, flags...) -> (exit code,
# reason).
GUARD_SWEEPS = {"n": "n=2,3", "dt": "dt=0.2,0.4", "shots": "shots=100,200",
                "eps": "eps=1e-8,1e-6"}
GUARD_EXITS = {
    **{(name, "qse", *flags): (3, "the default SD recipe exceeds the 50M Pauli product budget")
       for name in ("h3_plus", "h4_toy")
       for flags in (("--shots", "200"), ("--eps-target", "1e-2"),
                     ("--sweep", "shots=100,200"))},
    ("h2_stretched", "qeom"): (5, "the sector ground state is a triplet, and no direction "
                                  "of its excitation metric is significant (ROADMAP item 20)"),
    ("he_minimal", "qeom"): (5, "one orbital gives an empty excitation pool"),
    **{(name, "qlanczos", "--mode", "qite"): (
        5, "the QITE overlap is not a Gram matrix and has an eigenvalue below "
           "the -1e-8 floor (ROADMAP item 1)")
       for name in ("h2_sto3g", "h2_stretched", "heh_like")},
    ("he_minimal", "qlanczos", "--mode", "qite"): (5, "one orbital gives an empty rotation pool"),
}


def guard_calls():
    """Each method's default run, qse and qfd sampled with --shots and with
    --eps-target, one sweep per axis of each method, and qlanczos in QITE
    mode."""
    for method in ACCEPTED_PARAMS:
        yield (method,)
        if method in SAMPLED:
            yield method, "--shots", "200"
            yield method, "--eps-target", "1e-2"
        for axis in SWEEP_AXES[method]:
            yield method, "--sweep", GUARD_SWEEPS[axis]
    yield "qlanczos", "--mode", "qite"


class TestFixtureMatrix:
    """Every method runs on every committed fixture, sampled and swept, and
    exits 0 with a report that validates, except where GUARD_EXITS says why
    not; a failing call prints the error JSON of its exit code."""

    def test_table_names_only_guarded_calls(self):
        calls = {(name, *call) for name in FIXTURE_NAMES for call in guard_calls()}
        assert len(calls) == 198
        assert set(GUARD_EXITS) <= calls

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_call_exits_as_pinned(self, capsys, tmp_path, name):
        path = str(fixture_path(name))
        for k, call in enumerate(guard_calls()):
            code = main([*call, "--input", path, "--out", str(tmp_path / str(k))])
            out = capsys.readouterr().out
            want, reason = GUARD_EXITS.get((name, *call), (0, None))
            assert code == want, (call, reason, out)
            if code:
                assert json.loads(out)["error"]["exit_code"] == code, call
            else:
                VALIDATOR.validate(json.loads((tmp_path / str(k) / "result.json").read_text()))


class TestRejectionMatrix:
    def rejected(self, capsys, tmp_path, argv, message):
        assert main([*argv, "--input", H2, "--out", str(tmp_path)]) == 2, argv
        err = error_payload(capsys)
        assert err == {"exit_code": 2, "type": "ValidationError", "message": message}
        assert not (tmp_path / "result.json").exists()

    def test_tables_cover_every_method_and_flag(self):
        assert tuple(ACCEPTED_PARAMS) == METHODS
        assert set(SWEEP_AXES) == set(METHODS)
        assert {p for params in ACCEPTED_PARAMS.values() for p in params} == set(PARAM_FLAGS)

    @pytest.mark.parametrize("method", tuple(ACCEPTED_PARAMS))
    def test_inapplicable_parameters(self, capsys, tmp_path, method):
        for name, flag in PARAM_FLAGS.items():
            if name in ACCEPTED_PARAMS[method]:
                continue
            self.rejected(
                capsys, tmp_path, [method, *flag],
                f"parameter {name!r} does not apply to method {method!r}",
            )

    @pytest.mark.parametrize("method", tuple(ACCEPTED_PARAMS))
    def test_disallowed_sweep_axes(self, capsys, tmp_path, method):
        for axis, spec in SWEEP_VALUES.items():
            if axis in SWEEP_AXES[method]:
                continue
            self.rejected(
                capsys, tmp_path, [method, "--sweep", spec],
                f"sweep axis {axis!r} does not apply to method {method!r}",
            )

    @pytest.mark.parametrize("method", tuple(m for m in ACCEPTED_PARAMS if m not in SAMPLED))
    @pytest.mark.parametrize("budget", [["--shots", "100"], ["--eps-target", "0.1"]])
    def test_sampling_outside_qse_and_qfd(self, capsys, tmp_path, method, budget):
        self.rejected(
            capsys, tmp_path, [method, *budget],
            f"sampling applies to qse, qfd, not {method!r}",
        )


class TestSweeps:
    def test_lanczos_energy_nonincreasing(self, tmp_path):
        code, report, out = run_cli(
            tmp_path, "lanczos", "--input", H2, "--sweep", "n=1,2,3,4,5,6"
        )
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert [r["value"] for r in rows] == ["1", "2", "3", "4", "5", "6"]
        energies = [float(r["energy"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        # variational from above, inside the stated bound
        for row in rows:
            assert float(row["error_vs_fci"]) >= -1e-12
            assert float(row["error_vs_fci"]) <= float(row["bound"]) + 1e-12

    def test_power_krylov_cond_exceeds_lower_bound(self, tmp_path):
        for name, sweep, numeric in [("h2_sto3g", "n=2,5,9", 1), ("h4_toy", "n=4,7,9", 2)]:
            code, _, out = run_cli(tmp_path / name, "power-krylov", "--input",
                                   str(fixture_path(name)), "--sweep", sweep)
            assert code == 0
            ints = load_integrals(name)
            v0 = basis_vector(ints.sector, reference_configuration(ints))
            rows = read_rows(out / "sweep.csv")
            for row in rows:
                smat = power_krylov(ints, v0, int(row["value"])).smat
                lam = np.abs(np.linalg.eigvalsh(smat))
                singular = lam.min() <= lam.size * np.finfo(float).eps * lam.max()
                # blank exactly when S is singular to working precision
                assert (row["cond_smat"] == "") == singular, (name, row)
                if not singular:
                    assert float(row["cond_smat"]) >= float(row["bound"]), (name, row)
            assert sum(row["cond_smat"] != "" for row in rows) == numeric, name

    def test_qfd_dt_sweep_error_below_bound(self, tmp_path):
        code, _, out = run_cli(
            tmp_path, "qfd", "--input", H2, "--n", "4",
            "--sweep", "dt=0.1,0.2,0.4,0.8",
        )
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 4
        for row in rows:
            assert float(row["error_vs_fci"]) <= float(row["bound"]) + 1e-12

    def test_shots_sweep_error_shrinks(self, tmp_path):
        code, report, out = run_cli(
            tmp_path, "qfd", "--input", H2, "--n", "4", "--dt", "0.4",
            "--seed", "3", "--sweep", "shots=100,1000000",
        )
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        errors = [abs(float(r["error_vs_fci"])) for r in rows]
        assert errors[1] < errors[0]

    def test_jobs_do_not_change_the_table(self, tmp_path):
        args = ("lanczos", "--input", H2, "--sweep", "n=1,2,3,4,5,6")
        _, _, serial = run_cli(tmp_path / "serial", *args, "--jobs", "1")
        _, _, parallel = run_cli(tmp_path / "par", *args, "--jobs", "4")
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()

    def test_sweep_report_validates(self, tmp_path):
        code, report, _ = run_cli(
            tmp_path, "qfd", "--input", H2, "--n", "4", "--dt", "0.4",
            "--sweep", "eps=1e-10,1e-6,1e-2",
        )
        assert code == 0
        VALIDATOR.validate(report)
        assert report["result"]["axis"] == "eps"

    def test_lanczos_sweep_bound_copies_one_eigenvector(self):
        # Kaniel-Paige-Saad reads every eigenvalue but only the ground
        # vector; a k = dim slice of the 1225-dimensional scan molecule
        # copies all its vectors as complex (24 MB)
        ints = scan_integrals(1.3)
        v0 = basis_vector(ints.sector, reference_configuration(ints))
        full = exact_eigenpairs(ints, k=ints.sector_dimension)  # warms the cache
        want = kaniel_paige_saad(ints, full, v0, 8).bound
        del full
        tracemalloc.start()
        try:
            got = _SPECS["lanczos"].bound(ints, v0, {"n": 8}, {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2_000_000

    def test_exact_sweep_rows_carry_the_ground_roundoff_floor(self, tmp_path):
        args = ("qfd", "--input", str(fixture_path("h4_toy")), "--backend", "trotter",
                "--n", "6", "--substeps", "2")
        code, report, out = run_cli(tmp_path / "sweep", *args, "--sweep", "dt=0.2,0.4,0.8")
        assert code == 0
        VALIDATOR.validate(report)
        rows = report["result"]["rows"]
        for row, line in zip(rows, read_rows(out / "sweep.csv"), strict=True):
            code, alone, _ = run_cli(tmp_path / str(row["value"]), *args,
                                     "--dt", str(row["value"]))
            assert code == 0
            assert row["energy"] == alone["result"]["ground_energy"]
            assert row["eigenvalue_roundoff"] == alone["result"]["eigenvalue_roundoff"][0]
            assert float(line["eigenvalue_roundoff"]) == row["eigenvalue_roundoff"]
        # cond(S) is 1e15 at dt = 0.2: the energy's last digits are roundoff
        assert 1e-8 < rows[0]["eigenvalue_roundoff"] < 1e-7

    def test_sampled_sweep_rows_have_no_roundoff_floor(self, tmp_path):
        code, report, out = run_cli(
            tmp_path, "qfd", "--input", H2, "--n", "3", "--seed", "3",
            "--sweep", "shots=200,5000",
        )
        assert code == 0
        VALIDATOR.validate(report)
        assert [row["eigenvalue_roundoff"] for row in report["result"]["rows"]] == [None, None]
        assert [row["eigenvalue_roundoff"] for row in read_rows(out / "sweep.csv")] == ["", ""]

    def test_sampled_qfd_sweep_bound_is_the_arctangent_bound(self, tmp_path):
        # a sampled row's bound column describes that noisy run: the
        # arctangent bound of the same point run alone, not the exact-path
        # filter bound
        shots = ("200", "5000")
        code, _, out = run_cli(
            tmp_path / "sweep", "qfd", "--input", H2, "--n", "3", "--seed", "3",
            "--sweep", "shots=" + ",".join(shots),
        )
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == len(shots)
        for count, row in zip(shots, rows):
            code, report, _ = run_cli(
                tmp_path / count, "qfd", "--input", H2, "--n", "3", "--seed", "3",
                "--shots", count,
            )
            assert code == 0
            alone = report["result"]["bounds"]["arctangent_bound"]
            assert alone is not None
            assert float(row["bound"]) == alone
            assert float(row["energy"]) == report["result"]["ground_energy"]

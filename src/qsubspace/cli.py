"""Command line driver: load integrals, run one method, write reports.

Usage::

    qsubspace <method> --input <fcidump> [--config <file>] [flags]

Methods: fci, lanczos, davidson, power-krylov, chebyshev, gaussian-power,
qse, qeom, qfd, qlanczos, spectrum, fastforward. Each is one MethodSpec
entry of the `_SPECS` table: the parameters it accepts, how it runs, and,
for the pencils solved by geev.solve, how the pair is built, its
measurement recipe and its sweep bound. METHODS, the sampled methods and each method's sweep
axes are read off that table.

Configuration comes from an INI file (sections [run], [params], [shots],
[sweep]) plus flags; flags win over file values. Unknown keys, unknown
sections, and parameters that do not apply to the chosen method are
rejected. Reports land in --out:

    result.json    run report following schemas/result-v1.json; embeds the
                   resolved config, the seed, and the RNG generator name
    sweep.csv      one row per swept value (--sweep AXIS=V1,V2,...)
    spectrum.csv   stick spectrum plus optional broadened response
                   (spectrum method only)

All energies are in hartree. A failure prints one JSON object
{"error": {"exit_code": ..., "type": ..., "message": ...}} to stdout and
exits nonzero with the code for its error class (see EXIT_CODES).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import pathlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import __version__
from .classical import davidson, kaniel_paige_saad, lanczos, power_krylov
from .engine import Statevector, apply_pauli_sum, statevector_from_fock
from .errors import (
    CapacityError,
    ConvergenceError,
    DataError,
    ParseError,
    QsubspaceError,
    ValidationError,
)
from .fock import (
    basis_vector,
    exact_eigenpairs,
    evolve_real,
    reference_configuration,
    spectral_measure,
)
from .fock import inner as fock_inner
from .geev import eigenvalue_roundoff, solution_report, solve
from .integrals import MolecularIntegrals, parse_fcidump
from .quantum import (
    ExcitationOperator,
    QfdGrid,
    _snapshots,
    chebyshev_krylov_build,
    epperly_qfd_bound,
    fast_forward,
    gaussian_power_build,
    qeom_build,
    qfd_build,
    qfd_recipe,
    qlanczos_build,
    qse_build,
    qse_recipe,
    response_function,
    spectral_weights,
)
from .qubits import jordan_wigner
from .shots import (
    GENERATOR,
    SEED_LIMIT,
    ShotPlan,
    measurement_groups,
    noisy_subspace,
    plan_from_target,
)

SCHEMA_VERSION = "qsubspace-result-v1"

EXIT_CODES = {
    0: "success",
    1: "input/output failure",
    2: "invalid arguments, config keys, or malformed input text",
    3: "problem size above the desk-scale caps",
    4: "iteration budget exhausted",
    5: "numerically invalid data",
    6: "internal error",
}

_SWEEP_AXES = ("n", "dt", "shots", "eps")

_PARAM_DEFAULTS = {
    "n": 4,
    "dt": 0.1,
    "dtau": 0.2,
    "eps": None,  # None = default_threshold of the solver
    "k": None,  # fci: sector dimension, davidson: 1
    "level": "SD",
    "tda": False,
    "tau": 1.0,
    "time": 1.0,
    "backend": "exact",
    "substeps": 1,
    "mode": "exact",
    "op": "occ:0",
    "omega_min": 0.0,
    "omega_max": 2.0,
    "omega_points": 0,
    "eta": 0.05,
    "bounds": None,  # chebyshev: exact spectral range, padded
}

_FILE_SECTIONS = {
    "run": ("input", "method", "out", "jobs"),
    "params": tuple(_PARAM_DEFAULTS),
    "shots": ("enabled", "seed", "shots", "eps_target", "grouping"),
    "sweep": ("axis", "values"),
}

_INT_KEYS = ("n", "k", "substeps", "omega_points", "jobs", "seed", "shots")
_FLOAT_KEYS = ("dt", "dtau", "eps", "tau", "time", "omega_min", "omega_max", "eta", "eps_target")
_BOOL_KEYS = ("tda", "enabled")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ShotsSection:
    """Sampling model settings; enabled only for the methods with recipes."""

    enabled: bool = False
    seed: int = 0
    shots: int | None = None
    eps_target: float | None = None
    grouping: str = "qubitwise"

    def echo(self) -> dict:
        return asdict(self)


@dataclass
class RunConfig:
    """Fully resolved run description, echoed verbatim into every report."""

    method: str
    input: str
    out: str = "."
    jobs: int = 1
    params: dict = field(default_factory=dict)
    shots: ShotsSection = field(default_factory=ShotsSection)
    sweep_axis: str | None = None
    sweep_values: tuple = ()

    def echo(self) -> dict:
        params = {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in self.params.items()
        }
        sweep = None
        if self.sweep_axis is not None:
            sweep = {"axis": self.sweep_axis, "values": list(self.sweep_values)}
        return {
            "method": self.method,
            "input": self.input,
            "out": self.out,
            "jobs": self.jobs,
            "params": params,
            "shots": self.shots.echo(),
            "sweep": sweep,
        }


def finite_float(raw: str) -> float:
    """float(raw) for the float flags and keys; nan and +-inf are refused."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) with plain text; raise so main() can emit
    # the error JSON instead
    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    codes = "\n".join(f"  {code}  {text}" for code, text in EXIT_CODES.items())
    parser = _Parser(
        prog="qsubspace",
        description="Desk-scale subspace methods for molecular electronic structure.",
        epilog=(
            "exit codes:\n"
            f"{codes}\n\n"
            "sweep axes: n, dt, shots, eps (--sweep n=2,3,4). The bound\n"
            "column holds the Kaniel-Paige value for lanczos, the power-basis\n"
            "cond(S) lower bound for power-krylov, the uniform-grid filter\n"
            "bound for qfd, and the arctangent perturbation bound for\n"
            "sampled runs.\n\n"
            "errors print {\"error\": {\"exit_code\", \"type\", \"message\"}} to stdout."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"qsubspace {__version__}")
    parser.add_argument("method", choices=METHODS, metavar="method",
                        help=f"one of: {', '.join(METHODS)}")
    parser.add_argument("--input", help="FCIDUMP file with the molecular integrals")
    parser.add_argument("--config", help="INI config file; flags override its values")
    parser.add_argument("--out", help="report directory (default .)")
    parser.add_argument("--jobs", type=int, help="concurrent sweep points (default 1)")
    parser.add_argument("--n", type=int, help="subspace dimension / grid points")
    parser.add_argument("--k", type=int, help="eigenpairs to report (fci, davidson)")
    parser.add_argument("--dt", type=finite_float,
                        help="real-time grid step (qfd, spectrum, fastforward)")
    parser.add_argument("--dtau", type=finite_float, help="imaginary-time step (qlanczos)")
    parser.add_argument("--eps", type=finite_float,
                        help="overlap threshold (default: solver heuristic)")
    parser.add_argument("--level", choices=("S", "SD"), help="qse excitation level")
    parser.add_argument("--tda", action=argparse.BooleanOptionalAction, default=None,
                        help="qeom: drop the de-excitation block")
    parser.add_argument("--tau", type=finite_float, help="gaussian-power filter width")
    parser.add_argument("--time", type=finite_float, help="fastforward target time")
    parser.add_argument("--bounds", help="chebyshev spectral bounds LO,HI")
    parser.add_argument("--backend", choices=("exact", "trotter"), help="qfd propagator")
    parser.add_argument("--substeps", type=int, help="trotter substeps per grid step")
    parser.add_argument("--mode", choices=("exact", "qite"), help="qlanczos propagation mode")
    parser.add_argument("--op", help="spectrum probe: occ:P or ham (default occ:0)")
    parser.add_argument("--omega-min", type=finite_float, help="response grid start")
    parser.add_argument("--omega-max", type=finite_float, help="response grid end")
    parser.add_argument("--omega-points", type=int,
                        help="response grid size; 0 = sticks only")
    parser.add_argument("--eta", type=finite_float, help="lorentzian broadening")
    parser.add_argument("--shots", type=int, help="samples per measurement group")
    parser.add_argument("--eps-target", type=finite_float,
                        help="allocate shots for this eigenvalue precision")
    parser.add_argument("--no-sampling", action="store_true",
                        help="force the exact backend even if the config enables shots")
    parser.add_argument("--seed", type=int, help="sampling seed (default 0)")
    parser.add_argument("--grouping", choices=("qubitwise", "full"),
                        help="commuting-group mode for sampling")
    parser.add_argument("--sweep", metavar="AXIS=V1,V2,...",
                        help="emit sweep.csv over n, dt, shots, or eps")
    return parser


def _convert(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return finite_float(raw)
        if key in _BOOL_KEYS:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return raw.strip()
    except ValueError:
        raise ValidationError(f"config: bad value {raw!r} for key {key!r}") from None


def _read_text(path: str, what: str) -> str:
    """A text file's contents; a NUL byte in the path or undecodable bytes
    in the file are input errors."""
    if "\x00" in path:
        raise ValidationError(f"{what} path contains a NUL byte")
    try:
        return pathlib.Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_config_file(path: str) -> dict:
    """Parse the INI file into {section: {key: typed value}}; reject strays."""
    parser = configparser.ConfigParser()
    text = _read_text(path, "config")
    try:
        parser.read_string(text, source=path)
        # values interpolate when read, so a stray '%' fails here
        sections = {name: parser.items(name) for name in parser.sections()}
    except configparser.Error as exc:
        raise ParseError(f"config: {exc}") from None
    out: dict = {}
    for section, items in sections.items():
        if section not in _FILE_SECTIONS:
            raise ValidationError(f"config: unknown section [{section}]")
        allowed = _FILE_SECTIONS[section]
        out[section] = {}
        for key, raw in items:
            if key not in allowed:
                raise ValidationError(
                    f"config: unknown key {key!r} in section [{section}]"
                )
            out[section][key] = _convert(key, raw)
    return out


def _parse_bounds(raw: str) -> tuple:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValidationError(f"bounds must be LO,HI, got {raw!r}")
    try:
        return (finite_float(parts[0]), finite_float(parts[1]))
    except ValueError:
        raise ValidationError(f"bounds must be finite numbers, got {raw!r}") from None


def _parse_sweep(raw: str) -> tuple:
    axis, sep, tail = raw.partition("=")
    axis = axis.strip()
    if not sep or axis not in _SWEEP_AXES:
        raise ValidationError(
            f"sweep must be AXIS=V1,V2,... with axis in {sorted(_SWEEP_AXES)}, got {raw!r}"
        )
    cast = int if axis in ("n", "shots") else finite_float
    try:
        values = tuple(cast(x) for x in tail.split(",") if x.strip())
    except ValueError:
        raise ValidationError(f"sweep values must be finite numbers, got {raw!r}") from None
    if not values:
        raise ValidationError("sweep needs at least one value")
    return axis, values


def merge_config(args: argparse.Namespace, file_cfg: dict) -> tuple:
    """Overlay flags on file values; returns (RunConfig, explicit param names)."""
    run_sec = file_cfg.get("run", {})
    par_sec = file_cfg.get("params", {})
    shot_sec = file_cfg.get("shots", {})
    sweep_sec = file_cfg.get("sweep", {})

    input_path = args.input if args.input is not None else run_sec.get("input")
    if not input_path:
        raise ValidationError("missing required field 'input'")
    out = args.out if args.out is not None else run_sec.get("out", ".")
    if "\x00" in out:
        raise ValidationError("out path contains a NUL byte")
    jobs = args.jobs if args.jobs is not None else run_sec.get("jobs", 1)
    if jobs < 1:
        raise ValidationError("jobs must be at least 1")

    params = {}
    for key in _PARAM_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            params[key] = _parse_bounds(flag) if key == "bounds" else flag
        elif key in par_sec:
            value = par_sec[key]
            params[key] = _parse_bounds(value) if key == "bounds" else value

    shots = ShotsSection(
        enabled=bool(shot_sec.get("enabled", False)),
        seed=shot_sec.get("seed", 0),
        shots=shot_sec.get("shots"),
        eps_target=shot_sec.get("eps_target"),
        grouping=args.grouping or shot_sec.get("grouping", "qubitwise"),
    )
    if args.shots is not None and args.eps_target is not None:
        raise ValidationError("give --shots or --eps-target, not both")
    if args.shots is not None:
        shots = replace(shots, enabled=True, shots=args.shots, eps_target=None)
    elif args.eps_target is not None:
        shots = replace(shots, enabled=True, eps_target=args.eps_target, shots=None)
    if args.seed is not None:
        shots = replace(shots, seed=args.seed)
    if args.no_sampling:
        shots = replace(shots, enabled=False)
    if shots.enabled:
        if shots.shots is not None and shots.eps_target is not None:
            raise ValidationError("config: give shots or eps_target, not both")
        if shots.shots is None and shots.eps_target is None:
            raise ValidationError("sampling enabled without shots or eps_target")
        if not 0 <= shots.seed < SEED_LIMIT:
            raise ValidationError("seed must lie in [0, 2^64)")
        if shots.grouping not in ("qubitwise", "full"):
            raise ValidationError(f"unknown grouping {shots.grouping!r}")

    sweep_axis, sweep_values = None, ()
    if args.sweep is not None:
        sweep_axis, sweep_values = _parse_sweep(args.sweep)
    elif sweep_sec:
        if "axis" not in sweep_sec or "values" not in sweep_sec:
            raise ValidationError("config: [sweep] needs both axis and values")
        sweep_axis, sweep_values = _parse_sweep(
            f"{sweep_sec['axis']}={sweep_sec['values']}"
        )

    cfg = RunConfig(
        method=args.method,
        input=str(input_path),
        out=str(out),
        jobs=int(jobs),
        params=params,
        shots=shots,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
    )
    return cfg, frozenset(params)


def resolve_config(cfg: RunConfig, ints: MolecularIntegrals, explicit: frozenset) -> RunConfig:
    """Reject inapplicable parameters, then fill method defaults."""
    spec = _SPECS[cfg.method]
    for name in sorted(explicit):
        if name not in spec.params:
            raise ValidationError(
                f"parameter {name!r} does not apply to method {cfg.method!r}"
            )
    if cfg.shots.enabled and spec.recipe is None:
        sampled = ", ".join(name for name, other in _SPECS.items() if other.recipe)
        raise ValidationError(f"sampling applies to {sampled}, not {cfg.method!r}")
    if cfg.sweep_axis is not None and cfg.sweep_axis not in spec.sweep_axes:
        raise ValidationError(
            f"sweep axis {cfg.sweep_axis!r} does not apply to method {cfg.method!r}"
        )
    if cfg.sweep_axis == "shots" and not cfg.shots.enabled:
        # give the swept plans a definite seed and grouping
        cfg = replace(cfg, shots=replace(cfg.shots, enabled=True, shots=1))

    params = dict(cfg.params)
    for key in spec.params:
        if key in params:
            continue
        if key == "k":
            params[key] = ints.sector_dimension if cfg.method == "fci" else 1
        elif key == "bounds":
            energies, _ = spectral_measure(ints, _reference(ints))
            lo, hi = float(energies[0]), float(energies[-1])
            pad = 0.01 * max(hi - lo, 1.0)
            params[key] = (lo - pad, hi + pad)
        else:
            params[key] = _PARAM_DEFAULTS[key]
    return replace(cfg, params=params)


# ---------------------------------------------------------------------------
# running one method


def _reference(ints: MolecularIntegrals):
    return basis_vector(ints.sector, reference_configuration(ints))


def _fci_ground(ints: MolecularIntegrals) -> float:
    return float(exact_eigenpairs(ints, k=1).eigenvalues[0])


def _grid(p: dict) -> QfdGrid:
    return QfdGrid(p["dt"], p["n"], backend=p["backend"], substeps=p["substeps"])


def _solved(cfg: RunConfig, ints: MolecularIntegrals, v0):
    """Build the method's pair on v0 (from its recipe when sampling), solve
    and summarise it: (problem, solution, report, ShotPlan or None)."""
    spec, shots, plan = _SPECS[cfg.method], cfg.shots, None
    if not shots.enabled:
        prob = spec.build(ints, v0, cfg.params)
    else:
        recipe = spec.recipe(ints, v0, cfg.params)
        if shots.eps_target is not None:
            plan = plan_from_target(recipe, shots.eps_target, shots.seed, mode=shots.grouping)
        else:
            groups = measurement_groups(recipe, mode=shots.grouping)
            plan = ShotPlan(shots.seed, (shots.shots,) * len(groups), mode=shots.grouping)
        prob = noisy_subspace(recipe, plan)
    sol = solve(prob, cfg.params.get("eps"))
    return prob, sol, solution_report(prob, sol), plan


def _run_subspace(cfg: RunConfig, ints: MolecularIntegrals, outdir: pathlib.Path):
    v0 = _reference(ints)
    prob, sol, report, plan = _solved(cfg, ints, v0)
    if cfg.method == "qfd":
        report["bounds"]["qfd_error_bound"] = epperly_qfd_bound(ints, v0, cfg.params["n"])
    energy = float(sol.eigenvalues[0])
    result = {
        "kind": "subspace_solution",
        **report,
        "ground_energy": energy,
        "error_vs_fci": energy - _fci_ground(ints),
    }
    if not prob.noisy:  # a sampled run reports its std in bounds instead
        result["eigenvalue_roundoff"] = [float(x) for x in eigenvalue_roundoff(prob, sol)]
    summary = (
        f"{cfg.method}: ground energy {energy:+.10f} hartree "
        f"(kept {sol.retained_dim} of {prob.n}, eps {sol.eps:.3e})"
    )
    return result, plan, summary, {}


def _run_fci(cfg: RunConfig, ints: MolecularIntegrals, outdir: pathlib.Path):
    slc = exact_eigenpairs(ints, k=cfg.params["k"])
    result = {
        "kind": "spectrum_slice",
        "k": int(cfg.params["k"]),
        "dim": int(ints.sector_dimension),
        "eigenvalues": [float(x) for x in slc.eigenvalues],
    }
    summary = (
        f"fci: ground energy {result['eigenvalues'][0]:+.10f} hartree "
        f"({result['k']} of {result['dim']} states)"
    )
    return result, None, summary, {}


def _run_davidson(cfg: RunConfig, ints: MolecularIntegrals, outdir: pathlib.Path):
    got = davidson(ints, k=cfg.params["k"])
    result = {
        "kind": "spectrum_slice",
        "k": int(cfg.params["k"]),
        "dim": int(ints.sector_dimension),
        "eigenvalues": [float(x) for x in got.eigenvalues],
        "iterations": int(got.num_iterations),
        "residual_norms": [float(x) for x in got.residual_norms],
    }
    summary = (
        f"davidson: ground energy {result['eigenvalues'][0]:+.10f} hartree "
        f"({got.num_iterations} iterations)"
    )
    return result, None, summary, {}


def _run_qeom(cfg: RunConfig, ints: MolecularIntegrals, outdir: pathlib.Path):
    # gaps are exact when the reference is the exact ground state, which is
    # available at desk scale
    ground = exact_eigenpairs(ints, k=1).eigenvectors[0]
    blocks, energies = qeom_build(
        statevector_from_fock(ground), ints, tda=cfg.params["tda"]
    )
    result = {
        "kind": "excitations",
        "tda": bool(cfg.params["tda"]),
        "excitation_energies": [float(x) for x in energies],
        "diagnostics": _jsonable(blocks.report),
    }
    lowest = result["excitation_energies"][0] if energies.size else math.nan
    summary = f"qeom: lowest gap {lowest:.10f} hartree ({energies.size} finite)"
    return result, None, summary, {}


def _probe_operator(spec: str, ints: MolecularIntegrals):
    if spec == "ham":
        return jordan_wigner(ints)
    head, sep, tail = spec.partition(":")
    if head == "occ" and sep:
        try:
            orbital = int(tail)
        except ValueError:
            raise ValidationError(f"bad probe operator {spec!r}") from None
        if not 0 <= orbital < ints.num_orbitals:
            raise ValidationError(f"probe orbital {orbital} outside register")
        up = ExcitationOperator(ints.num_orbitals, "single", (orbital, orbital), (0,))
        down = ExcitationOperator(ints.num_orbitals, "single", (orbital, orbital), (1,))
        return up.to_pauli() + down.to_pauli()
    raise ValidationError(f"probe operator must be occ:P or ham, got {spec!r}")


def _qfd_solution(cfg: RunConfig, ints: MolecularIntegrals):
    p = cfg.params
    v0 = _reference(ints)
    grid = QfdGrid(p["dt"], p["n"])
    prob = qfd_build(v0, ints, grid)
    sol = solve(prob, p.get("eps"))
    basis = _snapshots(v0, ints, grid)
    return prob, sol, basis, v0


def _run_spectrum(cfg: RunConfig, ints: MolecularIntegrals, outdir: pathlib.Path):
    p = cfg.params
    prob, sol, basis, _ = _qfd_solution(cfg, ints)
    b_op = _probe_operator(p["op"], ints)
    gaps, weights = spectral_weights(sol, basis, b_op.dagger(), b_op)

    # resolution-of-identity check: sum of weights vs <0|B^+B|0>
    states = [statevector_from_fock(x) for x in basis]
    amps = sol.coefficients[:, 0] @ np.stack([s.amplitudes for s in states])
    image = apply_pauli_sum(b_op, Statevector(states[0].num_qubits, amps))
    closure = float(np.vdot(image.amplitudes, image.amplitudes).real)
    weight_sum = float(np.sum(weights).real)

    rows = [("stick", float(g), float(w.real), float(w.imag)) for g, w in zip(gaps, weights)]
    if p["omega_points"] > 0:
        omegas = np.linspace(p["omega_min"], p["omega_max"], p["omega_points"])
        response = response_function(sol, basis, b_op.dagger(), b_op, omegas, p["eta"])
        rows += [
            ("response", float(w), float(r.real), float(r.imag))
            for w, r in zip(omegas, response)
        ]
    path = outdir / "spectrum.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("kind", "x", "re", "im"))
        writer.writerows(rows)

    result = {
        "kind": "spectrum",
        "op": p["op"],
        "subspace": solution_report(prob, sol),
        "num_sticks": len(gaps),
        "sum_rule": {
            "weight_sum": weight_sum,
            "closure": closure,
            "residual": weight_sum - closure,
        },
    }
    summary = (
        f"spectrum: {len(gaps)} sticks, sum-rule residual "
        f"{result['sum_rule']['residual']:+.3e} -> {path.name}"
    )
    return result, None, summary, {"spectrum": path.name}


def _run_fastforward(cfg: RunConfig, ints: MolecularIntegrals, outdir: pathlib.Path):
    p = cfg.params
    prob, sol, basis, v0 = _qfd_solution(cfg, ints)
    res = fast_forward(sol, basis, v0, p["time"])
    want = evolve_real(ints, v0, p["time"])
    got_norm2 = float(np.vdot(res.state.amplitudes, res.state.amplitudes).real)
    overlap2 = abs(fock_inner(want, res.state)) ** 2
    fidelity = overlap2 / got_norm2 if got_norm2 > 0 else 0.0
    result = {
        "kind": "fastforward",
        "time": float(p["time"]),
        "subspace": solution_report(prob, sol),
        "projection_weight": float(res.projection_weight),
        "low_weight": bool(res.low_weight),
        "fidelity": float(fidelity),
    }
    summary = (
        f"fastforward: t={p['time']:g}, fidelity {fidelity:.12f}, "
        f"projection weight {res.projection_weight:.12f}"
    )
    return result, None, summary, {}


# ---------------------------------------------------------------------------
# the method table


@dataclass(frozen=True)
class MethodSpec:
    """Everything the command line knows about one method.

    params: the parameters it accepts beyond input/out/jobs; strays are
    rejected. run(cfg, ints, outdir) -> (result, plan, summary, extra
    files). For the pencils solved by geev.solve, with v0 the reference
    determinant and p the resolved parameters: build(ints, v0, p) gives the
    exact SubspaceProblem, recipe(ints, v0, p) the ExpectationRecipe where
    the method can be sampled, and bound(ints, v0, p, report) the sweep
    bound column of an exact run. The callables look the library functions
    up as module globals when called, so rebinding those names reaches them.
    """

    params: tuple
    run: Callable
    build: Callable | None = None
    recipe: Callable | None = None
    bound: Callable | None = None

    @property
    def sweep_axes(self) -> tuple:
        """n, dt and eps where the pair is built and the parameter applies;
        shots where it can be sampled."""
        axes = tuple(a for a in ("n", "dt", "eps") if self.build and a in self.params)
        return axes + ("shots",) if self.recipe else axes


_SPECS = {
    "fci": MethodSpec(("k",), _run_fci),
    "lanczos": MethodSpec(
        ("n", "eps"), _run_subspace,
        build=lambda ints, v0, p: lanczos(ints, v0, p["n"])[1],
        bound=lambda ints, v0, p, report: kaniel_paige_saad(
            ints, exact_eigenpairs(ints, k=ints.sector_dimension), v0, p["n"], mu=0
        ).bound,
    ),
    "davidson": MethodSpec(("k",), _run_davidson),
    "power-krylov": MethodSpec(
        ("n", "eps"), _run_subspace,
        build=lambda ints, v0, p: power_krylov(ints, v0, p["n"]),
        bound=lambda ints, v0, p, report: report["bounds"].get("power_basis_cond_lower_bound"),
    ),
    "chebyshev": MethodSpec(
        ("n", "eps", "bounds"), _run_subspace,
        build=lambda ints, v0, p: chebyshev_krylov_build(v0, ints, p["n"], p["bounds"]),
    ),
    "gaussian-power": MethodSpec(
        ("n", "eps", "tau"), _run_subspace,
        build=lambda ints, v0, p: gaussian_power_build(v0, ints, p["n"], p["tau"]),
    ),
    "qse": MethodSpec(
        ("eps", "level"), _run_subspace,
        build=lambda ints, v0, p: qse_build(statevector_from_fock(v0), ints, level=p["level"]),
        recipe=lambda ints, v0, p: qse_recipe(statevector_from_fock(v0), ints, level=p["level"]),
    ),
    "qeom": MethodSpec(("tda",), _run_qeom),
    "qfd": MethodSpec(
        ("n", "dt", "eps", "backend", "substeps"), _run_subspace,
        build=lambda ints, v0, p: qfd_build(v0, ints, _grid(p)),
        recipe=lambda ints, v0, p: qfd_recipe(v0, ints, _grid(p)),
        bound=lambda ints, v0, p, report: epperly_qfd_bound(ints, v0, p["n"])["bound"],
    ),
    "qlanczos": MethodSpec(
        ("n", "dtau", "eps", "mode"), _run_subspace,
        build=lambda ints, v0, p: qlanczos_build(v0, ints, p["dtau"], p["n"], mode=p["mode"]),
    ),
    "spectrum": MethodSpec(
        ("n", "dt", "eps", "op", "omega_min", "omega_max", "omega_points", "eta"), _run_spectrum
    ),
    "fastforward": MethodSpec(("n", "dt", "eps", "time"), _run_fastforward),
}

METHODS = tuple(_SPECS)


# ---------------------------------------------------------------------------
# sweeps


def _point_config(cfg: RunConfig, value) -> RunConfig:
    if cfg.sweep_axis == "shots":
        shots = replace(cfg.shots, enabled=True, shots=int(value), eps_target=None)
        return replace(cfg, shots=shots, sweep_axis=None, sweep_values=())
    params = dict(cfg.params)
    params[cfg.sweep_axis] = value
    return replace(cfg, params=params, sweep_axis=None, sweep_values=())


def _sweep_point(cfg: RunConfig, ints: MolecularIntegrals, exact0: float, value):
    pcfg = _point_config(cfg, value)
    v0 = _reference(ints)
    prob, sol, report, _ = _solved(pcfg, ints, v0)
    # the bound column; a sampled row gets the arctangent perturbation bound
    # of its own run, whatever the method
    spec = _SPECS[cfg.method]
    if prob.noisy:
        bound = report["bounds"].get("arctangent_bound")
    else:
        bound = None if spec.bound is None else spec.bound(ints, v0, pcfg.params, report)
    energy = float(sol.eigenvalues[0])
    return {
        "value": value,
        "energy": energy,
        "error_vs_fci": energy - exact0,
        "cond_smat": sol.cond_smat_before,
        "n_eps": sol.retained_dim,
        "bound": bound,
    }


def _run_sweep(cfg: RunConfig, ints: MolecularIntegrals, outdir: pathlib.Path):
    exact0 = _fci_ground(ints)
    # points are independent; report writing stays on this thread
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        rows = list(
            pool.map(lambda v: _sweep_point(cfg, ints, exact0, v), cfg.sweep_values)
        )
    path = outdir / "sweep.csv"
    columns = ("value", "energy", "error_vs_fci", "cond_smat", "n_eps", "bound")
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                ["" if row[c] is None or _nonfinite(row[c]) else row[c] for c in columns]
            )
    result = {
        "kind": "sweep",
        "axis": cfg.sweep_axis,
        "rows": [_jsonable(row) for row in rows],
    }
    summary = (
        f"{cfg.method}: swept {cfg.sweep_axis} over {len(rows)} values -> {path.name}"
    )
    return result, None, summary, {"sweep": path.name}


def _nonfinite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


# ---------------------------------------------------------------------------
# reports


def _jsonable(obj):
    """Strict-JSON view: numpy scalars unwrapped, non-finite floats to None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        out = float(obj)
        return out if math.isfinite(out) else None
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    return obj


def _envelope(cfg: RunConfig, ints: MolecularIntegrals, result: dict,
              plan: ShotPlan | None, files: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "method": cfg.method,
        "input": cfg.input,
        "sector": [int(x) for x in ints.sector],
        "generator": GENERATOR,
        "seed": int(cfg.shots.seed),
        "config": _jsonable(cfg.echo()),
        "shots": plan.to_dict() if plan is not None else None,
        "result": _jsonable(result),
        "files": files,
    }


def run(cfg: RunConfig, ints: MolecularIntegrals, outdir: pathlib.Path) -> tuple:
    """Dispatch one resolved config; returns (envelope, summary line)."""
    runner = _run_sweep if cfg.sweep_axis is not None else _SPECS[cfg.method].run
    result, plan, summary, extra = runner(cfg, ints, outdir)
    files = {"result": "result.json", **extra}
    return _envelope(cfg, ints, result, plan, files), summary


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        file_cfg = load_config_file(args.config) if args.config else {}
        cfg, explicit = merge_config(args, file_cfg)
        ints = parse_fcidump(_read_text(cfg.input, "input"))
        cfg = resolve_config(cfg, ints, explicit)
        outdir = pathlib.Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        envelope, summary = run(cfg, ints, outdir)
        path = outdir / "result.json"
        path.write_text(
            json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
        print(summary)
        print(f"report: {path}")
        return 0
    except (ParseError, ValidationError) as exc:
        return _fail(2, exc)
    except CapacityError as exc:
        return _fail(3, exc)
    except ConvergenceError as exc:
        return _fail(4, exc)
    except DataError as exc:
        return _fail(5, exc)
    except OSError as exc:
        return _fail(1, exc)
    except QsubspaceError as exc:
        return _fail(6, exc)
    except Exception as exc:  # noqa: BLE001 - exit code 6 is the contract
        return _fail(6, exc)


def _fail(code: int, exc: Exception) -> int:
    payload = {
        "error": {"exit_code": code, "type": type(exc).__name__, "message": str(exc)}
    }
    print(json.dumps(payload))
    return code


if __name__ == "__main__":
    raise SystemExit(main())

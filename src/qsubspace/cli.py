"""Command line driver: load integrals, run one method, write reports.

Usage::

    qsubspace <method> --input <fcidump> [--config <file>] [flags]

Methods: fci, lanczos, davidson, power-krylov, chebyshev, gaussian-power,
qse, qeom, qfd, qlanczos, spectrum, fastforward. Each is one MethodSpec
entry of the `_SPECS` table: the parameters it accepts, how it runs, and,
for the pencils solved by geev.solve, how the pair is built, its
measurement recipe, its bounds and whether its basis is filtered. Every
solved pencil is recorded by `_pencil`. METHODS, the sampled methods and
each method's sweep axes are read off that table.

Every setting is one row of the `_SETTINGS` table: its INI section ([run],
[params], [shots] or [sweep]), cast, default, flag help and choices. The
flags, the INI reader, the defaults and the sweep casts are all read off
it, and MethodSpec.params names its [params] rows. Configuration comes from
an INI file plus flags; flags win over file values. Unknown keys, unknown
sections, values outside a setting's choices, and parameters that do not
apply to the chosen method are rejected. Reports land in --out:

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
import scipy.sparse

from . import __version__
from .classical import davidson, kaniel_paige_saad, lanczos, power_krylov
from .engine import statevector_from_fock
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
    matvec,
    reference_configuration,
    sector_matrix,
    sector_word_indices,
    spectral_measure,
)
from .fock import inner as fock_inner
from .geev import eigenvalue_roundoff, solution_report, solve
from .integrals import MolecularIntegrals, parse_fcidump
from .quantum import (
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


# ---------------------------------------------------------------------------
# configuration


def finite_float(raw: str) -> float:
    """float(raw) for the float flags and keys; nan and +-inf are refused."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _parse_bounds(raw: str) -> tuple:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValidationError(f"bounds must be LO,HI, got {raw!r}")
    try:
        return (finite_float(parts[0]), finite_float(parts[1]))
    except ValueError:
        raise ValidationError(f"bounds must be finite numbers, got {raw!r}") from None


@dataclass(frozen=True)
class Setting:
    """One settable value: its INI section, the cast of its flag, INI and
    sweep text, its default, and its flag's help (None: INI key only). A
    bool is an on/off flag and an INI boolean."""

    name: str
    section: str
    cast: Callable
    default: object = None
    help: str | None = None
    choices: tuple | None = None


_SETTINGS = {s.name: s for s in (
    Setting("input", "run", str, None, "FCIDUMP file with the molecular integrals"),
    Setting("out", "run", str, ".", "report directory (default .)"),
    Setting("jobs", "run", int, 1, "concurrent sweep points (default 1)"),
    Setting("n", "params", int, 4, "subspace dimension / grid points"),
    # fci's row defaults it to the sector dimension
    Setting("k", "params", int, 1, "eigenpairs to report (fci, davidson)"),
    Setting("dt", "params", finite_float, 0.1, "real-time grid step (qfd, spectrum, fastforward)"),
    Setting("dtau", "params", finite_float, 0.2, "imaginary-time step (qlanczos)"),
    # None: default_threshold of the solver
    Setting("eps", "params", finite_float, None, "overlap threshold (default: solver heuristic)"),
    Setting("level", "params", str, "SD", "qse excitation level", ("S", "SD")),
    Setting("tda", "params", bool, False, "qeom: drop the de-excitation block"),
    Setting("tau", "params", finite_float, 1.0, "gaussian-power filter width"),
    Setting("time", "params", finite_float, 1.0, "fastforward target time"),
    # None: the exact spectral range, padded
    Setting("bounds", "params", _parse_bounds, None, "chebyshev spectral bounds LO,HI"),
    Setting("backend", "params", str, "exact", "qfd propagator", ("exact", "trotter")),
    Setting("substeps", "params", int, 1, "trotter substeps per grid step"),
    Setting("mode", "params", str, "exact", "qlanczos propagation mode", ("exact", "qite")),
    Setting("op", "params", str, "occ:0", "spectrum probe: occ:P or ham (default occ:0)"),
    Setting("omega_min", "params", finite_float, 0.0, "response grid start"),
    Setting("omega_max", "params", finite_float, 2.0, "response grid end"),
    Setting("omega_points", "params", int, 0, "response grid size; 0 = sticks only"),
    Setting("eta", "params", finite_float, 0.05, "lorentzian broadening"),
    Setting("shots", "shots", int, None, "samples per measurement group"),
    Setting("eps_target", "shots", finite_float, None,
            "allocate shots for this eigenvalue precision"),
    Setting("seed", "shots", int, 0, "sampling seed (default 0)"),
    Setting("grouping", "shots", str, "qubitwise", "commuting-group mode for sampling",
            ("qubitwise", "full")),
    Setting("enabled", "shots", bool, False),
    Setting("axis", "sweep", str),
    Setting("values", "sweep", str),
)}


@dataclass
class ShotsSection:
    """Sampling model settings; enabled only for the methods with recipes."""

    enabled: bool
    seed: int
    shots: int | None
    eps_target: float | None
    grouping: str


@dataclass
class RunConfig:
    """Fully resolved run description, echoed verbatim into every report."""

    method: str
    input: str
    out: str
    jobs: int
    params: dict
    shots: ShotsSection
    sweep_axis: str | None = None
    sweep_values: tuple = ()

    def echo(self) -> dict:
        sweep = None
        if self.sweep_axis is not None:
            sweep = {"axis": self.sweep_axis, "values": list(self.sweep_values)}
        return {
            "method": self.method,
            "input": self.input,
            "out": self.out,
            "jobs": self.jobs,
            "params": dict(self.params),
            "shots": asdict(self.shots),
            "sweep": sweep,
        }


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
            f"sweep axes: {', '.join(_SWEEP_AXES)} (--sweep n=2,3,4). The bound\n"
            "column holds the Kaniel-Paige value for lanczos, the power-basis\n"
            "cond(S) lower bound for power-krylov, the uniform-grid filter\n"
            "bound for qfd, and the arctangent perturbation bound for\n"
            "sampled runs; blank when no bound applies.\n\n"
            "errors print {\"error\": {\"exit_code\", \"type\", \"message\"}} to stdout."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"qsubspace {__version__}")
    parser.add_argument("method", choices=METHODS, metavar="method",
                        help=f"one of: {', '.join(METHODS)}")
    parser.add_argument("--config", help="INI config file; flags override its values")
    for name, s in _SETTINGS.items():
        flag = "--" + name.replace("_", "-")
        if s.help is None:  # INI key only
            continue
        if s.cast is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, help=s.help)
        else:
            parser.add_argument(flag, type=s.cast, choices=s.choices, help=s.help)
    parser.add_argument("--no-sampling", action="store_true",
                        help="force the exact backend even if the config enables shots")
    parser.add_argument("--sweep", metavar="AXIS=V1,V2,...",
                        help=f"emit sweep.csv over {', '.join(_SWEEP_AXES[:-1])}, "
                             f"or {_SWEEP_AXES[-1]}")
    return parser


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
    """Parse the INI file into {section: {key: typed value}}; reject strays
    and values outside a setting's choices."""
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
        if section not in {s.section for s in _SETTINGS.values()}:
            raise ValidationError(f"config: unknown section [{section}]")
        out[section] = {}
        for key, raw in items:
            s = _SETTINGS.get(key)
            if s is None or s.section != section:
                raise ValidationError(
                    f"config: unknown key {key!r} in section [{section}]"
                )
            try:
                value = parser.BOOLEAN_STATES[raw.lower()] if s.cast is bool else s.cast(raw)
                if s.choices and value not in s.choices:
                    raise ValueError(raw)
            except (KeyError, ValueError):
                hint = f"; choose from {', '.join(s.choices)}" if s.choices else ""
                raise ValidationError(f"config: bad value {raw!r} for key {key!r}{hint}") from None
            out[section][key] = value
    return out


def _parse_sweep(raw: str) -> tuple:
    axis, sep, tail = raw.partition("=")
    axis = axis.strip()
    if not sep or axis not in _SWEEP_AXES:
        raise ValidationError(
            f"sweep must be AXIS=V1,V2,... with axis in {sorted(_SWEEP_AXES)}, got {raw!r}"
        )
    try:
        values = tuple(_SETTINGS[axis].cast(x) for x in tail.split(",") if x.strip())
    except ValueError:
        raise ValidationError(f"sweep values must be finite numbers, got {raw!r}") from None
    if not values:
        raise ValidationError("sweep needs at least one value")
    return axis, values


def _section(args: argparse.Namespace, file_cfg: dict, section: str,
             defaults: bool = True) -> dict:
    """One section's settings: each one's flag, else its file value, else,
    with defaults, its table default."""
    out = {n: s.default for n, s in _SETTINGS.items() if defaults and s.section == section}
    out.update(file_cfg.get(section, {}))
    for name, s in _SETTINGS.items():
        flag = getattr(args, name, None)
        if s.section == section and flag is not None:
            out[name] = flag
    return out


def merge_config(args: argparse.Namespace, file_cfg: dict) -> tuple:
    """Overlay flags on file values; returns (RunConfig, explicit param names)."""
    run_sec = _section(args, file_cfg, "run")
    if not run_sec["input"]:
        raise ValidationError("missing required field 'input'")
    if "\x00" in run_sec["out"]:
        raise ValidationError("out path contains a NUL byte")
    if run_sec["jobs"] < 1:
        raise ValidationError("jobs must be at least 1")
    params = _section(args, file_cfg, "params", defaults=False)

    if args.shots is not None and args.eps_target is not None:
        raise ValidationError("give --shots or --eps-target, not both")
    shots = ShotsSection(**_section(args, file_cfg, "shots"))
    if args.shots is not None:
        shots = replace(shots, enabled=True, eps_target=None)
    elif args.eps_target is not None:
        shots = replace(shots, enabled=True, shots=None)
    if args.no_sampling:
        shots = replace(shots, enabled=False)
    if shots.enabled:
        if shots.shots is not None and shots.eps_target is not None:
            raise ValidationError("config: give shots or eps_target, not both")
        if shots.shots is None and shots.eps_target is None:
            raise ValidationError("sampling enabled without shots or eps_target")
        if not 0 <= shots.seed < SEED_LIMIT:
            raise ValidationError("seed must lie in [0, 2^64)")

    sweep_axis, sweep_values = None, ()
    sweep_sec = file_cfg.get("sweep", {})
    if args.sweep is not None:
        sweep_axis, sweep_values = _parse_sweep(args.sweep)
    elif sweep_sec:
        if "axis" not in sweep_sec or "values" not in sweep_sec:
            raise ValidationError("config: [sweep] needs both axis and values")
        sweep_axis, sweep_values = _parse_sweep(
            f"{sweep_sec['axis']}={sweep_sec['values']}"
        )

    cfg = RunConfig(args.method, **run_sec, params=params, shots=shots,
                    sweep_axis=sweep_axis, sweep_values=sweep_values)
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
        # give the swept plans a definite seed and grouping; each row
        # carries its own shot count
        cfg = replace(cfg, shots=replace(cfg.shots, enabled=True, shots=None))

    params = dict(cfg.params)
    for key in spec.params:
        if key not in params:
            default = spec.defaults.get(key)
            params[key] = _SETTINGS[key].default if default is None else default(ints)
    return replace(cfg, params=params)


# ---------------------------------------------------------------------------
# running one method


def _reference(ints: MolecularIntegrals):
    return basis_vector(ints.sector, reference_configuration(ints))


def _fci_ground(ints: MolecularIntegrals) -> float:
    return float(exact_eigenpairs(ints, k=1).eigenvalues[0])


def _grid(p: dict) -> QfdGrid:
    """The qfd grid of p; spectrum and fastforward take no backend or
    substeps and propagate exactly."""
    return QfdGrid(p["dt"], p["n"], backend=p.get("backend", "exact"),
                   substeps=p.get("substeps", 1))


def _build_qfd(ints: MolecularIntegrals, v0, p: dict):
    return qfd_build(v0, ints, _grid(p))


def _padded_range(ints: MolecularIntegrals) -> tuple:
    """The exact spectral range, padded by 1% of its width (at least 0.01)."""
    energies, _ = spectral_measure(ints, _reference(ints))
    lo, hi = float(energies[0]), float(energies[-1])
    pad = 0.01 * max(hi - lo, 1.0)
    return (lo - pad, hi + pad)


def _pencil(cfg: RunConfig, ints: MolecularIntegrals):
    """Build the method's pair on the reference v0 (from its recipe when
    sampling), solve it and record it: (problem, solution, record, ShotPlan
    or None). The record is the solution report; an exact run's also holds
    the row's own a-priori bounds, each eigenvalue's roundoff floor and,
    where the row is filtered, v0's ground weight w0."""
    spec, p, shots, plan = _SPECS[cfg.method], cfg.params, cfg.shots, None
    v0 = _reference(ints)
    if not shots.enabled:
        prob = spec.build(ints, v0, p)
    else:
        recipe = spec.recipe(ints, v0, p)
        if shots.eps_target is not None:
            plan = plan_from_target(recipe, shots.eps_target, shots.seed, mode=shots.grouping)
        else:
            groups = measurement_groups(recipe, mode=shots.grouping)
            plan = ShotPlan(shots.seed, (shots.shots,) * len(groups), mode=shots.grouping)
        prob = noisy_subspace(recipe, plan)
    sol = solve(prob, p.get("eps"))
    record = solution_report(prob, sol)
    if not prob.noisy:  # a sampled run reports its noise bounds instead
        record["bounds"].update(spec.bounds(ints, v0, p))
        record["eigenvalue_roundoff"] = [float(x) for x in eigenvalue_roundoff(prob, sol)]
        if spec.filtered(p):
            record["w0"] = float(spectral_measure(ints, v0)[1][0])
    return prob, sol, record, plan


def _run_subspace(cfg: RunConfig, ints: MolecularIntegrals, outdir: pathlib.Path):
    _, _, record, plan = _pencil(cfg, ints)
    energy = record["eigenvalues"][0]
    result = {"kind": "subspace_solution", **record, "ground_energy": energy,
              "error_vs_fci": energy - _fci_ground(ints)}
    summary = (
        f"{cfg.method}: ground energy {energy:+.10f} hartree "
        f"(kept {record['n_eps']} of {record['n']}, eps {record['eps']:.3e})"
    )
    return result, plan, summary, {}


def _run_fci(cfg: RunConfig, ints: MolecularIntegrals, outdir: pathlib.Path):
    result = {
        "kind": "spectrum_slice",
        "k": int(cfg.params["k"]),
        "dim": int(ints.sector_dimension),
        "eigenvalues": [float(x) for x in exact_eigenpairs(ints, cfg.params["k"]).eigenvalues],
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
    blocks, energies = qeom_build(ground, ints, tda=cfg.params["tda"])
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
    """The spectrum probe as a Hermitian sector operator: the sector matrix
    for ham, the diagonal of orbital P's occupation count for occ:P."""
    if spec == "ham":
        return sector_matrix(ints)
    head, sep, tail = spec.partition(":")
    if head == "occ" and sep:
        try:
            orbital = int(tail)
        except ValueError:
            raise ValidationError(f"bad probe operator {spec!r}") from None
        if not 0 <= orbital < ints.num_orbitals:
            raise ValidationError(f"probe orbital {orbital} outside register")
        words, m = sector_word_indices(ints.sector), ints.num_orbitals
        counts = (words >> orbital & 1) + (words >> (orbital + m) & 1)
        return scipy.sparse.diags(counts.astype(float))
    raise ValidationError(f"probe operator must be occ:P or ham, got {spec!r}")


def _run_spectrum(cfg: RunConfig, ints: MolecularIntegrals, outdir: pathlib.Path):
    p = cfg.params
    _, sol, record, _ = _pencil(cfg, ints)
    basis = _snapshots(_reference(ints), ints, _grid(p))
    probe = _probe_operator(p["op"], ints)
    gaps, weights = spectral_weights(sol, basis, probe)

    # resolution-of-identity check: sum of weights vs <0|B^+B|0>
    ground = sol.coefficients[:, 0] @ np.stack([x.amplitudes for x in basis])
    image = matvec(probe, ground)
    closure = float(np.vdot(image, image).real)
    weight_sum = float(np.sum(weights).real)

    rows = [("stick", float(g), float(w.real), float(w.imag)) for g, w in zip(gaps, weights)]
    if p["omega_points"] > 0:
        omegas = np.linspace(p["omega_min"], p["omega_max"], p["omega_points"])
        response = response_function(sol, basis, probe, omegas, p["eta"])
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
        "subspace": record,
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
    p, v0 = cfg.params, _reference(ints)
    _, sol, record, _ = _pencil(cfg, ints)
    basis = _snapshots(v0, ints, _grid(p))
    res = fast_forward(sol, basis, v0, p["time"])
    want = evolve_real(ints, v0, p["time"])
    got_norm2 = float(np.vdot(res.state.amplitudes, res.state.amplitudes).real)
    overlap2 = abs(fock_inner(want, res.state)) ** 2
    fidelity = overlap2 / got_norm2 if got_norm2 > 0 else 0.0
    result = {
        "kind": "fastforward",
        "time": float(p["time"]),
        "subspace": record,
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

    params: the [params] rows of `_SETTINGS` it accepts; strays are
    rejected. defaults maps those of them whose default depends on the
    integrals to defaults[name](ints); the others take their row's default.
    run(cfg, ints, outdir) -> (result, plan, summary, extra files). For the
    pencils solved by geev.solve and recorded by `_pencil`, with v0 the
    reference determinant and p the resolved parameters: build(ints, v0, p)
    gives the exact SubspaceProblem, recipe(ints, v0, p) the
    ExpectationRecipe where the method can be sampled, bounds(ints, v0, p)
    the a-priori entries an exact run adds to its record's bounds, and
    bound(ints, v0, p, record) an exact run's sweep bound column, None where
    no bound applies. filtered(p) is true where the pair spans filtered
    states f_a(H) v0, whose error scales with 1/w0: an exact record then
    holds w0, v0's weight on the sector ground state. The callables look the
    library functions up as module globals when called, so rebinding those
    names reaches them.
    """

    params: tuple
    run: Callable
    defaults: dict = field(default_factory=dict)
    build: Callable | None = None
    recipe: Callable | None = None
    bounds: Callable = lambda ints, v0, p: {}
    bound: Callable = lambda ints, v0, p, record: None
    filtered: Callable = lambda p: False

    @property
    def sweep_axes(self) -> tuple:
        """The `_SWEEP_AXES` that apply where a run is one subspace
        solution: shots where the pair can be sampled, the others where the
        parameter applies."""
        if self.run is not _run_subspace:
            return ()
        return tuple(a for a in _SWEEP_AXES if (self.recipe if a == "shots" else a in self.params))


_SPECS = {
    "fci": MethodSpec(("k",), _run_fci, defaults={"k": lambda ints: ints.sector_dimension}),
    "lanczos": MethodSpec(
        ("n", "eps"), _run_subspace,
        build=lambda ints, v0, p: lanczos(ints, v0, p["n"])[1],
        bound=lambda ints, v0, p, record: kaniel_paige_saad(  # on the ground Ritz value
            ints, exact_eigenpairs(ints, k=ints.sector_dimension), v0, p["n"]).bound
        if ints.sector_dimension > 1 else None,  # one state: no gap for the bound
        filtered=lambda p: True,
    ),
    "davidson": MethodSpec(("k",), _run_davidson),
    "power-krylov": MethodSpec(
        ("n", "eps"), _run_subspace,
        build=lambda ints, v0, p: power_krylov(ints, v0, p["n"]),
        bound=lambda ints, v0, p, record: record["bounds"].get("power_basis_cond_lower_bound"),
        filtered=lambda p: True,
    ),
    "chebyshev": MethodSpec(
        ("n", "eps", "bounds"), _run_subspace,
        defaults={"bounds": _padded_range},
        build=lambda ints, v0, p: chebyshev_krylov_build(v0, ints, p["n"], p["bounds"]),
        filtered=lambda p: True,
    ),
    "gaussian-power": MethodSpec(
        ("n", "eps", "tau"), _run_subspace,
        build=lambda ints, v0, p: gaussian_power_build(v0, ints, p["n"], p["tau"]),
        filtered=lambda p: True,
    ),
    "qse": MethodSpec(
        ("eps", "level"), _run_subspace,
        build=lambda ints, v0, p: qse_build(statevector_from_fock(v0), ints, level=p["level"]),
        recipe=lambda ints, v0, p: qse_recipe(statevector_from_fock(v0), ints, level=p["level"]),
    ),
    "qeom": MethodSpec(("tda",), _run_qeom),
    "qfd": MethodSpec(
        ("n", "dt", "eps", "backend", "substeps"), _run_subspace,
        build=_build_qfd,
        recipe=lambda ints, v0, p: qfd_recipe(v0, ints, _grid(p)),
        bounds=lambda ints, v0, p: {"qfd_error_bound": epperly_qfd_bound(ints, v0, p["n"])}
        if ints.sector_dimension > 1 else {},  # one state: no excited level sets dt
        bound=lambda ints, v0, p, record: record["bounds"].get("qfd_error_bound", {}).get("bound"),
        filtered=lambda p: True,
    ),
    "qlanczos": MethodSpec(
        ("n", "dtau", "eps", "mode"), _run_subspace,
        build=lambda ints, v0, p: qlanczos_build(v0, ints, p["dtau"], p["n"], mode=p["mode"]),
        filtered=lambda p: p["mode"] == "exact",
    ),
    # the exact qfd pencil, without the qfd row's bound: that bound is
    # evaluated at its own step, not at the run's dt
    "spectrum": MethodSpec(
        ("n", "dt", "eps", "op", "omega_min", "omega_max", "omega_points", "eta"), _run_spectrum,
        build=_build_qfd, filtered=lambda p: True,
    ),
    "fastforward": MethodSpec(
        ("n", "dt", "eps", "time"), _run_fastforward, build=_build_qfd, filtered=lambda p: True,
    ),
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
    prob, _, record, _ = _pencil(pcfg, ints)
    # a sampled row's bound is its own run's arctangent perturbation bound
    if prob.noisy:
        bound = record["bounds"].get("arctangent_bound")
    else:
        bound = _SPECS[cfg.method].bound(ints, _reference(ints), pcfg.params, record)
    energy = record["eigenvalues"][0]
    return {
        "value": value,
        "energy": energy,
        "error_vs_fci": energy - exact0,
        "cond_smat": record["cond_before"],
        "n_eps": record["n_eps"],
        "bound": bound,
        # the ground root's floor; a sampled row's error is its shot noise
        "eigenvalue_roundoff": record.get("eigenvalue_roundoff", [None])[0],
    }


def _run_sweep(cfg: RunConfig, ints: MolecularIntegrals, outdir: pathlib.Path):
    exact0 = _fci_ground(ints)
    # points are independent; report writing stays on this thread
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        rows = [_jsonable(row) for row in
                pool.map(lambda v: _sweep_point(cfg, ints, exact0, v), cfg.sweep_values)]
    path = outdir / "sweep.csv"
    columns = ("value", "energy", "error_vs_fci", "cond_smat", "n_eps", "bound",
               "eigenvalue_roundoff")
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(["" if row[c] is None else row[c] for c in columns] for row in rows)
    result = {"kind": "sweep", "axis": cfg.sweep_axis, "rows": rows}
    summary = f"{cfg.method}: swept {cfg.sweep_axis} over {len(rows)} values -> {path.name}"
    return result, None, summary, {"sweep": path.name}


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

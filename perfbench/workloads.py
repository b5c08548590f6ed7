"""The benchmark's three workloads and their output checks.

Each workload builds its inputs in `setup()` (called several times, each
pass from scratch), exposes one round as a list of timed steps, records what
each operation returned, and checks those records in `check()` after the
timed rounds. Checks compare against dense oracles from `tests/oracles.py`,
the result schema, exact limits, or properties the method must have; never
against stored output. An operation counts as failed when it raises or when
its check fails; `check()` returns (attempted, failed, correct), where
`correct` is False when a check fails on an operation that returned.

Program calls go through module attributes (`fock.exact_eigenpairs(...)`),
so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import shutil
import sys

import numpy as np
import scipy.linalg

from qsubspace import classical, cli, engine, fock, geev, integrals, quantum, shots
from qsubspace.errors import ConvergenceError, QsubspaceError

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
SCHEMA = ROOT / "src" / "qsubspace" / "schemas" / "result-v1.json"

sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402  dense-algebra oracles shared with the test suite


def _warn(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# synthetic integrals


def synthetic_integrals(stretch: float, m: int = 7, n_up: int = 3, n_down: int = 3):
    """One synthetic molecule at bond stretch `stretch`.

    The two-body tensor is 2 sum_g L^g_pr L^g_qs over symmetric pair factors,
    as in scripts/make_fixtures.py, so it is positive semidefinite with exact
    8-fold symmetry; it is not rotated to a canonical basis. The random parts
    come from one fixed key and scale with the stretch, so a scan over the
    stretch moves one molecule smoothly from weak to strong mixing.
    """
    rng = np.random.default_rng([2009, 99])

    def sym(a):
        return (a + a.T) / 2

    f0 = np.diag(np.linspace(0.55, 0.30, m)) + stretch * sym(rng.uniform(-0.06, 0.06, (m, m)))
    f1 = stretch * sym(rng.uniform(-0.12, 0.12, (m, m)))
    g = np.zeros((m, m, m, m))
    for ell in (f0, f1):
        g += 2.0 * np.einsum("pr,qs->prqs", ell, ell)
    h = np.diag(np.linspace(-2.05, -0.25, m)) + stretch * sym(rng.uniform(-0.1, 0.1, (m, m)))
    return integrals.MolecularIntegrals(m, n_up, n_down, 1.5, h, g)


def _fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.fcidump").read_text()


# ---------------------------------------------------------------------------
# sector-scan


class SectorScan:
    """Geometry scan of one 7-orbital (3,3) molecule, sector dimension 1225.

    A cycle is three seeded stretches in [0.3, 1.3], where Davidson converges
    in under 80 iterations, then the stretched geometry at 6.0, which does
    not depend on the seed and on which `classical.davidson` exits with
    ConvergenceError after 200 iterations (its search space restarts to one
    Ritz vector every 8 columns). That call counts as a failed operation.
    Runs do whole cycles, so the failed share is the same in every run.
    """

    STEPS = ("parse", "sector_matrix", "lanczos", "davidson", "exact", "kps", "solve")
    LANCZOS_N = 20
    STRETCHED = 6.0
    cycle = 4
    min_rounds = 8
    rss_rounds = 8  # peak RSS is read after two cycles

    def __init__(self, seed: int, outdir: pathlib.Path):
        self.seed = seed
        self.records = []

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        stretches = 0.3 + (np.arange(3) + rng.random(3)) / 3.0
        self.stretches = [float(s) for s in stretches] + [self.STRETCHED]
        self.texts = [
            integrals.serialize_fcidump(synthetic_integrals(s)) for s in self.stretches
        ]

    def steps(self, i: int) -> list:
        return [lambda: self._round(i)]

    def _round(self, i: int) -> None:
        rec = {"geometry": i % self.cycle, "raised": {}}
        self.records.append(rec)
        ints = integrals.parse_fcidump(self.texts[i % self.cycle])
        mat = fock.sector_matrix(ints)
        rec["dim"] = mat.shape[0]
        v0 = fock.basis_vector(ints.sector, fock.reference_configuration(ints))
        _, prob = classical.lanczos(ints, v0, self.LANCZOS_N)
        try:
            dav = classical.davidson(ints, k=1)
            rec["davidson"] = (float(dav.eigenvalues[0]), float(dav.residual_norms[0]))
        except ConvergenceError as exc:
            rec["raised"]["davidson"] = str(exc)
        spectrum = fock.exact_eigenpairs(ints, k=ints.sector_dimension)
        kps = classical.kaniel_paige_saad(ints, spectrum, v0, self.LANCZOS_N)
        sol = geev.solve(prob)
        rec["e0"] = float(spectrum.eigenvalues[0])
        rec["lanczos"] = prob.hmat
        rec["kps"] = bool(kps.satisfied)
        rec["solve"] = float(sol.eigenvalues[0])

    def check(self):
        attempted = failed = 0
        correct = True
        for rec in self.records:
            attempted += len(self.STEPS)
            if "solve" not in rec:  # raised before the round finished
                failed += len(self.STEPS)
                continue
            e0 = rec["e0"]
            ritz = scipy.linalg.eigvalsh(rec["lanczos"])
            verdicts = {
                "sector_matrix": rec["dim"] == 1225,
                "lanczos": bool(np.all(ritz >= e0 - 1e-9)),
                "kps": rec["kps"],
                "solve": rec["solve"] >= e0 - 1e-9,
            }
            if "davidson" in rec:
                energy, resid = rec["davidson"]
                verdicts["davidson"] = abs(energy - e0) <= 1e-8 and resid <= 1e-8
            else:
                failed += 1
                if rec["geometry"] != self.cycle - 1:
                    _warn(f"davidson failed on seeded geometry {rec['geometry']}")
            for step, ok in verdicts.items():
                if not ok:
                    failed += 1
                    correct = False
                    _warn(f"sector-scan check failed: {step} (geometry {rec['geometry']})")
        if not self._oracle_check():
            correct = False
        return attempted, failed, correct

    def _oracle_check(self) -> bool:
        """A 4-orbital (2,2) geometry of the same generator against the dense
        Fock-space oracle, entry by entry."""
        ints = synthetic_integrals(self.stretches[1], m=4, n_up=2, n_down=2)
        got = fock.sector_matrix(ints).toarray()
        want = oracles.sector_hamiltonian(
            ints.e_nuc, ints.one_body, ints.two_body, ints.num_up, ints.num_down
        )
        dev = float(np.max(np.abs(got - want)))
        if dev > 1e-12:
            _warn(f"sector matrix differs from the dense oracle by {dev:.3e}")
            return False
        return True


# ---------------------------------------------------------------------------
# cli-panel


def _panel(h4: str, h3: str, seed: int) -> tuple:
    """(name, argv) of one round of fresh in-process `cli.main` calls."""
    s = ["--seed", str(seed)]
    return (
        ("qse", ["qse", "--input", h4]),
        ("qeom", ["qeom", "--input", h4]),
        ("spectrum", ["spectrum", "--input", h4, "--op", "ham"]),
        ("qlanczos", ["qlanczos", "--input", h4, "--mode", "qite"]),
        ("qfd-trotter", ["qfd", "--input", h4, "--backend", "trotter", "--n", "6",
                         "--substeps", "2", "--sweep", "dt=0.2,0.4,0.8"]),
        ("qfd-sampled", ["qfd", "--input", h4, "--shots", "10000", *s]),
        ("qse-sampled", ["qse", "--input", h3, "--level", "S", "--eps-target", "1e-3", *s]),
    )


class CliPanel:
    """Fresh in-process `cli.main` calls on the committed fixtures.

    Each call is one timed step and one operation; it writes its reports to
    its own directory under the run's output directory. The two sampled runs
    take a seed drawn from the workload seed and the round number.
    """

    cycle = 1
    min_rounds = 2
    rss_rounds = 2

    def __init__(self, seed: int, outdir: pathlib.Path):
        self.seed = seed
        self.outdir = outdir / "cli"
        self.calls = []  # (name, round, exit code, report directory)

    def setup(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        self.h4 = str(FIXTURES / "h4_toy.fcidump")
        self.h3 = str(FIXTURES / "h3_plus.fcidump")
        self.seeds = np.random.default_rng(self.seed).integers(0, 2**31, size=4096)

    def steps(self, i: int) -> list:
        panel = _panel(self.h4, self.h3, int(self.seeds[i % self.seeds.size]))
        return [self._step(i, name, argv) for name, argv in panel]

    def _step(self, i: int, name: str, argv: list):
        out = self.outdir / f"r{i}" / name

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", str(out)])
            self.calls.append((name, i, code, out))

        return call

    def check(self):
        import jsonschema

        validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
        fci, gaps = _dense_reference(integrals.parse_fcidump(_fixture_text("h4_toy")))
        attempted = failed = 0
        correct = True
        for name, i, code, out in self.calls:
            attempted += 1
            if code != 0:
                failed += 1
                _warn(f"cli {name} (round {i}) exited with {code}")
                continue
            report = json.loads((out / "result.json").read_text())
            ok = validator.is_valid(report)
            result = report["result"]
            if name == "qse":
                ok = ok and result["ground_energy"] >= fci - 1e-9
            elif name == "qfd-trotter":
                ok = ok and all(row["energy"] >= fci - 1e-9 for row in result["rows"])
            elif name == "qeom":
                got = np.array(result["excitation_energies"][: gaps.size])
                ok = ok and got.size == gaps.size and bool(
                    np.all(np.abs(got - gaps) <= 1e-6 * np.maximum(1.0, np.abs(gaps)))
                )
            if not ok:
                failed += 1
                correct = False
                _warn(f"cli {name} (round {i}) failed its check")
        return attempted, failed, correct


def _dense_reference(ints, count: int = 3) -> tuple:
    """FCI ground energy and the lowest qEOM gaps from the commutator pencil
    built with dense ladder matrices on the full Fock space, at the exact
    ground state.

    Blocks, for pool operators F_J and reference |0>:
      V_IJ = <0|[F_I^+, F_J]|0>          W_IJ = -<0|[F_I^+, F_J^+]|0>
      M_IJ = <0|[F_I^+, [H, F_J]]|0>     Q_IJ = -<0|[F_I^+, [H, F_J^+]]|0>
    and the pencil [[M, Q], [Q*, M*]] z = w [[V, W], [-W*, -V*]] z is solved
    on the range of its metric. The pool is `quantum.qeom_pool`; each member
    is rebuilt here from ladder matrices by its kind, orbitals and spins.
    """
    m = ints.num_orbitals
    nmodes = 2 * m
    ham = oracles.full_hamiltonian(ints.e_nuc, ints.one_body, ints.two_body)
    words = oracles.sector_words(m, ints.num_up, ints.num_down)
    evals, vecs = np.linalg.eigh(ham[np.ix_(words, words)])
    ref = np.zeros(1 << nmodes, dtype=complex)
    ref[words] = vecs[:, 0]
    cre = [oracles.ladder_matrix(j, nmodes) for j in range(nmodes)]

    def ladders(op):
        if op.kind == "single":
            (a, i), (s,) = op.orbitals, op.spins
            return [cre[a + s * m], cre[i + s * m].T]
        (a, b, i, j), (s, t) = op.orbitals, op.spins
        return [cre[a + s * m], cre[b + t * m], cre[j + t * m].T, cre[i + s * m].T]

    def apply(mats, vec):
        for mat in reversed(mats):
            vec = mat @ vec
        return vec

    def adjoint(mats):
        return [mat.T for mat in reversed(mats)]

    hphi = ham @ ref
    a_vecs, c_vecs, fh, fdh = [], [], [], []
    for op in quantum.qeom_pool(m):
        mats = ladders(op)
        a = apply(mats, ref)
        if np.linalg.norm(a) < 1e-12:  # annihilates the reference
            continue
        a_vecs.append(a)
        c_vecs.append(apply(adjoint(mats), ref))
        fh.append(apply(mats, hphi))
        fdh.append(apply(adjoint(mats), hphi))
    amat, cmat = np.array(a_vecs), np.array(c_vecs)
    fh, fdh = np.array(fh), np.array(fdh)
    ha, hc = amat @ ham.T, cmat @ ham.T

    def gram(x, y):  # G_IJ = <x_I|y_J>
        return x.conj() @ y.T

    vmat = gram(amat, amat) - gram(cmat, cmat).T
    wmat = -(gram(amat, cmat) - gram(amat, cmat).T)
    mmat = gram(amat, ha) - gram(amat, fh) - gram(fdh, cmat).T + gram(cmat, hc).T
    qmat = -(gram(amat, hc) - gram(amat, fdh) - gram(fh, cmat).T + gram(cmat, ha).T)
    lhs = np.block([[mmat, qmat], [qmat.conj(), mmat.conj()]])
    rhs = np.block([[vmat, wmat], [-wmat.conj(), -vmat.conj()]])
    rhs = (rhs + rhs.conj().T) / 2
    w, u = np.linalg.eigh(rhs)
    keep = np.abs(w) > 1e-10 * max(1.0, float(np.max(np.abs(w))))
    ub = u[:, keep]
    vals = scipy.linalg.eigvals(ub.conj().T @ lhs @ ub, np.diag(w[keep]))
    vals = np.sort(vals[np.isfinite(vals)].real)
    return float(evals[0]), vals[vals > 1e-8][:count]


# ---------------------------------------------------------------------------
# sampled-seeds


class SampledSeeds:
    """Shot-noise study over seeds with recipes and plans built once.

    Recipes: `qfd_recipe` on h4_toy (n=4, dt=0.4) and `qse_recipe` level S on
    h3_plus. Pipelines per round: qfd with a fixed-count plan, qse with the
    same fixed count, and qse with a `plan_from_target` plan. A round is one
    seed: `noisy_subspace` for each pipeline, then `solve`,
    `solution_report` and `eigenvalue_std`; each pipeline is one operation.
    qfd's `plan_from_target` plan is left out: on some seeds one of its
    weighted groups gets a single shot whose error no entry std covers.
    """

    SHOTS = 10000
    EPS_TARGET = 1e-3
    GRID = (0.4, 4)
    cycle = 1
    min_rounds = 2
    rss_rounds = 2

    def __init__(self, seed: int, outdir: pathlib.Path):
        self.seed = seed
        self.results = []  # (round, pipeline, seed, problem or None, solved)
        self.seeds = np.random.default_rng(seed).integers(0, 2**31, size=4096)

    def setup(self) -> None:
        h4 = integrals.parse_fcidump(_fixture_text("h4_toy"))
        h3 = integrals.parse_fcidump(_fixture_text("h3_plus"))
        self.h4, self.h3 = h4, h3
        v4 = fock.basis_vector(h4.sector, fock.reference_configuration(h4))
        s3 = engine.statevector_from_fock(
            fock.basis_vector(h3.sector, fock.reference_configuration(h3))
        )
        qfd = quantum.qfd_recipe(v4, h4, quantum.QfdGrid(*self.GRID))
        qse = quantum.qse_recipe(s3, h3, level="S")
        plan_seed = int(self.seeds[-1])

        def fixed(recipe):
            count = len(shots.measurement_groups(recipe))
            return shots.ShotPlan(plan_seed, (self.SHOTS,) * count)

        self.recipes = {"qfd": qfd, "qse": qse}
        self.pipelines = (
            ("qfd-fixed", "qfd", fixed(qfd)),
            ("qse-fixed", "qse", fixed(qse)),
            ("qse-target", "qse", shots.plan_from_target(qse, self.EPS_TARGET, plan_seed)),
        )

    def steps(self, i: int) -> list:
        return [lambda: self._round(i, int(self.seeds[i % (self.seeds.size - 1)]))]

    def _round(self, i: int, seed: int) -> None:
        for name, recipe, plan in self.pipelines:
            prob, ok = None, False
            try:
                prob = shots.noisy_subspace(
                    self.recipes[recipe], dataclasses.replace(plan, seed=seed)
                )
                sol = geev.solve(prob)
                report = geev.solution_report(prob, sol)
                std = geev.eigenvalue_std(prob, sol)
                ok = math.isfinite(report["eigenvalues"][0]) and math.isfinite(std)
            except QsubspaceError as exc:
                _warn(f"sampled {name} (round {i}, seed {seed}) raised {exc!r}")
            self.results.append((i, name, seed, prob, ok))

    def check(self):
        grid = quantum.QfdGrid(*self.GRID)
        v4 = fock.basis_vector(self.h4.sector, fock.reference_configuration(self.h4))
        s3 = engine.statevector_from_fock(
            fock.basis_vector(self.h3.sector, fock.reference_configuration(self.h3))
        )
        builders = {
            "qfd": quantum.qfd_build(v4, self.h4, grid),
            "qse": quantum.qse_build(s3, self.h3, level="S"),
        }
        correct = True
        exact = {}
        for key, recipe in self.recipes.items():
            limit = shots.exact_subspace(recipe)
            dev = max(
                float(np.max(np.abs(limit.hmat - builders[key].hmat))),
                float(np.max(np.abs(limit.smat - builders[key].smat))),
            )
            if dev > 1e-9:
                correct = False
                _warn(f"{key} recipe's exact limit differs from its builder by {dev:.3e}")
            exact[key] = limit
        attempted = failed = 0
        for i, name, seed, prob, ok in self.results:
            attempted += 1
            if prob is None:
                failed += 1
                continue
            limit = exact[name.split("-")[0]]
            for got, want, std in (
                (prob.hmat, limit.hmat, prob.hmat_std),
                (prob.smat, limit.smat, prob.smat_std),
            ):
                ok = ok and bool(np.all(np.abs(got - want) <= 6.0 * std + 1e-9))
            if not ok:
                failed += 1
                correct = False
                _warn(f"sampled {name} (round {i}, seed {seed}) failed its check")
        # the first round's seed, drawn again, gives the same bits
        first = [r for r in self.results if r[0] == 0]
        for (_, name, seed, prob, _), (_, recipe, plan) in zip(first, self.pipelines):
            if prob is None:
                continue
            again = shots.noisy_subspace(self.recipes[recipe], dataclasses.replace(plan, seed=seed))
            for attr in ("hmat", "smat", "hmat_std", "smat_std"):
                if not np.array_equal(getattr(prob, attr), getattr(again, attr)):
                    correct = False
                    _warn(f"sampled {name}: seed {seed} drawn again differs in {attr}")
        return attempted, failed, correct


WORKLOADS = {
    "sector-scan": SectorScan,
    "cli-panel": CliPanel,
    "sampled-seeds": SampledSeeds,
}

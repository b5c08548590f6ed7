"""Classical subspace baselines: moment Krylov, Lanczos, Davidson, and the
Chebyshev-style convergence bounds for Krylov eigenvalue estimates.

All methods act on sector FockVectors through the sparse Slater-Condon
matrix; none of them need the dense spectrum except the bound evaluator,
which exists to compare a measured Ritz error against its guarantee.
Lanczos always reorthogonalizes in full; Davidson always starts from the
unit vectors on the k smallest diagonal entries, so it runs in float64.
polynomial_moments is the one sparse three-term recurrence behind both
polynomial bases, power_krylov here and quantum.chebyshev_krylov_build, so
both keep working above the dense spectrum's dimension cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import CapacityError, ConvergenceError, ValidationError
from .fock import (
    FockVector,
    SpectrumSlice,
    hamiltonian_diagonal,
    matvec,
    sector_dimension,
    sector_matrix,
)
from .geev import SubspaceProblem
from .integrals import MolecularIntegrals, cached_per_integrals

_MAX_MOMENT_DIM = 12
_BREAKDOWN = 1e-12


def _sector_array(ints: MolecularIntegrals, v0: FockVector) -> np.ndarray:
    """v0's amplitudes, as float64 when their imaginary part is zero: the
    sector matrix is real, so products and Gram-Schmidt then stay real."""
    if v0.sector != ints.sector:
        raise ValidationError("start vector sector does not match integrals")
    amp = np.asarray(v0.amplitudes, dtype=complex)
    return amp if amp.imag.any() else amp.real.copy()


def polynomial_moments(
    ints: MolecularIntegrals,
    v0: FockVector,
    count: int,
    basis: str = "power",
    shift: float = 0.0,
    scale: float = 1.0,
) -> np.ndarray:
    """Moments f_k = <v0|p_k(Hbar)|v0>, k < count, with Hbar = (H - shift) / scale.

    basis "power" takes p_k = Hbar^k and "chebyshev" the Chebyshev
    polynomials T_k, through the one three-term recurrence
    u_{k+1} = c_k Hbar u_k - d_k u_{k-1}, u_0 = v0: c = 1, d = 0 for
    powers, c_0 = 1 and c_k = 2, d_k = 1 for T_k. Each step is one sparse
    product, so no dense spectrum is needed. v0 is used as given.
    """
    if count < 1:
        raise ValidationError("need at least one moment")
    if basis not in ("power", "chebyshev"):
        raise ValidationError(f"unknown polynomial basis {basis!r}")
    mat = sector_matrix(ints)
    vec = _sector_array(ints, v0)
    prev, cur = None, vec
    out = np.empty(count)
    for k in range(count):
        out[k] = complex(np.vdot(vec, cur)).real
        if k + 1 < count:
            # times the reciprocal: the bits complex division by a real gives
            nxt = (matvec(mat, cur) - shift * cur) * (1.0 / scale)
            if basis == "chebyshev" and k:
                nxt = 2.0 * nxt - prev
            prev, cur = cur, nxt
    return out


def power_krylov(ints: MolecularIntegrals, v0: FockVector, n: int) -> SubspaceProblem:
    """Moment-matrix subspace pair: S = f_(a+b), H = f_(a+b+1).

    Condition numbers grow exponentially with n (see the power-basis lower
    bound in geev), so n is capped where double precision stops resolving
    the overlap spectrum.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    if n > _MAX_MOMENT_DIM:
        raise CapacityError(f"moment Krylov capped at n = {_MAX_MOMENT_DIM}")
    f = polynomial_moments(ints, v0, 2 * n)
    idx = np.arange(n)
    smat = f[idx[:, None] + idx[None, :]]
    hmat = f[idx[:, None] + idx[None, :] + 1]
    return SubspaceProblem(hmat, smat, {"method": "power_krylov", "n": n})


@dataclass(eq=False)
class TridiagonalForm:
    """Lanczos output: H restricted to the orthonormal Krylov basis."""

    alphas: np.ndarray
    betas: np.ndarray
    basis: np.ndarray  # (dim, steps) orthonormal columns

    @property
    def num_steps(self) -> int:
        return self.alphas.size

    def eigenvalues(self) -> np.ndarray:
        if self.num_steps == 1:
            return self.alphas.copy()
        return scipy.linalg.eigh_tridiagonal(
            self.alphas, self.betas, eigvals_only=True
        )


@cached_per_integrals
def _recurrence(ints: MolecularIntegrals, dtype: str, start: bytes, n: int) -> tuple:
    """n Lanczos steps from these start amplitudes: (alphas, betas, basis), read-only."""
    vec = np.frombuffer(start, dtype=dtype)
    norm = float(np.linalg.norm(vec))
    if norm < _BREAKDOWN:
        raise ValidationError("start vector has zero norm")
    mat = sector_matrix(ints)
    dim = vec.size
    # at least two columns: a one-column basis is contiguous, and np.vdot
    # sums a contiguous column in another order than a strided one, so a
    # one-step run would not give the bits of a longer run's first step
    basis = np.zeros((dim, max(n, 2)), dtype=vec.dtype)
    basis[:, 0] = vec / norm
    alphas, betas = [], []
    prev = np.zeros(dim, dtype=vec.dtype)
    beta = 0.0
    for k in range(n):
        q = basis[:, k]
        w = matvec(mat, q)
        alpha = complex(np.vdot(q, w)).real
        alphas.append(alpha)
        if k + 1 == n:
            break
        w = w - alpha * q - beta * prev
        # Twice-repeated Gram-Schmidt against every retained vector.
        for _ in range(2):
            w = w - basis[:, : k + 1] @ (basis[:, : k + 1].conj().T @ w)
        beta = float(np.linalg.norm(w))
        if beta < _BREAKDOWN:
            break
        betas.append(beta)
        prev = q
        basis[:, k + 1] = w / beta
    run = (np.array(alphas), np.array(betas), basis[:, : len(alphas)])
    for arr in run:
        arr.setflags(write=False)
    return run


def lanczos(ints: MolecularIntegrals, v0: FockVector, n: int):
    """Three-term recurrence with full reorthogonalization.

    Returns (TridiagonalForm, SubspaceProblem); the problem has the
    tridiagonal matrix as H and the identity as S. Stops early when the
    residual norm drops below breakdown tolerance (invariant subspace).
    The run is kept per integral set, start amplitudes and n; each call
    returns a new form over its read-only arrays and a new problem.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    vec = _sector_array(ints, v0)
    form = TridiagonalForm(*_recurrence(ints, vec.dtype.str, vec.tobytes(), min(n, vec.size)))
    hmat = np.diag(form.alphas).astype(complex)
    if form.betas.size:
        hmat += np.diag(form.betas, 1) + np.diag(form.betas, -1)
    return form, SubspaceProblem(hmat, np.eye(len(hmat)), {"method": "lanczos", "n": len(hmat)})


@dataclass(eq=False)
class DavidsonResult(SpectrumSlice):
    """SpectrumSlice (eigenvectors as FockVectors) plus iteration metadata."""

    num_iterations: int = 0
    residual_norms: np.ndarray | None = None
    trace: tuple = ()  # rows (iteration, energy, residual)


def _orthonormalize_against(w: np.ndarray, basis: np.ndarray) -> np.ndarray | None:
    for _ in range(2):
        w = w - basis @ (basis.conj().T @ w)
    norm = float(np.linalg.norm(w))
    if norm < 1e-10:
        return None
    return w / norm


def davidson(
    ints: MolecularIntegrals,
    k: int = 1,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> DavidsonResult:
    """Block Davidson with the diagonal (Jacobi) preconditioner.

    It starts from the unit vectors on the k smallest diagonal entries.
    Expansion vector per unconverged root: w = psi + P r with
    P_ll = 1/(H_ll - E), denominator clamped at 1e-6 in magnitude. When the
    search space would exceed 8k columns it restarts, within the space, to
    its lowest 4k Ritz vectors plus the previous iteration's k Ritz vectors
    (GD+k, Stathopoulos & Saad 1998). The previous vectors carry the
    recurrence a plain restart throws away, which matters when the wanted
    roots are poorly separated relative to the spectral spread.
    """
    sector = ints.sector
    dim = sector_dimension(*sector)
    if not 1 <= k <= dim:
        raise ValidationError(f"need 1 <= k <= {dim}")
    mat = sector_matrix(ints)
    diag = hamiltonian_diagonal(ints)

    # real, as the sector matrix is; no dim x dim identity is built
    basis = np.zeros((dim, k))
    basis[np.argsort(diag)[:k], np.arange(k)] = 1.0
    images = matvec(mat, basis)

    max_cols = 8 * k
    trace = []
    previous = None  # last iteration's Ritz vectors, kept across a restart

    def result() -> DavidsonResult:  # the last iteration's, built once
        vectors = [FockVector(sector, ritz[:, i]) for i in range(k)]
        return DavidsonResult(theta.copy(), vectors, it, rnorms.copy(), tuple(trace))

    for it in range(max_iter):
        small = basis.conj().T @ images
        small = (small + small.conj().T) / 2
        theta, y_all = np.linalg.eigh(small)
        theta, y = theta[:k], y_all[:, :k]
        ritz = basis @ y
        ritz_images = images @ y
        residuals = ritz_images - ritz * theta[None, :]
        rnorms = np.linalg.norm(residuals, axis=0)
        trace.append((it, float(theta[0]), float(np.max(rnorms))))
        if np.all(rnorms <= tol):
            return result()
        if basis.shape[1] + k > max_cols:
            # coordinates in the current space, so the restart needs no
            # products with H; the previous Ritz vectors lie in this space
            keep = list(y_all[:, : 4 * k].T)
            if previous is not None:
                keep.extend((basis.conj().T @ previous).T)
            coef = np.zeros((basis.shape[1], 0), dtype=basis.dtype)
            for c in keep:
                c = _orthonormalize_against(c, coef)
                if c is not None:
                    coef = np.column_stack([coef, c])
            basis, images = basis @ coef, images @ coef
        previous = ritz
        added = False
        for i in range(k):
            if rnorms[i] <= tol:
                continue
            denom = diag - theta[i]
            small_d = np.abs(denom) < 1e-6
            denom = np.where(small_d, np.where(denom < 0, -1e-6, 1e-6), denom)
            w = ritz[:, i] + residuals[:, i] / denom
            w = _orthonormalize_against(w, basis)
            if w is None:
                continue
            basis = np.column_stack([basis, w])
            images = np.column_stack([images, matvec(mat, w)])
            added = True
        if not added and not np.all(rnorms <= tol):
            raise ConvergenceError(
                "expansion vectors vanished before reaching tolerance", best=result()
            )
    best = result() if trace else None
    raise ConvergenceError(f"no convergence in {max_iter} iterations", best=best)


def _chebyshev(k: int, g: float) -> float:
    """T_k on [1, inf): cosh(k arccosh(g)), monotone increasing."""
    if g < 1.0:
        raise ValidationError("Chebyshev argument below 1")
    if math.isinf(g):
        return 1.0 if k == 0 else math.inf
    return math.cosh(k * math.acosh(g))


@dataclass(eq=False)
class ConvergenceBound:
    """Measured Ritz error for state mu against its a priori bound."""

    mu: int
    n: int
    tan_theta: float
    gamma: float
    l_factor: float
    bound: float
    measured: float
    satisfied: bool
    applicable: bool


def kaniel_paige_saad(
    ints: MolecularIntegrals,
    spectrum: SpectrumSlice,
    v0: FockVector,
    n: int,
    mu: int = 0,
) -> ConvergenceBound:
    """Evaluate the Krylov convergence guarantee for eigenvalue mu.

    mu = 0 uses the ground-state inequality with gamma_0 = 1 + 2 gap ratio;
    mu >= 1 uses the excited-state form with gamma_mu = 1 + gap ratio and
    the L_mu product over lower Ritz values. The measured error comes from
    lanczos(ints, v0, n), reusing the caller's run; spectrum must be whole.
    """
    evals = np.asarray(spectrum.eigenvalues, dtype=float)
    dim = evals.size
    if dim != ints.sector_dimension:
        raise ValidationError(f"need all {ints.sector_dimension} sector eigenvalues, got {dim}")
    if not 0 <= mu < dim - 1:
        raise ValidationError("mu must index a non-top eigenvalue")
    if n <= mu:
        raise ValidationError("need n > mu Krylov dimensions")
    vec = _sector_array(ints, v0)
    vec = vec / np.linalg.norm(vec)
    psi = np.asarray(spectrum.eigenvectors[mu].amplitudes)
    cos = abs(complex(np.vdot(psi, vec)))
    if cos < 1e-12:
        return ConvergenceBound(mu, n, math.inf, math.nan, math.nan,
                                math.inf, math.nan, False, False)
    tan = math.sqrt(max(0.0, 1.0 - cos**2)) / cos

    form, _ = lanczos(ints, v0, n)
    ritz = form.eigenvalues()
    measured = float(ritz[mu] - evals[mu])

    top = evals[dim - 1]
    gap_to_top = float(top - evals[mu + 1])
    factor = 2.0 if mu == 0 else 1.0
    if gap_to_top > 0:
        gamma = 1.0 + factor * (evals[mu + 1] - evals[mu]) / gap_to_top
    else:
        gamma = math.inf  # mu+1 is already the top of the spectrum
    l_factor = 1.0
    for nu in range(mu):
        denom = float(evals[mu] - ritz[nu])
        l_factor = math.inf if denom == 0 else l_factor * (top - ritz[nu]) / denom
    cheb = _chebyshev(n - 1 - mu, gamma)
    if math.isinf(l_factor):
        bound = math.inf  # a Ritz value sits exactly on E_mu
    elif math.isinf(cheb):
        bound = 0.0
    else:
        bound = (top - evals[mu]) * (abs(l_factor) * tan / cheb) ** 2
    satisfied = measured >= -1e-12 and measured <= bound + 1e-12
    return ConvergenceBound(
        mu=mu,
        n=n,
        tan_theta=tan,
        gamma=gamma,
        l_factor=l_factor,
        bound=bound,
        measured=measured,
        satisfied=bool(satisfied),
        applicable=True,
    )

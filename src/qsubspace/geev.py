"""Thresholded generalized eigenproblems for subspace pairs (H, S).

Subspace methods produce a Hermitian pair: H is the Hamiltonian projected
on a (generally non-orthogonal) basis, S the basis overlap. Both are
symmetrized on construction. Solving proceeds by overlap thresholding:
directions with overlap eigenvalue at or below eps are projected out, the
reduced pair (A, B) is whitened by B^{-1/2}, and the ordinary Hermitian
problem is solved. Coefficients are returned in the original basis with
C^+ S C = 1 on the retained block.

A pair with no nonzero imaginary part is stored and solved in float64. S is
decomposed once, on construction, for the PSD check, solves and reports.

Conditioning diagnostics include the lower bound on cond(S) for bases built
from powers of a Hermitian operator, and the arctangent perturbation bound
for the lowest eigenvalue of a noisy thresholded pair (valid under two
preconditions checked here; everything needed is reported, nothing is
silently assumed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, EmptySubspaceError, ValidationError

_PSD_SLACK = 1e-8


def _symmetrize(mat):
    return (mat + mat.conj().T) / 2.0


def real_if_exact(*mats) -> list:
    """All in float64 if no imaginary part of any is nonzero, else complex128."""
    mats = [np.asarray(mat) for mat in mats]
    if any(np.iscomplexobj(mat) and np.any(mat.imag) for mat in mats):
        return [mat.astype(complex) for mat in mats]
    return [mat.real.astype(float) for mat in mats]


@dataclass(eq=False)
class SubspaceProblem:
    """Hermitian pair with optional entrywise standard deviations.

    Standard deviations describe independent noise on the raw entries; the
    constructor symmetrizes values and combines (i,j)/(j,i) stds in
    quadrature to match.
    """

    hmat: np.ndarray
    smat: np.ndarray
    provenance: dict = field(default_factory=dict)
    hmat_std: np.ndarray | None = None
    smat_std: np.ndarray | None = None
    # eigh of smat, ascending, read-only
    overlap_spectrum: tuple = field(init=False, repr=False)

    def __post_init__(self):
        h, s = real_if_exact(self.hmat, self.smat)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape != s.shape:
            raise ValidationError("need square H and S of equal shape")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(s))):
            raise DataError("subspace matrices contain non-finite entries")
        self.hmat = _symmetrize(h)
        self.smat = _symmetrize(s)
        for name in ("hmat_std", "smat_std"):
            std = getattr(self, name)
            if std is None:
                continue
            std = np.asarray(std, dtype=float)
            if std.shape != h.shape or np.any(std < 0) or not np.all(np.isfinite(std)):
                raise ValidationError(f"{name} must be finite non-negative, same shape")
            combined = np.sqrt(std**2 + std.T**2) / 2.0
            np.fill_diagonal(combined, np.diag(std))  # diagonal is untouched
            setattr(self, name, combined)
        floor = -_PSD_SLACK
        if self.noisy:
            floor -= 20.0 * max(
                float(np.max(self.smat_std)) if self.smat_std is not None else 0.0,
                0.0,
            )
        self.overlap_spectrum = np.linalg.eigh(self.smat)
        for arr in self.overlap_spectrum:
            arr.setflags(write=False)
        w = self.overlap_spectrum.eigenvalues
        if float(w[0]) < floor:
            raise DataError(
                f"overlap matrix has eigenvalue {w[0]:.3e}, below {floor:.3e}"
            )

    @property
    def n(self) -> int:
        return self.hmat.shape[0]

    @property
    def noisy(self) -> bool:
        return self.hmat_std is not None or self.smat_std is not None


def default_threshold(prob: SubspaceProblem) -> float:
    """eps = max(1e-12, 2 * median entry std * sqrt(n)) under noise."""
    if not prob.noisy:
        return 1e-12
    stds = []
    for std in (prob.hmat_std, prob.smat_std):
        if std is not None:
            stds.append(std.reshape(-1))
    med = float(np.median(np.concatenate(stds)))
    return max(1e-12, 2.0 * med * math.sqrt(prob.n))


@dataclass(eq=False)
class GEEVSolution:
    eps: float
    eigenvalues: np.ndarray
    coefficients: np.ndarray  # (n, n_eps), C^+ S C = 1
    retained_dim: int
    cond_smat_before: float
    cond_smat_after: float
    overlap_eigenvalues: np.ndarray  # retained, descending
    retained_basis: np.ndarray  # (n, n_eps) eigenvectors of S
    a_reduced: np.ndarray
    b_reduced: np.ndarray
    b_eigenvalues: np.ndarray  # ascending; inv_root = B^{-1/2} from them
    inv_root: np.ndarray
    reduced_vectors: np.ndarray  # eigenvectors of inv_root A inv_root


def _overlap_cond(w: np.ndarray) -> float:
    """cond(S) from its eigenvalues w; inf when S is singular to working
    precision, where the ratio would be roundoff."""
    sing = np.abs(w)
    if np.min(sing) <= sing.size * np.finfo(float).eps * np.max(sing):
        return math.inf
    return float(np.max(sing) / np.min(sing))


def solve(prob: SubspaceProblem, eps: float | None = None) -> GEEVSolution:
    """Threshold, whiten, and solve the reduced Hermitian problem."""
    if eps is None:
        eps = default_threshold(prob)
    if eps < 0:
        raise ValidationError("eps must be non-negative")
    w, v = prob.overlap_spectrum
    keep = w > eps
    if not np.any(keep):
        raise EmptySubspaceError(
            f"no overlap eigenvalue above eps={eps:.3e}"
        )
    order = np.argsort(w[keep])[::-1]
    vk = v[:, keep][:, order]
    wk = w[keep][order]
    a = _symmetrize(vk.conj().T @ prob.hmat @ vk)
    b = _symmetrize(vk.conj().T @ prob.smat @ vk)
    # b is diag(wk) only up to roundoff; whitening with diag(wk) instead of
    # this eigh moves the h2 goldens and puts qfd 4e-8 below FCI
    bw, bv = np.linalg.eigh(b)
    if float(bw[0]) <= 0:
        raise EmptySubspaceError("reduced overlap lost positivity")
    inv_root = bv @ np.diag(bw**-0.5) @ bv.conj().T
    evals, u = np.linalg.eigh(_symmetrize(inv_root @ a @ inv_root))
    coeff = vk @ inv_root @ u
    return GEEVSolution(
        eps=float(eps),
        eigenvalues=evals,
        coefficients=coeff,
        retained_dim=int(np.sum(keep)),
        cond_smat_before=_overlap_cond(w),
        cond_smat_after=float(wk[0] / wk[-1]),
        overlap_eigenvalues=wk,
        retained_basis=vk,
        a_reduced=a,
        b_reduced=b,
        b_eigenvalues=bw,
        inv_root=inv_root,
        reduced_vectors=u,
    )


def power_basis_cond_lower_bound(n: int) -> float:
    """Lower bound on cond(S) when the basis is powers of a Hermitian
    operator applied to one vector. Trivial (0.25) below n = 3."""
    if n < 3:
        return 0.25
    if n % 2:
        base = math.exp(math.pi**2 / (4.0 * math.log(4.0 * (n - 1) / math.pi)))
        expo = (n - 1) // 2 - 1
    else:
        base = math.exp(math.pi**2 / (4.0 * math.log(4.0 * n / math.pi)))
        expo = (n - 2) // 2
    return 0.25 * base**expo


def conditioning_report(prob: SubspaceProblem) -> dict:
    """Overlap spectrum diagnostics; adds the power-basis lower bound when
    the provenance says the basis was built that way.  cond is inf when S
    is singular to working precision, as `solve` reports it."""
    w = prob.overlap_spectrum[0]
    sing, cond = np.abs(w)[::-1], _overlap_cond(w)
    report = {
        "n": prob.n,
        "cond": cond,
        "singular_values": [float(x) for x in sing],
    }
    if prob.provenance.get("method") == "power_krylov":
        bound = power_basis_cond_lower_bound(prob.n)
        report["power_basis_cond_lower_bound"] = bound
        report["cond_lower_bound_satisfied"] = bool(cond >= bound)
    return report


@dataclass(eq=False)
class PerturbationRecord:
    """Arctangent bound for the lowest eigenvalue of a noisy pair."""

    eps: float
    n_eps: int
    chi: float
    chi_source: str
    lambda_eps: float
    d0: float
    norm_precondition_ok: bool
    gap_precondition_ok: bool
    applicable: bool
    bound: float
    reasons: tuple


def _propagated_frobenius(std: np.ndarray | None, basis: np.ndarray) -> float:
    """sqrt(E ||P^+ Delta P||_F^2) for independent entries with given stds."""
    if std is None:
        return 0.0
    p2 = np.abs(basis) ** 2
    return float(math.sqrt(np.sum(p2.T @ std**2 @ p2)))


def perturbation_bound(prob: SubspaceProblem, eps: float | None = None) -> PerturbationRecord:
    """Evaluate the thresholded-pair perturbation bound on the available pair.

    chi is estimated from attached entry stds (Frobenius proxy through the
    retained basis); an exact pair has no noise information, chi = 0 and
    source "none", and is never applicable. Both preconditions are checked;
    `applicable` is False when either fails or the arcsine argument leaves
    [0, 1].
    """
    return _perturbation_record(prob, solve(prob, eps=eps))


def _perturbation_record(prob: SubspaceProblem, sol: GEEVSolution) -> PerturbationRecord:
    """perturbation_bound on an already thresholded solve of prob."""
    n_eps = sol.retained_dim
    reasons = []
    if prob.noisy:
        chi = math.hypot(
            _propagated_frobenius(prob.hmat_std, sol.retained_basis),
            _propagated_frobenius(prob.smat_std, sol.retained_basis),
        )
        chi_source = "entry_stds"
    else:
        chi = 0.0
        chi_source = "none"
        reasons.append("no noise information provided")

    lam = float(np.min(np.abs(sol.b_eigenvalues)))
    norm_ok = 2.0 * n_eps**2 * chi**2 <= lam**2
    if not norm_ok:
        reasons.append("norm precondition 2 n_eps^2 chi^2 <= lambda^2 fails")

    if n_eps >= 2:
        gap = abs(
            math.atan(float(sol.eigenvalues[1])) - math.atan(float(sol.eigenvalues[0]))
        )
        arg = n_eps * chi / lam if lam > 0 else math.inf
        gap_ok = arg <= 1.0 and gap >= math.asin(min(arg, 1.0))
        if not gap_ok:
            reasons.append("eigenvalue gap precondition fails")
    else:
        gap_ok = True

    # d0: conditioning of the lowest eigenvalue, from the reduced pair
    x0 = sol.inv_root @ sol.reduced_vectors[:, 0]
    x0 = x0 / np.linalg.norm(x0)
    d0 = float(
        abs(x0.conj() @ (sol.a_reduced + 1j * sol.b_reduced) @ x0)
    )

    arg = math.sqrt(2.0) * n_eps * chi / d0 if d0 > 0 else math.inf
    if arg > 1.0:
        reasons.append("arcsine argument exceeds one")
        bound = math.inf
    else:
        bound = math.asin(arg)
    applicable = norm_ok and gap_ok and math.isfinite(bound) and chi_source != "none"
    return PerturbationRecord(
        eps=sol.eps,
        n_eps=n_eps,
        chi=chi,
        chi_source=chi_source,
        lambda_eps=lam,
        d0=d0,
        norm_precondition_ok=norm_ok,
        gap_precondition_ok=gap_ok,
        applicable=applicable,
        bound=float(bound),
        reasons=tuple(reasons),
    )


def eigenvalue_std(
    prob: SubspaceProblem, sol: GEEVSolution, index: int = 0
) -> float:
    """First-order std of one solved eigenvalue from the entry stds.

    delta E = x^+ (Delta_H - E Delta_S) x with x the S-normalized
    coefficient vector; entries are treated as independent after
    symmetrization.
    """
    if not prob.noisy:
        return 0.0
    if not 0 <= index < sol.eigenvalues.size:
        raise ValidationError("eigenvalue index out of range")
    x = sol.coefficients[:, index]
    w = np.abs(x) ** 2
    e = float(sol.eigenvalues[index])
    var = 0.0
    if prob.hmat_std is not None:
        var += float(w @ (prob.hmat_std**2) @ w)
    if prob.smat_std is not None:
        var += e**2 * float(w @ (prob.smat_std**2) @ w)
    return math.sqrt(var)


def eigenvalue_roundoff(prob: SubspaceProblem, sol: GEEVSolution) -> np.ndarray:
    """First-order roundoff floor n u (||H||_F + |E| ||S||_F) ||y||^2 of each
    eigenvalue E with S-normalized coefficients y, u the machine epsilon
    and n the pencil size, the eigensolver's backward-error factor as in
    `_overlap_cond` (Epperly, Lin & Nakatsukasa, arXiv:2110.07492)."""
    norms = np.sum(np.abs(sol.coefficients) ** 2, axis=0)
    scale = np.linalg.norm(prob.hmat) + np.abs(sol.eigenvalues) * np.linalg.norm(prob.smat)
    return prob.n * np.finfo(float).eps * scale * norms


def solution_report(prob: SubspaceProblem, sol: GEEVSolution) -> dict:
    """JSON-ready summary of a thresholded solve."""
    bounds = {}
    cond = conditioning_report(prob)
    for key in ("power_basis_cond_lower_bound", "cond_lower_bound_satisfied"):
        if key in cond:
            bounds[key] = cond[key]
    if prob.noisy:
        record = _perturbation_record(prob, sol)
        bounds["arctangent_bound"] = record.bound
        bounds["arctangent_applicable"] = record.applicable
        bounds["chi"] = record.chi
        bounds["d0"] = record.d0
        bounds["lowest_eigenvalue_std"] = eigenvalue_std(prob, sol, 0)
    return {
        "method": str(prob.provenance.get("method", "unknown")),
        "n": prob.n,
        "eps": sol.eps,
        "n_eps": sol.retained_dim,
        "eigenvalues": [float(x) for x in sol.eigenvalues],
        "cond_before": sol.cond_smat_before,
        "cond_after": sol.cond_smat_after,
        "bounds": bounds,
    }

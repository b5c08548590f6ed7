"""Desk-scale simulator for subspace methods in molecular electronic structure.

Subpackages are organized by representation:

  integrals   molecular integral containers, FCIDUMP I/O, ERI Cholesky
  fock        configuration bases, sparse Hamiltonians, exact spectra and propagators
  qubits      Pauli algebra, Jordan-Wigner images, commutation grouping
  engine      statevector simulation, string-space Trotter steps
  geev        thresholded generalized eigensolver, conditioning and bounds
  classical   moment/Lanczos/Davidson subspaces and convergence bounds
  quantum     measurement-driven subspace builders (real/imaginary time, expansions)
  shots       sampling noise model and shot allocation
  cli         command line driver
"""

__version__ = "0.1.0"

from . import errors

__all__ = ["errors", "__version__"]

"""LAPACK's banded symmetric eigensolver, imported at its first call.

``eigvals_banded`` is ``scipy.linalg.eigvals_banded``.  Importing
``scipy.linalg`` costs more than numpy and the package together, and only
``oracle.eigenvalues`` and the message of an oracle ``SeparationError``
solve a band; every FD count is an inertia count in numpy.  So the package
loads ``scipy.linalg`` here, on the first banded eigensolve, and a command
that solves no band starts without scipy.
"""


def eigvals_banded(*args, **kwargs):
    from scipy.linalg import eigvals_banded as solve

    return solve(*args, **kwargs)

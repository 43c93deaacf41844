"""Name of the symmetric eigensolver behind ``linalg.eig_sym``.

``eig_sym`` calls LAPACK through ``numpy.linalg.eigvalsh`` (values only),
and a report's eigenvectors come from ``numpy.linalg.eigh`` on first read;
there is no other backend. The module remains so that tools which print
the eigensolver next to their measurements (the benchmark's run header)
can still read it.
"""

BACKEND = "lapack"

"""Hard-wall quantum well on a uniform lattice.

Each name is imported from the module that defines it: ``lattice`` (sites and
lattice functions), ``calculus`` (centered differences and the antidifference),
``spectrum`` (the sin^2 energies and eigenfunctions), ``thermo`` (partition
functions and thermodynamics), ``bloch`` (density matrices, spectral and
Bloch-propagated) and ``cli`` (the command line), all with systematic checks
of the continuum limit N -> infinity at fixed width L = N*a.
"""

__version__ = "0.1.0"

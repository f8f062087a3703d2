"""spinscape: energy-landscape and metastability toolkit for stochastic
Ising/Potts models on 3D lattices.

Subpackages
-----------
lattice
    Lattice geometry, site indexing, configuration storage, symmetry maps.
energy
    Exact integer energy algebra (Hamiltonian, decompositions, deltas).
dynamics
    Metropolis-Hastings single-spin-flip dynamics and simulation.
canon
    Explicit configuration families (regular/canonical/gateway) and paths.
landscape
    Brute-force state-space enumeration, communication heights, typical sets.
potential
    Exact potential theory: capacities, hitting times, harmonic currents,
    test functions.
cli
    Batch command-line front end.
"""

__version__ = "0.1.0"

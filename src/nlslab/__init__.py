"""Numerical laboratory for cubic NLS on rectangular tori: spectral fields
and projections, a split-step solver with mild-equation verification, the
factorized density-matrix hierarchy, collision-map combinatorics,
inequality slope benches, 1D Fourier-Lebesgue norms with the mass gauge,
and a deterministic CLI/reporting layer.

The modules are the API: `from nlslab.torus import TorusGeometry`."""

__version__ = "0.1.0"

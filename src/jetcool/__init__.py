"""jetcool: design, analysis and optimization of direct multi-jet liquid
impingement coolers for electronics.

Modules: props (materials, dimensionless numbers), geometry (nozzle arrays,
normalization), correlations (predictive Nu/f models and literature catalog),
performance (design-point evaluation), explorer (sweeps, Pareto, hotspot
synthesis), topo (manifold topology optimization), metrology (data reduction,
uncertainty, grid convergence), tables (CSV and JSON reading and writing),
cli (command-line surface).
"""

__version__ = "0.1.0"

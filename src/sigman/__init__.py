"""Signal energies on Riemannian manifolds.

Computes 1- and 2-energies of discretized signals (curves and surfaces
embedded in ambient manifolds), checks the associated upper and lower
energy bounds, evaluates the Fisher metric of 1-D Gaussians against its
closed forms, and minimizes the relative ratio variance objective to
produce graph quasi-embeddings.

Submodules are imported on use (``from sigman import geometry``): the
package imports none of them itself, so ``python -m sigman.cli`` runs
without a runpy warning.
"""

__version__ = "0.1.0"

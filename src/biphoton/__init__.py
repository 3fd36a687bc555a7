"""Two-photon interference in an unbalanced Michelson interferometer.

Simulates coincidence counting of parametric down-converted photon pairs:
spectral model of the pair source, the interferometer's output superposition,
analytic and Monte Carlo rate engines, TAC/MCA detection, and fringe
visibility analysis with a classical-bound verdict.
"""

__version__ = "0.1.0"

from .analysis import (  # noqa: F401
    FringeScan,
    Regime,
    Verdict,
    VisibilityReport,
    classify_regime,
    fit_visibility,
)
from .detection import (  # noqa: F401
    DetectorModel,
    TacConfig,
    acquire_histogram,
    gate_count,
)
from .engines import (  # noqa: F401
    EventStream,
    SourceRates,
    classical_rate,
    generate_events,
    quantum_rate_narrow,
)
from .interferometer import (  # noqa: F401
    InterferometerGeometry,
    delta_L,
)
from .spectral import (  # noqa: F401
    SpectralProfile,
    SpectralShape,
    coherence_length,
    wavelength_to_wavenumber,
)

"""Real-root classification, localization and geometry for cubics and quartics.

Coefficient-level threshold tests decide the full root nature (32 quartic
cases), trigonometric formulas and landmark geometry localize the roots, and
an independent simultaneous-iteration oracle cross-checks everything.
"""

from .cubic import (
    CubicClassification,
    CubicIsolation,
    CubicKind,
    CubicThresholds,
    TriangleData,
    classify_cubic,
    cubic_isolation_intervals,
    rotation_angle,
    triangle_data,
    viete_roots,
)
from .errors import (
    DegenerateAtBoundary,
    NoConvergence,
    NotFourReal,
    NoTetrahedron,
    NoTriangle,
    OutOfRange,
    PolyclassError,
    RoundTripMismatch,
    Unachievable,
)
from .geometry import (
    LocalizationResult,
    TetrahedronData,
    localize_roots,
    root_bounds,
    span_bounds,
    tetrahedron_data,
)
from .numeric import DEFAULT_EPS, Tolerance
from .oracle import all_roots, brute_discriminant, solve
from .poly import (
    Cubic,
    Quartic,
    Quintic,
    RootSet,
    discriminant_quartic,
)
from .quartic import (
    ClassificationCase,
    DoublePairPosition,
    Nature,
    QuarticClassification,
    QuarticThresholds,
    classify_quartic,
    delta3,
    delta3_expanded,
    quartic_thresholds,
)
from .quintic import (
    QuinticCascade,
    SignChangeSummary,
    delta5_coefficients,
    delta5_eval,
    delta5_sign_changes,
    quintic_cascade,
)
from .report import SCHEMA, Report
from .reverse import (
    Admissible,
    NatureTarget,
    admissible_b_range,
    admissible_c_range,
    admissible_d_range,
    synthesize,
)

__version__ = "0.1.0"

"""Real-root classification, localization and geometry for cubics and quartics.

Coefficient-level threshold tests decide the full root nature (32 quartic
cases), trigonometric formulas and landmark geometry localize the roots, and
an independent simultaneous-iteration oracle cross-checks everything.

The public names below load their module on first access (PEP 562), so
``import polyclass`` imports none of the submodules.
"""

import importlib

_EXPORTS = {
    "cubic": (
        "CubicClassification", "CubicIsolation", "CubicKind", "CubicThresholds",
        "TriangleData", "classify_cubic", "cubic_isolation_intervals",
        "rotation_angle", "triangle_data", "viete_roots",
    ),
    "errors": (
        "DegenerateAtBoundary", "NoConvergence", "NotFourReal", "NoTetrahedron",
        "NoTriangle", "OutOfRange", "PolyclassError", "RoundTripMismatch",
        "Unachievable",
    ),
    "geometry": (
        "LocalizationResult", "TetrahedronData", "localize_roots", "root_bounds",
        "span_bounds", "tetrahedron_data",
    ),
    "numeric": ("DEFAULT_EPS", "Tolerance"),
    "oracle": ("all_roots", "brute_discriminant", "solve"),
    "poly": ("Cubic", "Quartic", "Quintic", "RootSet", "discriminant_quartic"),
    "quartic": (
        "ClassificationCase", "DoublePairPosition", "Nature",
        "QuarticClassification", "QuarticThresholds", "classify_quartic",
        "delta3", "delta3_expanded", "quartic_thresholds",
    ),
    "quintic": (
        "QuinticCascade", "SignChangeSummary", "delta5_coefficients",
        "delta5_eval", "delta5_sign_changes", "quintic_cascade",
    ),
    "report": ("SCHEMA", "Report"),
    "reverse": (
        "Admissible", "NatureTarget", "admissible_b_range", "admissible_c_range",
        "admissible_d_range", "synthesize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""The result records: field order, defaults, repr, equality, immutability and
validation, as the frozen dataclasses they replace had them.

The result records are named tuples; ``Tolerance`` and the monic
polynomials keep their fields in ``__slots__`` and equal only a record of
their own type, so a polynomial never equals a plain tuple or the ``_Coeffs``
and ``_Point`` tuples that the sign predicates read.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from polyclass.cubic import (
    CubicClassification,
    CubicIsolation,
    CubicKind,
    CubicThresholds,
    TriangleData,
    _Point,
)
from polyclass.geometry import LocalizationResult, TetrahedronData
from polyclass.numeric import Comparison, Tolerance
from polyclass.poly import Cubic, Quartic, Quintic, RootSet
from polyclass.quartic import (
    ClassificationCase,
    DoublePairPosition,
    Nature,
    QuarticClassification,
    QuarticThresholds,
    _Coeffs,
    classify_quartic,
)
from polyclass.quintic import QuinticCascade, SignChangeSummary
from polyclass.report import Report
from polyclass.reverse import Admissible, NatureTarget

CMP = Comparison("c_vs_C0", 1, 0.5, 5e8, False)
ROOTS = RootSet(((-1.0, 1), (2.0, 1)), 1, (0.0, 1e-16), 4)
EX1 = Quartic(3.0, 2.0, -1.0, -0.95)

#: (record type, positional field values, field names), one row per record
RECORDS = [
    (Tolerance, (1e-6,), ("eps",)),
    (Cubic, (1.0, 2.0, 3.0), ("a", "b", "c")),
    (Quartic, (Fraction(1, 2), Fraction(2), Fraction(-3), Fraction(4, 3)), ("a", "b", "c", "d")),
    (Quintic, (1.0, 2.0, 3.0, 4.0, 5.0), ("p", "q", "r", "s", "t")),
    (RootSet, (((-1.0, 1), (2.0, 1)), 1, (0.0, 1e-16), 4),
     ("roots", "complex_pairs", "residuals", "degree")),
    (QuarticThresholds, (-0.375, 0.5, -1.25, (1.0, 2.0, 3.0), (0.1, -0.9, -1.0), None, None),
     ("c_mid", "c_hi", "c_lo", "abc", "d_roots", "d_dagger", "d_tilde")),
    (CubicThresholds, (0.0, 0.25, -0.25), ("c0", "c1", "c2")),
    (TriangleData, tuple(float(i) for i in range(11)) + (((0.0, 1.0), (1.0, 0.0)),),
     ("centroid_x", "incircle_radius", "side", "theta", "mu1", "mu2", "nu1", "nu2",
      "nu3", "xi1", "xi2", "vertices")),
    (CubicClassification, (CubicKind.TRIPLE_REAL, None, None, (CMP,)),
     ("kind", "thresholds", "triangle", "comparisons")),
    (CubicIsolation, ("low_c", ((0.0, 1.0), (1.0, 2.0))), ("branch", "intervals")),
    (TetrahedronData, tuple(float(i) for i in range(14)),
     ("center_x", "insphere_radius", "edge", "triangle_side", "height", "rho1", "rho2",
      "phi1", "phi2", "sigma1", "sigma2", "sigma3", "lambda_min", "lambda_max")),
    (LocalizationResult, ("high_c", True, ((0.0, 1.0),)), ("branch", "tie_at_c0", "intervals")),
    (Report, ({"schema": "s", "x": [1, Fraction(1, 3)]},), ("data",)),
    (Admissible, (((None, 0.0),), (1.0,)), ("intervals", "points")),
    (NatureTarget, (Nature.TWO_DOUBLE_PAIRS, 1.0, 0.0, 2.0, DoublePairPosition.LOWEST_TWO,
                    "random", 7, True, 3.0),
     ("nature", "a", "b", "c", "position", "strategy", "seed", "exact", "window")),
    (QuinticCascade, ((3125, 1.0, 2.0, 3.0, 4.0), 1.0, 2.0, 3.0, Fraction(-34, 25), None, 0.5),
     ("delta5_coeffs", "delta_t", "delta_tilde_s", "delta_tilde_r", "r0", "r1", "r2")),
    (SignChangeSummary, (2, (-1.0, 1.0)), ("count", "t_roots")),
    (QuarticClassification,
     (ClassificationCase.XXVI, Nature.TWO_DOUBLE_PAIRS, None, ROOTS, (CMP,), 1e-9),
     ("case", "nature", "position", "closed_form_roots", "comparisons", "eps")),
]
IDS = [row[0].__name__ for row in RECORDS]


def _build(cls, values):
    """The record of these field values; a QuarticClassification also takes
    the quartic and tolerance it classified, and the point it was tested on."""
    if cls is QuarticClassification:
        return cls(*values, _source=classify_quartic(EX1)._source)
    return cls(*values)


def _field_names(cls):
    return cls._fields if issubclass(cls, tuple) else cls.__slots__


@pytest.mark.parametrize("cls, values, names", RECORDS, ids=IDS)
class TestContract:
    def test_fields_in_order(self, cls, values, names):
        record = _build(cls, values)
        assert _field_names(cls) == names
        assert tuple(getattr(record, name) for name in names) == values

    def test_repr_is_the_dataclass_format(self, cls, values, names):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(_build(cls, values)) == f"{cls.__name__}({fields})"

    def test_equality_and_hash_by_value(self, cls, values, names):
        record, same = _build(cls, values), _build(cls, values)
        assert record == same and not record != same
        if cls is not Report:  # a dict field is unhashable, as in the dataclass
            assert hash(record) == hash(same) and len({record, same}) == 1

    def test_fields_refuse_assignment(self, cls, values, names):
        record = _build(cls, values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
            assert getattr(record, name) == values[names.index(name)]

    def test_copy_and_pickle_give_an_equal_record(self, cls, values, names):
        record = _build(cls, values)
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_inequality_within_a_type():
    assert Tolerance(1e-6) != Tolerance(1e-7)
    assert Quartic(1.0, 2.0, 3.0, 4.0) != Quartic(1.0, 2.0, 3.0, 5.0)
    assert ROOTS != RootSet(((-1.0, 1), (2.0, 1)), 1, (0.0, 0.0), 4)
    assert Admissible() != Admissible(points=(0.0,))


@pytest.mark.parametrize("make, defaults", [
    (lambda: Tolerance(), {"eps": 1e-9}),
    (lambda: Admissible(), {"intervals": (), "points": ()}),
    (lambda: NatureTarget(Nature.NO_REAL, 2.0),
     {"b": None, "c": None, "position": None, "strategy": "midpoint", "seed": None,
      "exact": False, "window": 10.0}),
], ids=["Tolerance", "Admissible", "NatureTarget"])
def test_constructor_defaults(make, defaults):
    record = make()
    assert {name: getattr(record, name) for name in defaults} == defaults


@pytest.mark.parametrize("cls, values", [
    (cls, values) for cls, values, _ in RECORDS if cls not in (Tolerance, Admissible)])
def test_a_field_without_a_default_is_required(cls, values):
    required = 2 if cls is NatureTarget else len(values)
    with pytest.raises(TypeError):
        _build(cls, values[:required - 1])


class TestValidation:
    """The exception type and message of each check, as the dataclasses raised them."""

    def test_tolerance(self):
        with pytest.raises(ValueError, match=r"^tolerance eps must be finite and >= 0, got -1\.0$"):
            Tolerance(-1.0)
        with pytest.raises(ValueError, match=r"got nan$"):
            Tolerance(math.nan)

    def test_polynomial(self):
        with pytest.raises(ValueError,
                           match=r"^coefficients must be finite, got \(nan, 1\.0, 2\.0, 3\.0\)$"):
            Quartic(math.nan, 1, 2, 3.0)

    @pytest.mark.parametrize("roots, pairs, residuals, message", [
        (((1.0, 1),), 1, (), "one residual per root required"),
        (((1.0, 0), (2.0, 3)), 0, (0.0, 0.0), "multiplicities must be positive"),
        (((1.0, 1),), 0, (0.0,), r"multiplicities 1 \+ 2\*0 pairs != degree 3"),
        (((2.0, 1), (1.0, 2)), 0, (0.0, 0.0), "roots must be strictly increasing"),
        # two invariants broken at once: the first in the order above is reported
        (((1.0, 0),), 0, (), "one residual per root required"),
        (((2.0, 1), (1.0, 1), (3.0, 0)), 0, (0.0,) * 3, "multiplicities must be positive"),
        (((2.0, 1), (1.0, 1)), 0, (0.0, 0.0), r"multiplicities 2 \+ 2\*0 pairs != degree 3"),
    ])
    def test_root_set(self, roots, pairs, residuals, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RootSet(roots, pairs, residuals, 3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            RootSet(roots=roots, complex_pairs=pairs, residuals=residuals, degree=3)

    def test_root_set_lets_nan_values_pass(self):
        # NaN compares False with every value, so no order check can refuse it
        roots = ((math.nan, 1), (1.0, 1), (math.nan, 1))
        assert RootSet(roots, 0, (0.0,) * 3, 3).roots == roots

    @pytest.mark.parametrize("window", [0, -1.0, math.inf, math.nan])
    def test_nature_target_window(self, window):
        with pytest.raises(ValueError,
                           match=f"^window must be finite and positive, got {window!r}$"):
            NatureTarget(Nature.NO_REAL, 0.0, window=window)

    def test_nature_target_strategy(self):
        with pytest.raises(ValueError, match=r"^unknown strategy 'best'$"):
            NatureTarget(Nature.NO_REAL, 0.0, strategy="best")


@pytest.mark.parametrize("record, twins", [
    (Tolerance(1e-9), [(1e-9,)]),
    (Cubic(1.0, 2.0, 3.0), [(1.0, 2.0, 3.0), _Point(1.0, 2.0, 3.0)]),
    (Quartic(1.0, 2.0, 3.0, 4.0), [(1.0, 2.0, 3.0, 4.0), _Coeffs(1.0, 2.0, 3.0, 4.0)]),
    (Quintic(1.0, 2.0, 3.0, 4.0, 5.0), [(1.0, 2.0, 3.0, 4.0, 5.0)]),
], ids=["Tolerance", "Cubic", "Quartic", "Quintic"])
def test_never_equal_to_a_tuple(record, twins):
    for twin in twins:
        assert record != twin and twin != record
        assert not record == twin and not twin == record


def test_a_record_of_another_type_is_unequal():
    assert Cubic(1.0, 2.0, 3.0) != CubicThresholds(1.0, 2.0, 3.0)
    assert Quartic(0.0, 0.0, 0.0, 1.0) != Cubic(0.0, 0.0, 1.0)


def test_hidden_source_stays_out_of_equality_and_repr():
    # the thresholds read the signs a verdict recorded, so both records carry
    # EX1's; the other source has the same signs of b - 3a^2/8, c - C0 and the band
    one = classify_quartic(EX1)
    source = classify_quartic(Quartic(0.0, -2.0, -0.5, 1.0), Tolerance(1e-3))._source
    other = QuarticClassification(*one, _source=source)
    assert one == other and hash(one) == hash(other)
    assert "_source" not in repr(one) and "_source" not in one._asdict()
    assert one.thresholds is one.thresholds
    assert other.thresholds != one.thresholds


def test_asdict_gives_the_fields_in_order():
    tetra = TetrahedronData(*(float(i) for i in range(14)))
    assert list(tetra._asdict()) == list(TetrahedronData._fields)
    assert list(tetra._asdict().values()) == [float(i) for i in range(14)]

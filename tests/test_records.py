"""The package's value types: immutable records built without code generation.

Each record keeps the fields, field order and defaults of the frozen
dataclass it replaced; a dataclass with the same fields is the oracle
for its repr.
"""

import dataclasses
import pickle
from fractions import Fraction

import pytest

from eulerian_bounds import (
    AlgebraicBound,
    BoundReport,
    DiagonalPencil,
    GuessVector,
    KernelVector,
    LFormTable,
    LinearMatrixPencil,
    PsdResult,
    QuadraticInY,
    RatioDiagnostic,
    SymmetricRationalMatrix,
    Truncation3,
    UnivariatePolynomial,
)
from eulerian_bounds._record import Record

F = Fraction
ONE = AlgebraicBound(F(1), F(1))
M1 = SymmetricRationalMatrix(((F(1),),))
M2 = SymmetricRationalMatrix(((F(2),),))

# Each record type with its field names, in order, and one set of values.
CASES = [
    (AlgebraicBound, ("lo", "hi"), (F(1), F(2))),
    (GuessVector, ("kind", "n", "entries"), ("old", 1, (None, F(1)))),
    (QuadraticInY, ("c2", "c1", "c0"), (F(1), F(-2), F(3))),
    (BoundReport, ("n", "kind", "y_policy", "prec", "y", "d_value", "n_value",
                   "lin_bound", "mult", "un", "difference"),
     (4, "old", "paper", 64) + (ONE,) * 7),
    (RatioDiagnostic, ("entries", "target_ratio", "target_prefactor", "ratios",
                       "relative_deviations", "normalization_track", "flagged"),
     (((1, 0.5), (2, 0.25)), 0.5, 1.0, ((2, 0.5),), ((2, 0.0),), ((1, 1.0),), False)),
    (UnivariatePolynomial, ("coeffs",), ((F(1), F(1)),)),
    (Truncation3, ("n", "degree", "coeffs"), (1, 1, {(1,): 1})),
    (LFormTable, ("n", "values"), (1, {(): 1, (1,): 1})),
    (SymmetricRationalMatrix, ("entries",), (((F(1), F(2)), (F(2), F(3))),)),
    (LinearMatrixPencil, ("n", "a0", "ai"), (1, M1, (M2,))),
    (DiagonalPencil, ("a0", "a_sum"), (M1, M2)),
    (PsdResult, ("is_psd", "witness", "witness_value"), (False, (1, -1), F(-1))),
    (KernelVector, ("entries", "normalization", "degenerate", "residual", "prec"),
     ((F(1), F(-1)), "last", False, F(0), 64)),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
class TestEveryRecord:
    def test_fields_in_order(self, cls, names, values):
        assert issubclass(cls, Record) and cls._fields == names
        r = cls(*values)
        assert tuple(getattr(r, f) for f in names) == values

    def test_positional_keyword_and_mixed_construction_agree(self, cls, names, values):
        by_name = dict(zip(names, values))
        r = cls(*values)
        assert cls(**by_name) == r
        assert cls(values[0], **dict(list(by_name.items())[1:])) == r
        assert list(vars(cls(**dict(reversed(by_name.items()))))) == list(names)

    def test_argument_errors(self, cls, names, values):
        required = names[:1] if cls is PsdResult else names
        with pytest.raises(TypeError):  # a required field missing
            cls(*values[:len(required) - 1])
        with pytest.raises(TypeError):  # extra
            cls(*values, None)
        with pytest.raises(TypeError):  # unknown keyword
            cls(*values, not_a_field=None)
        with pytest.raises(TypeError):  # given twice
            cls(*values, **{names[0]: values[0]})

    def test_frozen(self, cls, names, values):
        r = cls(*values)
        with pytest.raises(AttributeError):
            setattr(r, names[0], values[0])
        with pytest.raises(AttributeError):
            r.not_a_field = 1
        with pytest.raises(AttributeError):
            delattr(r, names[0])
        assert getattr(r, names[0]) is values[0] and list(vars(r)) == list(names)

    def test_equality_and_hash(self, cls, names, values):
        r, twin = cls(*values), cls(*values)
        assert r == twin and not r != twin
        if _hashable(values):
            assert hash(r) == hash(twin)
        else:  # a mapping field, as for the dataclass
            with pytest.raises(TypeError):
                hash(r)
        twin_type = type("Twin", (Record,), {"__annotations__": dict.fromkeys(names, "object")})
        assert r != twin_type(*values) and r != values
        for other_cls, _, other_values in CASES:
            if other_cls is not cls:
                assert r != other_cls(*other_values)

    def test_repr_matches_the_dataclass_form(self, cls, names, values):
        oracle = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
        assert repr(cls(*values)) == repr(oracle(*values))

    def test_pickle_round_trip(self, cls, names, values):
        r = cls(*values)
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is cls and back == r
        with pytest.raises(AttributeError):
            setattr(back, names[0], values[0])


def test_defaults_come_from_class_attributes():
    assert PsdResult(True) == PsdResult(True, None, None) == PsdResult(is_psd=True)
    assert PsdResult(True).witness is None and PsdResult(True).witness_value is None
    assert PsdResult(False, witness_value=F(-1)) == PsdResult(False, None, F(-1))


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="empty enclosure"):
        AlgebraicBound(1, 0)
    with pytest.raises(ValueError, match="empty enclosure"):
        AlgebraicBound(hi=F(0), lo=F(1))
    with pytest.raises(ValueError, match="not square"):
        SymmetricRationalMatrix(((F(1), F(2)),))
    with pytest.raises(ValueError, match="not symmetric"):
        SymmetricRationalMatrix(((F(1), F(2)), (F(3), F(4))))
    with pytest.raises(ValueError, match="length"):
        GuessVector("old", 2, (None, F(1)))

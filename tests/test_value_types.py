"""The contract of the six frozen value types: `PadicContext`, `QBase`,
`FractionalArg`, `BarnesParams`, `AdmissibleU` and `MeasureCell`.

Equality by class and fields, a hash of the fields, a pinned `repr`,
`AttributeError` on assigning or deleting a field, `pickle` and `copy`
round trips, positional and keyword construction, and which `parameter`
the first failing check names when more than one input is bad."""
import copy
import pickle
from fractions import Fraction as F

import pytest

from qbarnes import (
    AdmissibleU,
    BarnesParams,
    FractionalArg,
    MeasureCell,
    PadicContext,
    PreconditionError,
    QBase,
)

# (object, an equal object built another way, a different object, its repr)
CASES = [
    (PadicContext(3, 8), PadicContext(p=3, precision=8), PadicContext(3, 9),
     "PadicContext(p=3, precision=8)"),
    (QBase(F(3, 2)), QBase(root=F(3, 2), exponent=1, classical=False), QBase(F(3, 2), 2),
     "QBase(root=Fraction(3, 2), exponent=1, classical=False)"),
    (QBase(2, 3), QBase(F(2), exponent=3), QBase(2, 3, True),
     "QBase(root=Fraction(2, 1), exponent=3, classical=False)"),
    (QBase(1, classical=True), QBase(F(1), 1, True), QBase(1, 2, True),
     "QBase(root=Fraction(1, 1), exponent=1, classical=True)"),
    (FractionalArg(3, 8), FractionalArg(numerator=3, denominator=8), FractionalArg(3),
     "FractionalArg(numerator=3, denominator=8)"),
    (BarnesParams((1, 2), F(5, 2), QBase(3)), BarnesParams(a=[1, 2], u=F(5, 2), q=3),
     BarnesParams((2, 1), F(5, 2), QBase(3)),
     "BarnesParams(a=(1, 2), u=Fraction(5, 2), "
     "q=QBase(root=Fraction(3, 1), exponent=1, classical=False))"),
    (AdmissibleU(F(5, 2), 5), AdmissibleU(u=F(5, 2), p=5), AdmissibleU(F(5, 4), 5),
     "AdmissibleU(u=Fraction(5, 2), p=5)"),
    (MeasureCell(2, 1, 1, 1), MeasureCell(x=2, N=1), MeasureCell(2, 1, 1, 2),
     "MeasureCell(x=2, f=1, N=1, d=1)"),
]
IDS = [case[3].partition("(")[0] + str(i) for i, case in enumerate(CASES)]


@pytest.mark.parametrize("obj, same, other, text", CASES, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(obj, same, other, text):
    assert obj is not same
    assert obj == same and not obj != same
    assert hash(obj) == hash(same)
    assert obj != other and not obj == other
    assert len({obj, same, other}) == 2


@pytest.mark.parametrize("obj, same, other, text", CASES, ids=IDS)
def test_repr_is_pinned(obj, same, other, text):
    assert repr(obj) == text
    assert repr(same) == text


def test_equal_fields_in_different_classes_do_not_compare_equal():
    pairs = [
        (PadicContext(3, 8), FractionalArg(3, 8)),
        (AdmissibleU(F(5, 2), 5), FractionalArg(F(5, 2), 5)),
        (MeasureCell(3, 8), FractionalArg(3, 8)),
    ]
    for left, right in pairs:
        assert left != right and right != left
        assert not left == right
        assert left.__eq__(right) is NotImplemented
    # nor does a value equal the tuple of its fields
    assert PadicContext(3, 8) != (3, 8)


@pytest.mark.parametrize("obj, same, other, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(obj, same, other, text):
    field = text[text.index("(") + 1:text.index("=")]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) == before
    assert repr(obj) == text


@pytest.mark.parametrize("obj, same, other, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(obj, same, other, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is type(obj)
        assert back == obj and hash(back) == hash(obj)
        assert repr(back) == text
    for clone in (copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is type(obj)
        assert clone == obj and repr(clone) == text


def test_positional_construction_as_the_benchmark_uses_it():
    params = BarnesParams([1, -2], 3, QBase(F(2)))
    assert (params.a, params.u, params.q) == ((1, -2), F(3), QBase(F(2)))
    assert params.r == 2
    # a q that is not a QBase is wrapped in one
    assert BarnesParams((1,), F(1, 3), F(6)).q == QBase(F(6))
    cell = MeasureCell(4, 2, 1, 3)
    assert (cell.x, cell.f, cell.N, cell.d) == (4, 2, 1, 3)
    assert cell.modulus(5) == 30
    u = AdmissibleU(6, 3)
    assert (u.u, u.p, u.valuation) == (F(6), 3, 1)
    context = PadicContext(5, 6)
    assert (context.p, context.precision, context.modulus) == (5, 6, 5**6)
    base = QBase(F(3), 2)
    assert (base.root, base.exponent, base.classical, base.value) == (F(3), 2, False, F(9))
    arg = FractionalArg(5, 2)
    assert (arg.numerator, arg.denominator, arg.as_fraction()) == (5, 2, F(5, 2))


def test_defaults_match_keyword_construction():
    assert QBase(F(2)) == QBase(root=F(2), exponent=1, classical=False)
    assert FractionalArg(4) == FractionalArg(numerator=4, denominator=1)
    assert MeasureCell(7) == MeasureCell(x=7, f=1, N=0, d=1)
    assert QBase(2).root.__class__ is F
    assert AdmissibleU(u=3, p=3).u.__class__ is F
    with pytest.raises(TypeError):
        PadicContext(3)
    with pytest.raises(TypeError):
        FractionalArg(1, 2, 3)
    with pytest.raises(TypeError):
        MeasureCell(x=1, level=2)


def _parameter(make) -> str:
    with pytest.raises(PreconditionError) as info:
        make()
    return info.value.parameter


def test_the_first_failing_check_names_its_parameter():
    # a is checked before u, and u before q
    assert _parameter(lambda: BarnesParams((F(3, 2),), 1, QBase(2))) == "a"
    assert _parameter(lambda: BarnesParams((), 0, QBase(2))) == "a"
    assert _parameter(lambda: BarnesParams((1,), 0, F(1))) == "u"
    assert _parameter(lambda: BarnesParams((1,), 2, F(1))) == "q"
    # exponent is checked before the classical flag
    assert _parameter(lambda: QBase(F(1), 0)) == "exponent"
    assert _parameter(lambda: QBase(F(1))) == "q"
    assert _parameter(lambda: FractionalArg(1, 0)) == "w"
    # p is checked before precision
    assert _parameter(lambda: PadicContext(4, 0)) == "p"
    assert _parameter(lambda: PadicContext(2, 0)) == "p"
    assert _parameter(lambda: PadicContext(3, 0)) == "precision"
    # p is checked before u, and u = 0 before the unit test
    assert _parameter(lambda: AdmissibleU(0, 2)) == "p"
    assert _parameter(lambda: AdmissibleU(1, 9)) == "p"
    assert _parameter(lambda: AdmissibleU(0, 3)) == "u"
    assert _parameter(lambda: AdmissibleU(2, 3)) == "u"
    # f, then d, then N
    assert _parameter(lambda: MeasureCell(0, 0, -1, 0)) == "f"
    assert _parameter(lambda: MeasureCell(0, 1, -1, 0)) == "d"
    assert _parameter(lambda: MeasureCell(0, 1, -1, 1)) == "level-N"


def test_the_checks_keep_their_messages():
    with pytest.raises(PreconditionError, match="^precision must be >= 1$"):
        PadicContext(3, 0)
    with pytest.raises(PreconditionError, match="^p = 2 is out of scope, p must be odd$"):
        PadicContext(2, 3)
    with pytest.raises(PreconditionError, match="^exponent must be >= 1$"):
        QBase(2, 0)
    with pytest.raises(PreconditionError, match="^root 1 needs the classical flag"):
        QBase(1)
    with pytest.raises(PreconditionError, match="^denominator must be >= 1$"):
        FractionalArg(1, -1)
    with pytest.raises(PreconditionError, match="^u must avoid 0 and 1$"):
        BarnesParams((1,), 1, QBase(2))
    with pytest.raises(PreconditionError, match="^AdmissibleU rejects u = 0$"):
        AdmissibleU(0, 5)
    with pytest.raises(PreconditionError, match=r"^AdmissibleU rejects nu_5\(u\) = 0: u = 2/3 "):
        AdmissibleU(F(2, 3), 5)
    with pytest.raises(PreconditionError, match=r"^cell needs f >= 1, d >= 1, N >= 0$"):
        MeasureCell(0, 1, 0, 0)

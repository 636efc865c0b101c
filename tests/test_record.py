"""Value semantics of the result and configuration records, and the
package's import cost."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from magnuslie import (DegreeBound, DegreeReport, HilbertTable,
                       HypothesisReport, LieElement, ModpCheck, ModpReport,
                       Presentation, PresentationFile, RunConfig, RunReport,
                       SmithResult, SuiteResult, TorsionReport, WeightScheme)
from magnuslie.quotient import ModpDegreeRow
from magnuslie.record import Record

ROOT = Path(__file__).resolve().parent.parent

S = WeightScheme(2, 1, 3)
RHO = LieElement(S, 2, {(0, 1): 1})
PRES = Presentation(m=2, n=1, u=(1, 2, -1, -2), v=(3,))
GATE = HypothesisReport(True, False, 2, RHO, 1, 3, (), 4)
ROW = ModpDegreeRow(2, 1, 1, True)
MODP = ModpReport(2, (ROW,), True)

# class, fields of one value, a field and a value that make another
CASES = [
    (WeightScheme, {"m": 2, "n": 1, "e": 3}, "e", 4),
    (DegreeBound, {"bound": 5, "exact": True}, "exact", False),
    (LieElement, {"scheme": S, "degree": 2, "coords": {(0, 1): 1}},
     "coords", {(0, 1): 2}),
    (SmithResult, {"rank": 2, "divisors": (1, 2)}, "divisors", (1, 4)),
    (Presentation, {"m": 2, "n": 1, "u": (1, 2, -1, -2), "v": (3,)}, "e", 3),
    (HypothesisReport, {"accepted": True, "inconclusive": False, "d": 2,
                        "rho": RHO, "content": 1, "chosen_e": 3,
                        "failures": (), "cutoff": 4}, "cutoff", 8),
    (PresentationFile, {"presentation": PRES, "max_degree": None},
     "max_degree", 6),
    (DegreeReport, {"degree": 2, "dim_free": 1, "rank": 1, "divisors": (1,),
                    "dim_quotient": 0, "torsion": ()}, "torsion", (2,)),
    (TorsionReport, {"relator": RHO, "relator_degree": 2, "max_degree": 4,
                     "degrees": (), "torsion_free": True,
                     "aborted_degree": None, "note": None},
     "torsion_free", False),
    (HilbertTable, {"relator_degree": 2, "max_degree": 2, "candidate": (1,),
                    "pbw": (1,), "matches": (True,), "all_match": True,
                    "formula_status": "validated"}, "pbw", (2,)),
    (ModpDegreeRow, {"degree": 2, "rank_mod_p": 1, "rank_integer": 1,
                     "match": True}, "rank_mod_p", 0),
    (ModpReport, {"prime": 2, "rows": (ROW,), "all_match": True}, "prime", 3),
    (ModpCheck, {"primes": (2,), "reports": (MODP,), "all_match": True,
                 "aborted_degree": None, "note": None}, "note", "cut"),
    (SuiteResult, {"name": "jacobi", "cases": 3, "failures": 0},
     "failures", 1),
    (RunConfig, {"input_path": "a.pres"}, "seed", 1),
    (RunReport, {"config": RunConfig("a.pres"),
                 "presentation_file": PresentationFile(PRES, None),
                 "gate": GATE, "max_degree": 4}, "max_degree", 5),
]
IDS = [cls.__name__ for cls, *_ in CASES]


@pytest.mark.parametrize("cls, fields, name, other", CASES, ids=IDS)
def test_records_are_values(cls, fields, name, other):
    value = cls(**fields)
    assert value == cls(**fields)
    assert value == cls(*(fields[n] for n in cls._fields if n in fields))
    assert value != cls(**{**fields, name: other})
    # a class with the same fields is another type of value
    twin = type(cls.__name__, (Record,), {"__annotations__": cls.__annotations__})
    assert value != twin(**{n: getattr(value, n) for n in cls._fields})
    for other_cls, other_fields, *_ in CASES:
        if other_cls is not cls:
            assert value != other_cls(**other_fields)


@pytest.mark.parametrize("cls, fields, name, other", CASES, ids=IDS)
def test_only_the_run_report_is_mutable(cls, fields, name, other):
    value = cls(**fields)
    if cls is RunReport:
        setattr(value, name, other)
        assert getattr(value, name) == other
        with pytest.raises(TypeError):
            hash(value)
        return
    with pytest.raises(AttributeError):
        setattr(value, name, other)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert value == cls(**fields)


@pytest.mark.parametrize("value", [WeightScheme(2, 1, 3), DegreeBound(5, False),
                                   SmithResult(3, (1, 1, 6))], ids=repr)
def test_equal_values_hash_equal(value):
    copy = type(value)(*(getattr(value, n) for n in value._fields))
    assert copy is not value
    assert hash(copy) == hash(value)
    assert len({copy, value}) == 1


def test_torsion_reports_ignore_relator_and_modp_ranks():
    fields = dict(relator_degree=2, max_degree=4, degrees=(),
                  torsion_free=True, aborted_degree=None, note=None)
    plain = TorsionReport(RHO, **fields)
    assert plain.modp_ranks == {}
    assert plain == TorsionReport(-RHO, modp_ranks={2: (1,)}, **fields)
    assert "modp_ranks" not in repr(plain)


def test_repr_and_fresh_dict_defaults():
    assert repr(WeightScheme(2, 1, 3)) == "WeightScheme(m=2, n=1, e=3)"
    assert repr(DegreeBound(4, True)) == "DegreeBound(bound=4, exact=True)"
    first, second = SuiteResult("a", 1, 0), SuiteResult("a", 1, 0)
    assert first.detail == {} and first.detail is not second.detail
    report_fields = CASES[-1][1]
    one, two = RunReport(**report_fields), RunReport(**report_fields)
    assert one.skip_reasons is not two.skip_reasons
    assert one.timings is not two.timings


@pytest.mark.parametrize("args, kwargs, message", [
    ((2,), {}, "WeightScheme() missing argument 'n'"),
    ((2, 1, 3, 4), {}, "WeightScheme() takes 3 arguments but 4 were given"),
    ((2, 1), {"m": 2}, "WeightScheme() got multiple values for argument 'm'"),
    ((2, 1), {"f": 2}, "WeightScheme() got an unexpected argument 'f'"),
])
def test_wrong_constructor_arguments(args, kwargs, message):
    with pytest.raises(TypeError) as ex:
        WeightScheme(*args, **kwargs)
    assert str(ex.value) == message


def test_import_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = ("import sys, magnuslie; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"

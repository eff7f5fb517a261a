"""Value records are typing.NamedTuple classes.

They construct by position and by keyword, compare and hash by value, keep
the repr of the frozen dataclasses they replaced and refuse assignment.
Only Polygon (compared by identity, with lazy caches) and
DoubleSurfacePoint (its sheet is checked on construction) stay
dataclasses: building a dataclass at import execs its generated methods,
at several times the cost of a NamedTuple, so a new dataclass record
would add to every command's start-up.
"""

import copy
import dataclasses
import enum
import importlib
import math
import pkgutil

import numpy as np
import pytest

import ccbilliards
from ccbilliards import (BoundaryState, CartesianChartState, ChartState,
                         ConjugatePair, Diagonal, ExpansivenessVerdict,
                         GroupPresentation, IsometryClass, Itinerary,
                         PairProbe, PeriodicOrbitReport, Rule, SearchBudget,
                         UnfoldingChain, UnfoldResult, VertexHit, classify,
                         square)
from ccbilliards.collision import TraceResult
from ccbilliards.expansivity import NeighborhoodCheck, Witness
from ccbilliards.flow import ChartTrajectory
from ccbilliards.geometry import Geodesic
from ccbilliards.polygon import Side

DATACLASSES = {"Polygon", "DoubleSurfacePoint"}

STATE = BoundaryState(side=1, s=0.5, psi=1.0)
DIAGONAL = Diagonal(start=1, end=2, sequence=(3, 1), length=2.5, angle=0.25)
ROTATION = IsometryClass(kind="rotation", angle=1.0)
GEODESIC = Geodesic(point=np.array([0.0, 0.0, 1.0]),
                    direction=np.array([1.0, 0.0, 0.0]))

# per record, one value of every field in field order; True where all of
# them hash (the records that hold numpy arrays do not, as before)
SAMPLES = {
    BoundaryState: (dict(side=1, s=0.5, psi=1.0), True),
    VertexHit: (dict(vertex=2, flight=0.75), True),
    Itinerary: (dict(labels=(1, 2, 3), start_index=-1, termination="horizon",
                     termination_backward="vertex"), True),
    TraceResult: (dict(n_done=2, status=0, vertex=0, labels=(1, 2),
                       svals=(0.5, 0.25), psis=(1.0, 2.0),
                       flights=(0.5, 0.75), length=1.25), True),
    Diagonal: (dict(start=1, end=2, sequence=(3, 1), length=2.5,
                    angle=0.25), True),
    ConjugatePair: (dict(vertices=(1, 2), diagonal=DIAGONAL, m=1,
                         residual=1e-12), True),
    PairProbe: (dict(a=STATE, b=STATE.reversed(), horizon=10,
                     outcome="itineraries_diverge", diverge_index=-3,
                     truncated=False, compared=(10, 10)), True),
    SearchBudget: (dict(horizon=5, samples=20, periodic_bounces=4,
                        diagonal_depth=3, diagonal_length=2.0,
                        diagonal_angles=30, pair_probes=2, seed=7), True),
    Witness: (dict(kind="conjugated_vertices",
                   rule=Rule.SPHERE_CONJUGATE_VERTICES, data=DIAGONAL,
                   verified=True), True),
    ExpansivenessVerdict: (dict(verdict="unknown", rules=(),
                                witnesses=(), budget=SearchBudget(),
                                notes=("stopped",)), True),
    NeighborhoodCheck: (dict(ok=False, failures=((0.1, "vertex"),)), True),
    ChartState: (dict(r=0.1, gamma=0.0, beta=1.5), True),
    CartesianChartState: (dict(x=0.1, y=0.2, z=1.5), True),
    ChartTrajectory: (dict(t=np.zeros(2), states=np.zeros((2, 3)),
                           exited=True, exit_time=0.5,
                           arc_time=np.ones(2)), False),
    Geodesic: (dict(point=GEODESIC.point, direction=GEODESIC.direction),
               False),
    Side: (dict(start=0, end=1, loop=0, geodesic=GEODESIC,
                normal=np.array([0.0, 1.0, 0.0]), length=1.0), False),
    GroupPresentation: (dict(genus=0, euler_characteristic=2, n_vertices=3,
                             generators=("f",), exponent=-1,
                             classification="finite-cyclic",
                             cyclic_order=1), True),
    UnfoldingChain: (dict(copies=(), base_k=0), True),
    UnfoldResult: (dict(chain=UnfoldingChain((), 0), points=np.zeros((1, 3)),
                        start_state=STATE, start_tangent=GEODESIC,
                        labels=(), vertex_hit=False), False),
    IsometryClass: (dict(kind="rotation", angle=1.0, length=None,
                         axis=(0.0, 0.0, 1.0)), True),
    PeriodicOrbitReport: (dict(start=STATE, labels=(1, 2), length=2.0,
                               residual=0.0, holonomy=ROTATION), True),
}
RECORDS = sorted(SAMPLES, key=lambda cls: cls.__name__)


def package_classes():
    """Every class a module of the package defines, by name."""
    out = {}
    for info in pkgutil.iter_modules(ccbilliards.__path__):
        mod = importlib.import_module(f"ccbilliards.{info.name}")
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                out[obj.__name__] = obj
    return out


def test_only_polygon_and_double_surface_point_are_dataclasses():
    found = {name for name, cls in package_classes().items()
             if dataclasses.is_dataclass(cls)}
    assert found == DATACLASSES


def test_exported_records_are_named_tuples():
    for name in ccbilliards.__all__:
        obj = getattr(ccbilliards, name)
        if (not isinstance(obj, type) or name in DATACLASSES
                or issubclass(obj, (Exception, enum.Enum))):
            continue
        assert issubclass(obj, tuple) and hasattr(obj, "_fields"), name


def test_every_record_has_a_sample():
    records = {cls for cls in package_classes().values()
               if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert records == set(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_keyword_construction_in_field_order(cls):
    values, _ = SAMPLES[cls]
    assert cls._fields == tuple(values)
    rec = cls(**values)
    assert all(getattr(rec, f) is v for f, v in values.items())
    assert tuple(rec) == tuple(cls(*values.values()))


def test_defaults():
    assert SearchBudget() == SearchBudget(1000, 10000, 50, 20, 4.0 * math.pi,
                                          10000, 48, 0)
    assert Itinerary((1,), 0, "horizon").termination_backward is None
    assert ExpansivenessVerdict("unknown", (), (), SearchBudget()).notes == ()
    assert ChartTrajectory(np.zeros(1), np.zeros((1, 3)), False,
                           None).arc_time is None
    assert IsometryClass("identity")[1:] == (None, None, None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_values_compare_and_hash_equal(cls):
    values, hashable = SAMPLES[cls]
    a = cls(**values)
    if hashable:
        b = cls(**copy.deepcopy(values))
        assert a == b and hash(a) == hash(b)
        assert a != cls(*[None] * len(values))
    else:
        # equal through the same arrays; an array field does not hash
        assert a == cls(**values)
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_repr_text():
    assert repr(STATE) == "BoundaryState(side=1, s=0.5, psi=1.0)"
    assert (repr(ChartState(r=0.1, gamma=0.0, beta=1.5))
            == "ChartState(r=0.1, gamma=0.0, beta=1.5)")
    assert repr(DIAGONAL) == ("Diagonal(start=1, end=2, sequence=(3, 1), "
                              "length=2.5, angle=0.25)")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    values, _ = SAMPLES[cls]
    rec = cls(**values)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert tuple(rec) == tuple(values.values())


def test_records_are_tuples():
    assert STATE == (1, 0.5, 1.0)
    side, s, psi = STATE
    assert (side, s, psi, STATE[-1]) == (1, 0.5, 1.0, 1.0)


def test_neighborhood_check_truth_is_ok():
    assert NeighborhoodCheck(True, ())
    assert not NeighborhoodCheck(False, ())
    assert not NeighborhoodCheck(False, ((0.1, "vertex"),))


def test_search_budget_replace():
    budget = SearchBudget()._replace(seed=3, horizon=5)
    assert budget == SearchBudget(horizon=5, seed=3)
    assert SearchBudget().seed == 0
    with pytest.raises(ValueError, match="horizon"):
        classify(square(), SearchBudget()._replace(horizon=0))
    with pytest.raises(ValueError, match="diagonal_length"):
        classify(square(), budget._replace(diagonal_length=math.nan))

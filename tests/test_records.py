"""The package's frozen records: construction, equality, hashing, immutability
and repr, the same for each of the ten classes; and the start-up import set
that keeps them cheap."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tomobound.bounds import BoundResult
from tomobound.construct import ConstructedInstance, FatTree
from tomobound.experiments import ExperimentSpec, ResultTable
from tomobound.model import Graph, PathSet, PathViolation
from tomobound.routing import ConsistencyReport, ConsistencyViolation

SRC = Path(__file__).resolve().parents[1] / "src"

GRAPH = Graph(3, frozenset({(0, 1), (1, 2)}))
PATHS = PathSet(((0, 1, 2),))

# one valid value per field, in field order
SAMPLES = {
    Graph: (3, frozenset({(0, 1), (1, 2)})),
    PathSet: (((0, 1, 2), (2, 1)),),
    PathViolation: (1, "non-adjacent-step", (0, 2)),
    ConsistencyViolation: (0, 1, 2, 5, (2, 3, 5), (2, 4, 5)),
    ConsistencyReport: (False, ()),
    BoundResult: (
        "consistent-avg", 4, 9, Fraction(3), "avg", 6, 2, 9, None, None, None, Fraction(13, 2), ("n/a",),
    ),
    ConstructedInstance: (GRAPH, PATHS, (1, 1, 1), {"kind": "sample"}, ("a", "b", "c")),
    FatTree: (2, GRAPH, (0,), (1,), (2,), (3,), ("c", "a", "e", "h"), {"h": 3}),
    ExperimentSpec: (
        "bound_sweep", (4,), (Fraction(3),), ("consistent-avg",), (), 9, 2, 7, None, None, None, 4, None,
    ),
    ResultTable: ("bound_sweep", 7, ((4, 3, "consistent-avg", "bound", 9),)),
}


def fields(cls):
    return tuple(cls.__annotations__)


@pytest.fixture(params=list(SAMPLES), ids=lambda cls: cls.__name__)
def sample(request):
    cls = request.param
    assert len(SAMPLES[cls]) == len(fields(cls))
    return cls, fields(cls), SAMPLES[cls]


def test_construction(sample):
    cls, names, values = sample
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == record
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == record
    # the fields a class gives a default may be left out, and then hold it
    required = [name for name in names if name not in vars(cls)]
    bare = cls(*values[: len(required)])
    for name in names[len(required):]:
        assert getattr(bare, name) == vars(cls)[name]
    with pytest.raises(TypeError, match="missing required argument"):
        cls()
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        cls(*values, colour=1)
    with pytest.raises(TypeError, match=f"multiple values for argument {names[0]!r}"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="arguments but"):
        cls(*values, None)


def test_equality_and_hash_by_fields(sample):
    cls, names, values = sample
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    try:
        expected = hash(values)
    except TypeError:  # a Mapping field makes the record unhashable, as its field tuple is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    twin = type("Twin", (cls,), {})(*values)  # same values, another class
    assert a != twin and twin != a
    assert a != values and a != object()


def test_frozen(sample):
    cls, names, values = sample
    record = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values
    assert "extra" not in vars(record)


def test_repr(sample):
    cls, names, values = sample
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


def test_post_init_sees_every_field():
    with pytest.raises(ValueError, match="node_count must be nonnegative"):
        Graph(edges=frozenset(), node_count=-1)
    with pytest.raises(ValueError, match=r"trials must be >= 1"):
        ExperimentSpec("bound_sweep", trials=0)


def test_result_table_header_is_no_field():
    table = ResultTable("bound_sweep", 7, ())
    assert vars(table) == {"name": "bound_sweep", "seed": 7, "rows": ()}
    assert table.HEADER == ("m", "d", "scenario", "metric", "value")


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # modules the interpreter loads before the import (site and its .pth
    # files) are not the package's to avoid
    probe = (
        "import sys; heavy = {'dataclasses', 'inspect'}; before = heavy & set(sys.modules); "
        "import tomobound.cli; print(sorted(heavy & set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"

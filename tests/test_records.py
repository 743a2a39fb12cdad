"""Value semantics of the public records: `repr`, equality, hash and
immutability, and `replace` running every constructor check again."""

import copy
import inspect
import math
import pickle

import pytest

from hoopshot.kinematics import LaunchState, ShotParams, sample_trajectory
from hoopshot.ladder import (
    ColorRole,
    LadderSpec,
    PlotSpace,
    Stage,
    StrategyTag,
    Violation,
    ViolationKind,
)
from hoopshot.render import Dash, Mark, MarkKind, Panel, Scene, Style
from hoopshot.solver import Optimum, sweep_distance

from oracles import Bracket, MinResult

SHOT = "ShotParams(release_altitude=1.7, distance=10.0, hoop_height=3.05, gravity=9.8)"
SPACE = (
    "PlotSpace(x_var=('x', 'm'), y_var=('y', 'm'), x_range=(0.0, 1.0), "
    "y_range=(0.0, 2.0))"
)
STYLE = "Style(color_role=<ColorRole.BASELINE: 0>, dash=<Dash.SOLID: 'solid'>)"


def space():
    return PlotSpace(("x", "m"), ("y", "m"), (0.0, 1.0), (0.0, 2.0))


def stage():
    return Stage(
        (space(),),
        frozenset({ColorRole.BASELINE}),
        frozenset({StrategyTag.UNFIX_PARAMETER}),
        "c",
    )


# (build a fresh record, its repr, one field name)
RECORDS = [
    pytest.param(ShotParams, SHOT, "distance", id="ShotParams"),
    pytest.param(
        lambda: LaunchState(0.5, 10.0), "LaunchState(angle=0.5, speed=10.0)", "angle",
        id="LaunchState",
    ),
    pytest.param(
        lambda: sample_trajectory(ShotParams(), LaunchState(0.5, 10.0), 2),
        f"Trajectory(params={SHOT}, launch=LaunchState(angle=0.5, speed=10.0), "
        "samples=((0.0, 0.0, 1.7), (1.139493927324549, 10.0, 0.8006374874312341)))",
        "samples",
        id="Trajectory",
    ),
    pytest.param(
        lambda: Optimum(0.5, 2.0), "Optimum(angle=0.5, speed=2.0)", "speed", id="Optimum"
    ),
    pytest.param(
        lambda: sweep_distance(ShotParams(), [1.0]),
        "OptimumCurve(release_altitude=1.7, distances=(1.0,), "
        "angles=(1.2520219277255502,), speeds=(5.449246889624585,))",
        "speeds",
        id="OptimumCurve",
    ),
    pytest.param(lambda: Bracket(0.0, 1.0), "Bracket(lo=0.0, hi=1.0)", "lo", id="Bracket"),
    pytest.param(
        lambda: MinResult(0.5, 1.0, 3, 1e-9),
        "MinResult(x=0.5, f_at_x=1.0, iterations=3, achieved_tolerance=1e-09)",
        "x",
        id="MinResult",
    ),
    pytest.param(space, SPACE, "y_range", id="PlotSpace"),
    pytest.param(
        stage,
        f"Stage(panels=({SPACE},), roles_used=frozenset({{<ColorRole.BASELINE: 0>}}), "
        "tags=frozenset({<StrategyTag.UNFIX_PARAMETER: 'unfix_parameter'>}), "
        "caption='c')",
        "caption",
        id="Stage",
    ),
    pytest.param(
        lambda: LadderSpec((stage(),)),
        f"LadderSpec(stages=({repr(stage())},))",
        "stages",
        id="LadderSpec",
    ),
    pytest.param(
        lambda: Violation(ViolationKind.ROLE_RANK_REGRESSION, (2,), "m"),
        "Violation(kind=<ViolationKind.ROLE_RANK_REGRESSION: 'role_rank_regression'>, "
        "stages=(2,), message='m')",
        "message",
        id="Violation",
    ),
    pytest.param(
        lambda: Style(ColorRole.CONCRETE),
        "Style(color_role=<ColorRole.CONCRETE: 1>, dash=<Dash.SOLID: 'solid'>)",
        "dash",
        id="Style",
    ),
    pytest.param(
        lambda: Mark(MarkKind.POINT, Style(ColorRole.BASELINE), (1.0,), (2.0,)),
        f"Mark(kind=<MarkKind.POINT: 'point'>, style={STYLE}, xs=(1.0,), ys=(2.0,), "
        "value=0.0, text='', size=3.0)",
        "xs",
        id="Mark",
    ),
    pytest.param(
        lambda: Panel(space(), ()),
        f"Panel(space={SPACE}, marks=(), title='')",
        "title",
        id="Panel",
    ),
    pytest.param(
        lambda: Scene(()),
        "Scene(panels=())",
        "panels",
        id="Scene",
    ),
]


@pytest.mark.parametrize("build, text, name", RECORDS)
def test_repr_names_every_field_in_order(build, text, name):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text, name", RECORDS)
def test_equal_values_are_equal_and_hash_alike(build, text, name):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("build, text, name", RECORDS)
def test_copy_and_pickle_give_an_equal_record(build, text, name):
    record = build()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


def test_each_record_equals_only_itself():
    records = [p.values[0]() for p in RECORDS]
    for record in records:
        assert [r for r in records if r == record] == [record]


@pytest.mark.parametrize(
    "a, b",
    [
        (ShotParams(), ShotParams(distance=11.0)),
        (LaunchState(0.5, 10.0), LaunchState(0.5, 10.5)),
        (Bracket(0.0, 1.0), Bracket(0.0, 2.0)),
        (Style(ColorRole.CONCRETE), Style(ColorRole.CONCRETE, Dash.DASHED)),
        (Optimum(0.5, 2.0), Optimum(0.5, 2.5)),
    ],
)
def test_one_differing_field_makes_records_unequal(a, b):
    assert a != b and not a == b


@pytest.mark.parametrize("build, text, name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(build, text, name):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, name, 0.0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("build, text, name", RECORDS)
def test_make_rebuilds_the_record_from_its_values(build, text, name):
    record = build()
    made = type(record)._make(iter(record))
    assert made == record and type(made) is type(record) and repr(made) == text


def test_replace_reruns_the_constructor_checks():
    with pytest.raises(ValueError) as built:
        ShotParams(distance=math.nan)
    with pytest.raises(ValueError) as replaced:
        ShotParams().replace(distance=math.nan)
    assert str(replaced.value) == str(built.value) == "distance must be finite, got nan"


REPLACE_CASES = [
    (ShotParams(), {"gravity": 0.0}, "gravity must be positive, got 0.0"),
    (LaunchState(0.5, 10.0), {"speed": -1.0}, "speed must be positive and finite"),
    (Bracket(0.0, 1.0), {"hi": 0.0}, r"need lo < hi, got \[0.0, 0.0\]"),
    (space(), {"x_range": (3.0, 3.0)}, r"bad x_range \(3.0, 3.0\)"),
    (space(), {"y_range": (-math.inf, 0.0)}, r"bad y_range \(-inf, 0.0\)"),
    (stage(), {"caption": ""}, "stage has no caption"),
    (LadderSpec((stage(),)), {"stages": ()}, r"stages must be a non-empty list, got \[\]"),
    (
        Mark(MarkKind.POINT, Style(ColorRole.BASELINE), (1.0,), (2.0,)),
        {"size": 0.0},
        "point size must be positive, got 0.0",
    ),
    (
        Mark(MarkKind.POINT, Style(ColorRole.BASELINE), (1.0,), (2.0,)),
        {"ys": ()},
        "1 x values but 0 y values",
    ),
]
# each case's record type, and after the first case of a type the changed fields too
_TYPES = [type(record).__name__ for record, _, _ in REPLACE_CASES]
REPLACE_IDS = [
    name if _TYPES.index(name) == i else f"{name}-{'-'.join(changes)}"
    for i, (name, (_, changes, _)) in enumerate(zip(_TYPES, REPLACE_CASES))
]


@pytest.mark.parametrize(
    "record, changes, message",
    REPLACE_CASES,
    ids=REPLACE_IDS,
)
def test_replace_returns_a_new_checked_record(record, changes, message):
    kept = repr(record)
    with pytest.raises(ValueError, match=message):
        record.replace(**changes)
    assert repr(record) == kept
    assert record.replace() == record and record.replace() is not record


def test_replace_changes_only_the_named_fields():
    assert ShotParams().replace(distance=11.0) == ShotParams(distance=11.0)
    with pytest.raises(TypeError):
        ShotParams().replace(no_such_field=1.0)


@pytest.mark.parametrize(
    "record, changes, message",
    REPLACE_CASES,
    ids=REPLACE_IDS,
)
def test_make_and_replace_raise_the_constructor_message(record, changes, message):
    values = record._asdict() | changes
    with pytest.raises(ValueError, match=message) as built:
        type(record)(**values)
    for rebuild in (lambda: record._replace(**changes), lambda: record._make(values.values())):
        with pytest.raises(ValueError) as raised:
            rebuild()
        assert str(raised.value) == str(built.value)


# the constructor signature of each checked record and of Style: its
# fields and defaults
SIGNATURES = {
    ShotParams: "(release_altitude=1.7, distance=10.0, hoop_height=3.05, gravity=9.8)",
    LaunchState: "(angle, speed)",
    Bracket: "(lo, hi)",
    PlotSpace: "(x_var, y_var, x_range, y_range)",
    Stage: "(panels, roles_used, tags, caption)",
    LadderSpec: "(stages)",
    Style: "(color_role, dash=<Dash.SOLID: 'solid'>)",
    Mark: "(kind, style, xs=(), ys=(), value=0.0, text='', size=3.0)",
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_signature_names_each_field_and_default(cls):
    assert str(inspect.signature(cls)) == SIGNATURES[cls]


def test_checked_records_are_tuples():
    params = ShotParams(distance=11.0)
    a, d, h, g = params
    assert params == (a, d, h, g) == (1.7, 11.0, 3.05, 9.8) and params[1] == d
    assert params._asdict() == {
        "release_altitude": 1.7, "distance": 11.0, "hoop_height": 3.05, "gravity": 9.8
    }

"""Declarative model of a figure sequence as rungs on a ladder of
abstraction, with machine-checked consistency rules.

A ladder is its list of stages: stage n is `stages[n - 1]`, and it
climbs from stage n - 1.

Rules enforced by validate_ladder:

R1  Every panel that draws an axis variable (the same name and unit)
    draws it over the same range, each end within RANGE_TOL of the
    range's width.
R2  The ranks of newly introduced color roles are non-decreasing along
    the stage order: colors climb, they never fall back.

The JSON form labels each stage with its number, `id`, for a reader of
the file; `ladder_from_json` checks it against the stage's place.  It
reads a spec with the readers of scenario files, `kinematics.json_value`
and `json_object`: a stage or panel key missing, an unknown key or a bad
value raises ValueError naming its key path.
"""

from __future__ import annotations

import enum
import json
import math
from collections import namedtuple
from collections.abc import Iterable

from .kinematics import checked_record, json_object, json_value, short_repr

RANGE_TOL = 1e-9


class ColorRole(enum.Enum):
    """Semantic color assignments, ranked from concrete to abstract."""

    BASELINE = 0  # black: court, axes
    CONCRETE = 1  # red: directly drawn trajectories
    SOLUTION = 2  # blue: the hoop-reaching solution
    OPTIMUM = 3  # green: the minimized solution
    # a member is equal only to itself: hashed by identity in C, not by name in Python
    __hash__ = object.__hash__

    @property
    def rank(self) -> int:
        return self.value


class StrategyTag(enum.Enum):
    DEFINE_ABSTRACT_SPACE = "define_abstract_space"
    MODELED_OR_OPTIMIZED_VALUES = "modeled_or_optimized_values"
    EXPAND_SAMPLING = "expand_sampling"
    UNFIX_PARAMETER = "unfix_parameter"


class ViolationKind(enum.Enum):
    SHARED_SPACE_MISMATCH = "shared_space_mismatch"
    ROLE_RANK_REGRESSION = "role_rank_regression"


class PlotSpace(checked_record("PlotSpace", "x_var y_var x_range y_range")):
    """A panel's axes: each variable (name, unit) and its range."""

    __slots__ = ()

    def _check(self) -> None:
        for name, (lo, hi) in (("x_range", self.x_range), ("y_range", self.y_range)):
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"bad {name} {(lo, hi)}")


class Stage(checked_record("Stage", "panels roles_used tags caption")):
    __slots__ = ()

    def _check(self) -> None:
        if not self.panels:
            raise ValueError("stage has no panels")
        if not self.caption:
            raise ValueError("stage has no caption")


class LadderSpec(checked_record("LadderSpec", "stages")):
    __slots__ = ()

    def _check(self) -> None:
        if not self.stages:
            raise ValueError("stages must be a non-empty list, got []")


Violation = namedtuple("Violation", "kind stages message")


def _differ(r, reference) -> bool:
    """Whether an end of range r is off the reference's by more than
    RANGE_TOL of its width, scaled first so that it cannot overflow."""
    lo, hi = reference
    tol = RANGE_TOL * hi - RANGE_TOL * lo
    return abs(r[0] - lo) > tol or abs(r[1] - hi) > tol


def _check_axis_ranges(spec: LadderSpec) -> Iterable[Violation]:
    # One violation per axis variable drawn over two ranges, so a single
    # mutated range yields exactly one violation no matter how many
    # panels draw the variable.
    groups: dict[tuple, list[tuple[int, tuple]]] = {}
    for n, stage in enumerate(spec.stages, 1):
        for panel in stage.panels:
            groups.setdefault(panel.x_var, []).append((n, panel.x_range))
            groups.setdefault(panel.y_var, []).append((n, panel.y_range))
    for (name, unit), members in groups.items():
        first, reference = members[0]
        mismatched = [n for n, r in members[1:] if _differ(r, reference)]
        if mismatched:
            yield Violation(
                kind=ViolationKind.SHARED_SPACE_MISMATCH,
                stages=tuple(sorted({first, *mismatched})),
                message=f"the panels that draw {name} ({unit}) disagree on its range",
            )


def _check_role_ranks(spec: LadderSpec) -> Iterable[Violation]:
    seen: set[ColorRole] = set()
    last_rank = -1
    last_stage = None
    for n, stage in enumerate(spec.stages, 1):
        new_ranks = [r.rank for r in stage.roles_used - seen]
        seen |= stage.roles_used
        if not new_ranks:
            continue
        rank = min(new_ranks)
        if rank < last_rank:
            yield Violation(
                kind=ViolationKind.ROLE_RANK_REGRESSION,
                stages=(last_stage, n),
                message=(
                    f"stage {n} introduces a role of rank {rank} after "
                    f"stage {last_stage} introduced rank {last_rank}"
                ),
            )
        last_rank = max(last_rank, rank)
        last_stage = n


def validate_ladder(spec: LadderSpec) -> list[Violation]:
    """All rule violations, in a deterministic order (R1, then R2, each
    in stage order).  An empty list means the ladder is valid."""
    return [*_check_axis_ranges(spec), *_check_role_ranks(spec)]


# --- JSON serialization ------------------------------------------------

def _pair(value, kind, what: str) -> tuple:
    items = json_value(value, list, what)
    if len(items) != 2:
        raise ValueError(f"{what} must have 2 items, got {len(items)}")
    return tuple(json_value(v, kind, f"{what}[{i}]") for i, v in enumerate(items))


def _members(enum_type, names, what: str) -> frozenset:
    names = json_value(names, list, what)
    for i, name in enumerate(names):
        if json_value(name, str, f"{what}[{i}]") not in enum_type.__members__:
            raise ValueError(f"{what}[{i}]: unknown {enum_type.__name__} {short_repr(name)}")
    return frozenset(enum_type[name] for name in names)


def _checked(record_type, what: str, **fields):
    """record_type(**fields), the ValueError of its check prefixed by
    what, the key path of the fields."""
    try:
        return record_type(**fields)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _space_from_dict(data, what: str) -> PlotSpace:
    data = json_object(data, what, PlotSpace._fields, PlotSpace._fields)
    return _checked(
        PlotSpace,
        what,
        x_var=_pair(data["x_var"], str, f"{what}.x_var"),
        y_var=_pair(data["y_var"], str, f"{what}.y_var"),
        x_range=_pair(data["x_range"], float, f"{what}.x_range"),
        y_range=_pair(data["y_range"], float, f"{what}.y_range"),
    )


def _stage_from_dict(item, n: int) -> Stage:
    """Stage n (numbered from 1) of the JSON form."""
    what, keys = f"stages[{n - 1}]", ("id", *Stage._fields)
    item = json_object(item, what, keys, keys)
    if json_value(item["id"], int, f"{what}.id") != n:
        raise ValueError(f"{what}.id must be {n}, its place in the ladder, got {item['id']}")
    return _checked(
        Stage,
        what,
        panels=tuple(
            _space_from_dict(p, f"{what}.panels[{i}]")
            for i, p in enumerate(json_value(item["panels"], list, f"{what}.panels"))
        ),
        roles_used=_members(ColorRole, item["roles_used"], f"{what}.roles_used"),
        tags=_members(StrategyTag, item["tags"], f"{what}.tags"),
        caption=json_value(item["caption"], str, f"{what}.caption"),
    )


# the JSON form as json.dumps(doc, indent=2, sort_keys=True) writes it:
# one % per stage and per panel, whose pairs are lists of two, a range's
# ends written by %r and a variable's strings given quoted
_PAIR = "[\n            %s,\n            %s\n          ]"
_PANEL = (
    '        {\n          "x_range": %s,\n          "x_var": %s,\n'
    '          "y_range": %s,\n          "y_var": %s\n        }'
) % (_PAIR.replace("%s", "%r"), _PAIR, _PAIR.replace("%s", "%r"), _PAIR)
_STAGE = (
    '    {\n      "caption": %s,\n      "id": %d,\n      "panels": [\n%s\n      ],\n'
    '      "roles_used": %s,\n      "tags": %s\n    }'
)


def _names(members) -> str:
    """The sorted names of members as a JSON list at a stage's depth."""
    names = sorted(m.name for m in members)
    return '[\n        "' + '",\n        "'.join(names) + '"\n      ]' if names else "[]"


def ladder_to_json(spec: LadderSpec) -> str:
    """Lossless JSON form of a LadderSpec, written from its fixed schema:
    each stage with its number `id`, a panel an object of its PlotSpace
    fields.  Strings go through json's ASCII encoder and each range end is
    written as the float it equals, as json.dumps(indent=2, sort_keys=True)
    writes that document."""
    quote = json.encoder.encode_basestring_ascii
    stages = []
    for n, stage in enumerate(spec.stages, 1):
        panels = ",\n".join(
            _PANEL % (float(x0), float(x1), quote(xn), quote(xu),
                      float(y0), float(y1), quote(yn), quote(yu))
            for (xn, xu), (yn, yu), (x0, x1), (y0, y1) in stage.panels
        )
        roles, tags = _names(stage.roles_used), _names(stage.tags)
        stages.append(_STAGE % (quote(stage.caption), n, panels, roles, tags))
    return '{\n  "stages": [\n' + ",\n".join(stages) + "\n  ]\n}"


def ladder_from_json(text: str) -> LadderSpec:
    """Parse the JSON form of a LadderSpec.  Invalid JSON or a document
    not of that form raises ValueError with one line naming the key path."""
    doc = json_object(json.loads(text), "ladder spec", ("stages",), ("stages",))
    items = json_value(doc["stages"], list, "stages")
    return LadderSpec(tuple(_stage_from_dict(item, n) for n, item in enumerate(items, 1)))

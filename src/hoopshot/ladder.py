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

import math
from collections import namedtuple
from collections.abc import Iterable

from .kinematics import checked_record, json_object, json_value, short_repr

RANGE_TOL = 1e-9


# each member of these classes is its own name, as ladder.json and the CLI write it
class ColorRole:
    """Semantic color assignments; a role's rank is its place in ROLE_RANKS."""

    BASELINE = "BASELINE"  # black: court, axes
    CONCRETE = "CONCRETE"  # red: directly drawn trajectories
    SOLUTION = "SOLUTION"  # blue: the hoop-reaching solution
    OPTIMUM = "OPTIMUM"  # green: the minimized solution


# the roles from concrete to abstract
ROLE_RANKS = (ColorRole.BASELINE, ColorRole.CONCRETE, ColorRole.SOLUTION, ColorRole.OPTIMUM)


class StrategyTag:
    DEFINE_ABSTRACT_SPACE = "DEFINE_ABSTRACT_SPACE"
    MODELED_OR_OPTIMIZED_VALUES = "MODELED_OR_OPTIMIZED_VALUES"
    EXPAND_SAMPLING = "EXPAND_SAMPLING"
    UNFIX_PARAMETER = "UNFIX_PARAMETER"


class ViolationKind:
    SHARED_SPACE_MISMATCH = "SHARED_SPACE_MISMATCH"
    ROLE_RANK_REGRESSION = "ROLE_RANK_REGRESSION"


class PlotSpace(checked_record("PlotSpace", "x_var y_var x_range y_range")):
    """A panel's axes: each variable (name, unit) and its range."""

    __slots__ = ()

    def _check(self) -> None:
        for name, (lo, hi) in (("x_range", self.x_range), ("y_range", self.y_range)):
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"bad {name} {(lo, hi)}")


def _check_members(constants, names, what: str = "") -> None:
    """Raise ValueError, prefixed by what, naming the least by repr of names
    that is not a member of constants: an attribute that is its own name,
    which no other, such as __module__, is."""
    unknown = [name for name in names if vars(constants).get(name) != name]
    if unknown:
        raise ValueError(f"{what}unknown {constants.__name__} {short_repr(min(unknown, key=repr))}")


class Stage(checked_record("Stage", "panels roles_used tags caption")):
    __slots__ = ()

    def _check(self) -> None:
        if not self.panels:
            raise ValueError("stage has no panels")
        if not self.caption:
            raise ValueError("stage has no caption")
        _check_members(ColorRole, self.roles_used)
        _check_members(StrategyTag, self.tags)


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
    seen: set[str] = set()
    last_rank = -1
    last_stage = None
    for n, stage in enumerate(spec.stages, 1):
        new_ranks = [ROLE_RANKS.index(r) for r in stage.roles_used - seen]
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


def _members(constants, names, what: str) -> frozenset:
    names = json_value(names, list, what)
    for i, name in enumerate(names):
        _check_members(constants, [json_value(name, str, f"{what}[{i}]")], f"{what}[{i}]: ")
    return frozenset(names)


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
# ends written by %r and a variable's strings given quoted by _quote
_PAIR = "[\n            %s,\n            %s\n          ]"
_PANEL = (
    '        {\n          "x_range": %s,\n          "x_var": %s,\n'
    '          "y_range": %s,\n          "y_var": %s\n        }'
) % (_PAIR.replace("%s", "%r"), _PAIR, _PAIR.replace("%s", "%r"), _PAIR)
_STAGE = (
    '    {\n      "caption": %s,\n      "id": %d,\n      "panels": [\n%s\n      ],\n'
    '      "roles_used": %s,\n      "tags": %s\n    }'
)


def _quote(text: str) -> str:
    """text as json.dumps writes it, printable ASCII with no " or \\ as it is."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)


def _names(names) -> str:
    """The sorted names as a JSON list at a stage's depth."""
    names = [_quote(name) for name in sorted(names)]
    return "[\n        " + ",\n        ".join(names) + "\n      ]" if names else "[]"


def ladder_to_json(spec: LadderSpec) -> str:
    """Lossless JSON form of a LadderSpec, written from its fixed schema:
    each stage with its number `id`, a panel an object of its PlotSpace
    fields.  Strings are quoted and each range end is written as the
    float it equals, as json.dumps(indent=2, sort_keys=True) writes that
    document."""
    stages = []
    for n, stage in enumerate(spec.stages, 1):
        panels = ",\n".join(
            _PANEL % (float(x0), float(x1), _quote(xn), _quote(xu),
                      float(y0), float(y1), _quote(yn), _quote(yu))
            for (xn, xu), (yn, yu), (x0, x1), (y0, y1) in stage.panels
        )
        roles, tags = _names(stage.roles_used), _names(stage.tags)
        stages.append(_STAGE % (_quote(stage.caption), n, panels, roles, tags))
    return '{\n  "stages": [\n' + ",\n".join(stages) + "\n  ]\n}"


def ladder_from_json(text: str) -> LadderSpec:
    """Parse the JSON form of a LadderSpec.  Invalid JSON or a document
    not of that form raises ValueError with one line naming the key path."""
    import json

    doc = json_object(json.loads(text), "ladder spec", ("stages",), ("stages",))
    items = json_value(doc["stages"], list, "stages")
    return LadderSpec(tuple(_stage_from_dict(item, n) for n, item in enumerate(items, 1)))

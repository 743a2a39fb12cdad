"""Declarative model of a figure sequence as rungs on a ladder of
abstraction, with machine-checked consistency rules.

Rules enforced by validate_ladder:

R1  Panels drawn in the same plot space (same x/y variable identities)
    must agree on axis ranges and aspect ratio.
R2  A color role reused by a stage must have been introduced somewhere
    in that stage's parent chain: color continuity flows through
    parentage.
R3  The ranks of newly introduced color roles are non-decreasing along
    the stage order: colors climb, they never fall back.
R4  A stage's parent must come before it.
"""

from __future__ import annotations

import enum
import json
from collections import namedtuple
from collections.abc import Iterable

from .kinematics import checked_record

RANGE_TOL = 1e-9


class ColorRole(enum.Enum):
    """Semantic color assignments, ranked from concrete to abstract."""

    BASELINE = 0  # black: court, axes
    CONCRETE = 1  # red: directly drawn trajectories
    SOLUTION = 2  # blue: the hoop-reaching solution
    OPTIMUM = 3  # green: the minimized solution

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
    COLOR_CONTINUITY_BREAK = "color_continuity_break"
    ROLE_RANK_REGRESSION = "role_rank_regression"
    BROKEN_PARENT_ORDER = "broken_parent_order"


class PlotSpace(checked_record("PlotSpace", "x_var y_var x_range y_range aspect", (1.0,))):
    """Axis variables (name, unit), their ranges, and the aspect ratio
    (y data-units per pixel over x data-units per pixel)."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.x_range[0] < self.x_range[1]:
            raise ValueError(f"bad x_range {self.x_range}")
        if not self.y_range[0] < self.y_range[1]:
            raise ValueError(f"bad y_range {self.y_range}")
        if self.aspect <= 0:
            raise ValueError(f"aspect must be positive, got {self.aspect}")

    @property
    def identity(self) -> tuple[tuple[str, str], tuple[str, str]]:
        return (self.x_var, self.y_var)


class Stage(checked_record("Stage", "id panels roles_used tags caption parent", (None,))):
    __slots__ = ()

    def _check(self) -> None:
        if not self.panels:
            raise ValueError(f"stage {self.id} has no panels")
        if not self.caption:
            raise ValueError(f"stage {self.id} has no caption")


class LadderSpec(checked_record("LadderSpec", "stages")):
    __slots__ = ()

    def _check(self) -> None:
        ids = [s.id for s in self.stages]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError(f"stage ids must be consecutive from 1, got {ids}")
        for s in self.stages:
            if s.parent is not None and s.parent not in ids:
                raise ValueError(
                    f"stage {s.id} references unknown parent {s.parent}"
                )

    def stage(self, stage_id: int) -> Stage:
        return self.stages[stage_id - 1]


Violation = namedtuple("Violation", "kind stages message")


def _parent_chain(spec: LadderSpec, stage: Stage) -> list[Stage]:
    """Ancestors of stage, nearest first.  Guards against cycles that a
    broken parent order could create."""
    chain = []
    seen = {stage.id}
    current = stage.parent
    while current is not None and current not in seen:
        seen.add(current)
        ancestor = spec.stage(current)
        chain.append(ancestor)
        current = ancestor.parent
    return chain


def _check_shared_spaces(spec: LadderSpec) -> Iterable[Violation]:
    # One violation per inconsistent space group, so a single mutated
    # range yields exactly one violation no matter how many panels share
    # the space.
    groups: dict[tuple, list[tuple[int, PlotSpace]]] = {}
    for stage in spec.stages:
        for panel in stage.panels:
            groups.setdefault(panel.identity, []).append((stage.id, panel))
    for identity, members in groups.items():
        _, reference = members[0]
        mismatched = [
            sid
            for sid, panel in members[1:]
            if (
                abs(panel.x_range[0] - reference.x_range[0]) > RANGE_TOL
                or abs(panel.x_range[1] - reference.x_range[1]) > RANGE_TOL
                or abs(panel.y_range[0] - reference.y_range[0]) > RANGE_TOL
                or abs(panel.y_range[1] - reference.y_range[1]) > RANGE_TOL
                or abs(panel.aspect - reference.aspect) > RANGE_TOL
            )
        ]
        if mismatched:
            involved = tuple(sorted({members[0][0], *mismatched}))
            yield Violation(
                kind=ViolationKind.SHARED_SPACE_MISMATCH,
                stages=involved,
                message=(
                    f"panels sharing space {identity} disagree on ranges or "
                    f"aspect across stages {involved}"
                ),
            )


def _first_introductions(spec: LadderSpec) -> dict[ColorRole, int]:
    intro: dict[ColorRole, int] = {}
    for stage in spec.stages:
        for role in stage.roles_used:
            intro.setdefault(role, stage.id)
    return intro


def _check_color_continuity(spec: LadderSpec) -> Iterable[Violation]:
    intro = _first_introductions(spec)
    for stage in spec.stages:
        if stage.parent is not None and stage.parent >= stage.id:
            # parentage is broken (reported by R4); a continuity check
            # against a meaningless chain would only cascade noise
            continue
        chain_roles: set[ColorRole] = set()
        for ancestor in _parent_chain(spec, stage):
            chain_roles |= ancestor.roles_used
        for role in sorted(stage.roles_used, key=lambda r: r.rank):
            if intro[role] != stage.id and role not in chain_roles:
                yield Violation(
                    kind=ViolationKind.COLOR_CONTINUITY_BREAK,
                    stages=(intro[role], stage.id),
                    message=(
                        f"stage {stage.id} reuses {role.name} introduced in "
                        f"stage {intro[role]}, which is not in its parent chain"
                    ),
                )


def _check_role_ranks(spec: LadderSpec) -> Iterable[Violation]:
    intro = _first_introductions(spec)
    last_rank = -1
    last_stage = None
    for stage in spec.stages:
        new_ranks = [r.rank for r in stage.roles_used if intro[r] == stage.id]
        if not new_ranks:
            continue
        rank = min(new_ranks)
        if rank < last_rank:
            yield Violation(
                kind=ViolationKind.ROLE_RANK_REGRESSION,
                stages=(last_stage, stage.id),
                message=(
                    f"stage {stage.id} introduces a role of rank {rank} after "
                    f"stage {last_stage} introduced rank {last_rank}"
                ),
            )
        last_rank = max(last_rank, rank)
        last_stage = stage.id


def _check_parent_order(spec: LadderSpec) -> Iterable[Violation]:
    for stage in spec.stages:
        if stage.parent is not None and stage.parent >= stage.id:
            yield Violation(
                kind=ViolationKind.BROKEN_PARENT_ORDER,
                stages=(stage.id,),
                message=(
                    f"stage {stage.id} has parent {stage.parent}, which does "
                    f"not precede it"
                ),
            )


def validate_ladder(spec: LadderSpec) -> list[Violation]:
    """All rule violations, in a deterministic order (R1, R2, R3, R4,
    each in stage order).  An empty list means the ladder is valid."""
    violations: list[Violation] = []
    violations.extend(_check_shared_spaces(spec))
    violations.extend(_check_color_continuity(spec))
    violations.extend(_check_role_ranks(spec))
    violations.extend(_check_parent_order(spec))
    return violations


# --- JSON serialization ------------------------------------------------

_NUMBER = (int, float)
_JSON_TYPES = {
    dict: "an object", list: "a list", str: "a string", int: "an integer",
    _NUMBER: "a number",
}


def _typed(value, kind, what: str):
    """value if it is of the JSON type `kind` (a key of _JSON_TYPES),
    else ValueError."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r:.60}")
    return value


def _pair(value, kind, what: str) -> tuple:
    items = _typed(value, list, what)
    if len(items) != 2:
        raise ValueError(f"{what} must have 2 items, got {len(items)}")
    return tuple(_typed(v, kind, what) for v in items)


def _members(enum_type, names, what: str) -> frozenset:
    members = set()
    for name in _typed(names, list, what):
        if not isinstance(name, str) or name not in enum_type.__members__:
            raise ValueError(f"{what}: unknown {enum_type.__name__} {name!r}")
        members.add(enum_type[name])
    return frozenset(members)


def _space_from_dict(data, what: str) -> PlotSpace:
    data = _typed(data, dict, what)
    return PlotSpace(
        x_var=_pair(data["x_var"], str, f"{what} x_var"),
        y_var=_pair(data["y_var"], str, f"{what} y_var"),
        x_range=_pair(data["x_range"], _NUMBER, f"{what} x_range"),
        y_range=_pair(data["y_range"], _NUMBER, f"{what} y_range"),
        aspect=_typed(data["aspect"], _NUMBER, f"{what} aspect"),
    )


def _stage_from_dict(item, index: int) -> Stage:
    what = f"stages[{index}]"
    item = _typed(item, dict, what)
    parent = item["parent"]
    return Stage(
        id=_typed(item["id"], int, f"{what} id"),
        panels=tuple(
            _space_from_dict(p, f"{what} panels[{i}]")
            for i, p in enumerate(_typed(item["panels"], list, f"{what} panels"))
        ),
        roles_used=_members(ColorRole, item["roles_used"], f"{what} roles_used"),
        tags=_members(StrategyTag, item["tags"], f"{what} tags"),
        caption=_typed(item["caption"], str, f"{what} caption"),
        parent=None if parent is None else _typed(parent, int, f"{what} parent"),
    )


def ladder_to_json(spec: LadderSpec) -> str:
    """Lossless JSON form of a LadderSpec; a panel is an object of its
    PlotSpace fields, each pair a list."""
    doc = {
        "stages": [
            {
                "id": stage.id,
                "panels": [p._asdict() for p in stage.panels],
                "roles_used": sorted(r.name for r in stage.roles_used),
                "tags": sorted(t.name for t in stage.tags),
                "caption": stage.caption,
                "parent": stage.parent,
            }
            for stage in spec.stages
        ]
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def ladder_from_json(text: str) -> LadderSpec:
    """Parse the JSON form of a LadderSpec.  Invalid JSON or a document
    not of that form raises ValueError with a one-line message."""
    doc = _typed(json.loads(text), dict, "ladder spec")
    try:
        items = _typed(doc["stages"], list, "stages")
        return LadderSpec(
            stages=tuple(_stage_from_dict(item, i) for i, item in enumerate(items))
        )
    except KeyError as exc:
        raise ValueError(f"ladder spec is missing key {exc}") from None

import json
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from hoopshot.figures import build_basketball_ladder
from hoopshot.kinematics import ShotParams
from hoopshot.ladder import (
    ROLE_RANKS,
    ColorRole,
    LadderSpec,
    PlotSpace,
    Stage,
    StrategyTag,
    ViolationKind,
    ladder_from_json,
    ladder_to_json,
    validate_ladder,
)
from test_figures import PINNED_SETS


def space(name="x", unit="m", x_range=(0.0, 10.0), y_range=(0.0, 5.0)):
    return PlotSpace(
        x_var=(name, unit),
        y_var=("y", "m"),
        x_range=x_range,
        y_range=y_range,
    )


def simple_stage(roles, panels=None):
    return Stage(
        panels=panels or (space(),),
        roles_used=frozenset(roles),
        tags=frozenset({StrategyTag.EXPAND_SAMPLING}),
        caption="a stage",
    )


@pytest.fixture(scope="module")
def basketball():
    return build_basketball_ladder()


def replace_stage(spec, n, **changes):
    """spec with stage n (numbered from 1) changed."""
    stages = list(spec.stages)
    stages[n - 1] = stages[n - 1].replace(**changes)
    return LadderSpec(stages=tuple(stages))


def rank_regression(spec):
    """spec with green introduced at stage 3, before blue."""
    roles = frozenset({ColorRole.BASELINE, ColorRole.CONCRETE, ColorRole.OPTIMUM})
    return replace_stage(spec, 3, roles_used=roles)


class TestValidateLadder:
    def test_builtin_basketball_ladder_is_clean(self, basketball):
        spec, _ = basketball
        assert validate_ladder(spec) == []

    def test_shared_space_mismatch(self, basketball):
        spec, _ = basketball
        stage2 = spec.stages[1]
        mutated_panel = stage2.panels[1].replace(y_range=(0.0, 8.0))
        mutated = replace_stage(
            spec, 2, panels=(stage2.panels[0], mutated_panel)
        )
        violations = validate_ladder(mutated)
        assert len(violations) == 1
        assert violations[0].kind == ViolationKind.SHARED_SPACE_MISMATCH

    def test_range_tolerance(self, basketball):
        spec, _ = basketball
        stage2 = spec.stages[1]
        lo, hi = stage2.panels[1].y_range
        nudged = stage2.panels[1].replace(y_range=(lo, hi + 1e-12))
        mutated = replace_stage(spec, 2, panels=(stage2.panels[0], nudged))
        assert validate_ladder(mutated) == []

    def test_range_mismatch_at_small_scale(self):
        # a court 1.1e-10 m wide: one panel twice as wide is off by 1.1e-10
        params = ShotParams(release_altitude=4.0, distance=1e-10)
        spec, _ = build_basketball_ladder(params, d_grid=(1e-10, 1e-10, 2))
        stage2 = spec.stages[1]
        lo, hi = stage2.panels[1].x_range
        doubled = stage2.panels[1].replace(x_range=(lo, 2 * hi))
        mutated = replace_stage(spec, 2, panels=(stage2.panels[0], doubled))
        violations = validate_ladder(mutated)
        assert [v.kind for v in violations] == [ViolationKind.SHARED_SPACE_MISMATCH]
        assert violations[0].stages == (1, 2)

    def test_range_mismatch_on_a_shared_x_axis(self, basketball):
        # stage 5 stacks its two panels on one distance axis, each panel
        # in a space of its own; doubling one of their x ranges in the
        # file is one mismatch of that axis variable
        doc = json.loads(ladder_to_json(basketball[0]))
        x_range = doc["stages"][4]["panels"][0]["x_range"]
        x_range[1] *= 2
        violations = validate_ladder(ladder_from_json(json.dumps(doc)))
        assert [(v.kind, v.stages) for v in violations] == [
            (ViolationKind.SHARED_SPACE_MISMATCH, (5,))
        ]
        assert violations[0].message == "the panels that draw distance (m) disagree on its range"

    def test_range_mismatch_wider_than_a_float(self):
        # the width 2e308 overflows, yet 5e307 off is no rounding error
        wide = space(x_range=(-1e308, 1e308))
        off = space(x_range=(-1e308, 1.5e308))
        spec = LadderSpec(
            stages=(
                simple_stage({ColorRole.BASELINE}, panels=(wide,)),
                simple_stage({ColorRole.BASELINE}, panels=(off,)),
            )
        )
        violations = validate_ladder(spec)
        assert [v.kind for v in violations] == [ViolationKind.SHARED_SPACE_MISMATCH]

    def test_role_rank_regression(self):
        # green introduced before blue: 0, 1, 3, then 2
        spec = LadderSpec(
            stages=(
                simple_stage({ColorRole.BASELINE}),
                simple_stage({ColorRole.BASELINE, ColorRole.CONCRETE}),
                simple_stage({ColorRole.BASELINE, ColorRole.OPTIMUM}),
                simple_stage({ColorRole.BASELINE, ColorRole.SOLUTION, ColorRole.OPTIMUM}),
            )
        )
        violations = validate_ladder(spec)
        assert len(violations) == 1
        assert violations[0].kind == ViolationKind.ROLE_RANK_REGRESSION
        assert violations[0].stages == (3, 4)

    def test_idempotent_and_order_stable(self, basketball):
        spec, _ = basketball
        mutated = rank_regression(spec)
        assert validate_ladder(mutated) == validate_ladder(mutated)

    def test_violations_carry_messages(self, basketball):
        spec, _ = basketball
        violations = validate_ladder(rank_regression(spec))
        assert [v.message for v in violations] == [
            "stage 4 introduces a role of rank 2 after stage 3 introduced rank 3"
        ]


class TestStructuralInvariants:
    def test_ids_must_be_consecutive(self, basketball):
        # a Stage has no id; the JSON form numbers the stages from 1 by place
        doc = json.loads(ladder_to_json(basketball[0]))
        assert [stage["id"] for stage in doc["stages"]] == [1, 2, 3, 4, 5]
        doc["stages"][1]["id"] = 3
        with pytest.raises(ValueError) as raised:
            ladder_from_json(json.dumps(doc))
        assert str(raised.value) == "stages[1].id must be 2, its place in the ladder, got 3"

    def test_a_ladder_needs_a_first_stage(self):
        with pytest.raises(ValueError, match=r"stages must be a non-empty list, got \[\]"):
            LadderSpec(stages=())

    def test_stage_needs_panels_and_caption(self):
        with pytest.raises(ValueError, match="stage has no panels"):
            Stage(panels=(), roles_used=frozenset(), tags=frozenset(), caption="x")
        with pytest.raises(ValueError, match="stage has no caption"):
            Stage(panels=(space(),), roles_used=frozenset(), tags=frozenset(), caption="")

    @pytest.mark.parametrize(
        "roles, tags, message",
        [
            ({"PURPLE"}, set(), "unknown ColorRole 'PURPLE'"),
            ({ColorRole.BASELINE, "__module__"}, set(), "unknown ColorRole '__module__'"),
            ({ColorRole.BASELINE}, {"NOT_A_TAG"}, "unknown StrategyTag 'NOT_A_TAG'"),
            (set(), {StrategyTag.EXPAND_SAMPLING, "OPTIMUM"}, "unknown StrategyTag 'OPTIMUM'"),
        ],
        ids=["role", "attribute-as-role", "tag", "role-as-tag"],
    )
    def test_a_stage_has_only_known_roles_and_tags(self, roles, tags, message):
        # named as the JSON reader names it, there after the key path
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Stage(panels=(space(),), roles_used=frozenset(roles), tags=frozenset(tags),
                  caption="x")

    def test_plot_space_invariants(self):
        with pytest.raises(ValueError):
            space(x_range=(3.0, 3.0))
        # non-finite ends, which a library caller can pass
        for bad in ((0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0)):
            with pytest.raises(ValueError):
                space(x_range=bad)
            with pytest.raises(ValueError):
                space(y_range=bad)
        # the ranges are the whole of a space: it has no aspect field
        with pytest.raises(TypeError):
            PlotSpace(("x", "m"), ("y", "m"), (0.0, 1.0), (0.0, 1.0), aspect=1.0)


class TestJsonRoundTrip:
    def test_lossless(self, basketball):
        spec, _ = basketball
        assert ladder_from_json(ladder_to_json(spec)) == spec

    def test_round_trip_still_validates(self, basketball):
        spec, _ = basketball
        assert validate_ladder(ladder_from_json(ladder_to_json(spec))) == []

    def test_serialization_deterministic(self, basketball):
        spec, _ = basketball
        assert ladder_to_json(spec) == ladder_to_json(spec)

    @pytest.mark.parametrize(
        "break_stage, message",
        [
            pytest.param(
                lambda stage: stage["panels"][0].update(x_range=[0, 10**400]),
                "stages[1].panels[0].x_range[1] must be a JSON number",
                id="range-401-digit-int",
            ),
            pytest.param(  # the key of a file written before PlotSpace lost it
                lambda stage: stage["panels"][0].update(aspect=math.nan),
                "stages[1].panels[0] has unknown key 'aspect'; known: x_var, y_var, x_range, y_range",
                id="aspect-nan",
            ),
            pytest.param(
                lambda stage: stage.update(parnet=3),
                "stages[1] has unknown key 'parnet'",
                id="unknown-key",
            ),
            pytest.param(
                lambda stage: stage.pop("caption"),
                "stages[1] is missing key 'caption'",
                id="missing-key",
            ),
            pytest.param(
                lambda stage: stage.update(id=True),
                "stages[1].id must be a JSON integer",
                id="id-bool",
            ),
            pytest.param(  # the key of a file written while a Stage had a parent
                lambda stage: stage.update(parent=1),
                "stages[1] has unknown key 'parent'; known: id, panels, roles_used, tags, caption",
                id="retired-parent",
            ),
            pytest.param(  # an attribute of the class of constants, but no member
                lambda stage: stage.update(roles_used=["__module__"]),
                "stages[1].roles_used[0]: unknown ColorRole '__module__'",
                id="role-class-attribute",
            ),
            pytest.param(  # the value of StrategyTag.__module__
                lambda stage: stage.update(tags=["EXPAND_SAMPLING", "hoopshot.ladder"]),
                "stages[1].tags[1]: unknown StrategyTag 'hoopshot.ladder'",
                id="tag-module-name",
            ),
            pytest.param(
                lambda stage: stage.update(panels=[]),
                "stages[1]: stage has no panels",
                id="no-panels",
            ),
            pytest.param(
                lambda stage: stage.update(caption=""),
                "stages[1]: stage has no caption",
                id="empty-caption",
            ),
            pytest.param(
                lambda stage: stage["panels"][0].update(y_range=[7, 7]),
                "stages[1].panels[0]: bad y_range (7.0, 7.0)",
                id="empty-range",
            ),
        ],
    )
    def test_bad_value_is_named_by_its_key_path(self, basketball, break_stage, message):
        doc = json.loads(ladder_to_json(basketball[0]))
        break_stage(doc["stages"][1])
        with pytest.raises(ValueError) as raised:
            ladder_from_json(json.dumps(doc))
        assert str(raised.value).startswith(message)


def json_dumps_form(spec) -> str:
    """The oracle of ladder_to_json: its document, each pair a list,
    through json.dumps(indent=2, sort_keys=True)."""
    doc = {
        "stages": [
            {
                "id": n,
                "panels": [p._asdict() for p in stage.panels],
                "roles_used": sorted(stage.roles_used),
                "tags": sorted(stage.tags),
                "caption": stage.caption,
            }
            for n, stage in enumerate(spec.stages, 1)
        ]
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# quotes, backslashes, control characters, non-ASCII text (a lone
# surrogate and characters above U+FFFF too) and brackets, besides any
# text, and printable ASCII, which ladder_to_json writes without json
names = st.one_of(
    st.text(st.characters(exclude_categories=()), min_size=1, max_size=12),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=12),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t", "é – ✓ 😀", "\ud800", "[]{}", '"],["',
                     "\U0010ffff\U00010000", "a~ b", "\x7f"]),
)
TAGS = (
    StrategyTag.DEFINE_ABSTRACT_SPACE,
    StrategyTag.MODELED_OR_OPTIMIZED_VALUES,
    StrategyTag.EXPAND_SAMPLING,
    StrategyTag.UNFIX_PARAMETER,
)
range_ends = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e16, 0.1]),
)


def ordered(ends):
    """Two ends in order, lo < hi: where they are equal, one moves an ulp
    toward zero (off 0.0, up).  Every range can be drawn, and none is
    filtered out, so no example is rejected (a filter of lo < hi rejected
    about half of all pairs, and at times a whole example)."""
    lo, hi = sorted(ends)
    return (lo, hi) if lo < hi else tuple(sorted((lo, math.nextafter(lo, 0.0 if lo else 1.0))))


ranges = st.tuples(range_ends, range_ends).map(ordered)
plot_spaces = st.builds(
    PlotSpace, st.tuples(names, names), st.tuples(names, names), ranges, ranges
)
stages = st.builds(
    Stage,
    st.lists(plot_spaces, min_size=1, max_size=3).map(tuple),
    st.frozensets(st.sampled_from(ROLE_RANKS)),
    st.frozensets(st.sampled_from(TAGS)),
    names,
)
specs = st.lists(stages, min_size=1, max_size=5).map(lambda s: LadderSpec(tuple(s)))


class TestSchemaWriter:
    """ladder_to_json writes its fixed schema itself; json.dumps of the
    document is its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(spec=specs)
    @example(spec=LadderSpec((simple_stage(()),)))  # no roles: an empty list
    def test_the_text_of_json_dumps(self, spec):
        text = ladder_to_json(spec)
        assert text == json_dumps_form(spec)
        assert ladder_from_json(text) == spec

    def test_every_character_below_u0100_is_quoted_as_json_dumps_quotes_it(self):
        for code in range(0x100):
            for text in (chr(code), f"a{chr(code)}b"):
                stage = simple_stage((), panels=(space(name=text),)).replace(caption=text)
                spec = LadderSpec((stage,))
                assert ladder_to_json(spec) == json_dumps_form(spec)

    @pytest.mark.parametrize(
        "kwargs", [{}, *(kw for kw, _ in PINNED_SETS.values())], ids=["defaults", *PINNED_SETS]
    )
    def test_every_built_and_read_spec(self, kwargs):
        spec, _ = build_basketball_ladder(**kwargs)
        read = ladder_from_json(ladder_to_json(spec))
        assert ladder_to_json(spec) == json_dumps_form(spec) == ladder_to_json(read)

    def test_int_and_bool_range_ends_are_written_as_floats(self):
        # each range end is written as the float it equals, which reads
        # back equal; json.dumps would write 0, 10, false and true
        def one_panel(x_range, y_range):
            panel = space(x_range=x_range, y_range=y_range)
            return LadderSpec((simple_stage({ColorRole.BASELINE}, panels=(panel,)),))

        spec = one_panel((0, 10), (False, True))
        text = ladder_to_json(spec)
        assert text == json_dumps_form(one_panel((0.0, 10.0), (0.0, 1.0))) != json_dumps_form(spec)
        assert ladder_from_json(text) == spec
        # a library caller's int grid gives an int distance range
        spec, _ = build_basketball_ladder(d_grid=(1, 1, 3))
        assert '"x_range": [\n            1.0,\n            3.0\n' in ladder_to_json(spec)

"""Basketball-shot model and ladder-of-abstraction figure builder.

Computes trajectories, the speed required to reach the hoop at a given
angle, the angle minimizing that speed, and parameter sweeps; encodes
the accompanying figure sequence as a validated ladder spec and renders
it to deterministic SVG.

The names in `__all__` are loaded from their submodule on first use
(PEP 562), so `import hoopshot` alone imports no submodule and only
code that touches the renderer pays for it.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "kinematics": """Infeasible LaunchState ShotParams Trajectory VerticalShot
        height_at_plane position_at sample_trajectory time_to_plane""",
    "solver": """AngleCurve InfeasibleAngle Optimum OptimumCurve VelocityRequirement
        angle_curve feasibility_angle optimal_angle required_velocity
        sweep_altitudes sweep_csv sweep_distance""",
    "ladder": """ColorRole LadderSpec PlotSpace Stage StrategyTag Violation
        ViolationKind ladder_from_json ladder_to_json validate_ladder""",
    "figures": "build_basketball_ladder",
    "render": """LayoutError LinearScale Mark Panel Scene Style export_figures
        render_svg scale_map""",
}
# exported name -> the submodule that defines it
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names.split()
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

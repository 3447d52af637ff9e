"""The package's public names."""
import tunnelkit

PUBLIC = {
    "__version__",
    "ActionResult", "BiasedQuartic", "ConfigError",
    "DEFAULT_CONSTANTS", "DegenerateBarrier", "DomainError", "DomainTooSmall",
    "DoubleOscillator", "EnergyAboveBarrier", "EnergyBelowWellBottom",
    "FewerThanTwoMinima", "FitIllConditioned", "GridSpec", "GridTooCoarse",
    "K_FIRST_ORDER", "LambdaOutOfRange", "LevelShifts", "Mirrored",
    "NonConvexMinimum", "NumericsError", "PhysConstants", "Polynomial",
    "QuadratureNonConvergence", "QuantizationResult", "RegimeError",
    "RootNotBracketed", "RunConfig", "Spectrum", "SplittingResult", "SweepSpec",
    "Tolerances", "TunnelkitError", "ValidityThresholds", "WellAnalysis",
    "WellStructureError",
    "action_slope", "adaptive_quadrature", "analyze",
    "compute_splitting", "default_grid", "delta_first_order",
    "double_oscillator_action", "eigen_lowest_two", "evaluate",
    "evaluate_action", "f_of_zeta", "g_of_zeta",
    "gamow_integral", "level_shifts", "level_splitting", "load_config", "mirror",
    "panel_quadrature", "parse_config",
    "solve_quantization", "turning_points",
}


def test_each_public_name_is_listed_once_and_resolves():
    # The top-level list joins the modules' lists, so a name listed by two
    # modules would appear twice.
    assert sorted(tunnelkit.__all__) == sorted(PUBLIC)
    namespace = {}
    exec("from tunnelkit import *", namespace)
    for name in tunnelkit.__all__:
        assert namespace[name] is getattr(tunnelkit, name), name

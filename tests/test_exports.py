import selfimprove

REMOVED = ("error_functional_limit", "improvement_margin_limit",
           "scan_feasible_region", "scan_improvement_region",
           "MapSpec", "map_spec", "eval_map", "Trajectory", "iterate_baseline",
           "iterate_curriculum", "write_trajectory_csv", "ThresholdCurve",
           "error_functional", "improvement_margin", "baseline_error_term",
           "ScanResult", "ValidityReport", "write_panel_csv", "write_simulation_csv",
           "DerivedConstants", "derive_constants", "improvement_threshold",
           "collapse_budget", "baseline_half_error_budget", "max_improving_nu",
           "max_improving_nu_profile", "threshold_curve", "run_scan", "run_selfimprove")


def test_every_export_resolves_once():
    names = selfimprove.__all__
    assert len(names) == len(set(names)) == 33
    missing = [name for name in names if not hasattr(selfimprove, name)]
    assert missing == []


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in selfimprove.__all__
        assert not hasattr(selfimprove, name)

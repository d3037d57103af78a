from qclass import verify

# Check ids of every suite, in report order: the set that `qclass verify`
# promises to keep.
CHECK_IDS = {
    "su2": ["cg_pinned_values", "cg_orthonormality", "w6j_pinned_values",
            "w6j_orthogonality", "recoupling_unitarity", "recoupling_pinned_values",
            "multiplicity_dimension_sum"],
    "blocks": ["weights_normalized", "pure_source_collapse", "jz_expectation_pinned",
               "equal_momentum_identity", "coupled_jz_pinned", "pure_difference_norms",
               "distribution_peak", "distribution_mass"],
    "machines": ["lm_equals_opt_n1_20", "n1_anchor_values", "machine_ordering",
                 "ed_finite_beats_continuous_n1", "reversed_pinned_values", "gamma_trace_norm",
                 "memory_bound_values", "unbalanced_reduces_to_balanced",
                 "excess_risk_factor_two"],
    "mixed": ["n1_lm_equals_opt", "n2_worst_gap_abs", "n2_worst_gap_rel",
              "gamma_matches_conditioning", "block_probabilities_normalized",
              "pure_limit_reduction", "spectral_norm_route", "asymptotic_robustness_trend",
              "unbalanced_scale_factor", "unbalanced_delta_independence"],
    "oracle": ["haar_isotropy", "haar_pair_distance", "rng_determinism", "dense_pure_errors",
               "dense_mixed_errors", "averaged_state_covariance", "simulation_mc_n1",
               "simulation_quadrature_n1", "ed_four_outcomes", "ed_continuous_quadrature",
               "ed_no_information", "ppt_property", "partial_transpose_product"],
}


def test_all_suites_pass_with_their_check_ids():
    report = verify.run_suites(list(verify.SUITES), seed=7)
    failed = [(s["suite"], c["id"]) for s in report["suites"] for c in s["checks"]
              if not c["pass"]]
    assert report["pass"] and not failed, failed
    got = {s["suite"]: [c["id"] for c in s["checks"]] for s in report["suites"]}
    assert got == CHECK_IDS
    assert [len(ids) for ids in got.values()] == [7, 8, 9, 10, 13]
    assert sum(map(len, got.values())) == 47

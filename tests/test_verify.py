import pytest

from pitmanyor.constants import TOL_TRUNCATED
from pitmanyor.verify import default_parameter_grid, run_suite


def names(report):
    return {c["name"] for c in report["checks"]}


class TestParameterGrid:
    def test_grid_contents(self):
        grid = default_parameter_grid()
        assert len(grid) == 17
        assert all(p.alpha > -p.d for p in grid)


class TestSuites:
    def test_normalization_passes(self):
        report = run_suite("normalization")
        assert report["passed"] and len(report["checks"]) == 17

    def test_lemma_c_passes(self):
        report = run_suite("lemmaC")
        assert report["passed"]

    def test_lemma_d_passes(self):
        report = run_suite("lemmaD")
        assert report["passed"]
        assert all(c["monotone"] and c["below_limit"] for c in report["checks"])

    def test_lemma_e_passes_small_trials(self):
        report = run_suite("lemmaE", trials=50_000)
        assert report["passed"]

    def test_prop_a_passes(self):
        report = run_suite("propA")
        assert report["passed"]
        assert "allocation_marginal_oracle" in names(report)
        assert "allocation_truncated_normalization" in names(report)

    def test_prop_a_heavy_discount_is_honestly_red(self):
        # at (1, 0.5) only ~0.91 of the n=2 mass sits below label 60, so the
        # 0.99 target cannot be met there; the suite must say so, not hide it
        report = run_suite("propA", alpha=1.0, d=0.5)
        norm = [c for c in report["checks"]
                if c["name"] == "allocation_truncated_normalization"][0]
        assert not norm["passed"]
        assert norm["monotone"]
        assert 0.90 < norm["partial_sums"][-1] < 0.92

    def test_lemma_b_reports_known_truncation_failure(self):
        # at max_label 60 the rebuilt values match the mass the truncation
        # keeps, while the reported deficit against the full law stays large
        report = run_suite("lemmaB")
        by_name = {c["name"]: c for c in report["checks"]}
        nominal = by_name["lemma_b_bridge_at_60"]
        converged = by_name["lemma_b_bridge_converged"]
        assert nominal["passed"] and nominal["below_law"]
        assert nominal["mass_error"] <= 1e-4
        assert 0.05 < nominal["max_deficit"] < 0.2
        assert 0.1 < nominal["omitted_mass"] < 0.2
        assert converged["passed"]
        assert converged["max_deficit"] <= 1e-4
        assert report["passed"]

    def test_lemma_b_converged_fails_only_on_deficit_at_heavy_discount(self):
        # documented limitation: at d = 0.7 the omitted mass decays like
        # max_label^(-3/7), so 1e5 labels leave a deficit of about 0.02
        report = run_suite("lemmaB", alpha=0.3, d=0.7)
        by_name = {c["name"]: c for c in report["checks"]}
        nominal = by_name["lemma_b_bridge_at_60"]
        converged = by_name["lemma_b_bridge_converged"]
        assert nominal["passed"]
        assert not converged["passed"]
        assert converged["below_law"]
        assert converged["mass_error"] <= TOL_TRUNCATED
        assert 0.01 < converged["max_deficit"] < 0.05
        assert report["failures"] == 1

    def test_equivalence_small_trials(self):
        report = run_suite("equivalence", trials=40_000)
        assert report["passed"]

    def test_single_point_override(self):
        report = run_suite("normalization", alpha=1.0, d=0.5)
        assert report["passed"] and len(report["checks"]) == 1

    def test_override_requires_both(self):
        with pytest.raises(ValueError):
            run_suite("normalization", alpha=1.0)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_reports_are_deterministic(self):
        a = run_suite("lemmaE", trials=20_000, seed=5)
        b = run_suite("lemmaE", trials=20_000, seed=5)
        assert a == b

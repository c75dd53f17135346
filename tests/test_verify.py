import hashlib
import json
import threading
from functools import partial

import numpy as np
import pytest
import reference
from scipy import stats

from pitmanyor import verify
from pitmanyor.constants import DEFAULT_SEED, TOL_TRUNCATED
from pitmanyor.verify import default_parameter_grid, run_suite

# every check that is not a sampler TV check, in suite order
IDENTITY_CHECKS = (
    "check_normalization",
    "check_sequential_identity",
    "check_dp_limit",
    "check_lemma_b_bridge",
    "check_lemma_c",
    "check_lemma_d",
    "check_beta_moment_exact",
    "check_beta_moment_mc",
    "check_allocation_marginal_oracle",
    "check_allocation_truncated_normalization",
    "check_growth",
)

# sha256 of their records at DEFAULT_SEED, as sorted-key JSON, recorded with
# the scalar allocation loop, the sub-multiset label sums and lemma E's
# gamma-ratio draws with the law's standard error (x86-64 Linux, numpy 2.4)
IDENTITY_RECORDS_SHA256 = "d573bd029eb3b6bd46132dbc28a34b95793b1a82ce0f539209bdb56556fa9380"

# sha256 of the whole `run_suite("all", trials=20_000)` report at DEFAULT_SEED,
# as sorted-key JSON: 70 records, the sampler TV, determinism and lemma E
# records among them, lemma E's from gamma-ratio draws with the law's
# standard error (x86-64 Linux, numpy 2.4)
ALL_SUITE_SHA256 = "06a36e1e909c30f3a07265d54f493c3b952e07cfd08068c81c6d26509b4893d2"


def names(report):
    return {c["name"] for c in report["checks"]}


class TestParameterGrid:
    def test_grid_contents(self):
        grid = default_parameter_grid()
        assert len(grid) == 17
        assert all(p.alpha > -p.d for p in grid)


class TestSuites:
    def test_identity_records_are_pinned(self):
        records = [r for name in IDENTITY_CHECKS for r in getattr(verify, name)(seed=DEFAULT_SEED)]
        blob = json.dumps(records, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == IDENTITY_RECORDS_SHA256

    def test_all_suite_report_is_pinned(self):
        report = run_suite("all", trials=20_000)
        assert len(report["checks"]) == 70
        blob = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == ALL_SUITE_SHA256

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

    def test_prop_a_checks_the_dirichlet_case(self):
        # d = 0 runs both checks: labels are geometric, so 60 hold the mass
        report = run_suite("propA", alpha=1.0, d=0.0)
        assert report["passed"]
        oracle, norm = report["checks"]
        assert oracle["max_abs_error"] <= oracle["tolerance"]
        assert norm["monotone"] and norm["partial_sums"][-1] >= 0.99
        assert not any("skipped" in c for c in report["checks"])

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

    @pytest.mark.parametrize("suite", ["lemmaC", "lemmaD", "lemmaE"])
    def test_override_on_fixed_config_suite_is_rejected(self, suite):
        # these suites run fixed configs, so a report echoing the override
        # would name a config none of its records ran at
        with pytest.raises(ValueError, match="runs fixed configs"):
            run_suite(suite, alpha=1.0, d=0.5)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_reports_are_deterministic(self):
        a = run_suite("lemmaE", trials=20_000, seed=5)
        b = run_suite("lemmaE", trials=20_000, seed=5)
        assert a == b


# every check that reads both alpha and d
OVERRIDE_CHECKS = {
    "normalization": verify.check_normalization,
    "sequential_identity": verify.check_sequential_identity,
    "stick_tv": partial(verify.check_sampler_law_tv, "stick"),
    "crp_tv": partial(verify.check_sampler_law_tv, "crp"),
    "lemma_b_bridge": verify.check_lemma_b_bridge,
    "allocation_marginal_oracle": verify.check_allocation_marginal_oracle,
    "allocation_truncated_normalization": verify.check_allocation_truncated_normalization,
}


@pytest.mark.parametrize("override", [{"alpha": 1.0}, {"d": 0.5}], ids=str)
@pytest.mark.parametrize("check", OVERRIDE_CHECKS.values(), ids=OVERRIDE_CHECKS.keys())
def test_one_sided_override_is_rejected(check, override):
    with pytest.raises(ValueError, match="alpha and d must be given together"):
        check(**override, trials=20)


class TestBetaMomentMonteCarlo:
    CHUNK = verify._CHUNK

    # trial counts around the draw chunk, on one worker and on one per config
    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("seed", [0, 7, DEFAULT_SEED])
    @pytest.mark.parametrize("trials", [2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_threaded_records_equal_the_serial_check(self, monkeypatch, trials, seed, cpus):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        threads = threading.active_count()
        got = verify.check_beta_moment_mc(trials=trials, seed=seed)
        assert threading.active_count() == threads
        want = reference.check_beta_moment_mc(trials, seed)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("trials", [1, 0])
    def test_rejects_fewer_than_two_trials(self, trials):
        with pytest.raises(ValueError, match=f"trials must be >= 2, got {trials}"):
            verify.check_beta_moment_mc(trials=trials)

    def test_few_trials_rarely_fail(self):
        # with the law's standard error a correct sampler fails about as
        # often as the ledger budgets (under 1%); with the sample standard
        # deviation of 10 draws, often far too small, 49 of these seeds fail
        failing = [
            seed
            for seed in range(200)
            if not all(r["passed"] for r in verify.check_beta_moment_mc(trials=10, seed=seed))
        ]
        assert len(failing) <= 4, failing

    # The moment check cannot tell Beta(a, b) from Beta(b, a) at (2, 3, 1, 1),
    # where E[y (1 - y)] is symmetric in the shapes, so the draws are tested
    # in law: a KS test of the first 2e5 variates of the check's own streams
    # at DEFAULT_SEED, which a correct sampler fails with probability 1e-3
    # per config at a random seed.
    @pytest.mark.parametrize("idx", range(len(verify.BETA_MOMENT_CONFIGS)))
    def test_draws_follow_the_beta_law(self, idx):
        a, b, _, _ = verify.BETA_MOMENT_CONFIGS[idx]
        seeds = np.random.SeedSequence([DEFAULT_SEED, 11, idx]).spawn(2)
        draws = verify._beta_draws(a, b, *map(np.random.default_rng, seeds), 200_000)
        assert stats.kstest(draws, stats.beta(a, b).cdf).pvalue > 1e-3


class TestSamplerLawTv:
    @pytest.mark.parametrize("sampler", ["stick", "crp"])
    @pytest.mark.parametrize("trials", [1, 0])
    def test_rejects_fewer_than_two_trials(self, sampler, trials):
        with pytest.raises(ValueError, match=f"trials must be >= 2, got {trials}"):
            verify.check_sampler_law_tv(sampler, trials=trials)

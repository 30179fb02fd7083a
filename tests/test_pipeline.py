"""Tests for the end-to-end experiment pipeline."""

import pytest

from repro.pipeline import ExperimentOptions, evaluate_corpus, evaluate_suite
from repro.power.breakdown import EnergyBreakdown
from repro.workloads import build_corpus, spec_profile

SCALE = 0.02  # ~8 loops per benchmark: fast but non-trivial


@pytest.fixture(scope="module")
def sixtrack_eval():
    corpus = build_corpus(spec_profile("sixtrack"), scale=SCALE)
    return evaluate_corpus(corpus)


class TestEvaluateCorpus:
    def test_heterogeneity_wins_for_recurrence_bound(self, sixtrack_eval):
        assert sixtrack_eval.ed2_ratio < 0.95

    def test_baseline_no_worse_than_reference(self, sixtrack_eval):
        assert (
            sixtrack_eval.baseline_measured.ed2
            <= sixtrack_eval.reference_measured.ed2 * (1 + 1e-9)
        )

    def test_selected_point_heterogeneous(self, sixtrack_eval):
        assert sixtrack_eval.heterogeneous_selection.slow_ratio > 1

    def test_ratios_consistent(self, sixtrack_eval):
        ev = sixtrack_eval
        assert ev.ed2_ratio == pytest.approx(
            ev.energy_ratio * ev.time_ratio**2, rel=1e-9
        )

    def test_profile_matches_corpus(self, sixtrack_eval):
        assert len(sixtrack_eval.profile) >= 4
        shares = sixtrack_eval.profile.time_share_by_constraint_class()
        assert shares["recurrence"] > 0.9  # sixtrack is ~100% recurrence

    def test_units_normalised(self, sixtrack_eval):
        # The reference execution must meter to ~1.0 by construction.
        assert sixtrack_eval.reference_measured.energy.total == pytest.approx(
            1.0, rel=1e-6
        )


class TestOptions:
    def test_two_bus_machine_runs(self):
        corpus = build_corpus(spec_profile("sixtrack"), scale=SCALE)
        ev = evaluate_corpus(corpus, ExperimentOptions(n_buses=2))
        assert ev.ed2_ratio < 1.0

    def test_breakdown_sweep_runs(self):
        corpus = build_corpus(spec_profile("swim"), scale=SCALE)
        breakdown = EnergyBreakdown.paper_baseline().with_shares(0.2, 0.25)
        ev = evaluate_corpus(corpus, ExperimentOptions(breakdown=breakdown))
        assert 0.5 < ev.ed2_ratio < 1.2

    def test_uniform_energy_mode(self):
        corpus = build_corpus(spec_profile("swim"), scale=SCALE)
        ev = evaluate_corpus(corpus, ExperimentOptions(per_class_energy=False))
        assert 0.5 < ev.ed2_ratio < 1.2


class TestEvaluateSuite:
    def test_suite_aggregation(self):
        corpora = [
            build_corpus(spec_profile("sixtrack"), scale=SCALE),
            build_corpus(spec_profile("swim"), scale=SCALE),
        ]
        suite = evaluate_suite(corpora)
        assert len(suite) == 2
        ratios = [e.ed2_ratio for e in suite]
        assert suite.mean_ed2_ratio == pytest.approx(sum(ratios) / 2)
        assert set(suite.by_benchmark()) == {"200.sixtrack", "171.swim"}

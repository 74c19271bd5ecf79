"""Sweep layer: per-overlap reports, the verdict boundary, report rows."""

from __future__ import annotations

import json
import math
import re
import types
from fractions import Fraction

import numpy as np
import pytest

from locc_audit import (
    DegenerateOverlapError,
    InternalInconsistencyError,
    NonMonotoneBoundaryError,
    REPORT_FIELDS,
    SweepRangeError,
    Verdict,
    apply_cloner,
    build_initial,
    classify_block,
    classify_construction,
    expand,
    find_threshold,
    grid,
    no_deleting_check,
    report_row,
    schmidt_vector,
)
import locc_audit.sweep as sweep_module
from locc_audit.cli import main
from locc_audit.sweep import sweep

# the root of the forward gap's factor p, to 20 places (see
# tests/test_witness_algebra.py)
ROOT = Fraction("0.52716537465516541709")


class TestClassifyConstruction:
    def test_high_overlap_is_incomparable(self):
        report = classify_construction(0.9)
        assert report.verdict is Verdict.INCOMPARABLE
        assert report.paper_claim_upheld is True
        assert report.forward_blocked is True
        assert report.backward_blocked is True

    def test_half_overlap_is_forward_only(self):
        report = classify_construction(0.5)
        assert report.verdict is Verdict.FORWARD_ONLY
        assert report.paper_claim_upheld is False
        assert report.forward_blocked is False
        assert report.backward_blocked is True

    def test_half_overlap_exact_partial_sums(self):
        # initial (17/47, 15/47, 15/47) against final (35/95, 33/95, 27/95)
        li = (Fraction(17, 47), Fraction(15, 47), Fraction(15, 47))
        lf = (Fraction(35, 95), Fraction(33, 95), Fraction(27, 95))
        assert li[0] <= lf[0]
        assert li[0] + li[1] <= lf[0] + lf[1]

    def test_spectra_match_closed_forms(self):
        report = classify_construction(0.5)
        assert report.initial_spectrum == pytest.approx(
            (17 / 47, 15 / 47, 15 / 47), abs=1e-15
        )
        assert report.final_spectrum == pytest.approx(
            (35 / 95, 33 / 95, 27 / 95), abs=1e-15
        )

    def test_endpoint_rejected(self):
        with pytest.raises(DegenerateOverlapError):
            classify_construction(1.0)

    def test_first_bad_overlap_in_list_order_is_named(self):
        with pytest.raises(DegenerateOverlapError, match="alpha=1.0 is degenerate"):
            classify_block([0.5, 1.0, 1.5])
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\], got 1.5"):
            classify_block([0.5, 1.5, 0.0])

    def test_the_row_at_R_is_incomparable(self):
        below = math.nextafter(sweep_module.R, 0.0)
        assert below == 0.5271653746551653
        block = classify_block([below, sweep_module.R])
        assert [r.verdict for r in block.reports()] == [
            Verdict.FORWARD_ONLY,
            Verdict.INCOMPARABLE,
        ]

    def test_overlaps_may_come_from_an_iterator(self):
        alphas = [0.2, Fraction(1, 2), 0.9]
        assert classify_block(iter(alphas)).reports() == classify_block(alphas).reports()
        # numpy doubles are floats: they pass the gate as Python floats do
        doubles = np.array([0.2, 0.5, 0.9])
        assert classify_block(doubles).reports() == classify_block(alphas).reports()


class TestSweep:
    def test_the_package_attribute_is_the_module(self):
        # attribute writes through this name (monkeypatch) must reach the
        # module, so the package must not bind its sweep function there
        import locc_audit.sweep as m

        assert isinstance(m, types.ModuleType)
        assert m.sweep is sweep

    def test_default_grid_rows(self):
        reports = sweep(0.01, 0.99, 99)
        assert len(reports) == 99
        alphas = [r.alpha for r in reports]
        assert alphas == sorted(alphas)
        assert alphas[0] == pytest.approx(0.01)
        assert alphas[-1] == pytest.approx(0.99)
        assert all(r.backward_blocked for r in reports)
        assert all(
            r.verdict in (Verdict.FORWARD_ONLY, Verdict.INCOMPARABLE)
            for r in reports
        )

    def test_high_band_all_incomparable(self):
        reports = sweep(0.6, 0.99, 40)
        assert all(r.verdict is Verdict.INCOMPARABLE for r in reports)

    def test_degenerate_range_rejected(self):
        with pytest.raises(SweepRangeError):
            sweep(0.5, 0.5, 2)

    def test_too_few_steps_rejected(self):
        with pytest.raises(SweepRangeError):
            sweep(0.1, 0.9, 1)

    @pytest.mark.parametrize("lo,hi", [(0.0, 0.5), (0.5, 1.0), (-0.2, 0.5)])
    def test_out_of_interval_rejected(self, lo, hi):
        with pytest.raises(SweepRangeError):
            sweep(lo, hi, 10)

    def test_claim_flag_is_monotone_on_the_grid(self):
        flags = [r.paper_claim_upheld for r in sweep(0.01, 0.99, 99)]
        switches = sum(1 for x, y in zip(flags, flags[1:]) if x != y)
        assert switches == 1
        assert flags[0] is False
        assert flags[-1] is True

    def test_entropy_consistency(self):
        for r in sweep(0.01, 0.99, 99):
            if r.verdict is Verdict.FORWARD_ONLY:
                assert r.entropy_initial >= r.entropy_final - 1e-9

    def test_deterministic(self):
        a = [report_row(r) for r in sweep(0.2, 0.8, 25)]
        b = [report_row(r) for r in sweep(0.2, 0.8, 25)]
        assert a == b


class TestFindThreshold:
    def test_locates_the_boundary(self):
        res = find_threshold(0.3, 0.9, 1e-10)
        lo, hi = res.bracket
        assert hi - lo <= 1e-10
        assert lo <= res.alpha_star <= hi
        assert 0.50 < res.alpha_star < 0.60

    def test_reproducible(self):
        a = find_threshold(0.3, 0.9, 1e-10)
        b = find_threshold(0.3, 0.9, 1e-10)
        assert a == b

    @pytest.mark.parametrize("tol", [10.0 ** -k for k in range(6, 16)])
    def test_lands_within_tol_of_the_root(self, tol):
        res = find_threshold(0.3, 0.9, tol)
        lo, hi = res.bracket
        assert hi - lo <= tol
        assert lo < sweep_module.R <= hi
        assert abs(Fraction(res.alpha_star) - ROOT) <= tol

    def test_below_double_spacing_stops_at_the_adjacent_pair(self):
        res = find_threshold(0.3, 0.9, 1e-17)
        assert res.bracket == (0.5271653746551653, sweep_module.R)
        assert math.nextafter(res.bracket[0], 1.0) == res.bracket[1]

    def test_no_change_in_window_rejected(self):
        with pytest.raises(NonMonotoneBoundaryError):
            find_threshold(0.7, 0.9, 1e-10)

    def test_window_starting_at_R_has_no_change(self):
        # R itself is Incomparable, so the window holds one verdict
        with pytest.raises(NonMonotoneBoundaryError):
            find_threshold(sweep_module.R, 0.9, 1e-8)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(SweepRangeError):
            find_threshold(0.3, 0.9, 0.0)

    def test_bad_window_rejected(self):
        with pytest.raises(SweepRangeError):
            find_threshold(0.9, 0.3, 1e-10)


class TestNoDeleting:
    # 8e-6 and 0.999999 lie where the backward gap is within 1e-10 of zero
    @pytest.mark.parametrize("alpha", [8e-6, 0.05, 0.5, 0.9, 0.999999])
    def test_backward_conversion_blocked(self, alpha):
        assert no_deleting_check(alpha) is True

    def test_endpoint_rejected(self):
        with pytest.raises(DegenerateOverlapError):
            no_deleting_check(0.0)


class TestReportRow:
    def test_schema_fields(self):
        row = report_row(classify_construction(0.5))
        assert tuple(row.keys()) == REPORT_FIELDS

    def test_row_values(self):
        row = report_row(classify_construction(0.5))
        assert row["alpha"] == 0.5
        assert row["verdict"] == "ForwardOnly"
        assert row["li1"] == pytest.approx(17 / 47, abs=1e-15)
        assert row["lf1"] == pytest.approx(35 / 95, abs=1e-15)
        assert row["forward_blocked"] is False
        assert row["backward_blocked"] is True
        assert row["paper_claim_upheld"] is False


class TestGrid:
    def test_inclusive_endpoints(self):
        pts = grid(0.1, 0.9, 5)
        assert pts[0] == pytest.approx(0.1)
        assert pts[-1] == pytest.approx(0.9)
        assert len(pts) == 5


class TestCrossCheck:
    """The numeric route runs once per list of overlaps; a disagreement must
    still name the first overlap, in list order, where the routes differ."""

    @staticmethod
    def corrupt_rows_at(monkeypatch, targets, change):
        # change(row) edits the (2, 3) closed-form row of each target alpha
        real = sweep_module.closed_form_rows

        def closed_form_rows(alphas):
            alphas = list(alphas)
            rows = real(alphas)
            for alpha, row in zip(alphas, rows):
                if alpha in targets:
                    change(row)
            return rows

        monkeypatch.setattr(sweep_module, "closed_form_rows", closed_form_rows)

    @classmethod
    def corrupt_closed_form_at(cls, monkeypatch, targets):
        # the final spectrum reads as the initial one: verdict Equivalent
        def final_as_initial(row):
            row[1] = row[0]

        cls.corrupt_rows_at(monkeypatch, targets, final_as_initial)

    @classmethod
    def corrupt_initial_lam1_at(cls, monkeypatch, targets):
        # only the initial side is off, by far more than ROUTE_GAP
        def shift(row):
            row[0, 0] += 1e-9

        cls.corrupt_rows_at(monkeypatch, targets, shift)

    @staticmethod
    def expected_error(alpha) -> str:
        # a pattern: the gap is how far the corrupted weights lie from the
        # numeric ones, far above ROUTE_GAP
        return (
            re.escape(f"alpha={alpha}: closed-form and numeric weights differ by ")
            + r"[0-9.e+-]+, more than 1e-12"
        )

    def test_grid_disagreement_names_the_first_alpha(self, monkeypatch, capsys):
        points = grid(0.01, 0.99, 99)
        # two disagreements in different blocks: the earlier one is reported
        monkeypatch.setattr(sweep_module, "CROSS_CHECK_BLOCK", 10)
        self.corrupt_closed_form_at(monkeypatch, {points[37], points[55]})
        message = self.expected_error(points[37])
        with pytest.raises(InternalInconsistencyError, match=message):
            sweep(0.01, 0.99, 99)
        capsys.readouterr()
        assert main(["paper-verify"]) == 1
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)

    @staticmethod
    def threshold_midpoints(monkeypatch) -> list:
        # the overlaps find_threshold(0.3, 0.9, 1e-8) cross-checks after
        # its scan points, in order
        seen = []
        real = sweep_module.closed_form_rows

        def spy(alphas):
            seen.extend(alphas)
            return real(alphas)

        with monkeypatch.context() as patch:
            patch.setattr(sweep_module, "closed_form_rows", spy)
            find_threshold(0.3, 0.9, 1e-8)
        midpoints = seen[sweep_module.SCAN_POINTS:]
        assert len(midpoints) > 5
        return midpoints

    def test_bisection_midpoint_disagreement_is_named(self, monkeypatch, capsys):
        target = self.threshold_midpoints(monkeypatch)[5]
        self.corrupt_closed_form_at(monkeypatch, {target})
        message = self.expected_error(target)
        with pytest.raises(InternalInconsistencyError, match=message):
            find_threshold(0.3, 0.9, 1e-8)
        capsys.readouterr()
        argv = ["threshold", "--lo", "0.3", "--hi", "0.9", "--tol", "1e-8"]
        assert main(argv) == 1
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)

    @pytest.mark.parametrize("lo, hi, k", [(0.3, 0.9, 40), (0.7, 0.9, 10)],
                             ids=["crossing", "no-crossing"])
    def test_scan_point_disagreement_is_named(self, lo, hi, k, monkeypatch, capsys):
        # a window without a crossing is cross-checked before its exit 5
        target = float(np.linspace(lo, hi, sweep_module.SCAN_POINTS)[k])
        self.corrupt_closed_form_at(monkeypatch, {target})
        message = self.expected_error(target)
        with pytest.raises(InternalInconsistencyError, match=message):
            find_threshold(lo, hi, 1e-8)
        capsys.readouterr()
        assert main(["threshold", "--lo", str(lo), "--hi", str(hi)]) == 1
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)

    def test_initial_side_disagreement_is_named_on_the_grid(self, monkeypatch, capsys):
        target = grid(0.01, 0.99, 99)[61]
        self.corrupt_initial_lam1_at(monkeypatch, {target})
        capsys.readouterr()
        assert main(["paper-verify"]) == 1
        message = self.expected_error(target)
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)

    def test_initial_side_disagreement_is_named_at_a_midpoint(self, monkeypatch, capsys):
        target = self.threshold_midpoints(monkeypatch)[7]
        self.corrupt_initial_lam1_at(monkeypatch, {target})
        capsys.readouterr()
        argv = ["threshold", "--lo", "0.3", "--hi", "0.9", "--tol", "1e-8"]
        assert main(argv) == 1
        message = self.expected_error(target)
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)

    def test_closed_form_fault_is_internal_not_input(self, monkeypatch, capsys):
        # computed weights pass no input gate: final weights that sum to 2
        # are a fault of the program, which the cross-check reports (exit
        # 1), not malformed input (exit 2)
        target = grid(0.01, 0.99, 99)[42]

        def doubled(row):
            row[1] *= 2

        self.corrupt_rows_at(monkeypatch, {target}, doubled)
        capsys.readouterr()
        assert main(["paper-verify"]) == 1
        message = self.expected_error(target)
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)

    def test_no_deleting_check_is_cross_checked(self, monkeypatch):
        self.corrupt_closed_form_at(monkeypatch, {0.5})
        message = self.expected_error(0.5)
        with pytest.raises(InternalInconsistencyError, match=message):
            no_deleting_check(0.5)

    def test_fine_tolerance_threshold_passes_the_cross_check(self, capsys):
        # the midpoints reach the 1e-10 tolerance edge, where verdicts from
        # weights an ulp apart differ; the weights themselves agree
        capsys.readouterr()
        argv = ["threshold", "--lo", "0.3", "--hi", "0.9", "--tol", "1e-15"]
        assert main(argv) == 0
        lo, hi = json.loads(capsys.readouterr().out)["bracket"]
        assert lo < hi
        assert hi - lo <= 1e-15 or math.nextafter(lo, 1.0) == hi

    def test_gram_route_agrees_with_one_state_route(self):
        # the Gram route against the singular values of the expanded state
        alphas = [float(a) for a in np.linspace(1e-4, 1 - 1e-4, 199)]
        alphas += [8e-6, 0.5271653750094808, 0.9999995]
        stacked = sweep_module._numeric_spectra(alphas)
        assert stacked.shape == (len(alphas), 2, 3)
        for alpha, got in zip(alphas, stacked.tolist()):
            pre = build_initial(alpha)
            for state, weights in zip((pre, apply_cloner(pre)), got):
                want = schmidt_vector(expand(state))
                assert np.abs(np.subtract(weights, want)).max() <= 1e-14

import numpy as np
import pytest

from patchep.metrics import CoverageReport, coverage, psnr


class TestPsnr:
    def test_exact_estimate_is_infinite(self):
        x = np.linspace(0.1, 1.0, 20)
        assert psnr(x, x.copy()) == np.inf

    def test_formula_unit_peak(self):
        x = np.ones(100)
        est = x + 0.1  # MSE = 0.01, peak 1
        assert psnr(x, est) == pytest.approx(20.0)

    def test_formula_255_peak(self):
        x = np.full(50, 255.0)
        mse = 65.025
        est = x + np.sqrt(mse)
        assert psnr(x, est) == pytest.approx(30.0)

    def test_scale_equivariance(self, rng):
        x = rng.uniform(0.2, 1.0, 64)
        est = x + rng.standard_normal(64) * 0.05
        assert psnr(3.7 * x, 3.7 * est) == pytest.approx(psnr(x, est), rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            psnr(np.ones(4), np.ones(5))
        with pytest.raises(ValueError):
            psnr(np.zeros(4), np.ones(4))


class TestCoverage:
    def test_huge_variance_covers_everything(self, rng):
        ref = rng.standard_normal(100)
        report = coverage(ref, np.zeros(100), np.full(100, 1e12), 0.95)
        assert report.fraction_inside == 1.0

    def test_tiny_level_covers_nothing(self, rng):
        ref = rng.standard_normal(100) + 5.0
        report = coverage(ref, np.zeros(100), np.ones(100), 1e-9)
        assert report.fraction_inside == 0.0

    def test_map_complements_fraction(self, rng):
        ref = rng.standard_normal(200)
        report = coverage(ref, np.zeros(200), np.ones(200), 0.5)
        assert report.fraction_inside == pytest.approx(1.0 - report.outside_map.mean())

    def test_calibrated_gaussians_cover_at_level(self, rng):
        # oracle: direct simulation from the stated model
        n = 20000
        mean = rng.standard_normal(n)
        var = rng.uniform(0.5, 2.0, n)
        truth = mean + np.sqrt(var) * rng.standard_normal(n)
        for level in (0.5, 0.9, 0.95):
            frac = coverage(truth, mean, var, level).fraction_inside
            se = np.sqrt(level * (1 - level) / n)
            assert abs(frac - level) < 4 * se

    def test_level_validation(self):
        with pytest.raises(ValueError):
            coverage(np.ones(3), np.ones(3), np.ones(3), 1.0)
        with pytest.raises(ValueError):
            coverage(np.ones(3), np.ones(3), np.zeros(3), 0.5)

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            CoverageReport(level=0.9, outside_map=np.array([1, 0]), fraction_inside=0.9)


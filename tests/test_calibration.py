import numpy as np
import pytest

from rscam.errors import NoPeak
from rscam.calibration import (SpatioTemporalImage, estimate_scan_rate,
                               ideal_seconds_per_row, marginalized_spectrum,
                               synthesize_led_image, write_pgm)
from rscam.shutter import ShutterParams


class TestSynthesis:
    def test_nearly_always_on_is_constant(self):
        s = ShutterParams.ideal(15.0, 240)
        img = synthesize_led_image(s, 240, 16, led_hz=5.0, duty=1.0 - 1e-12)
        assert np.all(img.values == 1.0)

    def test_one_cycle_per_frame_gives_two_bands(self):
        """LED period equal to the frame scan gives one bright and one dark
        band of n_rows/2 each."""
        s = ShutterParams.ideal(10.0, 240)
        img = synthesize_led_image(s, 240, 4, led_hz=10.0, duty=0.5)
        column = img.values[:, 0]
        assert int(np.sum(column > 0.5)) == 120
        assert int(np.sum(column < 0.5)) == 120

    def test_stripe_period_in_rows(self):
        """Zero crossings per column count r / led_hz rows per stripe cycle."""
        s = ShutterParams.ideal(15.0, 240)  # r = 3600 rows/s
        led = 60.0                          # expected period 60 rows
        img = synthesize_led_image(s, 240, 8, led_hz=led)
        column = img.values[:, 0]
        transitions = int(np.sum(column[1:] != column[:-1]))
        periods = 240.0 / (3600.0 / led)
        assert abs(transitions - 2 * periods) <= 2

    def test_validation(self):
        s = ShutterParams.ideal(15.0, 240)
        with pytest.raises(ValueError):
            synthesize_led_image(s, 240, 8, led_hz=0.0)
        with pytest.raises(ValueError):
            synthesize_led_image(s, 240, 8, led_hz=10.0, duty=1.5)

    def test_intensities_stay_in_range(self):
        s = ShutterParams.ideal(7.5, 240)
        img = synthesize_led_image(s, 240, 16, led_hz=11.0, exposure_gradient=True)
        assert img.values.min() >= 0.0 and img.values.max() <= 1.0


class TestIdealSecondsPerRow:
    def test_vga_quarter_rate(self):
        assert abs(ideal_seconds_per_row(15.0, 240) - 0.000278) < 1e-6

    def test_doubling_framerate_halves_row_time(self):
        assert abs(ideal_seconds_per_row(30.0, 240) * 2
                   - ideal_seconds_per_row(15.0, 240)) < 1e-15

    def test_slow_framerate(self):
        assert abs(ideal_seconds_per_row(3.75, 240) - 0.00110) < 2e-5


class TestEstimation:
    @pytest.mark.parametrize("fps,expected", [(3.75, 0.00110), (7.5, 0.00056),
                                              (15.0, 0.00028)])
    def test_reference_framerates(self, fps, expected):
        """Estimated row periods land on the ideal values for the benchmark
        framerates, within one FFT bin."""
        s = ShutterParams.ideal(fps, 240)
        img = synthesize_led_image(s, 240, 64, led_hz=60.0)
        est = estimate_scan_rate(img, 60.0)
        ideal = ideal_seconds_per_row(fps, 240)
        bin_width = 1.0 / (240 * 60.0)
        assert abs(est.scan_seconds_per_row - ideal) <= bin_width
        assert abs(est.scan_seconds_per_row - expected) < 2e-5
        assert abs(est.scan_seconds_per_row - ideal) < 0.00050  # reported band

    def test_round_trip_random_rates(self, rng):
        """Synthesis then estimation recovers the row period within one bin
        for 2 to n_rows/4 stripe periods and any duty in [0.2, 0.8]."""
        n_rows = 240
        for _ in range(60):
            f = rng.uniform(3.0, 30.0)
            r = n_rows * f
            led = rng.uniform(2.05 * r / n_rows, r / 4.2)
            s = ShutterParams(scan_rate=r, framerate=f)
            img = synthesize_led_image(s, n_rows, 48, led_hz=led,
                                       duty=rng.uniform(0.2, 0.8))
            est = estimate_scan_rate(img, led)
            assert abs(est.scan_seconds_per_row - 1.0 / r) <= 1.0 / (n_rows * led)

    def test_invariant_to_exposure_gradient(self):
        s = ShutterParams.ideal(7.5, 240)
        plain = estimate_scan_rate(synthesize_led_image(s, 240, 48, 30.0), 30.0)
        graded = estimate_scan_rate(
            synthesize_led_image(s, 240, 48, 30.0, exposure_gradient=True), 30.0)
        assert plain.scan_seconds_per_row == graded.scan_seconds_per_row

    def test_robust_to_noise(self, rng):
        s = ShutterParams.ideal(15.0, 240)
        img = synthesize_led_image(s, 240, 64, led_hz=45.0)
        noisy = np.clip(img.values + rng.uniform(-0.1, 0.1, img.values.shape), 0, 1)
        est = estimate_scan_rate(SpatioTemporalImage(noisy, 15.0), 45.0)
        ideal = ideal_seconds_per_row(15.0, 240)
        assert abs(est.scan_seconds_per_row - ideal) <= 1.0 / (240 * 45.0)

    def test_uncertainty_is_half_bin(self):
        s = ShutterParams.ideal(15.0, 240)
        est = estimate_scan_rate(synthesize_led_image(s, 240, 48, 60.0), 60.0)
        assert abs(est.uncertainty - 0.5 / (240 * 60.0)) < 1e-15

    def test_no_peak_for_constant_image(self):
        with pytest.raises(NoPeak):
            estimate_scan_rate(SpatioTemporalImage(np.ones((240, 16)), 15.0), 20.0)

    def test_spectrum_has_positive_frequencies_only(self):
        s = ShutterParams.ideal(15.0, 240)
        freqs, mag = marginalized_spectrum(synthesize_led_image(s, 240, 16, 30.0))
        assert freqs[0] > 0 and freqs[-1] <= 0.5
        assert len(freqs) == len(mag) == 120


def read_pgm_8bit(path, header: bytes) -> np.ndarray:
    """The [0, 1] intensities of an 8-bit binary PGM whose header must be
    exactly `header`."""
    data = path.read_bytes()
    assert data.startswith(header)
    width, height = map(int, header.split(b"\n")[-3].split())
    pixels = np.frombuffer(data, dtype=np.uint8, offset=len(header))
    assert pixels.size == width * height
    return pixels.reshape(height, width) / 255.0


class TestFileFormats:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, size=(32, 17))
        path = tmp_path / "image.pgm"
        write_pgm(path, values, comment="stack")
        recovered = read_pgm_8bit(path, b"P5\n# stack\n17 32\n255\n")
        assert recovered.shape == values.shape
        assert np.abs(recovered - values).max() <= 0.5 / 255.0 + 1e-12

    def test_estimation_survives_pgm_quantization(self, tmp_path):
        s = ShutterParams.ideal(7.5, 240)
        img = synthesize_led_image(s, 240, 48, led_hz=30.0, exposure_gradient=True)
        path = tmp_path / "stack.pgm"
        write_pgm(path, img.values)
        reloaded = SpatioTemporalImage(read_pgm_8bit(path, b"P5\n48 240\n255\n"), 7.5)
        est = estimate_scan_rate(reloaded, 30.0)
        ideal = ideal_seconds_per_row(7.5, 240)
        assert abs(est.scan_seconds_per_row - ideal) <= 1.0 / (240 * 30.0)

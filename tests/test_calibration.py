import tracemalloc
import warnings

import numpy as np
import pytest

from rscam.errors import NoPeak
from rscam.calibration import (MAX_IMAGE_SAMPLES, SpatioTemporalImage, _led_on, _row_times,
                               estimate_scan_rate, marginalized_spectrum,
                               synthesize_led_image, write_pgm)
from rscam.shutter import ShutterParams


def ideal_seconds_per_row(framerate, n_rows):
    """Row period of a zero-delay sensor whose scan fills the frame period."""
    return 1.0 / ShutterParams.ideal(framerate, n_rows).scan_rate


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

    @pytest.mark.parametrize("led_hz, named", [
        (float("nan"), "finite and positive"), (float("inf"), "finite and positive"),
        (-float("inf"), "finite and positive"), (-1.0, "finite and positive"),
        (1e308, "overflows"), (2e307, "overflows")])
    def test_led_hz_outside_the_phase_range_raises(self, led_hz, named):
        """A frequency that is not finite and positive, or whose phase t * led_hz
        overflows at the last row time (17 s here), raises before any warning."""
        s = ShutterParams.ideal(3.75, 240)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=named):
                synthesize_led_image(s, 240, 64, led_hz=led_hz)
        assert not caught
        image = synthesize_led_image(s, 240, 8, led_hz=20.0)
        if named != "overflows":
            with pytest.raises(ValueError, match="led_hz must be finite and positive"):
                estimate_scan_rate(image, led_hz)

    @pytest.mark.parametrize("n_rows, n_frames", [
        (240, MAX_IMAGE_SAMPLES // 240 + 1), (MAX_IMAGE_SAMPLES + 1, 1), (0, 8), (-240, 8),
        (-240, -8), (240, 0)])
    def test_image_size_outside_the_bound_raises_before_allocating(self, n_rows, n_frames):
        """An image of more than MAX_IMAGE_SAMPLES samples, or of no row or
        frame, raises naming the bound before any array is made."""
        s = ShutterParams.ideal(15.0, 240)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"n_rows \\* n_frames <= {MAX_IMAGE_SAMPLES}$"):
                synthesize_led_image(s, n_rows, n_frames, led_hz=20.0)
            assert tracemalloc.get_traced_memory()[1] < 100_000
        finally:
            tracemalloc.stop()

    def test_overflowing_row_times_raise(self):
        """A subnormal frame rate has an infinite frame period: its row times
        are not finite, which raises before the LED is sampled."""
        s = ShutterParams(scan_rate=240 * 5e-324, framerate=5e-324)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="overflows"):
                synthesize_led_image(s, 240, 8, led_hz=20.0)
        assert not caught

    @pytest.mark.parametrize("first_row", [-300.5, 0.0])
    def test_led_phase_is_np_mod_bit_for_bit(self, first_row):
        """The floor-based phase switches where np.mod(t * led_hz, 1.0) does:
        each duty below is one of the np.mod phases (or the next double), so
        a phase one ulp off flips a pixel.  Negative rows (first_row < 0) give
        negative phases; times k / 8 at 4 Hz give exact-integer phases."""
        s = ShutterParams(scan_rate=3600.0, first_row=first_row, framerate=15.0)
        times = np.concatenate([_row_times(s, 240, 8).ravel(), np.arange(-40, 41) / 8.0])
        for led_hz in (4.0, 20.0, 61.3):
            phase = np.mod(times * led_hz, 1.0)
            duties = np.concatenate([phase[::97], np.nextafter(phase[::97], 1.0)])
            for duty in duties[(duties > 0.0) & (duties < 1.0)]:
                want = (phase < duty).astype(float)
                assert _led_on(times, led_hz, duty).tobytes() == want.tobytes()

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
        est = estimate_scan_rate(SpatioTemporalImage(noisy), 45.0)
        ideal = ideal_seconds_per_row(15.0, 240)
        assert abs(est.scan_seconds_per_row - ideal) <= 1.0 / (240 * 45.0)

    def test_uncertainty_is_half_bin(self):
        s = ShutterParams.ideal(15.0, 240)
        est = estimate_scan_rate(synthesize_led_image(s, 240, 48, 60.0), 60.0)
        assert abs(est.uncertainty - 0.5 / (240 * 60.0)) < 1e-15

    def test_no_peak_for_constant_image(self):
        with pytest.raises(NoPeak):
            estimate_scan_rate(SpatioTemporalImage(np.ones((240, 16))), 20.0)

    def test_single_row_has_no_peak(self):
        """One row leaves no positive frequency: NoPeak, not the warnings of an
        empty median."""
        image = synthesize_led_image(ShutterParams.ideal(15.0, 1), 1, 16, 20.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NoPeak):
                estimate_scan_rate(image, 20.0)
        assert not caught

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
        reloaded = SpatioTemporalImage(read_pgm_8bit(path, b"P5\n48 240\n255\n"))
        est = estimate_scan_rate(reloaded, 30.0)
        ideal = ideal_seconds_per_row(7.5, 240)
        assert abs(est.scan_seconds_per_row - ideal) <= 1.0 / (240 * 30.0)

"""Scan-rate calibration from a flashing LED, simulated end to end.

A lensless sensor watching an LED that flashes at a known frequency records
horizontal bands whose spatial period encodes the scan rate: the shutter
sweeps r rows per second, so one LED cycle spans r / led_hz rows.  Stacking
the per-frame row intensities gives a spatio-temporal image I(y, t); the
dominant spatial frequency of its 2-D Fourier transform, marginalized over
the temporal axis, yields the rate estimate.

The LED is modeled as a square wave (the stripe image is not a sinusoid, so
the spectrum carries harmonics; the estimator keeps the lowest significant
peak).  An optional intensity gradient mimics uneven exposure across the
sensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPeak
from .shutter import ShutterParams


@dataclass(frozen=True)
class SpatioTemporalImage:
    """Stack of per-frame row intensities: values[y, k] for frame k."""

    values: np.ndarray
    framerate: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.size == 0:
            raise ValueError("values must be a nonempty 2-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("intensities must be finite")
        object.__setattr__(self, "values", v)

    @property
    def row_count(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CalibrationEstimate:
    """Estimated seconds per scanned row with a one-bin uncertainty."""

    scan_seconds_per_row: float
    uncertainty: float
    led_frequency: float

    @property
    def scan_rate(self) -> float:
        return 1.0 / self.scan_seconds_per_row


def _led_on(t: np.ndarray, led_hz: float, duty: float) -> np.ndarray:
    return (np.mod(t * led_hz, 1.0) < duty).astype(float)


def _row_times(shutter: ShutterParams, n_rows: int, n_frames: int) -> np.ndarray:
    """Absolute exposure time of row y in frame k, shape (n_rows, n_frames)."""
    rows = np.arange(n_rows, dtype=float)
    frames = np.arange(n_frames, dtype=float)
    start = frames * (1.0 / shutter.framerate)
    offset = (rows + shutter.first_row) / shutter.scan_rate
    return offset[:, None] + start[None, :]


def synthesize_led_image(shutter: ShutterParams, n_rows: int, n_frames: int,
                         led_hz: float, duty: float = 0.5,
                         exposure_gradient: bool = False) -> SpatioTemporalImage:
    """Spatio-temporal image of an LED flashing at led_hz with the given duty.

    Row y of frame k is bright iff the LED is on at that row's exposure time.
    With exposure_gradient a linear intensity falloff is applied along the
    row axis.
    """
    if led_hz <= 0.0:
        raise ValueError("led_hz must be positive")
    if not 0.0 < duty < 1.0:
        raise ValueError("duty must lie in (0, 1)")
    times = _row_times(shutter, n_rows, n_frames)
    values = _led_on(times, led_hz, duty)
    if exposure_gradient:
        gradient = np.linspace(1.0, 0.4, n_rows)
        values = values * gradient[:, None]
    return SpatioTemporalImage(values=values, framerate=shutter.framerate)


def marginalized_spectrum(image: SpatioTemporalImage) -> tuple[np.ndarray, np.ndarray]:
    """Positive spatial frequencies (cycles/row) and their marginal magnitude.

    Applies a Hann window along the row axis, takes the 2-D transform, sums
    magnitudes over the temporal frequency axis, and zeroes the DC bin.
    """
    values = image.values
    n_rows = values.shape[0]
    # Remove each column's mean before windowing, otherwise the window
    # smears the DC pedestal into the lowest bins.
    centered = values - values.mean(axis=0, keepdims=True)
    window = np.hanning(n_rows)
    spectrum = np.fft.fft2(centered * window[:, None])
    marginal = np.abs(spectrum).sum(axis=1)
    marginal[0] = 0.0
    n_pos = n_rows // 2
    freqs = np.arange(1, n_pos + 1) / n_rows
    return freqs, marginal[1:n_pos + 1]


def estimate_scan_rate(image: SpatioTemporalImage, led_hz: float,
                       spectrum=None) -> CalibrationEstimate:
    """Scan rate from the stripe frequency of a spatio-temporal LED image.

    The fundamental stripe frequency nu (cycles/row) satisfies
    r = led_hz / nu.  Harmonics of the square-wave stripes are rejected by
    taking the lowest-frequency significant spectral peak; NoPeak is raised
    when nothing rises above three times the median magnitude.  spectrum is
    the image's `marginalized_spectrum`, when the caller has it already.
    """
    if led_hz <= 0.0:
        raise ValueError("led_hz must be positive")
    freqs, magnitude = spectrum if spectrum is not None else marginalized_spectrum(image)
    floor = 3.0 * float(np.median(magnitude))
    significant = magnitude > max(floor, 0.0)
    if not np.any(significant):
        raise NoPeak("no spectral peak above 3x the median magnitude")
    # The fundamental of a square-wave stripe pattern is at least as strong
    # as every harmonic, so the global maximum is (up to leakage) either the
    # fundamental or a near-tie with it.  Among local maxima above the noise
    # floor, take the lowest-frequency one commensurate with the global peak;
    # weaker low-frequency bumps are leakage skirts, not the fundamental.
    global_max = float(magnitude.max())
    padded = np.concatenate([[0.0], magnitude, [0.0]])
    local_max = (magnitude >= padded[:-2]) & (magnitude >= padded[2:])
    candidates = np.flatnonzero(significant & local_max
                                & (magnitude >= 0.8 * global_max))
    if candidates.size == 0:
        raise NoPeak("significant bins exist but none form a dominant peak")
    return CalibrationEstimate(scan_seconds_per_row=float(freqs[candidates[0]]) / led_hz,
                               uncertainty=0.5 / (image.row_count * led_hz), led_frequency=led_hz)


def ideal_seconds_per_row(framerate: float, n_rows: int) -> float:
    """Row period of a zero-delay sensor whose scan fills the frame period."""
    if framerate <= 0.0 or n_rows <= 0:
        raise ValueError("framerate and n_rows must be positive")
    return 1.0 / (framerate * n_rows)


def write_pgm(path, values: np.ndarray, comment: str = "") -> None:
    """8-bit binary PGM of intensities in [0, 1]."""
    arr = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
    data = np.round(arr * 255.0).astype(np.uint8)
    h, w = data.shape
    header = f"P5\n# {comment}\n{w} {h}\n255\n" if comment else f"P5\n{w} {h}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data.tobytes())

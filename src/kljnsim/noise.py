"""Johnson-noise physics for the KLJN wire channel.

Models the core loop: two resistors (one per party), each in series with a
Gaussian voltage-noise generator emulating thermal noise at an agreed
effective temperature, joined by an ideal short wire.  Provides band-limited
noise synthesis, the per-sample loop solution, scalar spectrum estimation,
and the two inversions an observer can apply to recover resistances from
measured spectra.

Spectra are treated as band-averaged scalars: for band-limited white noise
sampled critically (sample_rate = 2 x bandwidth) the samples are i.i.d. and
the flat in-band PSD equals variance / bandwidth, so no frequency-resolved
estimate is needed anywhere in the loop algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOLTZMANN_K = 1.380649e-23  # J/K, exact SI value


class InconsistentSpectraError(ValueError):
    """Measured (s_u, s_i) admit no real resistor pair."""


@dataclass(frozen=True)
class NoiseConfig:
    """Physical and sampling parameters for the simulated channel.

    Parameters
    ----------
    r_low, r_high : float
        The two publicly known resistances (ohm) encoding bit values 0/1.
    t_eff : float
        Publicly agreed effective noise temperature (K).  Chosen far above
        any physical temperature so the wire's own noise is negligible.
    bandwidth : float
        Noise bandwidth (Hz) of the generators.
    sample_rate : float
        Samples per second.  Critical sampling (2 x bandwidth) keeps the
        synthesized samples independent; must satisfy Nyquist.
    samples_per_bit : int
        Samples recorded per bit period.
    classify_margin : float
        Fraction (0, 1) of the log-space gap to the nearest neighboring
        level inside which a measurement is accepted as that level.
    """

    r_low: float = 1e3
    r_high: float = 1e4
    t_eff: float = 1e12
    bandwidth: float = 1e5
    sample_rate: float = 2e5
    samples_per_bit: int = 100
    classify_margin: float = 0.5

    def __post_init__(self):
        if self.r_low <= 0:
            raise ValueError(f"r_low must be positive, got {self.r_low}")
        if self.r_high <= self.r_low:
            raise ValueError(
                f"r_high ({self.r_high}) must exceed r_low ({self.r_low})")
        if self.t_eff <= 0:
            raise ValueError(f"t_eff must be positive, got {self.t_eff}")
        if self.bandwidth <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {self.bandwidth}")
        if self.sample_rate < 2 * self.bandwidth:
            raise ValueError(
                f"sample_rate ({self.sample_rate}) must be >= 2 x bandwidth "
                f"({2 * self.bandwidth})")
        if self.samples_per_bit < 100:
            raise ValueError(
                f"samples_per_bit must be >= 100, got {self.samples_per_bit}")
        if not 0.0 < self.classify_margin < 1.0:
            raise ValueError(
                f"classify_margin must lie in (0, 1), got "
                f"{self.classify_margin}")

    @property
    def bit_period_seconds(self) -> float:
        """Duration of one bit period in simulated seconds."""
        return self.samples_per_bit / self.sample_rate

    @property
    def four_kt(self) -> float:
        """4 k T_eff: the Johnson-noise voltage PSD per ohm (V^2/Hz/ohm)."""
        return 4.0 * BOLTZMANN_K * self.t_eff


@dataclass
class WireTrace:
    """One bit period's wire observables: voltage and loop current samples."""

    voltage: np.ndarray
    current: np.ndarray

    def __post_init__(self):
        self.voltage = np.asarray(self.voltage, dtype=np.float64)
        self.current = np.asarray(self.current, dtype=np.float64)
        if self.voltage.shape != self.current.shape:
            raise ValueError(
                f"voltage/current length mismatch: {self.voltage.shape} vs "
                f"{self.current.shape}")
        if self.voltage.size == 0:
            raise ValueError("trace must contain at least one sample")

    def __len__(self) -> int:
        return self.voltage.size


@dataclass(frozen=True)
class SpectraEstimate:
    """Band-averaged PSD estimates for one trace."""

    s_u: float  # V^2/Hz
    s_i: float  # A^2/Hz

    def __post_init__(self):
        if self.s_u < 0 or self.s_i < 0:
            raise ValueError("spectral densities cannot be negative")


def johnson_psd(r: float, cfg: NoiseConfig) -> float:
    """Thermal-noise voltage PSD of a resistor at the configured t_eff.

    S = 4 k T_eff R, one-sided, flat across the band.
    """
    if r < 0:
        raise ValueError(f"resistance must be non-negative, got {r}")
    return cfg.four_kt * r


def generate_noise(psd: float, cfg: NoiseConfig, seed) -> np.ndarray:
    """Synthesize one bit period of band-limited Gaussian noise.

    Returns ``cfg.samples_per_bit`` zero-mean samples with variance
    psd x bandwidth (exact for critical sampling, where successive samples
    are independent).  Identical seeds give identical output; distinct seeds
    give statistically independent periods.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including
    an existing Generator.
    """
    if psd < 0:
        raise ValueError(f"psd must be non-negative, got {psd}")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(psd * cfg.bandwidth)
    return rng.normal(0.0, sigma, cfg.samples_per_bit)


def compose_loop(u_a: np.ndarray, u_b: np.ndarray, r_a: float,
                 r_b: float) -> WireTrace:
    """Solve the series loop for each sample.

    With generator voltages u_a, u_b behind resistances r_a, r_b joined by
    an ideal wire, the loop current and the wire-node voltage are

        i(t)   = (u_a(t) - u_b(t)) / (r_a + r_b)
        u_w(t) = (u_a(t) * r_b + u_b(t) * r_a) / (r_a + r_b)

    Current is signed positive flowing from end A toward end B.
    """
    u_a = np.asarray(u_a, dtype=np.float64)
    u_b = np.asarray(u_b, dtype=np.float64)
    if u_a.shape != u_b.shape:
        raise ValueError(
            f"generator traces must have equal length: {u_a.shape} vs "
            f"{u_b.shape}")
    r_sum = r_a + r_b
    if r_sum <= 0:
        raise ValueError(f"r_a + r_b must be positive, got {r_sum}")
    current = (u_a - u_b) / r_sum
    voltage = (u_a * r_b + u_b * r_a) / r_sum
    return WireTrace(voltage=voltage, current=current)


def measure_spectra(trace: WireTrace, cfg: NoiseConfig) -> SpectraEstimate:
    """Estimate the band-averaged voltage and current PSDs of a trace.

    Under the white-in-band assumption the PSD is sample-variance divided
    by bandwidth.  Uses the unbiased (ddof=1) sample variance.
    """
    if len(trace) < 2:
        raise ValueError("need at least 2 samples to estimate spectra")
    return SpectraEstimate(
        s_u=_sample_variance(trace.voltage) / cfg.bandwidth,
        s_i=_sample_variance(trace.current) / cfg.bandwidth)


def _sample_variance(x: np.ndarray) -> float:
    """``np.var(x, ddof=1)`` of a float64 array, written as numpy's own
    steps (sum, divide, subtract, square, sum, divide) so the result is
    bit-identical without its per-call dispatch overhead."""
    d = x - np.add.reduce(x, axis=None) / x.size
    return float(np.add.reduce(d * d, axis=None) / (x.size - 1))


def infer_partner_resistance(s_i: float, r_a: float,
                             cfg: NoiseConfig) -> float:
    """Recover the far-end resistance from the measured current PSD.

    Inverts S_i = 4 k T_eff / (R_A + R_B) for R_B.  May return a negative
    value for inconsistent inputs; the caller interprets.
    """
    if s_i <= 0:
        raise ValueError(f"s_i must be positive, got {s_i}")
    return cfg.four_kt / s_i - r_a


def infer_resistor_pair(s: SpectraEstimate,
                        cfg: NoiseConfig) -> tuple[float, float]:
    """Recover the unordered resistor pair from both wire spectra.

    The pair are the two roots of

        R^2 - (4 k T_eff / s_i) R + s_u / s_i = 0

    (root sum = total loop resistance, root product = s_u/s_i).  The result
    is ordered by value only; nothing in it identifies which end holds
    which resistor.

    Raises
    ------
    InconsistentSpectraError
        If the discriminant is negative, i.e. (4 k T_eff)^2 < 4 s_u s_i.
    """
    if s.s_u <= 0 or s.s_i <= 0:
        raise ValueError("both spectra must be positive for pair inference")
    root_sum = cfg.four_kt / s.s_i
    root_prod = s.s_u / s.s_i
    # The discriminant is taken scaled by 2^-2e, with 2^e ~ root_sum (for
    # root_sum >= 1), so root_sum^2 cannot overflow.  Scaling by a power
    # of two is exact: the roots are the same floats as unscaled wherever
    # the unscaled square is finite.
    exp = max(math.frexp(root_sum)[1], 0)
    sum_scaled = math.ldexp(root_sum, -exp)
    disc = sum_scaled * sum_scaled - 4.0 * math.ldexp(root_prod, -2 * exp)
    if disc < 0:
        # Absorb float cancellation on degenerate (equal-resistor) input,
        # reject genuinely inconsistent spectra.
        if disc > -1e-12 * sum_scaled * sum_scaled:
            disc = 0.0
        else:
            raise InconsistentSpectraError(
                f"no real resistor pair for s_u={s.s_u!r}, s_i={s.s_i!r}")
    # Stable quadratic: the larger root by the +sqrt branch, the smaller
    # from the product, avoiding cancellation.
    r_big = math.ldexp(0.5 * (sum_scaled + math.sqrt(disc)), exp)
    r_small = root_prod / r_big if r_big > 0 else 0.0
    return (r_small, r_big)


def parallel_resistance(r_a: float, r_b: float) -> float:
    """R_a R_b / (R_a + R_b)."""
    return r_a * r_b / (r_a + r_b)


def analytic_spectra(r_a: float, r_b: float,
                     cfg: NoiseConfig) -> SpectraEstimate:
    """Exact wire spectra for a resistor pair with both ends at t_eff.

    s_u = 4 k T_eff * (R_a || R_b)   (Johnson PSD of the parallel pair)
    s_i = 4 k T_eff / (R_a + R_b)
    """
    return SpectraEstimate(
        s_u=cfg.four_kt * parallel_resistance(r_a, r_b),
        s_i=cfg.four_kt / (r_a + r_b),
    )

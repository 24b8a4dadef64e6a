"""Johnson-noise physics for the KLJN wire channel.

Models the core loop: two resistors (one per party), each in series with a
Gaussian voltage-noise generator emulating thermal noise at an agreed
effective temperature, joined by an ideal short wire.  Provides band-limited
noise synthesis, the per-sample loop solution, band-averaged spectrum
estimation, and the two inversions an observer can apply to recover
resistances from measured spectra.

A wire trace, what either end of the wire observes, is one float64
array: voltage in row 0 and loop current in row 1, shape ``(2, n)`` for
one bit period of n samples or ``(P, 2, n)`` for a block of P periods,
each period's two rows contiguous.  Synthesis, the loop solution and
spectrum estimation each take one bit period or a block of them in a
single call, and a block's every period is bit for bit what the
one-period call gives.

Spectra are band-averaged: for band-limited white noise sampled
critically (sample_rate = 2 x bandwidth) the samples are i.i.d. and the
flat in-band PSD equals variance / bandwidth, so no frequency-resolved
estimate is needed anywhere in the loop algebra.  They are one float64
array too: s_u (V^2/Hz) in row 0 and s_i (A^2/Hz) in row 1, shape
``(2,)`` for one bit period or ``(2, P)`` for a block of P periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOLTZMANN_K = 1.380649e-23  # J/K, exact SI value

# The physics domain, the (least, greatest) value NoiseConfig accepts for
# each physical setting: inside it every generator variance, class level,
# sample and square of a sample is a normal float64.
RESISTANCE_RANGE = (1e-6, 1e15)  # ohm, r_low and r_high
T_EFF_RANGE = (1e-6, 1e24)  # K
BANDWIDTH_RANGE = (1e-6, 1e15)  # Hz


class InconsistentSpectraError(ValueError):
    """Measured (s_u, s_i) admit no real resistor pair."""


@dataclass(frozen=True)
class NoiseConfig:
    """Physical and sampling parameters for the simulated channel, the
    physical ones in ``RESISTANCE_RANGE``, ``T_EFF_RANGE`` and
    ``BANDWIDTH_RANGE``.

    Parameters
    ----------
    r_low, r_high : float
        The two publicly known resistances (ohm) encoding bit values 0/1.
    t_eff : float
        Publicly agreed effective noise temperature (K).  Chosen far above
        any physical temperature so the wire's own noise is negligible.
    bandwidth : float
        Noise bandwidth (Hz) of the generators.  The channel is sampled
        critically, at ``sample_rate`` = 2 x bandwidth, the one rate at
        which the i.i.d. synthesized samples are exact.
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
    samples_per_bit: int = 100
    classify_margin: float = 0.5

    def __post_init__(self):
        for name, (least, greatest) in (
                ("r_low", RESISTANCE_RANGE), ("r_high", RESISTANCE_RANGE),
                ("t_eff", T_EFF_RANGE), ("bandwidth", BANDWIDTH_RANGE)):
            value = getattr(self, name)
            if not least <= value <= greatest:  # NaN fails too
                raise ValueError(f"{name} must lie in [{least:g}, "
                                 f"{greatest:g}], got {value}")
        if self.r_high <= self.r_low:
            raise ValueError(
                f"r_high ({self.r_high}) must exceed r_low ({self.r_low})")
        if self.samples_per_bit < 100:
            raise ValueError(
                f"samples_per_bit must be >= 100, got {self.samples_per_bit}")
        if not 0.0 < self.classify_margin < 1.0:
            raise ValueError(
                f"classify_margin must lie in (0, 1), got "
                f"{self.classify_margin}")

    @property
    def sample_rate(self) -> float:
        """Samples per second: 2 x bandwidth."""
        return 2.0 * self.bandwidth

    @property
    def bit_period_seconds(self) -> float:
        """Duration of one bit period in simulated seconds."""
        return self.samples_per_bit / self.sample_rate

    @property
    def four_kt(self) -> float:
        """4 k T_eff: the Johnson-noise voltage PSD per ohm (V^2/Hz/ohm)."""
        return 4.0 * BOLTZMANN_K * self.t_eff


def johnson_psd(r: float, cfg: NoiseConfig) -> float:
    """Thermal-noise voltage PSD of a resistor at the configured t_eff.

    S = 4 k T_eff R, one-sided, flat across the band.
    """
    if r < 0:
        raise ValueError(f"resistance must be non-negative, got {r}")
    return cfg.four_kt * r


def generate_noise(psd, cfg: NoiseConfig, seed) -> np.ndarray:
    """Synthesize band-limited Gaussian noise, one bit period per PSD.

    A number ``psd`` gives ``cfg.samples_per_bit`` zero-mean samples with
    variance psd x bandwidth (exact for critical sampling, where successive
    samples are independent).  An array of PSDs gives one such period per
    entry, shape ``psd.shape + (samples_per_bit,)``, drawn in row-major
    order: bit for bit the samples that one scalar call per entry, in that
    order, would draw from the same generator.  Identical seeds give
    identical output; distinct seeds give statistically independent
    periods.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including
    an existing Generator.
    """
    rng = np.random.default_rng(seed)
    if not isinstance(psd, np.ndarray):
        if psd < 0:
            raise ValueError(f"psd must be non-negative, got {psd}")
        sigma = math.sqrt(psd * cfg.bandwidth)
        return rng.normal(0.0, sigma, cfg.samples_per_bit)
    psd = np.asarray(psd, dtype=np.float64)
    if (psd < 0).any():
        raise ValueError(f"psd must be non-negative, got {psd.min()}")
    # np.sqrt and math.sqrt are both correctly rounded: the same sigmas.
    # rng.normal(loc, scale) is loc + scale * (a standard normal draw),
    # written out here because broadcasting an array of scales through
    # rng.normal costs more than the two array operations.
    out = rng.standard_normal(psd.shape + (cfg.samples_per_bit,))
    out *= np.sqrt(psd * cfg.bandwidth)[..., None]
    out += 0.0
    return out


def compose_loop(u_a: np.ndarray, u_b: np.ndarray, r_a: float | np.ndarray,
                 r_b: float | np.ndarray) -> np.ndarray:
    """Solve the series loop for each sample.

    With generator voltages u_a, u_b behind resistances r_a, r_b joined by
    an ideal wire, the loop current and the wire-node voltage are

        i(t)   = (u_a(t) - u_b(t)) / (r_a + r_b)
        u_w(t) = (u_a(t) * r_b + u_b(t) * r_a) / (r_a + r_b)

    Current is signed positive flowing from end A toward end B.

    Generator traces of one period, shape ``(n,)``, take number
    resistances and give a ``(2, n)`` trace.  A block of P periods, shape
    ``(P, n)``, takes one r_a and one r_b per row (length-P arrays) and
    gives a ``(P, 2, n)`` block trace whose period k is bit for bit the
    one-period solve of row k: the same IEEE operations, only broadcast.
    """
    u_a = np.asarray(u_a, dtype=np.float64)
    u_b = np.asarray(u_b, dtype=np.float64)
    if u_a.shape != u_b.shape:
        raise ValueError(
            f"generator traces must have equal length: {u_a.shape} vs "
            f"{u_b.shape}")
    if u_a.ndim not in (1, 2) or u_a.size == 0:
        raise ValueError(
            f"generator traces must be a non-empty 1-D period or 2-D block "
            f"of periods, got shape {u_a.shape}")
    if u_a.ndim == 1:
        r_sum = r_a + r_b
        if r_sum <= 0:
            raise ValueError(f"r_a + r_b must be positive, got {r_sum}")
    else:
        r_a = np.asarray(r_a, dtype=np.float64)[:, None]  # one per row
        r_b = np.asarray(r_b, dtype=np.float64)[:, None]
        r_sum = (r_a + r_b)[:, None]  # one per period, over both its rows
        if (r_sum <= 0).any():
            raise ValueError(
                f"r_a + r_b must be positive, got {r_sum.min()}")
    # The same operations as the formulas above, written into the trace's
    # own rows in place where a temporary would hold another copy of them.
    samples = np.empty(u_a.shape[:-1] + (2, u_a.shape[-1]))
    voltage, current = samples[..., 0, :], samples[..., 1, :]
    np.multiply(u_a, r_b, out=voltage)
    voltage += u_b * r_a
    np.subtract(u_a, u_b, out=current)
    samples /= r_sum
    return samples


def measure_spectra(trace: np.ndarray, cfg: NoiseConfig) -> np.ndarray:
    """Estimate the band-averaged voltage and current PSDs of a trace.

    Under the white-in-band assumption the PSD is sample-variance divided
    by bandwidth.  Uses the unbiased (ddof=1) sample variance, computed
    inline as ``np.var(x, ddof=1)``'s own steps (sum, divide, subtract,
    square, sum, divide) along the trace's last axis: each contiguous
    row is summed pairwise as on its own, so each PSD is bit-identical to
    ``np.var`` without its per-call dispatch overhead.

    A one-period trace gives its ``(2,)`` spectra; a block trace of P
    periods gives ``(2, P)`` spectra whose column k is bit for bit the
    estimate of period k alone.  Any other shape, or fewer than 2 samples
    a period, raises ValueError.
    """
    shape = trace.shape
    if len(shape) not in (2, 3) or shape[-2] != 2 or shape[-1] < 2:
        raise ValueError(
            f"trace must be a (2, n) period or (P, 2, n) block of periods "
            f"with n >= 2 samples, got shape {shape}")
    n = shape[-1]
    dx = trace - (np.add.reduce(trace, -1) / n)[..., None]
    dx *= dx  # squared in place: one working copy of the trace at most
    return (np.add.reduce(dx, -1) / (n - 1) / cfg.bandwidth).T


def infer_partner_resistance(s_i: float, r_a: float,
                             cfg: NoiseConfig) -> float:
    """Recover the far-end resistance from the measured current PSD.

    Inverts S_i = 4 k T_eff / (R_A + R_B) for R_B.  May return a negative
    value for inconsistent inputs; the caller interprets.
    """
    if s_i <= 0:
        raise ValueError(f"s_i must be positive, got {s_i}")
    return cfg.four_kt / s_i - r_a


def infer_resistor_pair(s: np.ndarray,
                        cfg: NoiseConfig) -> tuple[float, float]:
    """Recover the unordered resistor pair from one period's spectra.

    The pair are the two roots of

        R^2 - (4 k T_eff / s_i) R + s_u / s_i = 0

    (root sum = total loop resistance, root product = s_u/s_i).  The result
    is ordered by value only; nothing in it identifies which end holds
    which resistor.

    Raises
    ------
    InconsistentSpectraError
        If the discriminant is negative, i.e. (4 k T_eff)^2 < 4 s_u s_i.
    ValueError
        If ``s`` is not one ``(2,)`` pair of positive spectra.
    """
    if np.shape(s) != (2,):
        raise ValueError(f"not one (2,) spectra pair: shape {np.shape(s)}")
    s_u, s_i = s.tolist()
    if s_u <= 0 or s_i <= 0:
        raise ValueError("both spectra must be positive for pair inference")
    root_sum = cfg.four_kt / s_i
    root_prod = s_u / s_i
    disc = root_sum * root_sum - 4.0 * root_prod
    if disc < 0:
        # Absorb float cancellation on degenerate (equal-resistor) input,
        # reject genuinely inconsistent spectra.
        if disc > -1e-12 * root_sum * root_sum:
            disc = 0.0
        else:
            raise InconsistentSpectraError(
                f"no real resistor pair for s_u={s_u!r}, s_i={s_i!r}")
    # Stable quadratic: the larger root by the +sqrt branch, the smaller
    # from the product, avoiding cancellation.
    r_big = 0.5 * (root_sum + math.sqrt(disc))
    r_small = root_prod / r_big if r_big > 0 else 0.0
    return (r_small, r_big)


def parallel_resistance(r_a: float, r_b: float) -> float:
    """R_a R_b / (R_a + R_b)."""
    return r_a * r_b / (r_a + r_b)


def analytic_spectra(r_a: float, r_b: float,
                     cfg: NoiseConfig) -> np.ndarray:
    """Exact wire spectra for a resistor pair with both ends at t_eff.

    s_u = 4 k T_eff * (R_a || R_b)   (Johnson PSD of the parallel pair)
    s_i = 4 k T_eff / (R_a + R_b)
    """
    return np.array([cfg.four_kt * parallel_resistance(r_a, r_b),
                     cfg.four_kt / (r_a + r_b)])

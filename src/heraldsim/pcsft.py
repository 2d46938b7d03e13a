"""Threshold-field detection model: clicks as Wiener first passages.

Each detector integrates a fluctuating classical field; the integrated
amplitude performs a driftless Wiener walk with variance rate equal to the
optical power reaching that detector (``incident_power`` scaled by the
arm's transmission product).  A bin clicks when the walk, started at 0 at
the beginning of the bin's pulse window, leaves the band
``(-sqrt(threshold_energy), +sqrt(threshold_energy))`` within the window
``pulse_duration``.  The walk is continuous: every crossing counts.

Closed forms
------------
:func:`crossing_probability` gives the click probability per bin, one
minus the walk's survival in the band at the dimensionless time
theta = power * horizon / threshold_energy (survival 1 at theta <= 0),
summed in scalar ``math`` calls and clipped to [0, 1].  For theta >= 0.25
the spectral series (4/pi) sum_j (-1)^j / (2j+1) exp(-(2j+1)^2 pi^2
theta / 8), j < 64, stops after its first term below 1e-18 in magnitude.
Below, the reflection series sum_{k=-8..8} (-1)^k [Phi((2k+1)c) -
Phi((2k-1)c)], c = 1/sqrt(theta), evaluates Phi at m*c for odd |m| <= 17
outward from m = 1 and stops once Phi(+-m c) reach exactly 1 and 0; the
terms beyond that m, which it skips, are then exact zeros.  The series
agree to ~1e-15 at the switch.

Intensity envelope
------------------
With ``envelope_modes`` = k, a bin's powers carry one common gain
theta ~ Gamma(k, 1/k), so its field pattern law is the mixture
E_theta[prod_c f_c(theta)^{s_c} (1 - f_c(theta))^{1 - s_c}], computed by
the trapezoid rule in u = ln(theta) (Trefethen & Weideman, SIAM Rev. 56,
2014): 128 nodes a step h apart on |u| <= 12 / sqrt(k), weights
h k^k / Gamma(k) exp(k u - k e^u).  The mass off the grid (5.6e-6 at
k = 1, all at theta < e^-12, where no channel can click) goes to the
silent pattern; the other cells agree with adaptive quadrature to 2e-11
relative for k = 1 to 1000.  No envelope is the one node theta = 1.

Sampling
--------
Both samplers draw from the per-bin pattern law of
:func:`pattern_probabilities`, noise included, as the photon model's do:

- :func:`segment_cells` draws a segment's census of the eight click
  patterns as one multinomial over that law;
- :func:`segment_clicks` places that census in a uniformly random order
  (:func:`heraldsim.coincidence.clicks_from_cells`).  Bins are
  independent, so the sequence is exchangeable and has exactly this law.

The census therefore follows the stated law at any segment size.

:func:`discrete_exit_steps` samples exit steps of walks on an Euler grid
for the test suite's first-passage checks.  It is identical in law to
stepping every Euler point but strides over quiet stretches in adaptive
blocks (one Gaussian draw per block) and reconstructs a block's interior
exactly — via a Gaussian bridge conditioned on the block increment — only
when the interior could plausibly touch a barrier (continuum bridge touch
bound above 1e-12, or the endpoint lands outside the band).  Single-step
blocks are always exact, so near-barrier motion is never approximated.

Splitter coupling
-----------------
With ``coupling`` = kappa > 0, the two signal detectors share the pulse
energy budget: each bin's signal pair clicks jointly with probability

    q = kappa * 2 (pulse_duration / bin_width)^2 (f1 + f2) * f1 * f2

(clipped to the range any joint law with marginals f1, f2 can realise),
where f1, f2 are the field click probabilities.  Each detector still
clicks with its own probability, so the singles keep the uncoupled law in
distribution; only the coincidence rate moves.  The herald stays
independent of the signals.  Dark and background clicks are OR-ed in
afterwards and take no part in the budget.
"""

from __future__ import annotations

import math

import numpy as np

from .coincidence import CHANNEL_BITS, clicks_from_cells
from .core import (
    ExperimentConfig,
    Role,
    _segment_rng,
    arm_efficiencies,
    noise_probabilities,
)

__all__ = [
    "crossing_probability",
    "discrete_exit_steps",
    "field_click_probabilities",
    "coupled_g2_target",
    "coincidence_probability",
    "pattern_probabilities",
    "segment_clicks",
    "segment_cells",
    "bound_energy",
    "bound_counts",
]

# Block std as a fraction of the distance to the nearest barrier.  At 1/6,
# a block endpoint approaches a barrier closely enough to need interior
# reconstruction (touch bound 1e-12) only ~1e-4 of the time.
_BLOCK_FRACTION = 1.0 / 6.0
# Reconstruct a block's interior when the continuum bridge could have
# touched a barrier with more than this probability.
_TOUCH_BOUND = 1e-12

_SQRT2 = math.sqrt(2.0)


def _survival(theta: float) -> float:
    """P(no exit) at dimensionless time theta by the module docstring's series."""
    if theta >= 0.25:
        total = 0.0
        for j in range(64):
            n = 2 * j + 1
            term = ((-1.0) ** j / n) * math.exp(-(n * n) * math.pi ** 2 * theta / 8.0)
            total += term
            if abs(term) < 1e-18:
                break
        total = 4.0 / math.pi * total
    elif theta > 0.0:
        c = 1.0 / math.sqrt(theta)
        phi = {}
        for m in range(1, 18, 2):
            phi[m] = 0.5 * (1.0 + math.erf(m * c / _SQRT2))
            phi[-m] = 0.5 * (1.0 + math.erf(-m * c / _SQRT2))
            if phi[m] == 1.0 and phi[-m] == 0.0:
                break
        total = 0.0
        for k in range(-(m // 2), m // 2 + 1):
            total += (-1.0) ** k * (phi[2 * k + 1] - phi[2 * k - 1])
    else:
        return 1.0
    return min(max(total, 0.0), 1.0)


def crossing_probability(threshold_energy: float, power: float | np.ndarray,
                         horizon: float) -> float | np.ndarray:
    """P(the walk exits the band within ``horizon``), continuum limit.

    This is the per-bin click probability of a detector receiving ``power``
    with pulse window ``horizon``; power <= 0 never clicks.  ``power`` is a
    scalar or 0-d array (float result) or an array of powers, such as the
    envelope's quadrature nodes (an array of the same shape, each element
    equal to the scalar call for its power).
    """
    if threshold_energy <= 0.0:
        raise ValueError("threshold_energy must be > 0")
    if horizon < 0.0:
        raise ValueError("horizon must be >= 0")
    theta = np.asarray(power, dtype=float) * horizon / threshold_energy
    p = [1.0 - _survival(t) for t in theta.ravel().tolist()]
    return p[0] if theta.ndim == 0 else np.array(p).reshape(theta.shape)


# ---------------------------------------------------------------------------
# Exit-time sampler
# ---------------------------------------------------------------------------

def discrete_exit_steps(rng: np.random.Generator, barrier: float,
                        step_std: float, n_steps: int, n_paths: int,
                        ) -> np.ndarray:
    """Exit steps of ``n_paths`` independent Euler walks from (-barrier, +barrier).

    ``step_std`` is the per-step standard deviation.  Returns int64 exit
    step indices (1-based), 0 where a path never reaches a barrier within
    ``n_steps`` steps.  The law is that of checking every Euler point; see
    the module docstring for how blocks of quiet steps are collapsed
    without changing it.
    """
    if step_std <= 0.0:
        raise ValueError("step_std must be positive")
    if barrier <= 0.0:
        raise ValueError("barrier must be > 0")

    position = np.zeros(n_paths)
    steps_done = np.zeros(n_paths, dtype=np.int64)
    exit_step = np.zeros(n_paths, dtype=np.int64)
    active = np.arange(n_paths)

    while active.size:
        pos = position[active]
        done = steps_done[active]
        remaining = n_steps - done

        dist_up = barrier - pos
        dist_dn = barrier + pos
        dist = np.minimum(dist_up, dist_dn)
        block = np.floor((_BLOCK_FRACTION * dist / step_std) ** 2).astype(np.int64)
        np.clip(block, 1, remaining, out=block)

        block_var = block * step_std * step_std
        jump = rng.standard_normal(active.size) * np.sqrt(block_var)
        new_pos = pos + jump
        endpoint_out = np.abs(new_pos) >= barrier

        multi = block > 1
        # Continuum-bridge touch bound for each barrier; endpoints already
        # outside the band force a reconstruction via the sign flip.
        with np.errstate(over="ignore"):
            touch_up = np.exp(-2.0 * dist_up * (barrier - new_pos) / block_var)
            touch_dn = np.exp(-2.0 * dist_dn * (barrier + new_pos) / block_var)
        needs_fill = multi & ((touch_up > _TOUCH_BOUND) | (touch_dn > _TOUCH_BOUND))

        # Single steps are exact as drawn.
        single = ~multi
        single_hit = single & endpoint_out
        exit_step[active[single_hit]] = done[single_hit] + 1

        # Quiet multi-step blocks advance wholesale.
        quiet = multi & ~needs_fill
        survived = single & ~endpoint_out
        adv = quiet | survived
        adv_idx = active[adv]
        position[adv_idx] = new_pos[adv]
        steps_done[adv_idx] = done[adv] + block[adv]

        # Suspicious blocks: reconstruct the interior exactly (Gaussian
        # bridge over the block's iid Euler increments, conditioned on the
        # block sum already drawn).
        for i in np.flatnonzero(needs_fill):
            k = int(block[i])
            incr = rng.standard_normal(k) * step_std
            partial = np.cumsum(incr)
            bridge = partial + (np.arange(1, k + 1) / k) * (jump[i] - partial[-1])
            walk = pos[i] + bridge
            hits = np.flatnonzero(np.abs(walk) >= barrier)
            gidx = active[i]
            if hits.size:
                exit_step[gidx] = done[i] + int(hits[0]) + 1
            else:
                position[gidx] = new_pos[i]
                steps_done[gidx] = done[i] + k

        keep = (exit_step[active] == 0) & (steps_done[active] < n_steps)
        active = active[keep]

    return exit_step


# ---------------------------------------------------------------------------
# Per-bin click law
# ---------------------------------------------------------------------------

def _node_clicks(cfg: ExperimentConfig) -> tuple[np.ndarray, list[np.ndarray]]:
    """Gain-node weights and each channel's click probability at every node.

    The nodes and weights of the envelope's trapezoid rule (module
    docstring), in ``math`` functions so that numpy's vectorised ``exp``
    cannot move them; without an envelope, theta = 1 with weight 1.
    """
    pc = cfg.pcsft
    if pc is None:
        raise ValueError("configuration has no pcsft block")
    k = pc.envelope_modes
    if k is None:
        theta = weight = np.ones(1)
    else:
        u = np.linspace(-12.0 / math.sqrt(k), 12.0 / math.sqrt(k), 128).tolist()
        log_norm = k * math.log(k) - math.lgamma(k)
        theta = np.array([math.exp(x) for x in u])
        weight = (u[1] - u[0]) * np.array(
            [math.exp(log_norm + k * (x - t)) for x, t in zip(u, theta.tolist())])
    return weight, [crossing_probability(pc.threshold_energy,
                                         pc.incident_power * a * theta,
                                         pc.pulse_duration)
                    for a in arm_efficiencies(cfg)]


def field_click_probabilities(cfg: ExperimentConfig, nodes=None,
                              ) -> tuple[float, float, float]:
    """Continuum field click probability per bin for (herald, det 1, det 2).

    Noise is not included; arm transmissions scale the power reaching each
    detector, and an envelope's gain is averaged over.  ``nodes`` is
    ``_node_clicks(cfg)``, computed when omitted.
    """
    weight, clicks = _node_clicks(cfg) if nodes is None else nodes
    return tuple(math.fsum(weight * f) for f in clicks)


def coupled_g2_target(cfg: ExperimentConfig, f=None) -> float:
    """Coincidence-to-singles target kappa * 2 (delta/bin)^2 (f1 + f2).

    The value the heralded autocorrelation converges to under the splitter
    energy-budget coupling (before noise); 0 when coupling is off.  ``f`` is
    :func:`field_click_probabilities` of ``cfg``, computed when omitted.
    """
    _, f1, f2 = field_click_probabilities(cfg) if f is None else f
    pc = cfg.pcsft
    window_ratio = pc.pulse_duration / cfg.detectors.bin_width
    return pc.coupling * 2.0 * window_ratio ** 2 * (f1 + f2)


def coincidence_probability(cfg: ExperimentConfig, f=None) -> float:
    """Per-bin probability that both signal detectors field-click.

    Independent product f1*f2 when coupling is off (under an envelope, the
    mixture's own coincidences are in :func:`pattern_probabilities`);
    otherwise the coupled target g2 * f1 * f2, clipped to the range any
    joint law with the fixed marginals can realise (the Frechet bounds),
    which keeps every cell of the coupled pattern law nonnegative.  ``f``
    as in :func:`coupled_g2_target`.
    """
    f = field_click_probabilities(cfg) if f is None else f
    _, f1, f2 = f
    if cfg.pcsft.coupling == 0.0:
        return f1 * f2
    q = coupled_g2_target(cfg, f) * f1 * f2
    lo = max(0.0, f1 + f2 - 1.0)
    hi = min(f1, f2)
    return min(max(q, lo), hi)


def pattern_probabilities(cfg: ExperimentConfig) -> np.ndarray:
    """Expected per-bin law over the 8 joint click patterns, noise included.

    Indexed as :mod:`heraldsim.coincidence` lays out click patterns.
    Without coupling, the channels click independently at each gain node,
    weighted, the mass off the grid silent.  The coupling, which is never
    combined with an envelope, leaves the herald independent of the
    signals and moves their coincidences to :func:`coincidence_probability`.
    """
    nodes = weight, clicks = _node_clicks(cfg)
    f_h, f1, f2 = f = field_click_probabilities(cfg, nodes)
    if cfg.pcsft.coupling:
        q = coincidence_probability(cfg, f)
        # At the lower Frechet bound the silent cell is 0 up to rounding.
        signals = [max(0.0, 1.0 - f1 - f2 + q), f2 - q, f1 - q, q]
        field_law = np.outer([1.0 - f_h, f_h], signals).ravel()
    else:
        field_law = sum(w * _or_channels((1.0,) + (0.0,) * 7, node)
                        for w, node in zip(weight.tolist(), zip(*clicks)))
        field_law[0] += 1.0 - math.fsum(weight)
    return _or_channels(field_law, noise_probabilities(cfg))


def _or_channels(law, probs) -> np.ndarray:
    """Pattern law after OR-ing independent clicks into each channel.

    ``law`` holds 8 pattern probabilities, indexed as in
    :func:`pattern_probabilities`; ``probs`` gives the (herald, det 1,
    det 2) click probabilities.  Every cell whose channel bit is clear moves
    to its bit-set partner with that channel's probability.
    """
    law = [float(x) for x in law]
    for p, bit in zip(probs, CHANNEL_BITS):
        for cell in range(8):
            if not cell & bit:
                moved = law[cell] * p
                law[cell] *= 1.0 - p
                law[cell | bit] += moved
    return np.array(law)


# ---------------------------------------------------------------------------
# Segment samplers
# ---------------------------------------------------------------------------

def segment_clicks(cfg: ExperimentConfig, segment_index: int,
                   n_bins: int, point_index: int = 0, *, law,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-bin click sampler for one segment: its census in a random order.

    The census :func:`segment_cells` draws for the same arguments, placed
    in a uniformly random order from the segment's placement stream, which
    the census never keys.  Streams follow the same (point, segment, role)
    discipline as the photon model, drawn from the pooled generators of
    :func:`heraldsim.core.rng_stream`.  ``law`` is
    :func:`pattern_probabilities` of ``cfg``, which the runner computes
    once per run.
    """
    cells = segment_cells(cfg, segment_index, n_bins, point_index, law=law)
    rng = _segment_rng(cfg, segment_index, Role.PLACEMENT, point_index)
    return clicks_from_cells(cells, n_bins, rng)


def segment_cells(cfg: ExperimentConfig, segment_index: int,
                  n_bins: int, point_index: int = 0, *, law) -> np.ndarray:
    """Count-level sampler: bins per joint click pattern for one segment.

    One multinomial over ``law``, drawn from the segment's (pooled) source
    stream.  Streams and ``law`` as in :func:`segment_clicks`, which
    places this census bin by bin.
    """
    rng = _segment_rng(cfg, segment_index, Role.SOURCE, point_index)
    return rng.multinomial(n_bins, law)


# ---------------------------------------------------------------------------
# Consistency bounds
# ---------------------------------------------------------------------------

def bound_energy(pulse_duration: float, bin_width: float,
                 pulse_energy: float, threshold_energy: float) -> float:
    """Autocorrelation ceiling (2 delta / bin) * (pulse energy / threshold).

    Any threshold-crossing model with this much energy headroom per pulse
    must keep the heralded autocorrelation below the returned value.
    Exact arithmetic; in particular the value is exactly 2 when
    pulse_duration == bin_width and pulse_energy == threshold_energy.
    """
    if pulse_duration <= 0.0 or bin_width <= 0.0:
        raise ValueError("durations must be > 0")
    if pulse_energy < 0.0 or threshold_energy <= 0.0:
        raise ValueError("energies must be positive (threshold strictly)")
    return 2.0 * (pulse_duration / bin_width) * (pulse_energy / threshold_energy)


def bound_counts(pulse_duration: float, bin_width: float,
                 counts_1: float, counts_2: float, duration: float) -> float:
    """Autocorrelation ceiling (2 delta^2 / bin) * (N1 + N2) / T from singles.

    Grows linearly with the observed singles rate — the lever that makes
    the threshold-field model power-dependent where the photon model is
    not.  Exact arithmetic.
    """
    if pulse_duration <= 0.0 or bin_width <= 0.0:
        raise ValueError("durations must be > 0")
    if duration <= 0.0:
        raise ValueError("duration must be > 0")
    if counts_1 < 0 or counts_2 < 0:
        raise ValueError("counts must be >= 0")
    return 2.0 * pulse_duration * (pulse_duration / bin_width) * (counts_1 + counts_2) / duration

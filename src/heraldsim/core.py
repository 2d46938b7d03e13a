"""Configuration types, validation, and reproducible random-number streams.

Everything downstream (simulators, counting, analysis, CLI) consumes the
frozen configuration objects defined here.  All quantities are SI: rates in
events/second, durations in seconds, energies in arbitrary-but-consistent
energy units.

Random numbers come from counter-based Philox streams keyed by
``(seed, stream_id)``, so any segment of any run can be generated
independently and in any order (or on any number of workers) with
bit-identical results.  See :func:`rng_stream` and :func:`stream_id`.
"""

from __future__ import annotations

import configparser
import enum
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "Theory",
    "SourceConfig",
    "OpticsConfig",
    "DetectorConfig",
    "PCSFTConfig",
    "ExperimentConfig",
    "ConfigError",
    "validate_config",
    "rng_stream",
    "stream_id",
    "Role",
    "load_config",
    "parse_config",
    "config_to_dict",
    "config_from_dict",
    "with_attenuation",
    "arm_efficiencies",
    "noise_probabilities",
    "noise_masks",
    "BIN_WIDTH_DEFAULT",
    "DARK_RATE_DEFAULT",
    "SEGMENT_BINS_DEFAULT",
]

# 48 MHz repetition bins: 1 / 48e6 s, the hardware tagger granularity the
# defaults are modelled on.
BIN_WIDTH_DEFAULT = 20.83e-9
# Typical free-running SPAD dark rate (events / s).
DARK_RATE_DEFAULT = 150.0
# ~1 ms of bins per readout segment at the default bin width.
SEGMENT_BINS_DEFAULT = 48_000

# A per-bin Bernoulli probability for noise is taken as rate * bin_width
# exactly (no 1 - exp(-r*dt) correction); reject configurations where that
# linearisation is not obviously safe.
MAX_NOISE_PROB = 0.1

# Soft ceiling for the heralded regime: above this mean pair number the
# single-photon approximations used in the analysis degrade noticeably.
PAIR_MEAN_WARN = 0.2


class Theory(str, enum.Enum):
    """Which detection model generates clicks."""

    QM = "qm"
    PCSFT = "pcsft"


class ConfigError(ValueError):
    """Raised when a configuration violates its contract.

    The message lists every violation found, one per line, each naming the
    offending field.
    """


@dataclass(frozen=True)
class SourceConfig:
    """Photon-pair source: multimode-thermal pair statistics per bin.

    pair_mean_per_bin: mean number of pairs generated in one bin (mu).
    mode_count: number of independent Schmidt modes (M).  The per-bin pair
        number is the sum of M Bose-Einstein variates with mean mu/M.
    """

    pair_mean_per_bin: float
    mode_count: int = 1


@dataclass(frozen=True)
class OpticsConfig:
    """Passive optics between the source and the three detectors.

    The herald detector sees the idler beam directly (efficiency eta_h).
    The signal beam passes a variable attenuator (transmission
    ``attenuation``), then a splitter sending a fraction ``splitter_ratio``
    toward detector 1 and the rest toward detector 2, then the detector
    efficiencies eta_1 / eta_2.
    """

    eta_h: float
    eta_1: float
    eta_2: float
    attenuation: float = 1.0
    splitter_ratio: float = 0.5


@dataclass(frozen=True)
class DetectorConfig:
    """Threshold (non-number-resolving) detectors and their noise.

    Dark counts and residual background light are independent per-bin
    Bernoulli processes with probability rate * bin_width, OR-ed into each
    channel's click stream.
    """

    dark_rate_h: float = DARK_RATE_DEFAULT
    dark_rate_1: float = DARK_RATE_DEFAULT
    dark_rate_2: float = DARK_RATE_DEFAULT
    background_rate_h: float = 0.0
    background_rate_1: float = 0.0
    background_rate_2: float = 0.0
    bin_width: float = BIN_WIDTH_DEFAULT


@dataclass(frozen=True)
class PCSFTConfig:
    """Threshold-crossing (random classical field) detection model.

    A detector clicks when the Wiener process integrating its incident
    field energy-amplitude first leaves ``(-sqrt(threshold_energy),
    +sqrt(threshold_energy))`` within the pulse window of length
    ``pulse_duration`` inside a bin.  ``incident_power`` is the source-side
    diffusion rate sigma^2; each channel diffuses at sigma^2 times its
    optical power share.  The walk is continuous, so a bin's click
    probability is the exact crossing probability (pcsft.crossing_probability).

    coupling: strength (0..1) of the splitter energy-budget coupling that
        correlates the two signal detectors; 0 means fully independent
        channels.  See pcsft.segment_clicks for the exact construction.
    envelope_modes: if set, each bin's powers are multiplied by a common
        Gamma(shape=envelope_modes, mean=1) factor modelling slow source
        intensity fluctuations.  None disables the envelope.
    """

    threshold_energy: float
    pulse_duration: float
    incident_power: float
    coupling: float = 0.5
    envelope_modes: Optional[int] = None


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete, self-contained simulation run description."""

    source: SourceConfig
    optics: OpticsConfig
    detectors: DetectorConfig = field(default_factory=DetectorConfig)
    pcsft: Optional[PCSFTConfig] = None
    theory: Theory = Theory.QM
    n_bins: int = SEGMENT_BINS_DEFAULT
    segment_bins: int = SEGMENT_BINS_DEFAULT
    seed: int = 0


def _check(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Validate every field of ``cfg``; return it unchanged if sound.

    Raises ConfigError listing *all* violations (not just the first).
    Validation is idempotent: validate_config(validate_config(c)) is c.
    """
    errors: list[str] = []
    src, opt, det = cfg.source, cfg.optics, cfg.detectors

    _check(errors, src.pair_mean_per_bin >= 0.0,
           f"source.pair_mean_per_bin must be >= 0, got {src.pair_mean_per_bin}")
    _check(errors, isinstance(src.mode_count, (int, np.integer)) and src.mode_count >= 1,
           f"source.mode_count must be an integer >= 1, got {src.mode_count!r}")
    if src.pair_mean_per_bin > PAIR_MEAN_WARN:
        warnings.warn(
            f"source.pair_mean_per_bin = {src.pair_mean_per_bin} is outside the "
            f"heralded regime (<= {PAIR_MEAN_WARN}); multi-pair corrections will be large",
            stacklevel=2,
        )

    _check(errors, 0.0 <= opt.attenuation <= 1.0,
           f"optics.attenuation must be in [0, 1], got {opt.attenuation}")
    _check(errors, 0.0 <= opt.splitter_ratio <= 1.0,
           f"optics.splitter_ratio must be in [0, 1], got {opt.splitter_ratio}")
    for name in ("eta_h", "eta_1", "eta_2"):
        val = getattr(opt, name)
        _check(errors, 0.0 <= val <= 1.0,
               f"optics.{name} must be in [0, 1], got {val}")

    _check(errors, det.bin_width > 0.0,
           f"detectors.bin_width must be > 0, got {det.bin_width}")
    for name in ("dark_rate_h", "dark_rate_1", "dark_rate_2",
                 "background_rate_h", "background_rate_1", "background_rate_2"):
        rate = getattr(det, name)
        _check(errors, rate >= 0.0, f"detectors.{name} must be >= 0, got {rate}")
        if rate >= 0.0 and det.bin_width > 0.0:
            _check(errors, rate * det.bin_width < MAX_NOISE_PROB,
                   f"detectors.{name} * bin_width = {rate * det.bin_width:.3g} "
                   f"exceeds the per-bin Bernoulli limit {MAX_NOISE_PROB}")

    if cfg.theory is Theory.PCSFT:
        _check(errors, cfg.pcsft is not None,
               "theory = pcsft requires a [pcsft] configuration block")
    if cfg.pcsft is not None:
        pc = cfg.pcsft
        _check(errors, pc.threshold_energy > 0.0,
               f"pcsft.threshold_energy must be > 0, got {pc.threshold_energy}")
        _check(errors, 0.0 < pc.pulse_duration <= det.bin_width,
               f"pcsft.pulse_duration must be in (0, bin_width], got {pc.pulse_duration}")
        _check(errors, pc.incident_power >= 0.0,
               f"pcsft.incident_power must be >= 0, got {pc.incident_power}")
        _check(errors, 0.0 <= pc.coupling <= 1.0,
               f"pcsft.coupling must be in [0, 1], got {pc.coupling}")
        if pc.envelope_modes is not None:
            _check(errors,
                   isinstance(pc.envelope_modes, (int, np.integer)) and pc.envelope_modes >= 1,
                   f"pcsft.envelope_modes must be an integer >= 1 or absent, "
                   f"got {pc.envelope_modes!r}")
            _check(errors, pc.coupling == 0.0,
                   "pcsft.envelope_modes and a nonzero pcsft.coupling cannot be "
                   "combined (the splitter coupling targets fixed per-bin click "
                   "probabilities)")

    _check(errors, isinstance(cfg.n_bins, (int, np.integer)) and cfg.n_bins >= 1,
           f"run.n_bins must be an integer >= 1, got {cfg.n_bins!r}")
    _check(errors, isinstance(cfg.segment_bins, (int, np.integer)) and cfg.segment_bins >= 1,
           f"run.segment_bins must be an integer >= 1, got {cfg.segment_bins!r}")
    if (isinstance(cfg.n_bins, (int, np.integer)) and cfg.n_bins >= 1
            and isinstance(cfg.segment_bins, (int, np.integer)) and cfg.segment_bins >= 1):
        _check(errors, cfg.segment_bins <= cfg.n_bins,
               f"run.segment_bins ({cfg.segment_bins}) must not exceed "
               f"run.n_bins ({cfg.n_bins})")
    _check(errors, isinstance(cfg.seed, (int, np.integer)),
           f"run.seed must be an integer, got {cfg.seed!r}")

    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


# ---------------------------------------------------------------------------
# Random-number streams
# ---------------------------------------------------------------------------

class Role:
    """Sub-stream roles within one segment.

    Each (sweep point, segment, role) triple owns an independent Philox
    stream, so segments can be simulated in any order or concurrently and
    still reproduce bit for bit.
    """

    SOURCE = 0       # pair numbers (quantum) / intensity envelope (field model)
    HERALD = 1       # herald arm: thinning or diffusion
    SIGNAL_1 = 2     # signal detector 1 path (field model diffusion)
    SIGNAL_2 = 3     # signal detector 2 path (field model diffusion)
    NOISE_H = 4      # herald dark + background draws
    NOISE_1 = 5
    NOISE_2 = 6
    COUPLING = 7     # splitter energy-budget rewiring draws

    COUNT = 8


_ROLE_BITS = 3          # 8 roles
_SEGMENT_BITS = 37      # ~1.4e11 segments per point
_MASK64 = (1 << 64) - 1


def stream_id(segment_index: int, role: int, point_index: int = 0) -> int:
    """Pack (point, segment, role) into one 64-bit stream identifier.

    Layout, LSB first: 3 bits role | 37 bits segment | 24 bits point.
    Standalone runs use point_index 0; sweep point i uses i + 1.
    """
    if not 0 <= role < Role.COUNT:
        raise ValueError(f"role must be in [0, {Role.COUNT}), got {role}")
    if not 0 <= segment_index < (1 << _SEGMENT_BITS):
        raise ValueError(f"segment_index out of range: {segment_index}")
    if not 0 <= point_index < (1 << (64 - _SEGMENT_BITS - _ROLE_BITS)):
        raise ValueError(f"point_index out of range: {point_index}")
    return (point_index << (_SEGMENT_BITS + _ROLE_BITS)) | (segment_index << _ROLE_BITS) | role


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream).

    Philox-4x64 keyed with the pair, so streams are independent by
    construction and reproducible across runs and machines for a given
    numpy version.  Negative seeds are taken modulo 2^64.
    """
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# INI configuration files
# ---------------------------------------------------------------------------

_SECTION_FIELDS = {
    "source": ("pair_mean_per_bin", "mode_count"),
    "optics": ("eta_h", "eta_1", "eta_2", "attenuation", "splitter_ratio"),
    "detectors": ("dark_rate_h", "dark_rate_1", "dark_rate_2",
                  "background_rate_h", "background_rate_1", "background_rate_2",
                  "bin_width"),
    "pcsft": ("threshold_energy", "pulse_duration", "incident_power",
              "coupling", "envelope_modes"),
    "run": ("theory", "n_bins", "segment_bins", "seed"),
}

# Keys that files written by earlier versions carry and that no longer set
# anything: accepted in INI files and stored config echoes, then ignored.
# pcsft.diffusion_step was the Euler step of a grid-monitored click law.
_IGNORED_KEYS = {"pcsft": ("diffusion_step",)}

_REQUIRED_KEYS = {
    "source": ("pair_mean_per_bin",),
    "optics": ("eta_h", "eta_1", "eta_2"),
    "pcsft": ("threshold_energy", "pulse_duration", "incident_power"),
}


def _get_float(sec, key: str, errors: list[str], section: str) -> Optional[float]:
    raw = sec.get(key)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        errors.append(f"[{section}] {key}: not a number: {raw!r}")
        return None


def _get_int(sec, key: str, errors: list[str], section: str) -> Optional[int]:
    raw = sec.get(key)
    if raw is None:
        return None
    try:
        return int(raw, 0)
    except ValueError:
        errors.append(f"[{section}] {key}: not an integer: {raw!r}")
        return None


def parse_config(text: str, origin: str = "<string>") -> ExperimentConfig:
    """Parse and validate an INI experiment description.

    Sections: [source], [optics], [detectors], [pcsft], [run].  Keys map
    one-to-one onto the configuration dataclass fields, except the retired
    keys of ``_IGNORED_KEYS``, which are accepted and ignored; unknown
    sections or keys are hard errors, as is any malformed number.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    errors: list[str] = []
    for section in parser.sections():
        if section not in _SECTION_FIELDS:
            errors.append(f"unknown section [{section}]")
            continue
        allowed = _SECTION_FIELDS[section] + _IGNORED_KEYS.get(section, ())
        for key in parser[section]:
            if key not in allowed:
                errors.append(f"unknown key '{key}' in section [{section}]")
    for section, keys in _REQUIRED_KEYS.items():
        if section == "pcsft" and not parser.has_section("pcsft"):
            continue
        if not parser.has_section(section):
            errors.append(f"missing required section [{section}]")
            continue
        for key in keys:
            if key not in parser[section]:
                errors.append(f"missing required key '{key}' in section [{section}]")
    if errors:
        raise ConfigError("\n".join(f"{origin}: {e}" for e in errors))

    src_sec = parser["source"]
    opt_sec = parser["optics"]
    det_sec = parser["detectors"] if parser.has_section("detectors") else {}
    run_sec = parser["run"] if parser.has_section("run") else {}

    def _float_or(sec, key: str, section: str, default: float) -> float:
        if key not in sec:
            return default
        val = _get_float(sec, key, errors, section)
        return default if val is None else val

    def _int_or(sec, key: str, section: str, default: int) -> int:
        if key not in sec:
            return default
        val = _get_int(sec, key, errors, section)
        return default if val is None else val

    source = SourceConfig(
        pair_mean_per_bin=_float_or(src_sec, "pair_mean_per_bin", "source", 0.0),
        mode_count=_int_or(src_sec, "mode_count", "source", 1),
    )
    optics = OpticsConfig(
        eta_h=_float_or(opt_sec, "eta_h", "optics", 0.0),
        eta_1=_float_or(opt_sec, "eta_1", "optics", 0.0),
        eta_2=_float_or(opt_sec, "eta_2", "optics", 0.0),
        attenuation=_float_or(opt_sec, "attenuation", "optics", 1.0),
        splitter_ratio=_float_or(opt_sec, "splitter_ratio", "optics", 0.5),
    )

    det_kwargs = {}
    for name in _SECTION_FIELDS["detectors"]:
        if name in det_sec:
            det_kwargs[name] = _get_float(det_sec, name, errors, "detectors")
    detectors = DetectorConfig(**{k: v for k, v in det_kwargs.items() if v is not None})

    pcsft = None
    if parser.has_section("pcsft"):
        pc_sec = parser["pcsft"]
        envelope = None
        if "envelope_modes" in pc_sec:
            raw = pc_sec["envelope_modes"].strip().lower()
            if raw not in ("", "none", "off"):
                envelope = _get_int(pc_sec, "envelope_modes", errors, "pcsft")
        pcsft = PCSFTConfig(
            threshold_energy=_float_or(pc_sec, "threshold_energy", "pcsft", 0.0),
            pulse_duration=_float_or(pc_sec, "pulse_duration", "pcsft", 0.0),
            incident_power=_float_or(pc_sec, "incident_power", "pcsft", 0.0),
            coupling=_float_or(pc_sec, "coupling", "pcsft", 0.5),
            envelope_modes=envelope,
        )

    theory = Theory.QM
    if "theory" in run_sec:
        raw = run_sec["theory"].strip().lower()
        try:
            theory = Theory(raw)
        except ValueError:
            errors.append(f"[run] theory must be 'qm' or 'pcsft', got {raw!r}")

    if errors:
        raise ConfigError("\n".join(f"{origin}: {e}" for e in errors))

    n_bins = _int_or(run_sec, "n_bins", "run", SEGMENT_BINS_DEFAULT)
    if "segment_bins" in run_sec:
        segment_bins = _int_or(run_sec, "segment_bins", "run", SEGMENT_BINS_DEFAULT)
    else:
        # Unspecified segmenting shrinks to fit short runs.
        segment_bins = min(SEGMENT_BINS_DEFAULT, n_bins) if n_bins >= 1 else n_bins
    cfg = ExperimentConfig(
        source=source,
        optics=optics,
        detectors=detectors,
        pcsft=pcsft,
        theory=theory,
        n_bins=n_bins,
        segment_bins=segment_bins,
        seed=_int_or(run_sec, "seed", "run", 0),
    )
    if errors:
        raise ConfigError("\n".join(f"{origin}: {e}" for e in errors))
    try:
        return validate_config(cfg)
    except ConfigError as exc:
        raise ConfigError(f"{origin}:\n{exc}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate an INI experiment file."""
    path = Path(path)
    return parse_config(path.read_text(), origin=str(path))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-friendly echo of a configuration (for run provenance)."""
    out = {
        "source": {"pair_mean_per_bin": cfg.source.pair_mean_per_bin,
                   "mode_count": cfg.source.mode_count},
        "optics": {"eta_h": cfg.optics.eta_h, "eta_1": cfg.optics.eta_1,
                   "eta_2": cfg.optics.eta_2,
                   "attenuation": cfg.optics.attenuation,
                   "splitter_ratio": cfg.optics.splitter_ratio},
        "detectors": {name: getattr(cfg.detectors, name)
                      for name in _SECTION_FIELDS["detectors"]},
        "run": {"theory": cfg.theory.value, "n_bins": cfg.n_bins,
                "segment_bins": cfg.segment_bins, "seed": cfg.seed},
    }
    if cfg.pcsft is not None:
        out["pcsft"] = {name: getattr(cfg.pcsft, name)
                        for name in _SECTION_FIELDS["pcsft"]}
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`, with full validation.

    Retired keys that older echoes carry (``_IGNORED_KEYS``) are ignored.
    """
    try:
        source = SourceConfig(**data["source"])
        optics = OpticsConfig(**data["optics"])
        detectors = DetectorConfig(**data["detectors"])
        pcsft = None
        if "pcsft" in data:
            pcsft = PCSFTConfig(**{k: v for k, v in data["pcsft"].items()
                                   if k not in _IGNORED_KEYS["pcsft"]})
        run = data["run"]
        cfg = ExperimentConfig(
            source=source, optics=optics, detectors=detectors, pcsft=pcsft,
            theory=Theory(run["theory"]), n_bins=run["n_bins"],
            segment_bins=run["segment_bins"], seed=run["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration record: {exc}") from exc
    validate_config(cfg)
    return cfg


def with_attenuation(cfg: ExperimentConfig, attenuation: float) -> ExperimentConfig:
    """Copy of ``cfg`` with the signal-arm attenuation replaced."""
    return replace(cfg, optics=replace(cfg.optics, attenuation=attenuation))


def arm_efficiencies(cfg: ExperimentConfig) -> tuple[float, float, float]:
    """End-to-end transmissions (herald, detector 1, detector 2).

    For photons these are per-photon registration probabilities; for the
    threshold-field model the same numbers act as optical power fractions.
    """
    opt = cfg.optics
    return (opt.eta_h,
            opt.attenuation * opt.splitter_ratio * opt.eta_1,
            opt.attenuation * (1.0 - opt.splitter_ratio) * opt.eta_2)


def noise_probabilities(cfg: ExperimentConfig) -> tuple[float, float, float]:
    """Per-bin noise click probability per channel (dark OR background).

    Each noise process fires with probability rate * bin_width in a bin;
    the two processes are independent, so the combined click probability is
    1 - (1 - p_dark)(1 - p_background).
    """
    det = cfg.detectors
    dt = det.bin_width
    out = []
    for dark, bg in ((det.dark_rate_h, det.background_rate_h),
                     (det.dark_rate_1, det.background_rate_1),
                     (det.dark_rate_2, det.background_rate_2)):
        p_d, p_b = dark * dt, bg * dt
        # a + b - a*b == 1 - (1-a)(1-b), but stays exactly rate * bin_width
        # when only one process is active.
        out.append(p_d + p_b - p_d * p_b)
    return tuple(out)


def noise_masks(cfg: ExperimentConfig, n_bins: int, segment_index: int,
                point_index: int = 0) -> list[Optional[np.ndarray]]:
    """Per-channel noise click masks for one segment (None where rate is 0).

    Channels draw from their own noise-role streams, so enabling noise on
    one channel never shifts another channel's draws.
    """
    roles = (Role.NOISE_H, Role.NOISE_1, Role.NOISE_2)
    out: list[Optional[np.ndarray]] = []
    for p, role in zip(noise_probabilities(cfg), roles):
        if p == 0.0:
            out.append(None)
            continue
        rng = rng_stream(cfg.seed, stream_id(segment_index, role, point_index))
        out.append(rng.random(n_bins) < p)
    return out

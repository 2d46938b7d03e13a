"""Configuration types, validation, and reproducible random-number streams.

Everything downstream (simulators, counting, analysis, CLI) consumes the
frozen configuration objects defined here.  All quantities are SI: rates in
events/second, durations in seconds, energies in arbitrary-but-consistent
energy units.

Random numbers come from counter-based Philox streams keyed by
``(seed, stream_id)``, so any segment of any run can be generated
independently and in any order with bit-identical results.  See :func:`rng_stream` and :func:`stream_id`.
"""

from __future__ import annotations

import configparser
import enum
import math
import sys
import threading
import warnings
from collections.abc import Mapping
from dataclasses import (MISSING, Field, asdict, dataclass, field, fields,
                         is_dataclass, replace)
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

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
# The most bins a run may hold: segment tables and their totals are int64.
_MAX_BINS = 2**63 - 1

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
        channels.  See the pcsft module for the exact construction.
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
    """A complete, self-contained simulation run description.

    ``segment_bins`` is the most bins a segment may hold: a run is cut into
    ``n_bins // segment_bins`` full segments, then one last segment of the
    ``n_bins % segment_bins`` bins left, if any.  Segment i starts at bin
    ``i * segment_bins`` and draws from streams keyed by i, so the cut is
    part of what a seed reproduces.
    """

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

    _check(errors, 0.0 <= src.pair_mean_per_bin < math.inf,
           f"source.pair_mean_per_bin must be finite and >= 0, got {src.pair_mean_per_bin}")
    _check(errors, isinstance(src.mode_count, (int, np.integer)) and src.mode_count >= 1,
           f"source.mode_count must be an integer >= 1, got {src.mode_count!r}")
    if PAIR_MEAN_WARN < src.pair_mean_per_bin < math.inf:
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

    width_ok = 0.0 < det.bin_width < math.inf
    _check(errors, width_ok,
           f"detectors.bin_width must be finite and > 0, got {det.bin_width}")
    for name in ("dark_rate_h", "dark_rate_1", "dark_rate_2",
                 "background_rate_h", "background_rate_1", "background_rate_2"):
        rate = getattr(det, name)
        _check(errors, rate >= 0.0, f"detectors.{name} must be >= 0, got {rate}")
        if rate >= 0.0 and width_ok:
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

    n_bins_int = isinstance(cfg.n_bins, (int, np.integer))
    _check(errors, n_bins_int and cfg.n_bins >= 1,
           f"run.n_bins must be an integer >= 1, got {cfg.n_bins!r}")
    _check(errors, not n_bins_int or cfg.n_bins <= _MAX_BINS,
           f"run.n_bins must be at most 2**63 - 1, got {cfg.n_bins}")
    _check(errors, isinstance(cfg.segment_bins, (int, np.integer)) and cfg.segment_bins >= 1,
           f"run.segment_bins must be an integer >= 1, got {cfg.segment_bins!r}")
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
    still reproduce bit for bit.  The package draws ids 0 and 1; the test
    suite's per-bin oracles draw ids 1-7 (their herald shares id 1, as no
    oracle draws within a package run), so ids 2-7 stay reserved.
    """

    SOURCE = 0       # the census multinomial
    PLACEMENT = 1    # where the click route places its census
    COUNT = 8


_ROLE_BITS = 3          # 8 roles
_SEGMENT_BITS = 37      # ~1.4e11 segments per point
_SEGMENT_LIMIT = 1 << _SEGMENT_BITS
_POINT_LIMIT = 1 << (64 - _SEGMENT_BITS - _ROLE_BITS)
_MASK64 = (1 << 64) - 1
_ROLE_MASK = (1 << _ROLE_BITS) - 1


def stream_id(segment_index: int, role: int, point_index: int = 0) -> int:
    """Pack (point, segment, role) into one 64-bit stream identifier.

    Layout, LSB first: 3 bits role | 37 bits segment | 24 bits point.
    Standalone runs use point_index 0; sweep point i uses i + 1.
    """
    if (0 <= role < Role.COUNT and 0 <= segment_index < _SEGMENT_LIMIT
            and 0 <= point_index < _POINT_LIMIT):
        return ((point_index << (_SEGMENT_BITS + _ROLE_BITS))
                | (segment_index << _ROLE_BITS) | role)
    if not 0 <= role < Role.COUNT:
        raise ValueError(f"role must be in [0, {Role.COUNT}), got {role}")
    if not 0 <= segment_index < _SEGMENT_LIMIT:
        raise ValueError(f"segment_index out of range: {segment_index}")
    raise ValueError(f"point_index out of range: {point_index}")


# Per thread, one (generator, bit generator, state) slot per role; see
# rng_stream.  Each use resets the slot's whole state, so no caller sees
# what another left.
_POOL = threading.local()


def rng_stream(seed: int, stream: int, pooled: bool = False) -> np.random.Generator:
    """Independent generator for (seed, stream).

    Philox-4x64 keyed with the pair, so streams are independent by
    construction and reproducible across runs and machines for a given
    numpy version.  Negative seeds are taken modulo 2^64.

    A new generator by default.  With ``pooled`` (how the samplers draw),
    the calling thread's generator for the stream's role (its low bits, see
    :func:`stream_id`) is rekeyed to the pair at counter 0 instead, which
    gives the same numbers at a fraction of the cost.  It stays valid until
    the next pooled call for the same role on the same thread.
    """
    key = [seed & _MASK64, stream & _MASK64]
    if not pooled:
        return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    try:
        slots = _POOL.slots
    except AttributeError:  # numpy's Philox state at counter 0, empty buffer, in lists
        slots = _POOL.slots = [(generator, generator.bit_generator, {
            "bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0})
            for generator in (np.random.Generator(np.random.Philox(0))
                              for _ in range(Role.COUNT))]
    generator, bit_generator, state = slots[stream & _ROLE_MASK]
    state["state"]["key"] = key
    bit_generator.state = state
    return generator


def _segment_rng(cfg: ExperimentConfig, segment_index: int, role: int,
                 point_index: int) -> np.random.Generator:
    """The pooled generator of one segment's stream for ``role``."""
    return rng_stream(cfg.seed, stream_id(segment_index, role, point_index),
                      pooled=True)


# ---------------------------------------------------------------------------
# INI configuration files
# ---------------------------------------------------------------------------

def _field_types(cls) -> list[tuple[Field, object]]:
    hints = get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls)]


def _has_default(f: Field) -> bool:
    return f.default is not MISSING or f.default_factory is not MISSING


# The dataclasses are the schema.  Each field of ExperimentConfig holding a
# config dataclass (Optional or not) is an INI section of that dataclass's
# fields; the scalar fields of ExperimentConfig form [run].  A key is
# required exactly when its field has no default, and a section when its
# ExperimentConfig field has none.
_BLOCKS = {f.name: cls for f, kind in _field_types(ExperimentConfig)
           for cls in (kind, *get_args(kind)) if is_dataclass(cls)}
_SECTIONS = {name: _field_types(cls) for name, cls in _BLOCKS.items()}
_SECTIONS["run"] = [(f, kind) for f, kind in _field_types(ExperimentConfig)
                    if f.name not in _BLOCKS]
_REQUIRED_SECTIONS = {f.name for f in fields(ExperimentConfig) if not _has_default(f)}

# Keys that files written by earlier versions carry and that no longer set
# anything: accepted in INI files and stored config echoes, then ignored.
# pcsft.diffusion_step was the Euler step of a grid-monitored click law.
_IGNORED_KEYS = {"pcsft": ("diffusion_step",)}


def _parse_value(kind, raw: str, where: str):
    """An INI value read as a field declared ``kind``.

    ``tuple[X, ...]`` reads a comma-separated list of X.  Raises
    ValueError whose message starts with ``where``.
    """
    if get_origin(kind) is tuple:
        return tuple(_parse_value(get_args(kind)[0], tok, where)
                     for tok in raw.split(",") if tok.strip())
    word = raw.strip().lower()
    if kind is Theory:
        try:
            return Theory(word)
        except ValueError:
            choices = " or ".join(repr(t.value) for t in Theory)
            raise ValueError(f"{where} must be {choices}, got {word!r}") from None
    if kind == Optional[int] and word in ("", "none", "off"):
        return None
    try:
        return float(raw) if kind is float else int(raw, 0)
    except ValueError:
        what = "a number" if kind is float else "an integer"
        raise ValueError(f"{where}: not {what}: {raw!r}") from None


def _read_utf8(path: str | Path) -> str:
    """The text of an INI file; one that is not UTF-8 is a ConfigError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}") from None


def _read_sections(sections: Mapping, schema: dict, convert, required,
                   complete=()) -> dict[str, dict]:
    """Each section of ``schema`` in ``sections``, its values read by ``convert``.

    The one reader of experiment INIs, sweep plans and config echoes.
    ``schema`` maps each section to its (field, type) pairs.  Sections of
    ``required`` or ``complete`` must be present, and so must a key whose
    field has no default or whose section is ``complete``.  Every unknown
    section or key (but ``_IGNORED_KEYS``), missing one and malformed
    value is a line of the one ConfigError raised.
    """
    errors = [f"unknown section [{name}]" for name in sections if name not in schema]
    values: dict[str, dict] = {}
    for name, section_schema in schema.items():
        if name not in sections:
            if name in required or name in complete:
                errors.append(f"missing required section [{name}]")
            continue
        stored = sections[name]
        if not isinstance(stored, Mapping):
            errors.append(f"[{name}]: not an object: {stored!r}")
            continue
        known = {f.name for f, _ in section_schema}.union(_IGNORED_KEYS.get(name, ()))
        errors += [f"unknown key '{key}' in section [{name}]"
                   for key in stored if key not in known]
        values[name] = {}
        for f, kind in section_schema:
            if f.name in stored:
                try:
                    values[name][f.name] = convert(kind, stored[f.name],
                                                   f"[{name}] {f.name}")
                except ValueError as exc:
                    errors.append(str(exc))
            elif name in complete or not _has_default(f):
                errors.append(f"missing required key '{f.name}' in section [{name}]")
    if errors:
        raise ConfigError("\n".join(errors))
    return values


def _parse_ini(text: str, origin: str, schema: dict, required, build):
    """``build`` of an INI text's sections, read by ``schema`` and ``_parse_value``.

    Every line of an error, the INI's or ``build``'s, is prefixed by ``origin``.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read_string(text, source=origin)
        sections = {name: parser[name] for name in parser.sections()}
        return build(_read_sections(sections, schema, _parse_value, required))
    except (configparser.Error, ConfigError) as exc:
        raise ConfigError("\n".join(f"{origin}: {line}"
                                    for line in str(exc).splitlines())) from None


def _experiment(values: dict[str, dict]) -> ExperimentConfig:
    """The validated configuration of read section values."""
    run = values.pop("run", {})
    return validate_config(ExperimentConfig(
        **{name: _BLOCKS[name](**kwargs) for name, kwargs in values.items()}, **run))


def parse_config(text: str, origin: str = "<string>") -> ExperimentConfig:
    """Parse and validate an INI experiment description.

    Sections: [source], [optics], [detectors], [pcsft], [run].  Keys map
    one-to-one onto the configuration dataclass fields, except the retired
    keys of ``_IGNORED_KEYS``, which are accepted and ignored; unknown
    sections or keys are hard errors, as is any malformed value.  Every
    error is reported at once, each line prefixed by ``origin``.
    """
    return _parse_ini(text, origin, _SECTIONS, _REQUIRED_SECTIONS, _experiment)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a UTF-8 INI experiment file."""
    return parse_config(_read_utf8(path), origin=str(path))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-friendly echo of a configuration (for run provenance).

    One entry per INI section; a block that is None is left out.
    """
    out = {name: asdict(block) for name in _BLOCKS
           if (block := getattr(cfg, name)) is not None}
    run = {f.name: getattr(cfg, f.name) for f, _ in _SECTIONS["run"]}
    out["run"] = {k: v.value if isinstance(v, Theory) else v for k, v in run.items()}
    return out


# The JSON types a stored echo may hold for each declared field type.
_ECHO_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
               Optional[int]: ((int, type(None)), "an integer or null"), Theory: (str, "a string")}


def _echo_value(kind, value, where: str):
    """A stored echo's JSON value read as a field declared ``kind``.

    A theory is then read as an INI's, and an integer given for a float
    must be one a float can hold; raises ValueError whose message starts
    with ``where``.
    """
    types, what = _ECHO_TYPES[kind]
    if (isinstance(value, bool) or not isinstance(value, types) or kind is float
            and isinstance(value, int) and abs(value) > sys.float_info.max):
        raise ValueError(f"{where}: not {what}: {value!r}")
    return _parse_value(kind, value, where) if kind is Theory else value


def config_from_dict(data: dict) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`, with full validation.

    Read as :func:`parse_config` reads an INI, but from objects of JSON
    values of each field's type, and with every [run] key required, as
    :func:`config_to_dict` writes them all.  Errors of the record are
    reported at once under the header ``bad configuration record:``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"bad configuration record: not an object: {data!r}")
    try:
        values = _read_sections(data, _SECTIONS, _echo_value, _REQUIRED_SECTIONS,
                                complete=("run",))
    except ConfigError as exc:
        raise ConfigError(f"bad configuration record:\n{exc}") from None
    return _experiment(values)


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

"""Configuration, validation, INI parsing, and random-stream contracts."""

import configparser
import dataclasses
import json
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heraldsim import coincidence
from heraldsim.coincidence import (accumulate, clicks_from_cells,
                                   counts_from_cells)
from heraldsim.core import (BIN_WIDTH_DEFAULT, DARK_RATE_DEFAULT, ConfigError,
                            DetectorConfig, ExperimentConfig, OpticsConfig,
                            PCSFTConfig, Role, SourceConfig, Theory,
                            arm_efficiencies, config_from_dict, config_to_dict,
                            noise_probabilities, parse_config, rng_stream,
                            stream_id, validate_config, with_attenuation)
from heraldsim.streams import ClickStreams

from helpers import (OracleRole, bin_patterns, pattern_counts, placed_clicks,
                     placed_segment)


def make_config(**overrides) -> ExperimentConfig:
    base = dict(
        source=SourceConfig(pair_mean_per_bin=0.01),
        optics=OpticsConfig(eta_h=0.26, eta_1=0.075, eta_2=0.055),
        detectors=DetectorConfig(),
        n_bins=96_000,
        segment_bins=48_000,
        seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def pcsft_block(**overrides) -> PCSFTConfig:
    base = dict(threshold_energy=1.0, pulse_duration=20.83e-9,
                incident_power=1e7)
    base.update(overrides)
    return PCSFTConfig(**base)


class TestValidation:
    def test_good_config_accepted(self):
        validate_config(make_config())

    def test_revalidation_is_identity(self):
        cfg = make_config()
        validate_config(cfg)
        validate_config(cfg)

    def test_attenuation_out_of_range_names_field(self):
        cfg = make_config(optics=OpticsConfig(eta_h=0.5, eta_1=0.5, eta_2=0.5,
                                              attenuation=1.5))
        with pytest.raises(ConfigError, match="attenuation"):
            validate_config(cfg)

    def test_boundary_efficiencies_allowed(self):
        cfg = make_config(optics=OpticsConfig(eta_h=1.0, eta_1=0.0, eta_2=1.0,
                                              attenuation=0.0,
                                              splitter_ratio=1.0))
        validate_config(cfg)

    def test_pcsft_theory_without_block_rejected(self):
        cfg = make_config(theory=Theory.PCSFT)
        with pytest.raises(ConfigError, match="pcsft"):
            validate_config(cfg)

    def test_all_violations_reported_together(self):
        cfg = make_config(
            source=SourceConfig(pair_mean_per_bin=-1.0, mode_count=0),
            optics=OpticsConfig(eta_h=2.0, eta_1=0.5, eta_2=0.5),
        )
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        message = str(err.value)
        for field in ("pair_mean_per_bin", "mode_count", "eta_h"):
            assert field in message

    def test_high_pair_mean_warns(self):
        with pytest.warns(UserWarning, match="pair_mean_per_bin"):
            validate_config(make_config(
                source=SourceConfig(pair_mean_per_bin=0.5)))

    def test_noise_rate_near_saturation_rejected(self):
        bad = DetectorConfig(dark_rate_1=0.11 / BIN_WIDTH_DEFAULT)
        with pytest.raises(ConfigError, match="dark_rate_1"):
            validate_config(make_config(detectors=bad))

    def test_segment_larger_than_run_accepted(self):
        # segment_bins is the most bins a segment may hold; such a run is
        # one segment.
        cfg = make_config(n_bins=100, segment_bins=101)
        assert validate_config(cfg) is cfg

    def test_pulse_longer_than_bin_rejected(self):
        block = pcsft_block(pulse_duration=30e-9)
        with pytest.raises(ConfigError, match="pulse_duration"):
            validate_config(make_config(theory=Theory.PCSFT, pcsft=block))

    def test_envelope_and_coupling_are_exclusive(self):
        block = pcsft_block(coupling=0.5, envelope_modes=4)
        with pytest.raises(ConfigError, match="envelope_modes"):
            validate_config(make_config(theory=Theory.PCSFT, pcsft=block))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_pair_mean_and_bin_width_rejected(self, value):
        cfg = make_config(source=SourceConfig(pair_mean_per_bin=value),
                          detectors=DetectorConfig(bin_width=value))
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert str(err.value).splitlines() == [
            f"source.pair_mean_per_bin must be finite and >= 0, got {value}",
            f"detectors.bin_width must be finite and > 0, got {value}"]

    def test_n_bins_bounded_by_int64(self):
        assert validate_config(make_config(n_bins=2**63 - 1)).n_bins == 2**63 - 1
        with pytest.raises(ConfigError) as err:
            validate_config(make_config(n_bins=2**63))
        assert str(err.value) == (
            f"run.n_bins must be at most 2**63 - 1, got {2**63}")

    def test_defaults_match_apparatus(self):
        det = DetectorConfig()
        assert det.bin_width == pytest.approx(20.83e-9)
        assert det.dark_rate_h == DARK_RATE_DEFAULT == 150.0


class TestDerivedQuantities:
    def test_arm_efficiencies_products(self):
        cfg = make_config(optics=OpticsConfig(
            eta_h=0.26, eta_1=0.5, eta_2=0.25, attenuation=0.8,
            splitter_ratio=0.6))
        eff = arm_efficiencies(cfg)
        assert eff == pytest.approx((0.26, 0.8 * 0.6 * 0.5, 0.8 * 0.4 * 0.25))

    def test_noise_probability_is_exactly_rate_times_binwidth(self):
        det = DetectorConfig(dark_rate_h=150.0, background_rate_h=0.0,
                             dark_rate_1=0.0, dark_rate_2=0.0,
                             background_rate_1=0.0, background_rate_2=0.0)
        cfg = make_config(detectors=det)
        p_h, p_1, p_2 = noise_probabilities(cfg)
        assert p_h == 150.0 * det.bin_width   # linear, not 1 - exp
        assert p_1 == 0.0 and p_2 == 0.0

    def test_noise_sources_combine_as_or(self):
        det = DetectorConfig(dark_rate_1=1e5, background_rate_1=2e5,
                             bin_width=1e-7)
        cfg = make_config(detectors=det)
        p_dark, p_bg = 1e5 * 1e-7, 2e5 * 1e-7
        assert noise_probabilities(cfg)[1] == pytest.approx(
            1.0 - (1.0 - p_dark) * (1.0 - p_bg), rel=1e-15)

    def test_with_attenuation_replaces_only_attenuation(self):
        cfg = make_config()
        swept = with_attenuation(cfg, 0.3)
        assert swept.optics.attenuation == 0.3
        assert swept.optics.eta_h == cfg.optics.eta_h
        assert swept.source == cfg.source


INI_TEXT = """
[source]
pair_mean_per_bin = 0.02
mode_count = 3

[optics]
eta_h = 0.26
eta_1 = 0.075
eta_2 = 0.055
attenuation = 0.8
splitter_ratio = 0.5

[detectors]
dark_rate_h = 114
dark_rate_1 = 150
dark_rate_2 = 183
bin_width = 20.83e-9

[run]
theory = qm
n_bins = 100000
seed = 7
"""

PCSFT_INI = """
[pcsft]
threshold_energy = 1.0
pulse_duration = 20.83e-9
incident_power = 5e7
coupling = 0.5
"""


class TestIniParsing:
    def test_round_trip_fields(self):
        cfg = parse_config(INI_TEXT)
        assert cfg.source.pair_mean_per_bin == 0.02
        assert cfg.source.mode_count == 3
        assert cfg.optics.attenuation == 0.8
        assert cfg.detectors.dark_rate_2 == 183.0
        assert cfg.theory is Theory.QM
        assert cfg.n_bins == 100_000
        assert cfg.seed == 7

    def test_segment_default_ignores_run_length(self):
        for n_bins in ("100000", "1000"):
            cfg = parse_config(INI_TEXT.replace("n_bins = 100000",
                                                f"n_bins = {n_bins}"))
            assert cfg.segment_bins == 48_000

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="wavelength"):
            parse_config(INI_TEXT.replace("eta_h = 0.26",
                                          "eta_h = 0.26\nwavelength = 810"))

    def test_unknown_section_is_hard_error(self):
        with pytest.raises(ConfigError, match="pump"):
            parse_config(INI_TEXT + "\n[pump]\npower = 1\n")

    def test_missing_required_key_reported(self):
        with pytest.raises(ConfigError, match="eta_h"):
            parse_config(INI_TEXT.replace("eta_h = 0.26\n", ""))

    def test_missing_required_section_reported(self):
        text = INI_TEXT.replace("[source]\npair_mean_per_bin = 0.02\n"
                                "mode_count = 3\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(text, origin="run.ini")
        assert str(err.value) == "run.ini: missing required section [source]"

    def test_ini_validation_errors_each_name_the_origin(self):
        text = INI_TEXT.replace("eta_h = 0.26", "eta_h = 2").replace(
            "attenuation = 0.8", "attenuation = -1")
        with pytest.raises(ConfigError) as err:
            parse_config(text, origin="run.ini")
        assert str(err.value).splitlines() == [
            "run.ini: optics.attenuation must be in [0, 1], got -1.0",
            "run.ini: optics.eta_h must be in [0, 1], got 2.0"]

    def test_unknown_theory_names_the_choices(self):
        with pytest.raises(ConfigError) as err:
            parse_config(INI_TEXT.replace("theory = qm", "theory = classical"),
                         origin="run.ini")
        assert str(err.value) == (
            "run.ini: [run] theory must be 'qm' or 'pcsft', got 'classical'")

    @pytest.mark.parametrize("raw", ["none", "off", "", " OFF "])
    def test_envelope_modes_switched_off(self, raw):
        text = (INI_TEXT.replace("theory = qm", "theory = pcsft")
                + PCSFT_INI.replace("coupling = 0.5", "coupling = 0"))
        cfg = parse_config(text + f"envelope_modes = {raw}\n")
        assert cfg.pcsft.envelope_modes is None
        assert cfg == parse_config(text)

    @pytest.mark.parametrize("text", [
        "pair_mean_per_bin = 0.02\n",
        "[source]\npair_mean_per_bin = 0.02\n[source]\nmode_count = 3\n",
        "[source]\npair_mean_per_bin = 0.02\npair_mean_per_bin = 0.03\n",
        "[source]\nno key and value here\n",
    ], ids=["no-section-header", "duplicate-section", "duplicate-key",
            "line-without-value"])
    def test_text_configparser_rejects_names_the_origin(self, text):
        with pytest.raises(ConfigError) as err:
            parse_config(text, origin="run.ini")
        assert str(err.value).startswith("run.ini: ")
        assert "run.ini" in str(err.value).split(": ", 1)[1]

    def test_percent_is_an_ordinary_character(self):
        # Values are read as written, without interpolation, so a '%' in a
        # bad value is reported with the file's other errors.
        text = INI_TEXT.replace("seed = 7", "seed = 7%").replace(
            "mode_count = 3", "mode_count = x")
        with pytest.raises(ConfigError) as err:
            parse_config(text, origin="run.ini")
        assert str(err.value).splitlines() == [
            "run.ini: [source] mode_count: not an integer: 'x'",
            "run.ini: [run] seed: not an integer: '7%'"]

    def test_pcsft_section_parsed(self):
        text = INI_TEXT.replace("theory = qm", "theory = pcsft") + PCSFT_INI
        cfg = parse_config(text)
        assert cfg.theory is Theory.PCSFT
        assert cfg.pcsft.incident_power == 5e7
        assert cfg.pcsft.coupling == 0.5

    def test_dict_round_trip(self):
        cfg = parse_config(INI_TEXT)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("step", ["2e-11", "2.083e-10"])
    def test_retired_diffusion_step_is_ignored(self, step):
        # Files from earlier versions carry the Euler step; 2.083e-10 is
        # pulse_duration / 100, once rejected as too coarse.
        text = INI_TEXT.replace("theory = qm", "theory = pcsft") + PCSFT_INI
        old = text.replace("incident_power = 5e7\n",
                           f"incident_power = 5e7\ndiffusion_step = {step}\n")
        assert "diffusion_step" in old
        assert parse_config(old) == parse_config(text)

    def test_stored_echo_with_diffusion_step_round_trips(self):
        cfg = parse_config(INI_TEXT.replace("theory = qm", "theory = pcsft")
                           + PCSFT_INI)
        echo = config_to_dict(cfg)
        assert "diffusion_step" not in echo["pcsft"]
        echo["pcsft"]["diffusion_step"] = 2.08e-11
        assert config_from_dict(echo) == cfg


class TestStoredEcho:
    @staticmethod
    def echo() -> dict:
        cfg = parse_config(INI_TEXT.replace("theory = qm", "theory = pcsft")
                           + PCSFT_INI)
        return json.loads(json.dumps(config_to_dict(cfg)))

    @pytest.mark.parametrize("section, key, value, what", [
        ("optics", "eta_h", "abc", "a number"),
        ("optics", "eta_h", True, "a number"),
        ("detectors", "dark_rate_h", None, "a number"),
        ("source", "mode_count", 3.0, "an integer"),
        ("pcsft", "envelope_modes", "4", "an integer or null"),
        ("run", "theory", 1, "a string"),
        ("run", "seed", [7], "an integer"),
        pytest.param("detectors", "dark_rate_h", 10**400, "a number",
                     id="detectors-dark_rate_h-beyond-float-a number"),
    ])
    def test_mistyped_value_names_section_and_key(self, section, key, value,
                                                  what):
        echo = self.echo()
        echo[section][key] = value
        with pytest.raises(ConfigError) as err:
            config_from_dict(echo)
        assert f"[{section}] {key}: not {what}: {value!r}" in str(err.value)

    def test_every_mismatch_reported_at_once(self):
        echo = self.echo()
        echo["optics"]["eta_1"] = "x"
        echo["run"]["n_bins"] = 1e5
        with pytest.raises(ConfigError) as err:
            config_from_dict(echo)
        assert str(err.value).splitlines() == ["bad configuration record:",
                                      "[optics] eta_1: not a number: 'x'",
                                      "[run] n_bins: not an integer: 100000.0"]

    def test_integers_in_float_fields_and_null_envelope_load(self):
        echo = self.echo()
        echo["optics"]["eta_h"] = 1
        echo["pcsft"]["envelope_modes"] = None
        cfg = config_from_dict(echo)
        assert cfg.optics.eta_h == 1 and cfg.pcsft.envelope_modes is None

    def test_section_that_is_not_a_table_is_an_error(self):
        echo = self.echo()
        echo["optics"] = "0.26"
        with pytest.raises(ConfigError, match="bad configuration record"):
            config_from_dict(echo)

    # Each edit of an echo, and the line that names it as an INI would.
    ECHO_ERRORS = {
        "unknown-key": (lambda e: e["optics"].update(foo=1),
                        "unknown key 'foo' in section [optics]"),
        "unknown-section": (lambda e: e.update(pump={"power": 1}),
                            "unknown section [pump]"),
        "unknown-theory": (lambda e: e["run"].update(theory="classical"),
                           "[run] theory must be 'qm' or 'pcsft', "
                           "got 'classical'"),
        "missing-section": (lambda e: e.pop("source"),
                            "missing required section [source]"),
        "missing-run-key": (lambda e: e["run"].pop("segment_bins"),
                            "missing required key 'segment_bins' in "
                            "section [run]"),
        "missing-required-key": (lambda e: e["pcsft"].pop("pulse_duration"),
                                 "missing required key 'pulse_duration' in "
                                 "section [pcsft]"),
    }

    @pytest.mark.parametrize("case", sorted(ECHO_ERRORS))
    def test_echo_errors_use_the_ini_wording(self, case):
        edit, line = self.ECHO_ERRORS[case]
        echo = self.echo()
        edit(echo)
        with pytest.raises(ConfigError) as err:
            config_from_dict(echo)
        assert str(err.value) == f"bad configuration record:\n{line}"

    def test_echo_theory_is_read_as_an_ini_theory(self):
        echo = self.echo()
        echo["run"]["theory"] = " PCSFT "
        assert config_from_dict(echo) == config_from_dict(self.echo())

    def test_echo_with_a_missing_default_key_loads(self):
        # Outside [run], a key with a default may be left out, as in an INI.
        echo = self.echo()
        del echo["pcsft"]["coupling"]
        assert config_from_dict(echo).pcsft.coupling == 0.5


# INI sections holding a config dataclass; the other fields of
# ExperimentConfig form [run].
BLOCKS = {"source": SourceConfig, "optics": OpticsConfig,
          "detectors": DetectorConfig, "pcsft": PCSFTConfig}
SCHEMA_FIELDS = [(section, f) for section, cls in BLOCKS.items()
                 for f in dataclasses.fields(cls)] + [
    ("run", f) for f in dataclasses.fields(ExperimentConfig)
    if f.name not in BLOCKS]

# The required keys only, plus a zero coupling so that envelope_modes may
# be set on its own.
MINIMAL_SECTIONS = {
    "source": {"pair_mean_per_bin": "0.02"},
    "optics": {"eta_h": "0.26", "eta_1": "0.075", "eta_2": "0.055"},
    "pcsft": {"threshold_energy": "1.0", "pulse_duration": "20.83e-9",
              "incident_power": "5e7", "coupling": "0"},
}

# An INI spelling and the parsed value of each field, unlike both its
# default and the value in MINIMAL_SECTIONS.
NON_DEFAULT = {
    "pair_mean_per_bin": ("0.03", 0.03), "mode_count": ("0x4", 4),
    "eta_h": ("0.3", 0.3), "eta_1": ("0.2", 0.2), "eta_2": ("0.1", 0.1),
    "attenuation": ("0.7", 0.7), "splitter_ratio": ("0.4", 0.4),
    "dark_rate_h": ("114", 114.0), "dark_rate_1": ("183", 183.0),
    "dark_rate_2": ("99.5", 99.5), "background_rate_h": ("10", 10.0),
    "background_rate_1": ("20", 20.0), "background_rate_2": ("3e1", 30.0),
    "bin_width": ("25e-9", 25e-9), "threshold_energy": ("2.0", 2.0),
    "pulse_duration": ("1e-8", 1e-8), "incident_power": ("3e7", 3e7),
    "coupling": ("0.25", 0.25), "envelope_modes": ("4", 4),
    "theory": (" PCSFT ", Theory.PCSFT), "n_bins": ("96000", 96_000),
    "segment_bins": ("12000", 12_000), "seed": ("-7", -7),
}


def render_ini(sections: dict) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def field_value(cfg: ExperimentConfig, section: str, name: str):
    return getattr(cfg if section == "run" else getattr(cfg, section), name)


class TestSchema:
    @pytest.mark.parametrize("section, f", SCHEMA_FIELDS,
                             ids=[f"{s}.{f.name}" for s, f in SCHEMA_FIELDS])
    def test_every_field_parses_and_round_trips(self, section, f):
        raw, expected = NON_DEFAULT[f.name]
        sections = {name: dict(keys) for name, keys in MINIMAL_SECTIONS.items()}
        sections.setdefault(section, {})[f.name] = raw
        cfg = parse_config(render_ini(sections))
        assert field_value(cfg, section, f.name) == expected
        assert expected not in (f.default, MINIMAL_SECTIONS.get(section, {}).get(f.name))
        stored = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(stored) == cfg

    @pytest.mark.parametrize("section, name", [
        (section, f.name) for section, f in SCHEMA_FIELDS
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING])
    def test_each_missing_required_key_reported(self, section, name):
        sections = {s: {k: v for k, v in keys.items() if k != name}
                    for s, keys in MINIMAL_SECTIONS.items()}
        with pytest.raises(ConfigError) as err:
            parse_config(render_ini(sections))
        assert f"missing required key '{name}' in section [{section}]" in str(err.value)

    def test_malformed_values_in_two_sections_reported_together(self):
        text = INI_TEXT.replace("eta_1 = 0.075", "eta_1 = 0.07.5").replace(
            "n_bins = 100000", "n_bins = 1e5")
        with pytest.raises(ConfigError) as err:
            parse_config(text, origin="run.ini")
        lines = str(err.value).splitlines()
        assert "run.ini: [optics] eta_1: not a number: '0.07.5'" in lines
        assert "run.ini: [run] n_bins: not an integer: '1e5'" in lines

    def test_readme_block_names_every_field(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Experiment configuration \(INI\)\n\n```ini\n(.*?)```",
                          readme, re.S).group(1)
        parse_config(block)
        # Optional keys shown commented out count as documented.
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.read_string(re.sub(r"^; (\w+ =)", r"\1", block, flags=re.M))
        for section, f in SCHEMA_FIELDS:
            assert f.name in parser[section], f"README lacks {section}.{f.name}"


# Every distribution the samplers draw, with arguments that reuse the
# binomial set-up Generator keeps between calls.
DRAWS = {
    "random": lambda g: g.random(5),
    "multinomial": lambda g: g.multinomial(48_000, [0.7, 0.2, 0.06, 0.04]),
    "binomial": lambda g: [g.binomial(n, 0.3) for n in (0, 40_000, 7, 40_000)],
    "hypergeometric": lambda g: g.hypergeometric(30, 400, 12, size=3),
    "gamma": lambda g: g.gamma(4, 0.25, size=5),
    "negative_binomial": lambda g: g.negative_binomial(3, 0.6, size=5),
    "choice": lambda g: g.choice(np.arange(50), size=7, replace=False),
}


def plain_state(generator: np.random.Generator) -> dict:
    """The bit generator's state with arrays as lists, for comparison."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(generator.bit_generator.state)


def dirty(generator: np.random.Generator) -> None:
    """Leave a partly used buffer and a pending 32-bit half behind."""
    generator.random(3)
    generator.integers(0, 7, size=3, dtype=np.int32)


class TestPooledStreams:
    """rng_stream(..., pooled=True) draws exactly what a fresh stream draws."""

    @pytest.mark.parametrize("seed", [0, -3, 2**64 - 1])
    def test_rekeyed_state_is_a_fresh_generators_state(self, seed):
        # Pins numpy's Philox state layout: a layout change fails here.
        for stream in (stream_id(0, role, 5) for role in range(Role.COUNT)):
            dirty(rng_stream(seed, stream, pooled=True))
            pooled = rng_stream(seed, stream, pooled=True)
            assert plain_state(pooled) == plain_state(rng_stream(seed, stream))

    @pytest.mark.parametrize("name", list(DRAWS))
    def test_interleaved_roles_match_fresh_streams(self, name):
        draw = DRAWS[name]
        for segment in (0, 1, 9):
            ids = [stream_id(segment, role, 2) for role in range(Role.COUNT)]
            pooled = [rng_stream(11, s, pooled=True) for s in ids]
            fresh = [rng_stream(11, s) for s in ids]
            assert len({id(g) for g in pooled}) == Role.COUNT
            for _ in range(2):  # one draw per role in turn, twice over
                for a, b in zip(pooled, fresh):
                    np.testing.assert_array_equal(draw(a), draw(b))

    @pytest.mark.parametrize("name", list(DRAWS))
    def test_rekeying_a_stream_twice_restarts_it(self, name):
        draw = DRAWS[name]
        stream = stream_id(4, OracleRole.NOISE_1, 1)
        expected = draw(rng_stream(11, stream))
        for _ in range(2):
            generator = rng_stream(11, stream, pooled=True)
            np.testing.assert_array_equal(draw(generator), expected)
            dirty(generator)

    @pytest.mark.parametrize("name", list(DRAWS))
    def test_two_threads_match_fresh_streams(self, name):
        draw = DRAWS[name]
        ids = [stream_id(segment, role, 3) for segment in range(6)
               for role in range(Role.COUNT)]
        expected = [draw(rng_stream(11, s)) for s in ids]
        both_running = threading.Barrier(2)

        def task(half: int):
            both_running.wait(timeout=10)
            out = {}
            for k in range(half, len(ids), 2):
                out[k] = draw(rng_stream(11, ids[k], pooled=True))
            return threading.get_ident(), rng_stream(0, 0, pooled=True), out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between draws
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(task, (0, 1), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        (thread_a, gen_a, _), (thread_b, gen_b, _) = results
        assert thread_a != thread_b and gen_a is not gen_b  # one pool per thread
        for _, _, out in results:
            for k, values in out.items():
                np.testing.assert_array_equal(values, expected[k])


class TestRandomStreams:
    def test_same_stream_is_bit_identical(self):
        a = rng_stream(42, 0).random(1000)
        b = rng_stream(42, 0).random(1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_uncorrelated(self):
        a = rng_stream(42, 0).random(1_000_000)
        b = rng_stream(42, 1).random(1_000_000)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01

    def test_seed_sensitivity(self):
        a = rng_stream(42, 0).random(100)
        b = rng_stream(43, 0).random(100)
        assert not np.array_equal(a, b)

    def test_stream_ids_unique_across_roles_and_segments(self):
        seen = set()
        for point in (0, 1, 7):
            for segment in (0, 1, 2, 1000):
                for role in range(Role.COUNT):
                    seen.add(stream_id(segment, role, point))
        assert len(seen) == 3 * 4 * Role.COUNT

    def test_stream_id_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            stream_id(-1, Role.SOURCE)
        with pytest.raises(ValueError):
            stream_id(0, Role.COUNT)  # one past the last role

    def test_configs_are_frozen(self):
        cfg = make_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1


class TestStreamId:
    """stream_id's range checks at each boundary, and its bit layout."""

    @pytest.mark.parametrize("segment, role, point, message", [
        (2**37, 0, 0, "segment_index out of range: 137438953472"),
        (-1, 0, 0, "segment_index out of range: -1"),
        (0, 0, 2**24, "point_index out of range: 16777216"),
        (0, 0, -1, "point_index out of range: -1"),
        (0, Role.COUNT, 0, "role must be in [0, 8), got 8"),
        (0, -1, 0, "role must be in [0, 8), got -1"),
        # One message per call: the role first, then the segment.
        (-1, 8, -1, "role must be in [0, 8), got 8"),
        (2**37, 0, 2**24, "segment_index out of range: 137438953472"),
    ])
    def test_out_of_range_raises_its_message(self, segment, role, point,
                                             message):
        with pytest.raises(ValueError) as info:
            stream_id(segment, role, point)
        assert str(info.value) == message

    @given(segment=st.integers(0, 2**37 - 1), role=st.integers(0, 7),
           point=st.integers(0, 2**24 - 1))
    @example(segment=2**37 - 1, role=0, point=0)     # the largest values pass
    @example(segment=0, role=7, point=0)
    @example(segment=0, role=0, point=2**24 - 1)
    @example(segment=2**37 - 1, role=7, point=2**24 - 1)
    def test_packs_by_the_shift_formula(self, segment, role, point):
        # Layout, LSB first: 3 bits role | 37 bits segment | 24 bits point.
        assert stream_id(segment, role, point) == (
            (point << (37 + 3)) | (segment << 3) | role)


class _SortedChoice:
    """A generator whose ``choice`` returns its positions sorted.

    Block assignment of sorted positions puts every pattern in its own
    stretch of the segment: the placement a uniformity test must reject.
    """

    def __init__(self, rng):
        self.rng = rng

    def choice(self, *args, **kwargs):
        return np.sort(self.rng.choice(*args, **kwargs))


class TestClicksFromCells:
    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.integers(0, 300), min_size=8, max_size=8)
           .filter(lambda c: sum(c) > 0),
           seed=st.integers(0, 2**32))
    @example(cells=[0, 0, 0, 0, 0, 0, 0, 13], seed=1)        # one pattern, k = 0
    @example(cells=[2, 3, 0, 5, 40, 0, 1, 9], seed=2)       # fill pattern 4
    @example(cells=[0, 0, 0, 0, 0, 7, 0, 0], seed=3)        # single bin kind
    @example(cells=[1, 0, 0, 0, 0, 0, 0, 0], seed=4)        # a one-bin segment
    def test_recount_is_the_census(self, cells, seed):
        n_bins = sum(cells)
        clicks = clicks_from_cells(np.array(cells), n_bins, rng_stream(seed, 1))
        assert all(c.dtype == bool and c.shape == (n_bins,) for c in clicks)
        np.testing.assert_array_equal(pattern_counts(*clicks), cells)
        packed = ClickStreams.from_bools(*clicks, bin_width=BIN_WIDTH_DEFAULT)
        row = accumulate(packed).segments.item(0)
        assert row[1:3] == (n_bins, sum(cells[4:]))
        if n_bins % 8:  # .pstm pad bits
            for channel in (packed.herald, packed.signal_1, packed.signal_2):
                assert channel[-1] >> (n_bins % 8) == 0

    def test_single_pattern_draws_nothing(self):
        class NoDraws:
            def choice(self, *args, **kwargs):
                raise AssertionError("placement drawn for a one-pattern census")

        clicks = clicks_from_cells([0, 0, 0, 0, 0, 0, 500, 0], 500, NoDraws())
        assert [c.all() for c in clicks] == [True, True, False]

    def test_rejects_a_census_of_another_length(self):
        with pytest.raises(ValueError, match="summing to 100"):
            clicks_from_cells([90, 1, 1, 1, 1, 1, 1, 1], 100, rng_stream(0, 1))
        with pytest.raises(ValueError, match="8 pattern cells"):
            clicks_from_cells([100], 100, rng_stream(0, 1))

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(st.integers(0, 90), min_size=8, max_size=8),
           seed=st.integers(0, 2**32))
    @example(cells=[0] * 8, seed=5)                          # an empty census
    @example(cells=[3, 1, 0, 2, 60, 0, 5, 2], seed=6)        # fill pattern 4
    @example(cells=[1, 1, 1, 1, 1, 1, 1, 1], seed=7)         # 8 bins, no pad
    @example(cells=[0, 2, 0, 0, 0, 0, 9, 0], seed=8)         # 11 bins, 5 pad bits
    def test_packed_placement_is_the_per_bin_placement(self, cells, seed):
        n_bins = sum(cells)
        channels, clicked = placed_block(
            [cells], lambda _: rng_stream(seed, Role.PLACEMENT))
        packed = ClickStreams(n_bins, BIN_WIDTH_DEFAULT, *channels)
        oracle = placed_clicks(np.array(cells), n_bins,
                               rng_stream(seed, Role.PLACEMENT))
        expected = ClickStreams.from_bools(*oracle, bin_width=BIN_WIDTH_DEFAULT)
        unpacked = clicks_from_cells(cells, n_bins,
                                     rng_stream(seed, Role.PLACEMENT))
        for name, bits, want, bins in zip(("herald", "signal_1", "signal_2"),
                                          unpacked, oracle, clicked):
            assert getattr(packed, name).tobytes() == (
                getattr(expected, name).tobytes())
            np.testing.assert_array_equal(bits, want)
            # The clicked bins, ascending, as the clicks.csv writer takes them.
            assert bins.dtype == np.int64
            np.testing.assert_array_equal(bins, np.flatnonzero(want))
            if n_bins % 8:  # zero pad bits
                assert getattr(packed, name)[-1] >> (n_bins % 8) == 0

    def test_rejects_a_census_of_another_total(self):
        # A one-pattern census draws nothing that could fail instead.
        with pytest.raises(ValueError, match="summing to 20"):
            clicks_from_cells([9] + [0] * 7, 20, rng_stream(0, 1))

    def test_rejects_a_non_integer_cell(self):
        with pytest.raises(ValueError, match=r"summing to 5, got \[4\.0, 1\.0"):
            clicks_from_cells([4.0, 1.0, 0, 0, 0, 0, 0, 0], 5, rng_stream(0, 1))

    def test_rejects_a_negative_cell(self):
        with pytest.raises(ValueError, match="summing to 100"):
            clicks_from_cells([-1, 96, 1, 1, 1, 1, 1, 0], 100, rng_stream(0, 1))

    @staticmethod
    def placement_statistics(make_rng, n_segments=2000, n_bins=1000, m=100):
        """Pull of two placement statistics over ``n_segments`` segments.

        The census fills ``n_bins - 2m`` bins with pattern 0 and places m
        bins each of patterns 3 and 5.  Returns (mean-position pull,
        adjacency pull), each a z-score under uniform placement:

        - the mean position of pattern 3's bins minus pattern 5's, summed
          over segments.  Under uniform placement it has mean 0 and, per
          segment, variance 2 s^2 (n - m) / (m (n - 1)) + 2 s^2 / (n - 1)
          with s^2 = (n^2 - 1) / 12 (sampling without replacement, and the
          covariance of two disjoint samples);
        - the sum over adjacent bin pairs of y_i y_(i+1), with y = +1 on
          pattern 3, -1 on pattern 5 and 0 on the fill.  Under uniform
          placement its mean is -2m/n per segment, and its variance about
          the number of adjacent placed pairs, k (k - 1) / n with k = 2m.

        Sorted-block placement puts pattern 3 on the lowest placed
        positions: the mean-position gap is about -n/3 per segment and
        nearly every adjacent placed pair matches, which at these sizes
        reads about -500 and +280 standard deviations, so a 5 sigma gate
        rejects it with certainty; uniform placement passes it with
        probability 1 - 6e-7 per statistic.
        """
        cells = [n_bins - 2 * m, 0, 0, m, 0, m, 0, 0]
        gap = adjacency = 0.0
        for segment in range(n_segments):
            patterns = bin_patterns(
                *clicks_from_cells(cells, n_bins, make_rng(segment)))
            where = np.arange(n_bins)
            gap += where[patterns == 3].mean() - where[patterns == 5].mean()
            y = (patterns == 3).astype(np.int64) - (patterns == 5)
            adjacency += int(y[:-1] @ y[1:])
        s2 = (n_bins ** 2 - 1) / 12.0
        gap_var = (2 * s2 * (n_bins - m) / (m * (n_bins - 1))
                   + 2 * s2 / (n_bins - 1))
        k = 2 * m
        gap_pull = gap / np.sqrt(n_segments * gap_var)
        adjacency_pull = ((adjacency + n_segments * 2 * m / n_bins)
                          / np.sqrt(n_segments * k * (k - 1) / n_bins))
        return gap_pull, adjacency_pull

    def test_placement_is_uniform(self):
        pulls = self.placement_statistics(
            lambda segment: rng_stream(2024, stream_id(segment, Role.PLACEMENT)))
        assert all(abs(z) < 5.0 for z in pulls), pulls

    def test_sorted_block_placement_fails_the_uniformity_test(self):
        pulls = self.placement_statistics(
            lambda segment: _SortedChoice(
                rng_stream(2024, stream_id(segment, Role.PLACEMENT))),
            n_segments=200)
        assert all(abs(z) > 5.0 for z in pulls), pulls


def placed_block(block, rng_of):
    """The bitmaps and clicked bins of ``block``'s censuses as one block."""
    censuses = [(np.array(cells), counts_from_cells(cells, i))
                for i, cells in enumerate(block)]
    with mock.patch.object(coincidence, "_BLOCK_BYTES", 1 << 40):
        (_, _, packed, clicked), = coincidence._placed_blocks(censuses, rng_of)
    return packed, clicked


def _census(fill: int, extra: int, cells: list[int]) -> list[int]:
    """``cells`` with ``extra`` more bins of pattern ``fill``."""
    return [count + extra * (pattern == fill)
            for pattern, count in enumerate(cells)]


# A block of 1 to 6 segment censuses of 1 to ~500 bins: most of each is one
# pattern (any of the eight, so a block mixes fills), and a few bins of
# every pattern, so the sizes are rarely a multiple of 8.
block_censuses = st.lists(
    st.builds(_census, st.integers(0, 7), st.integers(0, 400),
              st.lists(st.integers(0, 12), min_size=8, max_size=8)),
    min_size=1, max_size=6).filter(lambda block: all(map(sum, block)))


class TestBlockPlacement:
    """Placing a block of segments is placing each segment on its own."""

    @staticmethod
    def segment_by_segment(block, seed):
        """The block's streams and clicked bins from ``placed_segment``."""
        parts, clicked, start = [], [[], [], []], 0
        for i, cells in enumerate(block):
            n_bins = sum(cells)
            packed, bins = placed_segment(
                cells, n_bins, rng_stream(seed, stream_id(i, Role.PLACEMENT)))
            parts.append(ClickStreams(n_bins, BIN_WIDTH_DEFAULT, *packed))
            for channel, part in zip(clicked, bins):
                channel.append(part + start)
            start += n_bins
        return (parts[0].concat(*parts[1:]),
                [np.concatenate(channel) for channel in clicked])

    @settings(max_examples=300, deadline=None)
    @given(block=block_censuses, seed=st.integers(0, 2**32))
    # Fills 0, 7, 6 and 5 in one block (every channel filled somewhere).
    @example(block=[_census(0, 300, [0, 1, 2, 0, 9, 1, 0, 1]),
                    _census(7, 300, [1, 1, 0, 2, 5, 0, 3, 0]),
                    _census(6, 200, [3, 0, 1, 0, 0, 2, 0, 4]),
                    _census(5, 100, [2, 2, 2, 2, 2, 2, 2, 2])], seed=1)
    # Silent fills, few flips: every channel packs its sorted flips;
    # 401 then 3 bins, an unaligned block with a short last segment.
    @example(block=[_census(0, 390, [0, 3, 2, 1, 4, 0, 1, 0]),
                    [1, 0, 1, 0, 1, 0, 0, 0]], seed=2)
    # Saturated: every segment filled by all three channels clicking.
    @example(block=[_census(7, 400, [1, 0, 2, 3, 0, 1, 4, 0])] * 3, seed=3)
    # A silent fill with many flips: the channels scan.
    @example(block=[_census(0, 20, [0] + [12] * 7)] * 2, seed=4)
    # One pattern per segment: nothing is drawn.
    @example(block=[[0, 0, 0, 0, 9, 0, 0, 0], [13, 0, 0, 0, 0, 0, 0, 0]],
             seed=5)
    # A simulate-pcsft segment, a block of its own: 48 000 bins, 10 710
    # placed, the herald scanned and both signals sorted.
    @example(block=[[37290, 0, 4, 0, 10704, 0, 2, 0]], seed=6)
    def test_block_is_its_segments_placed_one_by_one(self, block, seed):
        packed, clicked = placed_block(
            block, lambda i: rng_stream(seed, stream_id(i, Role.PLACEMENT)))
        expected, expected_bins = self.segment_by_segment(block, seed)
        for name, bitmap, bins, want in zip(
                ("herald", "signal_1", "signal_2"), packed, clicked,
                expected_bins):
            assert bitmap.tobytes() == getattr(expected, name).tobytes(), name
            assert bins.dtype == np.int64
            np.testing.assert_array_equal(bins, want)

    def test_each_segment_keys_its_generator_just_before_its_draw(self):
        # The pooled generator serves one segment at a time: asking for
        # segment i + 1's before drawing segment i's would rekey it.
        asked = []

        class Logged:
            def __init__(self, i):
                self.i = i

            def choice(self, *args, **kwargs):
                assert asked[-1] == self.i
                return rng_stream(7, stream_id(self.i, Role.PLACEMENT)).choice(
                    *args, **kwargs)

        def rng_of(i):
            asked.append(i)
            return Logged(i)

        block = [_census(0, 50, [0, 1, 2, 3, 4, 5, 6, 7])] * 4
        placed_block(block, rng_of)
        assert asked == [0, 1, 2, 3]

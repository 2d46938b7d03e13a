"""Golden bits: the per-bin click laws, float for float.

Each model's pattern law fixes the bytes of every artifact a run writes
for it, so a change in the last place of any value below moves every
such artifact.  The values are ``float.hex`` strings recorded from
heraldsim 7.0.0 (CPython 3.11, glibc libm); an arithmetic rewrite that
is meant to keep the artifacts must keep them exactly.
"""

import hashlib
import math

import numpy as np
import pytest

from heraldsim import pcsft, qm
from heraldsim.core import parse_config

# The benchmark's experiment INI (README defaults, 48 000-bin segments).
_BASE_INI = """
[source]
pair_mean_per_bin = 0.05
mode_count = 1

[optics]
eta_h = 0.26
eta_1 = 0.075
eta_2 = 0.055
attenuation = 1.0
splitter_ratio = 0.5

[detectors]
dark_rate_h = 150
dark_rate_1 = 150
dark_rate_2 = 150
bin_width = 20.83e-9

[run]
theory = {theory}
n_bins = 48000000
segment_bins = 48000
seed = 1
"""

_PCSFT_BLOCK = """
[pcsft]
threshold_energy = 1.0
pulse_duration = 20.83e-9
incident_power = {power}
diffusion_step = 2.08e-11
{law}
"""

CROSSING_GRID = [
    0.0, -1.0, 5e-324, 1e-300, 1e-3, 0.1, math.nextafter(0.25, 0.0), 0.25,
    math.nextafter(0.25, 1.0), 7.0, 40.0, 400.0, math.inf]

CROSSING_BITS = [
    '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
    '0x1.9a5c5e0348400p-9', '0x1.74bcf71d6c968p-4', '0x1.74bcf71d6c968p-4',
    '0x1.74bcf71d6c970p-4', '0x1.ffe25bdf59e50p-1', '0x1.0000000000000p+0',
    '0x1.0000000000000p+0', '0x1.0000000000000p+0']

# Every multiple of 1/4096 in (0, 4) and of 1/16 in [4, 100]: exact
# binary fractions, so the grid is the same on every platform.
DENSE_GRID = ([k / 4096 for k in range(1, 4 * 4096)]
              + [k / 16 for k in range(64, 1601)])
# sha256 of the space-separated float.hex of crossing_probability on it.
DENSE_DIGEST = "660ca8a1822705c02fd93b2b59f7de918f321b40dfd063050d5bf91498a690a0"

# (incident power, coupling or envelope line) -> pattern law bits.
PCSFT_LAWS = {
    "bench sweep-pcsft, coupling 0.5": (
        "7.3e7", "coupling = 0.5",
        ['0x1.8d8c957d81902p-1', '0x1.0bca75dc2553ap-18',
         '0x1.836c5eccec748p-15', '0x1.481645e8470e3p-33',
         '0x1.c9abc9754f250p-3', '0x1.344a0ade9b990p-20',
         '0x1.be038ca5cce29p-17', '0x1.79b43bccabe9dp-35']),
    "coupling 1 at 1e9": (
        "1e9", "coupling = 1.0",
        ['0x1.7b35f414de6f6p-11', '0x1.b4dc7c6ca8701p-15',
         '0x1.23c4fda89cbf6p-12', '0x1.1ca641cef9e3cp-11',
         '0x1.cf2a4a102b1b2p-2', '0x1.0aca2023d9a71p-5',
         '0x1.645d76750b601p-3', '0x1.5bab307294877p-2']),
    "envelope_modes 1 at 1e9": (
        "1e9", "coupling = 0.0\nenvelope_modes = 1",
        ['0x1.3c6d2fe85715dp-3', '0x1.8b6674fdb8965p-10',
         '0x1.d3fd1d1ec322ep-9', '0x1.799f36f3a3236p-12',
         '0x1.747d9b08774dfp-2', '0x1.7a06fa08c919dp-4',
         '0x1.69c7184b85a51p-3', '0x1.a8a973bcdfcd1p-3']),
    "envelope_modes 4": (
        "7.3e7", "coupling = 0.0\nenvelope_modes = 4",
        ['0x1.9061db9363c43p-1', '0x1.5b210410c4122p-14',
         '0x1.e2991d15ca310p-12', '0x1.2bdb931a098d7p-20',
         '0x1.bbff2a49cb78fp-3', '0x1.e8b807a373387p-14',
         '0x1.1db9ff7e43542p-11', '0x1.4fcb5c3a43680p-19']),
}

QM_LAW = ['0x1.f83a425ac4992p-1', '0x1.03c39c6633a00p-10',
          '0x1.620f2eba29000p-10', '0x1.6c40d021c0000p-19',
          '0x1.871480a2c6980p-7', '0x1.8ea2f4a2d2000p-12',
          '0x1.10056ba2d4800p-11', '0x1.45cdbc19c0000p-19']


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_crossing_probability_scalar_calls():
    assert _bits(pcsft.crossing_probability(1.0, theta, 1.0)
                 for theta in CROSSING_GRID) == CROSSING_BITS


def test_crossing_probability_array_call():
    assert _bits(pcsft.crossing_probability(1.0, np.array(CROSSING_GRID), 1.0)
                 ) == CROSSING_BITS


def test_crossing_probability_dense_grid():
    bits = " ".join(_bits(pcsft.crossing_probability(1.0, theta, 1.0)
                          for theta in DENSE_GRID))
    assert hashlib.sha256(bits.encode()).hexdigest() == DENSE_DIGEST


@pytest.mark.parametrize("name", PCSFT_LAWS)
def test_pcsft_pattern_law(name):
    power, law, bits = PCSFT_LAWS[name]
    cfg = parse_config(_BASE_INI.format(theory="pcsft")
                       + _PCSFT_BLOCK.format(power=power, law=law))
    assert _bits(pcsft.pattern_probabilities(cfg)) == bits


def test_qm_pattern_law():
    cfg = parse_config(_BASE_INI.format(theory="qm"))
    assert _bits(qm.joint_pattern_probabilities(cfg)) == QM_LAW

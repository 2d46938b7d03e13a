"""heraldsim: heralded single-photon source simulation and analysis.

Simulates a heralded spontaneous-down-conversion source measured with a
herald detector and a 50:50-split signal arm, under two generative
models — multimode thermal photon pairs with binomial loss, and a
threshold-crossing random-field model — and provides the full counting
and estimation pipeline: same-bin coincidences, the heralded zero-delay
autocorrelation with uncertainties, background subtraction, attenuation
sweeps, weighted line fits, and report/plot artifacts.  Every run is a
deterministic function of (configuration, seed).
"""

from .analysis import (FitResult, G2Estimate, InsufficientStatistics,
                       background_subtract, corrected_rate, heralded_g2,
                       weighted_linear_fit)
from .coincidence import (CoincidenceCounts, accumulate, counts_from_cells,
                          read_counts_json, read_segment_csv, segment_table,
                          write_counts_json, write_segment_csv)
from .core import (ConfigError, DetectorConfig, ExperimentConfig,
                   OpticsConfig, PCSFTConfig, SourceConfig, Theory,
                   config_from_dict, config_to_dict, load_config,
                   parse_config, rng_stream, stream_id, validate_config,
                   with_attenuation)
from .pcsft import bound_counts, bound_energy, crossing_probability
from .qm import (heralded_g2_exact, pair_prob, predicted_g2_band,
                 predicted_heralded_g2)
from .runner import (SweepPlan, SweepPoint, load_sweep_plan, run_counts,
                     run_sweep, simulate_run)
from .streams import ClickStreams, read_streams, write_streams

__version__ = "15.0.0"

__all__ = [
    "__version__",
    # configuration
    "Theory", "ConfigError", "SourceConfig", "OpticsConfig",
    "DetectorConfig", "PCSFTConfig", "ExperimentConfig", "load_config",
    "parse_config", "validate_config", "config_to_dict", "config_from_dict",
    "with_attenuation", "rng_stream", "stream_id",
    # streams and counting
    "ClickStreams", "read_streams", "write_streams", "CoincidenceCounts",
    "segment_table", "accumulate", "counts_from_cells", "read_counts_json",
    "write_counts_json", "read_segment_csv", "write_segment_csv",
    # models
    "pair_prob", "heralded_g2_exact", "predicted_heralded_g2",
    "predicted_g2_band", "crossing_probability", "bound_energy",
    "bound_counts",
    # drivers
    "simulate_run", "run_counts", "run_sweep", "SweepPlan", "SweepPoint",
    "load_sweep_plan",
    # estimation
    "G2Estimate", "FitResult", "InsufficientStatistics", "heralded_g2",
    "background_subtract", "weighted_linear_fit", "corrected_rate",
]

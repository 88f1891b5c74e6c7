"""OTFS link-level simulator with greedy amplitude precoding for PAPR
reduction, three reference reduction methods, and a doubly-dispersive
channel with an MMSE receiver."""

__version__ = "0.1.0"

from .baselines import (CompandingConfig, DftSpreadConfig, IcfConfig,
                        dft_despread, dft_spread, icf, mu_compand, mu_expand)
from .channel import (ETU300_PROFILE, ChannelBlocks, ChannelRealization,
                      PathProfile, add_awgn, apply_channel, calibrate_noise,
                      channel_blocks, effective_dd_matrix, identity_channel,
                      named_profile, sample_channel)
from .config import ExperimentConfig, config_from_mapping, parse_config_text
from .errors import (CorruptedStateError, EqualizerError, InstanceTooLargeError,
                     ParameterError, UndefinedPaprError,
                     UnsupportedModulationError)
from .frame import (FrameParams, PskAlphabet, detect_symbols,
                    map_bits_to_symbols, symbols_to_bits)
from .metrics import (CcdfCurve, PaprSample, ccdf, default_thresholds_db, papr,
                      papr_at_ccdf)
from .modem import (demodulate, dense_synthesis_matrix, modulate,
                    modulate_oracle, time_frequency_grid)
from .precoder import (GreedyConfig, PrecodeResult, brute_force_precode,
                       candidate_flip, greedy_precode)
from .receiver import (EqualizerInput, ErrorCounts, block_mmse_equalize,
                       count_errors, dd_noise_variance, mmse_equalize)

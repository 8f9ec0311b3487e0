"""Link simulator and quantizer library for MIMO quantize-forward relays."""

from .bitcodec import (
    EncodedRelayState,
    decode_relay_state,
    encode_relay_state,
    pack_container,
    rank_assignment,
    unpack_container,
    unrank_assignment,
)
from .channel import (
    LinkRealization,
    NoiseModel,
    apply_link,
    sample_channel,
    sample_links,
    sample_noise,
    snr_db_to_sigma2,
    trial_stream,
)
from .codebook import Codebook, build_codebook, gray_code
from .config import (
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    SweepConfig,
    parse_config,
    parse_spec_string,
)
from .link import (
    PointConfig,
    TrialOutcome,
    relay_process,
    run_trial,
)
from .quantizers import (
    AF,
    HAPQ,
    UAPQ,
    UPQ,
    LevelSet,
    QuantizerSpec,
    RelayState,
    build_level_set,
    oaq_codeword_count,
    ordered_amplitude_quantize,
    quantizer_bits,
    relay_state,
    relay_symbols,
    relay_symbols_from_state,
    uniform_amplitude_quantize,
    uniform_phase_quantize,
    wrap_phase,
)
from .sweep import (
    BerRecord,
    MemoryRow,
    memory_report,
    run_ber_sweep,
    write_ber_csv,
    write_memory_csv,
)

__version__ = "0.1.0"

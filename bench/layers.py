"""The traced layers of qfrelay, their work counters, and the per-layer metrics.

Each target is (layer, function path relative to the qfrelay package, work
counter).  Private functions are traced under the layer name the benchmark
reports (``engine._sq_dists`` is ``engine.sq_dists``).  The ``sweep`` layer
is the sweep module's own code around the engine: records and CSV.
"""

METHOD_KINDS = ("UPQ", "UAPQ", "HAPQ", "AF")
STACK_BYTES = "engine.candidate_stack.computed_max_bytes"


def _count_candidates(counters, args, result):
    spec, basis = args
    counters[f"engine.candidate_relay_symbols.{spec.kind}.elements"] += basis.values.size
    # computed as entries x itemsize of the (batch, [samples,] candidates,
    # antennas) stack handed to the quantizer, not measured
    counters[STACK_BYTES] = max(counters[STACK_BYTES], basis.values.nbytes)


def _count_sq_dists(counters, args, result):
    counters["engine.sq_dists.elements"] += args[1].size


def _count_streams(counters, args, result):
    counters["channel.trial_stream.opened"] += 1


def _payload_bits(encoded):
    from qfrelay.quantizers import quantizer_bits

    return quantizer_bits(encoded.spec, encoded.n_antennas)


def _count_written(counters, args, result):
    counters["bitcodec.payload_bits.written"] += _payload_bits(result)


def _count_read(counters, args, result):
    counters["bitcodec.payload_bits.read"] += _payload_bits(args[0])


TARGETS = [
    ("channel.trial_stream", "channel.trial_stream", _count_streams),
    ("channel.sample_links", "channel.sample_links", None),
    ("channel.sample_noise", "channel.sample_noise", None),
    ("channel.apply_link", "channel.apply_link", None),
    ("engine.draw_batch", "engine._draw_batch", None),
    (lambda args: f"engine.candidate_relay_symbols.{args[0].kind}",
     "engine.candidate_relay_symbols", _count_candidates),
    ("quantizers.oaq_sort_ranks", "quantizers.oaq_sort_ranks", None),
    ("quantizers.phase_index", "quantizers.phase_index", None),
    ("engine.candidate_products", "engine._candidate_products", None),
    ("engine.sq_dists", "engine._sq_dists", _count_sq_dists),
    ("engine.count_errors", "engine.count_errors", None),
    ("codebook.bit_errors", "codebook.Codebook.bit_errors", None),
    ("bitcodec.encode", "bitcodec.encode_relay_state", _count_written),
    ("bitcodec.decode", "bitcodec.decode_relay_state", _count_read),
    ("bitcodec.rank", "bitcodec.rank_assignment", None),
    ("bitcodec.unrank", "bitcodec.unrank_assignment", None),
    ("bitcodec.pack_container", "bitcodec.pack_container", None),
    ("bitcodec.unpack_container", "bitcodec.unpack_container", None),
    # payload validation: EncodedRelayState checks every payload bit
    ("bitcodec.payload_bits", "bitcodec.EncodedRelayState.__post_init__", None),
    ("link.run_trial", "link.run_trial", None),
    ("link.relay_process", "link.relay_process", None),
    ("quantizers.relay_state", "quantizers.relay_state", None),
    ("quantizers.relay_symbols_from_state", "quantizers.relay_symbols_from_state", None),
    ("engine.mismatched_metrics", "engine.mismatched_metrics", None),
    ("quantizers.relay_symbols", "quantizers.relay_symbols", None),
    ("sweep", "sweep.run_ber_sweep", None),
    ("sweep", "sweep.sweep_error_counts", None),
    ("sweep", "sweep.write_ber_csv", None),
    ("sweep.run_task", "sweep._run_task", None),
    ("config", "config.parse_config", None),
    ("cli", "cli.main", None),
]

LAYERS = [
    "channel.trial_stream", "channel.sample_links", "channel.sample_noise",
    "channel.apply_link", "engine.draw_batch",
    *(f"engine.candidate_relay_symbols.{kind}" for kind in METHOD_KINDS),
    "quantizers.oaq_sort_ranks", "quantizers.phase_index",
    "engine.candidate_products", "engine.sq_dists", "engine.count_errors",
    "codebook.bit_errors",
    "bitcodec.encode", "bitcodec.decode", "bitcodec.rank", "bitcodec.unrank",
    "bitcodec.pack_container", "bitcodec.unpack_container", "bitcodec.payload_bits",
    "link.run_trial", "link.relay_process", "quantizers.relay_state",
    "quantizers.relay_symbols_from_state", "engine.mismatched_metrics",
    "quantizers.relay_symbols", "sweep", "sweep.run_task", "config", "cli",
]

_SWEEP_LAYERS = [
    "channel.trial_stream", "channel.sample_links", "channel.sample_noise",
    "engine.draw_batch", "quantizers.oaq_sort_ranks", "quantizers.phase_index",
    "engine.candidate_products", "engine.sq_dists", "engine.count_errors",
    "codebook.bit_errors", "quantizers.relay_symbols", "sweep", "sweep.run_task",
    "config", "cli",
]
_CODEC_LAYERS = [
    "bitcodec.encode", "bitcodec.decode", "bitcodec.rank", "bitcodec.unrank",
    "bitcodec.payload_bits",
]

# layers each workload must reach; a traced run that records no call for one
# of them fails, so a rename or a bypass cannot zero a layer silently
EXPECTED = {
    "sweep-mismatched": _SWEEP_LAYERS + [
        f"engine.candidate_relay_symbols.{kind}" for kind in ("UAPQ", "HAPQ", "AF")
    ],
    "sweep-marginalized": _SWEEP_LAYERS + [
        f"engine.candidate_relay_symbols.{kind}" for kind in ("UAPQ", "HAPQ")
    ],
    "relay-reference": _CODEC_LAYERS + [
        "channel.trial_stream", "channel.sample_links", "channel.sample_noise",
        "channel.apply_link", "link.run_trial", "link.relay_process",
        "quantizers.relay_state", "quantizers.relay_symbols_from_state",
        "engine.mismatched_metrics", "engine.candidate_products",
        "quantizers.phase_index", "quantizers.oaq_sort_ranks", "engine.sq_dists",
        "codebook.bit_errors",
        *(f"engine.candidate_relay_symbols.{kind}" for kind in ("UPQ", "UAPQ", "HAPQ")),
    ],
    "codec-roundtrip": _CODEC_LAYERS + [
        "bitcodec.pack_container", "bitcodec.unpack_container",
        "quantizers.relay_state", "quantizers.phase_index", "quantizers.oaq_sort_ranks",
    ],
}

# totals over the traced pass (warm-up included), named as reported
COUNTERS = [
    *(f"engine.candidate_relay_symbols.{kind}.elements" for kind in METHOD_KINDS),
    "engine.sq_dists.elements",
    "bitcodec.payload_bits.written",
    "bitcodec.payload_bits.read",
]

# exact work per op over the traced timed loop: (metric, counter)
PER_OP = [
    ("work.trial_streams_per_op", "channel.trial_stream.opened"),
    *((f"work.candidate_entries_per_op.{kind}",
       f"engine.candidate_relay_symbols.{kind}.elements") for kind in METHOD_KINDS),
    ("work.sq_dists_elements_per_op", "engine.sq_dists.elements"),
    ("work.payload_bits_written_per_op", "bitcodec.payload_bits.written"),
    ("work.payload_bits_read_per_op", "bitcodec.payload_bits.read"),
]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for layer in LAYERS:
        spec += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.calls", "count", "lower")]
    spec += [(name, "count", "lower") for name in COUNTERS]
    spec.append((STACK_BYTES, "bytes", "lower"))
    spec += [(name, "count/op", "lower") for name, _ in PER_OP]
    spec += [
        ("trace.ops", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_s", "s", "lower"),
        ("trace.ops_per_s_ratio", "ratio", "higher"),
    ]
    return spec


def layer_metrics(summary, counters, counters_before, traced, wall_s, plain_ops_per_s):
    """Every per-layer metric from the traced pass.

    ``summary`` maps layer to (self seconds, calls); ``traced`` is the traced
    loop's result; ``plain_ops_per_s`` is the untraced pass's throughput.
    """
    values = {}
    for layer in LAYERS:
        self_s, calls = summary.get(layer, (0.0, 0))
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.calls"] = calls
    for name in COUNTERS:
        values[name] = counters.get(name, 0)
    values[STACK_BYTES] = counters.get(STACK_BYTES, 0)
    for name, counter in PER_OP:
        done = counters.get(counter, 0) - counters_before.get(counter, 0)
        values[name] = done / traced["ops"]
    values["trace.ops"] = traced["ops"]
    values["trace.spans"] = sum(calls for _, calls in summary.values())
    values["trace.wall_s"] = wall_s
    values["trace.untraced_s"] = wall_s - sum(self_s for self_s, _ in summary.values())
    values["trace.ops_per_s_ratio"] = traced["ops"] / traced["busy_s"] / plain_ops_per_s
    return {
        name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()
    }

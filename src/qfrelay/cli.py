"""Command-line harness: BER sweeps, memory-bit reports, quantizer debugging.

Subcommands::

    qfrelay ber <config> [--out FILE]
    qfrelay bits --nr-min N --nr-max N --spec SPEC [--spec SPEC ...] [--out FILE]
    qfrelay quantize --spec SPEC --input "2+0j,0+1j,..." [--out FILE]

Specs use the compact syntax ``UPQ:q=8``, ``UAPQ:q=8,qbar=4``,
``HAPQ:qbar=4,m=2,n=2`` or ``AF``.  Exit status is 0 on success, 1 on a
usage or configuration error, 2 on a runtime numeric error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from .bitcodec import MAX_ANTENNAS, encode_relay_state, pack_container
from .config import ConfigError, parse_config, parse_spec_string
from .quantizers import (
    AF,
    quantizer_bits,
    relay_state,
    relay_symbols,
    relay_symbols_from_state,
)
from .sweep import memory_report, run_ber_sweep, write_ber_csv, write_memory_csv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="qfrelay", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    ber = commands.add_parser("ber", help="run a BER sweep from a config file")
    ber.add_argument("config", help="path to the sweep configuration file")
    ber.add_argument("--out", default=None, help="CSV output path (default stdout)")

    bits = commands.add_parser("bits", help="relay memory bits over a range of N_R")
    bits.add_argument("--nr-min", type=int, required=True)
    bits.add_argument("--nr-max", type=int, required=True)
    bits.add_argument("--spec", action="append", required=True,
                      help="method spec, may be repeated")
    bits.add_argument("--out", default=None)

    quantize = commands.add_parser("quantize", help="quantize one received vector")
    quantize.add_argument("--spec", required=True)
    quantize.add_argument("--input", required=True,
                          help="comma-separated complex values, e.g. '2+0j,0+1j'")
    quantize.add_argument("--out", default=None)
    return parser


@contextlib.contextmanager
def _output(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _cmd_ber(args):
    cfg = parse_config(args.config)
    records = run_ber_sweep(cfg)
    with _output(args.out) as stream:
        write_ber_csv(records, stream)


def _cmd_bits(args):
    # the level multisets memory_report caches grow with N_R, so N_R stops
    # where a relay-state container does
    if not 1 <= args.nr_min <= args.nr_max <= MAX_ANTENNAS:
        raise UsageError(f"need 1 <= --nr-min <= --nr-max <= {MAX_ANTENNAS}, the most "
                         "antennas a relay-state container holds")
    specs = [parse_spec_string(text) for text in args.spec]
    for spec in specs:
        if spec.kind == AF:
            raise UsageError("AF has no finite bit count; pick a quantizing spec")
    rows = memory_report(range(args.nr_min, args.nr_max + 1), specs)
    with _output(args.out) as stream:
        write_memory_csv(rows, stream)


def _parse_complex_vector(text):
    try:
        values = [complex(item.strip().replace(" ", "")) for item in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"could not parse complex input: {exc}") from exc
    return np.asarray(values, dtype=complex)


def _fmt_complex(value):
    return f"{value.real:.10g}{value.imag:+.10g}j"


def _cmd_quantize(args):
    spec = parse_spec_string(args.spec)
    received = _parse_complex_vector(args.input)
    lines = [f"method: {spec.label()}"]
    if spec.kind == AF:
        symbols = relay_symbols(received, spec)
        lines.append("x_R: " + ", ".join(_fmt_complex(v) for v in symbols))
        lines.append("note: no finite bit encoding")
    else:
        state = relay_state(received, spec)
        symbols = relay_symbols_from_state(state)
        encoded = encode_relay_state(state)
        lines.append("x_R: " + ", ".join(_fmt_complex(v) for v in symbols))
        lines.append(
            "phase indices: " + " ".join(str(k) for k in state.phase_indices)
        )
        if state.amplitude_assignment:
            lines.append(
                "amplitude levels: "
                + " ".join(str(a) for a in state.amplitude_assignment)
            )
        if state.amplitude_bins:
            lines.append(
                "amplitude bins: " + " ".join(str(b) for b in state.amplitude_bins)
            )
        lines.append(f"bits: {quantizer_bits(spec, received.shape[0])}")
        try:
            lines.append("container: " + pack_container(encoded).hex())
        except ValueError:
            # the state is valid even when the debug container cannot hold it
            _write_lines(args.out, lines)
            raise
    _write_lines(args.out, lines)


def _write_lines(path, lines):
    with _output(path) as stream:
        stream.write("\n".join(lines) + "\n")


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "ber":
            _cmd_ber(args)
        elif args.command == "bits":
            _cmd_bits(args)
        else:
            _cmd_quantize(args)
    except (UsageError, ConfigError, FileNotFoundError) as exc:
        print(f"qfrelay: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"qfrelay: numeric error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qfrelay benchmark workloads, each run in a fresh single process.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --mode MODE

``bench/run.py`` starts this script; MODE is one of

* ``setup``: import qfrelay, warm up and build the inputs, report set-up time;
* ``run``: set up, then a timed closed loop (one client) with tracing off;
* ``trace``: set up, an untraced loop for S/2 seconds, then the warm-up and
  the same ops again for S/2 seconds with every layer traced;
* ``golden``: print this commit's warm-up outputs at the committed seed, the
  values ``golden.json`` holds (regenerate it only for a deliberate change
  of the random streams or the output format).

Every workload is a closed loop with one client and ``workers = 1``.  The
inputs come from ``--seed``; the warm-up op instead runs at the committed
seed and is compared with the golden values in ``golden.json``.  The last
line of standard output is one JSON object.
"""

import time

SETUP_START = time.perf_counter()  # set-up time runs from before `import qfrelay`

import argparse  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
COMMITTED_SEED = 20260810

CSV_COLUMNS = [
    "method", "q", "qbar", "m", "family_n", "n_s", "n_r", "n_d", "M",
    "snr_db", "trials", "bit_errors", "total_bits", "ber", "n_b", "seed",
    "stderr",
]

# relay-reference and codec-roundtrip share this method mix at N_R = 4 and 16
RELAY_SPEC_TEXTS = ("UPQ:q=8", "UAPQ:q=8,qbar=4", "HAPQ:qbar=4,m=1", "HAPQ:qbar=4,m=2",
                    "HAPQ:qbar=4,m={n_r}")
RELAY_N_R = (4, 16)

qfrelay = None  # bound by import_qfrelay()


def import_qfrelay():
    global qfrelay
    sys.path.insert(0, str(SRC))
    import qfrelay as package
    import qfrelay.bitcodec  # noqa: F401
    import qfrelay.cli  # noqa: F401
    import qfrelay.engine  # noqa: F401

    location = Path(package.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise RuntimeError(f"imported qfrelay from {location}, not from {SRC}")
    qfrelay = package


def relay_specs(n_r):
    parse = qfrelay.parse_spec_string
    return [parse(text.format(n_r=n_r)) for text in RELAY_SPEC_TEXTS]


# ---------------------------------------------------------------------------
# Workloads
#
# A workload warms up (at the committed seed, checked against golden.json),
# prepares its inputs from the run seed, and then hands the loop rounds of
# items.  ``execute`` runs one item; ``weight`` is how many ops it counts for.
# The loop only stops at a round boundary, so per-op work counts repeat
# exactly from run to run.
# ---------------------------------------------------------------------------

class SweepWorkload:
    """The `qfrelay ber` path: config file, then run_ber_sweep, then CSV.

    One op is one trial index through every method.  The warm-up runs the
    CLI on a three-point SNR grid at the committed seed; each timed call is
    one sweep at one SNR point, cycling through the grid, with its own seed.
    """

    def __init__(self, name, detector, spec_texts, snr_grid, trials_per_point,
                 marginal_samples=64):
        self.name = name
        self.detector = detector
        self.spec_texts = spec_texts
        self.snr_grid = snr_grid
        self.trials = trials_per_point
        self.marginal_samples = marginal_samples
        self.first_call = None

    def params(self):
        return {
            "link": "4x4x4", "M": 4, "detector": self.detector,
            "marginal_samples": self.marginal_samples if self.detector == "marginalized" else None,
            "methods": list(self.spec_texts), "snr_db_cycle": list(self.snr_grid),
            "trials_per_call": self.trials, "workers": 1,
            "op": "one trial index through every method",
        }

    def config_text(self, seed):
        lines = [
            "n_s = 4", "n_r = 4", "n_d = 4", "M = 4",
            "snr_db_grid = " + " ".join(f"{snr:g}" for snr in self.snr_grid),
            f"trials_per_point = {self.trials}", f"seed = {seed}",
            f"detector = {self.detector}",
            f"marginal_samples = {self.marginal_samples}", "workers = 1",
        ]
        for text in self.spec_texts:
            head, _, rest = text.partition(":")
            lines += ["", "[spec]", f"kind = {head}"]
            for item in filter(None, rest.split(",")):
                key, _, value = item.partition("=")
                lines.append(f"{'family_n' if key == 'n' else key} = {value}")
        return "\n".join(lines) + "\n"

    def warm_up(self, golden):
        """Run `qfrelay ber` at the committed seed; returns (ops, ok)."""
        work = OUT_DIR / self.name
        work.mkdir(parents=True, exist_ok=True)
        config_path, csv_path = work / "sweep.cfg", work / "ber.csv"
        config_path.write_text(self.config_text(COMMITTED_SEED), encoding="utf-8")
        status = qfrelay.cli.main(["ber", str(config_path), "--out", str(csv_path)])
        text = csv_path.read_text(encoding="utf-8") if status == 0 else None
        self.base_config = qfrelay.parse_config(config_path)
        ops = self.trials * len(self.snr_grid)
        if golden is None:
            return ops, text
        ok = text == golden
        if not ok:
            report(f"{self.name}: CSV at the committed seed differs from golden.json")
        return ops, ok

    def prepare(self, seed):
        self.seed = seed

    def call_config(self, k):
        return dataclasses.replace(
            self.base_config,
            seed=self.seed * 100_000 + k,
            snr_db_grid=(self.snr_grid[k % len(self.snr_grid)],),
        )

    def round(self, r):
        return (r,)

    def weight(self, k):
        return self.trials

    def execute(self, k):
        records = qfrelay.run_ber_sweep(self.call_config(k))
        stream = io.StringIO()
        qfrelay.write_ber_csv(records, stream)
        return stream.getvalue()

    def check(self, k, text):
        """CSV shape and count ranges; returns the bit errors per method or None."""
        cfg = self.call_config(k)
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != CSV_COLUMNS or len(rows) != 1 + len(self.spec_texts):
            return None
        column = {name: i for i, name in enumerate(CSV_COLUMNS)}
        total_bits = self.trials * 4 * 2
        errors = []
        for row in rows[1:]:
            bit_errors = int(row[column["bit_errors"]])
            if (int(row[column["trials"]]) != self.trials
                    or int(row[column["total_bits"]]) != total_bits
                    or int(row[column["seed"]]) != cfg.seed
                    or float(row[column["snr_db"]]) != cfg.snr_db_grid[0]
                    or not 0 <= bit_errors <= total_bits):
                return None
            errors.append(bit_errors)
        if k == 0:
            self.first_call = tuple(errors)
        return tuple(errors)

    def verify(self, n_sample=4):
        """Cross-check call 0 against the engine and run_trial; returns failed ops.

        The engine recount uses a different batch size, which must not change
        any count; run_trial errors on the first trials, summed per method,
        must equal the engine's counts for the same trial indices.
        """
        if self.first_call is None:
            return 0
        cfg = self.call_config(0)
        engine = qfrelay.engine
        args = (cfg.n_source, cfg.n_relay, cfg.n_dest, cfg.alphabet, cfg.specs,
                cfg.snr_db_grid[0], 0, cfg.seed)
        kwargs = {"detector": cfg.detector, "marginal_samples": cfg.marginal_samples}
        batch = 64 if cfg.detector == "mismatched" else 2
        recount = engine.count_errors(*args, 0, self.trials, batch_size=batch, **kwargs)
        ok = tuple(int(c) for c in recount) == self.first_call
        sample = engine.count_errors(*args, 0, n_sample, **kwargs)
        for spec, count in zip(cfg.specs, sample):
            point = qfrelay.PointConfig(
                spec, cfg.n_source, cfg.n_relay, cfg.n_dest, cfg.alphabet,
                cfg.snr_db_grid[0], 0, cfg.detector, cfg.marginal_samples,
            )
            reference = sum(
                qfrelay.run_trial(point, t, cfg.seed).bit_errors for t in range(n_sample)
            )
            ok = ok and reference == int(count)
        if not ok:
            report(f"{self.name}: call 0 disagrees with the engine or run_trial")
        return 0 if ok else self.trials


class RelayReferenceWorkload:
    """One op is one run_trial call, cycling through ten (method, N_R) points."""

    name = "relay-reference"
    rounds_golden = 3
    sample_every = 37  # coprime with the ten points, so every point is sampled

    def params(self):
        return {
            "link": "4xN_Rx4", "M": 4, "N_R": list(RELAY_N_R), "snr_db": 2.0,
            "detector": "mismatched", "methods": list(RELAY_SPEC_TEXTS),
            "op": "one run_trial call", "check_sample_every": self.sample_every,
        }

    def _points(self):
        return [
            qfrelay.PointConfig(spec, 4, n_r, 4, 4, 2.0)
            for n_r in RELAY_N_R for spec in relay_specs(n_r)
        ]

    def warm_up(self, golden):
        self.points = self._points()
        self.seed = COMMITTED_SEED
        outcomes = []
        for r in range(self.rounds_golden):
            for item in self.round(r):
                out = self.execute(item)
                outcomes.append([out.sent, out.detected, out.bit_errors])
        ops = len(outcomes)
        if golden is None:
            return ops, outcomes
        ok = outcomes == golden
        if not ok:
            report("relay-reference: outcomes at the committed seed differ from golden.json")
        return ops, ok

    def prepare(self, seed):
        self.seed = seed
        self.sampled = []

    def round(self, r):
        n = len(self.points)
        return [(p, r * n + p) for p in range(n)]

    def weight(self, item):
        return 1

    def execute(self, item):
        point, trial = item
        return qfrelay.run_trial(self.points[point], trial, self.seed)

    def check(self, item, out):
        # M = 4 packs each sub-message's two bits into its own field of the
        # message index, so bit errors are the popcount of sent ^ detected
        if not (0 <= out.sent < 256 and 0 <= out.detected < 256 and out.total_bits == 8
                and out.bit_errors == bin(out.sent ^ out.detected).count("1")):
            return None
        if item[1] % self.sample_every == 0:
            self.sampled.append((item, out.bit_errors))
        return (out.sent, out.detected, out.bit_errors)

    def verify(self):
        """Sampled trials must match the batched engine; returns failed ops."""
        failed = 0
        for (point_index, trial), bit_errors in self.sampled:
            point = self.points[point_index]
            count = qfrelay.engine.count_errors(
                point.n_source, point.n_relay, point.n_dest, point.alphabet,
                [point.spec], point.snr_db, point.snr_index, self.seed, trial, trial + 1,
            )
            if int(count[0]) != bit_errors:
                failed += 1
        if failed:
            report(f"relay-reference: {failed} sampled trials disagree with the engine")
        return failed


class CodecWorkload:
    """One op is a relay-memory write (encode + pack) and read (unpack + decode).

    The states come from relay_state on unit-variance complex Gaussian
    received vectors, over the relay-reference method mix.
    """

    name = "codec-roundtrip"
    per_combo = 64
    per_combo_golden = 8

    def params(self):
        return {
            "N_R": list(RELAY_N_R), "methods": list(RELAY_SPEC_TEXTS),
            "states_per_method": self.per_combo,
            "op": "encode_relay_state + pack_container, then unpack_container + decode_relay_state",
        }

    def _states(self, seed, per_combo):
        import numpy as np

        rng = np.random.default_rng(seed)
        combos = [(spec, n_r) for n_r in RELAY_N_R for spec in relay_specs(n_r)]
        states = []
        for _ in range(per_combo):
            for spec, n_r in combos:
                y = (rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)) * math.sqrt(0.5)
                states.append(qfrelay.relay_state(y, spec))
        return states

    def warm_up(self, golden):
        self.pool = self._states(COMMITTED_SEED, self.per_combo_golden)
        digest = hashlib.sha256()
        ok = True
        for i in range(len(self.pool)):
            data, restored = self.execute(i)
            digest.update(data)
            ok = ok and restored == self.pool[i]
        if golden is None:
            return len(self.pool), digest.hexdigest()
        ok = ok and digest.hexdigest() == golden
        if not ok:
            report("codec-roundtrip: round trips at the committed seed disagree with golden.json")
        return len(self.pool), ok

    def prepare(self, seed):
        self.pool = self._states(seed, self.per_combo)
        pack, encode = qfrelay.pack_container, qfrelay.encode_relay_state
        self.containers = [pack(encode(state)) for state in self.pool]

    def round(self, r):
        # the pool interleaves the methods, so each slice holds one of each
        width = len(RELAY_N_R) * len(RELAY_SPEC_TEXTS)
        start = r * width % len(self.pool)
        return range(start, start + width)

    def weight(self, i):
        return 1

    def execute(self, i):
        data = qfrelay.pack_container(qfrelay.encode_relay_state(self.pool[i]))
        return data, qfrelay.decode_relay_state(qfrelay.unpack_container(data))

    def check(self, i, out):
        data, restored = out
        if data != self.containers[i] or restored != self.pool[i]:
            return None
        return data

    def verify(self):
        return 0


MISMATCHED_SPECS = (
    # criterion 7's eleven methods, in its order
    "AF", "UAPQ:q=8,qbar=4", "HAPQ:qbar=4,m=2,n=2", "HAPQ:qbar=4,m=4,n=2",
    "HAPQ:qbar=4,m=1,n=1", "HAPQ:qbar=4,m=1,n=2", "HAPQ:qbar=4,m=1,n=3",
    "HAPQ:qbar=4,m=1,n=4", "HAPQ:qbar=4,m=2,n=1", "HAPQ:qbar=4,m=2,n=3",
    "HAPQ:qbar=4,m=2,n=4",
)

WORKLOADS = {
    "sweep-mismatched": lambda: SweepWorkload(
        "sweep-mismatched", "mismatched", MISMATCHED_SPECS, (2.0, 10.0, 18.0), 256),
    "sweep-marginalized": lambda: SweepWorkload(
        "sweep-marginalized", "marginalized", ("UAPQ:q=8,qbar=4", "HAPQ:qbar=4,m=2,n=2"),
        (4.0, 10.0, 16.0), 8, marginal_samples=64),
    "relay-reference": RelayReferenceWorkload,
    "codec-roundtrip": CodecWorkload,
}


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------

def report(message):
    print(f"bench: {message}", file=sys.stderr, flush=True)


def closed_loop(workload, seconds, keep_keys=False):
    """Run rounds until ``seconds`` have passed; returns a dict of results.

    Only ``execute`` is timed; checks run between ops.  An op that raises or
    fails its check counts as failed, and the loop goes on.  One latency
    sample is a round's time per op: a round covers each method of the mix
    once, so the samples do not split into per-method modes.
    """
    clock = time.perf_counter_ns
    latency_us = array("d")
    keys = []
    ops = failed = busy_ns = 0
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        round_ns = round_ops = 0
        for item in workload.round(rounds):
            start = clock()
            end = None
            try:
                out = workload.execute(item)
                end = clock()
                key = workload.check(item, out)
                if key is None:
                    raise ValueError("output check failed")
            except Exception:  # a failed op is counted, and the loop goes on
                end = end or clock()
                key = None
                if not failed:
                    report(f"{workload.name}: op {item!r} failed\n" + traceback.format_exc())
            weight = workload.weight(item)
            round_ns += end - start
            round_ops += weight
            if key is None:
                failed += weight
            if keep_keys:
                keys.append((weight, key))
        ops += round_ops
        busy_ns += round_ns
        latency_us.append(round_ns / round_ops / 1000.0)
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    return {"ops": ops, "failed": failed, "busy_s": busy_ns * 1e-9,
            "latency_us": latency_us, "keys": keys}


def latency_summary(latency_us):
    """Nearest-rank latency percentiles of the round samples.

    op_p99_us is p99, or below 1000 samples the highest rank that leaves ten
    samples above it (the sweeps make one sample per call, so theirs sits
    near p92), but never below p90.
    """
    values = sorted(latency_us)
    n = len(values)

    def rank(q):
        return max(0, math.ceil(q * n) - 1)

    tail = max(rank(0.90), min(rank(0.99), n - 11))
    return {
        "op_p50_us": values[rank(0.50)],
        "op_p90_us": values[rank(0.90)],
        "op_p99_us": values[tail],
        "samples": n,
        "tail_percentile": 100.0 * (tail + 1) / n,
        "samples_above_p99": sum(1 for v in values if v > values[tail]),
    }


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cache_bytes():
    # glibc sysconf names _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE and
    # _SC_LEVEL3_CACHE_SIZE; Python's os.sysconf_names does not list them
    sizes = {}
    for label, number in (("L1d", 188), ("L2", 191), ("L3", 194)):
        try:
            value = os.sysconf(number)
        except (OSError, ValueError):
            value = -1
        sizes[label] = value if value > 0 else None
    return sizes


def run_record(workload, seed, seconds, mode):
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "qfrelay").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name, "mode": mode, "seed": seed, "seconds": seconds,
        "committed_seed": COMMITTED_SEED, "params": workload.params(),
        "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cache_bytes": cache_bytes(),
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def golden_value(name):
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]


def set_up(name, seed):
    """Import, warm up at the committed seed, prepare inputs from ``seed``."""
    import_qfrelay()
    workload = WORKLOADS[name]()
    warm_ops, warm_ok = workload.warm_up(golden_value(name))
    workload.prepare(seed)
    setup_s = time.perf_counter() - SETUP_START
    return workload, setup_s, warm_ops, warm_ok


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_run(name, seed, seconds):
    workload, setup_s, warm_ops, warm_ok = set_up(name, seed)
    loop = closed_loop(workload, seconds)
    rss = peak_rss_mb()
    verify_failed = workload.verify()
    return {
        "setup_s": setup_s,
        "ops": loop["ops"] + warm_ops,
        "failed": loop["failed"] + verify_failed + (0 if warm_ok else warm_ops),
        "correct": warm_ok and loop["failed"] == 0 and verify_failed == 0,
        "ops_per_s": loop["ops"] / loop["busy_s"],
        "peak_rss_mb": rss,
        **latency_summary(loop["latency_us"]),
        "record": run_record(workload, seed, seconds, "run"),
    }


def mode_trace(name, seed, seconds):
    from layers import EXPECTED, TARGETS, layer_metrics
    from tracer import Tracer, TraceTargetError

    workload, _, warm_ops, warm_ok = set_up(name, seed)
    plain = closed_loop(workload, seconds / 2, keep_keys=True)
    verify_failed = workload.verify()

    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        wall_start = time.perf_counter()
        _, traced_warm_ok = workload.warm_up(golden_value(name))
        workload.prepare(seed)
        counters_before = dict(tracer.counters)
        traced = closed_loop(workload, seconds / 2, keep_keys=True)
        wall_s = time.perf_counter() - wall_start
    finally:
        tracer.uninstall()

    summary = tracer.summary()
    silent = [layer for layer in EXPECTED[name] if summary.get(layer, (0.0, 0))[1] == 0]
    if silent:
        raise TraceTargetError(
            f"{name}: no calls recorded for {', '.join(silent)}; "
            "the traced function was renamed or is no longer called"
        )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{name}.npz")

    # the traced pass repeats the untraced pass's ops from the start, so
    # their outputs must agree op for op over the ops both completed
    shared = min(len(plain["keys"]), len(traced["keys"]))
    differ = sum(
        weight
        for (weight, a), (_, b) in zip(plain["keys"][:shared], traced["keys"][:shared])
        if a != b
    )
    if differ:
        report(f"{name}: traced and untraced outputs differ on {differ} ops")
    metrics = layer_metrics(
        summary, tracer.counters, counters_before, traced, wall_s,
        plain["ops"] / plain["busy_s"],
    )
    warm_failed = (2 - warm_ok - traced_warm_ok) * warm_ops
    ok = not (plain["failed"] or traced["failed"] or verify_failed or warm_failed)
    return {
        "metrics": metrics,
        "ops": plain["ops"] + traced["ops"] + 2 * warm_ops,
        "failed": plain["failed"] + traced["failed"] + verify_failed + differ + warm_failed,
        "correct": ok and differ == 0,
        "compared_ops": sum(weight for weight, _ in traced["keys"][:shared]),
        "record": run_record(workload, seed, seconds, "trace"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace", "golden"))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.mode == "setup":
        _, setup_s, _, warm_ok = set_up(args.workload, args.seed)
        result = {"setup_s": setup_s, "correct": warm_ok}
    elif args.mode == "run":
        result = mode_run(args.workload, args.seed, args.seconds)
    elif args.mode == "trace":
        result = mode_trace(args.workload, args.seed, args.seconds)
    else:  # print this commit's golden values for the workload
        import_qfrelay()
        _, value = WORKLOADS[args.workload]().warm_up(None)
        result = {args.workload: value}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workloads, timing and correctness checks of the eraser benchmark.

The caller puts the ``src`` directory of the tree under test on
``sys.path`` before importing this module (see ``run.py``).

Every host-time figure is normalised against a fixed reference loop that
is timed right before, during and right after each timed segment: a
segment that took ``t`` seconds while the loop took ``r`` seconds on
average is reported as ``t * R0 / r``. On a shared machine the speed
swings by a third or more, from one tens of milliseconds to the next and
from one minute to the next; the loop swings with it, so the ratio holds
still where raw seconds do not.

Every run repeats whole rounds of the same operations on inputs made
once from ``--seed``. The first round's outputs are checked against the
benchmark's own reference implementations (``reference.py``); every later
round must reproduce the first round's digest exactly.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import eraser
import eraser.experiment
import eraser.simulator
from eraser.certify import certify_coarse, certify_fine, certify_fine_shared_margin
from eraser.config import build_experiment_config, parse_config_text
from eraser.scheduler import VARIANT_NAMES
from eraser.workload import INFERENCE

import reference
from refloop import time_reference_loop

# --- reference loop and normalisation -----------------------------------------

# Loop timings taken right before and right after each segment.
_PROBE_REPEATS = 5
# While a segment runs, a timer signal times the loop once per interval.
_SAMPLE_INTERVAL = 0.025
# Share of the slowest and of the fastest loop timings left out of the mean.
_TRIM = 0.1

# The reference loop's typical time on the machine the figures in
# README.md were taken on (2-core VM, Python 3.11, numpy 2.4). Fixed, so
# normalised figures stay in seconds and compare across commits.
R0 = 0.00055


def trimmed_mean(values) -> float:
    ordered = sorted(values)
    cut = int(len(ordered) * _TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def normalise(seconds: float, reference_times, reference=R0) -> float:
    """Seconds rescaled to a machine whose reference takes ``reference``."""
    return seconds * reference / trimmed_mean(reference_times)


@dataclasses.dataclass(frozen=True)
class Timing:
    raw: float
    norm: float


def timed(fn, *args, **kwargs):
    """Call ``fn`` while timing the reference loop; return (result, Timing).

    The loop is timed five times right before and right after the call,
    and once every 25 ms during it from a timer signal. The machine's
    speed changes from one tens of milliseconds to the next, so only
    loop timings spread across the call show the speed the call met. The
    signal handler's own time is taken out of the call's time.
    """
    gc.collect()
    loops = [time_reference_loop() for _ in range(_PROBE_REPEATS)]
    during = []

    def sample(signum, frame):
        during.append(time_reference_loop())

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, _SAMPLE_INTERVAL, _SAMPLE_INTERVAL)
    try:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    loops += during + [time_reference_loop() for _ in range(_PROBE_REPEATS)]
    own = elapsed - sum(during)
    return result, Timing(own, normalise(own, loops))


# --- workloads ----------------------------------------------------------------

WORKLOADS = ("desk", "flood", "certfuzz")

# desk: the README's default config (K=20, C=10, accuracy 0.9, 500
# unlearning + 4,500 inference requests over T=500, capacity 20).
DESK_CONFIG = ""

# flood: the adversarial mix. K=64 is above the oracle's 48-shard cutover,
# so predictions take the vectorised path desk never touches.
FLOOD_CONFIG = """
[workload]
n_unlearning = 200
n_inference = 1800
shard_assignment = scattered_round_robin
noise_fraction = 0.5
[oracle]
num_shards = 64
accuracy = 0.6
"""

# SISA releases a halted inference once the jobs that predate it finish,
# while unlearning that arrived during the halt may still be pending; its
# plain answer then fails the replay. How many answers fail depends on the
# input, so flood runs SISA on one fixed input where the count is known
# (28 of 1,800) and the failed share is the same on every seed.
FLOOD_FIXED_SEEDS = {"SISA": 7}

# name -> (config text, variants run on a fixed seed instead of --seed)
SIM_WORKLOADS = {"desk": (DESK_CONFIG, {}), "flood": (FLOOD_CONFIG, FLOOD_FIXED_SEEDS)}

FUZZ_TRIALS = 16000
FUZZ_MAX_SHARDS = 8
FUZZ_MAX_CLASSES = 4
FUZZ_SAMPLE_SEED = 20231127
FUZZ_SAMPLE_SIZE = 100

TWINS = (("SUTP", "DUTP"), ("STTU", "DTTU"), ("STTP", "DTTP"))
ANSWERS_UNCERTIFIED = ("STTU", "DTTU")
RETRAINS_PER_REQUEST = ("SISA", "DIMP")


@dataclasses.dataclass
class SimCase:
    """One variant with the inputs it runs on."""

    variant: str
    seed: int
    workload: list
    variant_cfg: object
    oracle_cfg: object
    params: object


class SimBench:
    """desk and flood: every variant's ``run()`` plus its replay audit."""

    def __init__(self, seed, config_text, fixed_seeds):
        cfg = build_experiment_config(parse_config_text(config_text))
        self.generate = []
        inputs = {}
        for s in sorted({seed, *fixed_seeds.values()}):
            workload, timing = timed(cfg.build_workload, s)
            self.generate.append(timing)
            inputs[s] = (workload, cfg.oracle_config(s), cfg.sim_params(s))
        self.cases = []
        for v in VARIANT_NAMES:
            s = fixed_seeds.get(v, seed)
            workload, oracle_cfg, params = inputs[s]
            self.cases.append(SimCase(v, s, workload, cfg.variant(v), oracle_cfg, params))
        self.num_shards = cfg.num_shards
        self.requests_per_round = sum(len(c.workload) for c in self.cases)

    def round(self):
        """Run every case once; returns (outputs, segment timings)."""
        outputs, runs, audits = [], {}, {}
        for case in self.cases:
            metrics, runs[case.variant] = timed(
                eraser.simulator.run, case.workload, case.variant_cfg,
                case.oracle_cfg, case.params,
            )
            violations, audits[case.variant] = timed(
                eraser.simulator.replay_privacy_check, metrics.per_request_log,
                case.oracle_cfg,
            )
            outputs.append((metrics, violations))
        return outputs, {"run": runs, "audit": audits}

    def digest(self, outputs) -> str:
        h = hashlib.sha256()
        for case, (metrics, violations) in zip(self.cases, outputs):
            h.update(f"{case.variant} {violations} ".encode())
            h.update(metrics_digest(metrics).encode())
            h.update(log_digest(metrics.per_request_log).encode())
        return h.hexdigest()

    def check(self, outputs):
        """Replay and property checks of one round's outputs.

        Returns (operations, failed, problems, table). One operation is
        one inference request of one variant; it fails when it lacks
        exactly one terminal record, or when it was answered as
        authoritative and the reference replay disagrees with its label.
        A problem is a broken property of a whole variant; any problem
        makes the run incorrect.
        """
        ops = failed = 0
        problems = []
        table = {}
        for case, (metrics, violations) in zip(self.cases, outputs):
            v = case.variant
            n_unlearning = sum(1 for r in case.workload if r.kind != INFERENCE)
            inference_ids = [r.request_id for r in case.workload if r.kind == INFERENCE]
            ops += len(inference_ids)
            log = metrics.per_request_log
            seen = {}
            for rec in log:
                seen[rec.request_id] = seen.get(rec.request_id, 0) + 1
                if rec.response < rec.arrival:
                    problems.append(f"{v}: request {rec.request_id} answered before arrival")
            failed += sum(1 for i in inference_ids if seen.get(i, 0) != 1)
            if set(seen) - set(inference_ids):
                problems.append(f"{v}: records for requests that are not inference requests")
            verdicts = {rec.verdict for rec in log}
            if v == "SISA":
                allowed = {"plain"}
            elif v in ANSWERS_UNCERTIFIED:
                allowed = {"certified", "uncertified"}
            else:
                allowed = {"certified"}
            if not verdicts <= allowed:
                problems.append(f"{v}: unexpected verdicts {sorted(verdicts - allowed)}")

            served_bad, replay_bad = replay(log, case.oracle_cfg, self.num_shards)
            failed += int(np.count_nonzero(served_bad | replay_bad))
            if int(np.count_nonzero(replay_bad)) != violations:
                problems.append(
                    f"{v}: replay_privacy_check reports {violations}, "
                    f"reference replay {int(np.count_nonzero(replay_bad))}"
                )
            if metrics.nor > n_unlearning:
                problems.append(f"{v}: NoR {metrics.nor} exceeds {n_unlearning} unlearning requests")
            if v in RETRAINS_PER_REQUEST and metrics.nor != n_unlearning:
                problems.append(f"{v}: NoR {metrics.nor} != {n_unlearning} unlearning requests")
            table[v] = {
                "nor": metrics.nor, "judgements": metrics.judgements,
                "inferences": metrics.num_inferences, "authoritative": len(served_bad),
            }
        for single, double in TWINS:
            if table[single]["nor"] != table[double]["nor"]:
                problems.append(
                    f"twins {single}/{double} report NoR {table[single]['nor']} "
                    f"and {table[double]['nor']}"
                )
        return ops, failed, problems, table

    def end_to_end(self, rounds, attr="norm"):
        run_s = [sum(getattr(t, attr) for t in seg["run"].values()) for seg in rounds]
        audit_s = [sum(getattr(t, attr) for t in seg["audit"].values()) for seg in rounds]
        work_s = [a + b for a, b in zip(run_s, audit_s)]
        return {
            "work_s": statistics.median(work_s),
            "items_per_s": self.requests_per_round / statistics.median(run_s),
        }


def replay(log, oracle_cfg, num_shards):
    """Reference replay of every authoritative record in a request log.

    Returns two boolean arrays over the authoritative records: the served
    label differs from the reference ensemble at the record's serving
    versions, and it differs at its hypothetical versions (all pending
    unlearning executed), which is the right-to-be-forgotten replay.
    """
    recs = [r for r in log if r.verdict in ("certified", "plain")]
    if not recs:
        empty = np.zeros(0, dtype=bool)
        return empty, empty
    samples = [r.sample for r in recs]
    noise = [r.is_noise for r in recs]
    labels = np.array([r.label for r in recs], dtype=np.int64)
    c = oracle_cfg.num_classes
    out = []
    for versions in ([r.versions for r in recs], [r.hypothetical_versions for r in recs]):
        versions = np.array(versions, dtype=np.int64).reshape(len(recs), num_shards)
        preds = reference.shard_labels(
            oracle_cfg.seed, c, oracle_cfg.accuracy, samples, noise, versions,
        )
        out.append(reference.plurality(preds, c) != labels)
    return out[0], out[1]


class FuzzBench:
    """certfuzz: ``experiment.verify_cert`` against exhaustive enumeration."""

    def __init__(self, seed):
        self.seed = seed
        self.generate = []
        self.trials = FUZZ_TRIALS

    def round(self):
        report, timing = timed(
            eraser.experiment.verify_cert, self.trials, FUZZ_MAX_SHARDS,
            FUZZ_MAX_CLASSES, self.seed,
        )
        return report, {"fuzz": timing}

    def digest(self, report) -> str:
        fields = {
            f.name: getattr(report, f.name)
            for f in dataclasses.fields(report) if f.name != "elapsed_seconds"
        }
        return hashlib.sha256(repr(sorted(fields.items())).encode()).hexdigest()

    def check(self, report):
        """Per-trial verdicts against the reference enumeration.

        One operation is one trial; it fails on a soundness violation
        (fine certifies, enumeration finds a flip), a dominance violation
        (coarse certifies, fine does not), or any disagreement between the
        fine test, which is exact, and the enumeration.
        """
        tally = dict(fine=0, coarse=0, brute=0, sound=0, dom=0, shared=0, gap=0)
        failed = 0
        for preds, impacted, c in fuzz_instances(
            self.trials, FUZZ_MAX_SHARDS, FUZZ_MAX_CLASSES, self.seed
        ):
            fine = certify_fine(preds, impacted, c).certified
            coarse = certify_coarse(preds, impacted, c).certified
            shared = certify_fine_shared_margin(preds, impacted, c).certified
            ours = reference.consistent_by_multiset(preds.tolist(), impacted.tolist(), c)
            tally["fine"] += fine
            tally["coarse"] += coarse
            tally["brute"] += ours
            tally["sound"] += fine and not ours
            tally["dom"] += coarse and not fine
            tally["shared"] += shared and not ours
            tally["gap"] += ours and not fine
            failed += (fine != ours) or (coarse and not fine)
        problems = []
        expected = {
            "trials": self.trials, "fine_certified": tally["fine"],
            "coarse_certified": tally["coarse"], "brute_consistent": tally["brute"],
            "soundness_violations": tally["sound"], "dominance_violations": tally["dom"],
            "shared_margin_counterexamples": tally["shared"],
            "fine_incompleteness_gap": tally["gap"],
        }
        for key, want in expected.items():
            if getattr(report, key) != want:
                problems.append(f"FuzzReport.{key} = {getattr(report, key)}, reference {want}")
        if report.shared_margin_counterexamples < 1:
            problems.append("no shared-margin counterexample found")
        problems += fuzz_sample_problems()
        return self.trials, failed, problems, {}

    def end_to_end(self, rounds, attr="norm"):
        fuzz_s = statistics.median([getattr(seg["fuzz"], attr) for seg in rounds])
        return {"work_s": fuzz_s, "items_per_s": self.trials / fuzz_s}


def fuzz_instances(trials, max_shards, max_classes, seed):
    """The instances ``verify_cert`` draws, in its order and from its generator."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        k = int(rng.integers(1, max_shards + 1))
        c = int(rng.integers(2, max_classes + 1))
        preds = rng.integers(0, c, k)
        m = int(rng.integers(0, k + 1))
        impacted = np.sort(rng.choice(k, size=m, replace=False))
        yield preds, impacted, c


def fuzz_sample_problems():
    """``certify_fine`` against full-assignment enumeration on a fixed sample."""
    problems = []
    sample = fuzz_instances(FUZZ_SAMPLE_SIZE, FUZZ_MAX_SHARDS, FUZZ_MAX_CLASSES, FUZZ_SAMPLE_SEED)
    for i, (preds, impacted, c) in enumerate(sample):
        ours = reference.consistent_by_assignment(preds.tolist(), impacted.tolist(), c)
        if certify_fine(preds, impacted, c).certified != ours:
            problems.append(f"sample instance {i}: certify_fine disagrees with enumeration")
    return problems


def setup(name: str, seed: int):
    """Build a workload's inputs: config, oracle and generated requests."""
    if name in SIM_WORKLOADS:
        return SimBench(seed, *SIM_WORKLOADS[name])
    if name == "certfuzz":
        return FuzzBench(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# Set-up is process start-up work: exec, loading shared libraries and
# numpy's import, which speed up and slow down little with the machine,
# then eraser's own import and request generation, pure-Python work that
# swings with it by half or more. So set-up is normalised against a
# reference start-up of the same two parts, timed before and after each
# set-up process: a fresh interpreter that imports numpy and then runs
# the reference loop (``refloop.py``). Over twelve minutes of set-up
# processes, the median ratio over two-minute stretches moved by 10 to 13%
# against a start-up that only imported numpy, by 4.5 to 7.3% against
# this one.
SETUP_REFERENCE = (sys.executable, str(Path(__file__).resolve().parent / "refloop.py"))
# Fixed, of the order of the reference start-up's time on the machine of
# README.md, so normalised set-up stays in seconds.
S0 = 0.3


def _spawn(args) -> float:
    # wait() without a timeout blocks in waitpid; with one it polls in
    # steps of up to 50 ms, which would quantise the figure
    start = time.perf_counter()
    status = subprocess.Popen(args).wait()
    elapsed = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"{args} failed with exit code {status}")
    return elapsed


def setup_code(name: str, seed: int) -> str:
    """Source of a set-up process: the program's own work and nothing else.

    Imports eraser and the modules the workloads call, builds the config
    and generates the requests, oracle and simulation parameters for each
    of the workload's seeds, as ``setup`` does, but without the
    benchmark's timing, checks or imports.
    """
    src = str(Path(eraser.__file__).resolve().parent.parent)
    lines = [f"import sys; sys.path.insert(0, {src!r})",
             "import eraser, eraser.experiment, eraser.simulator"]
    if name in SIM_WORKLOADS:
        text, fixed_seeds = SIM_WORKLOADS[name]
        lines += [
            "from eraser.config import build_experiment_config, parse_config_text",
            f"cfg = build_experiment_config(parse_config_text({text!r}))",
        ]
        for s in sorted({seed, *fixed_seeds.values()}):
            lines.append(f"cfg.build_workload({s}); cfg.oracle_config({s}); cfg.sim_params({s})")
    return "\n".join(lines)


def measure_setup(name: str, seed: int, repeats: int) -> list[Timing]:
    """Time fresh interpreters that run ``setup_code``.

    Covers interpreter start, ``import eraser``, config and oracle
    construction and workload generation, as a user of the package pays
    them once per process.
    """
    code = setup_code(name, seed)
    references = [_spawn(SETUP_REFERENCE)]
    out = []
    for _ in range(repeats):
        elapsed = _spawn([sys.executable, "-c", code])
        references.append(_spawn(SETUP_REFERENCE))
        out.append(Timing(elapsed, normalise(elapsed, references[-2:], S0)))
    return out


# --- digests ----------------------------------------------------------------


def _fields_repr(obj, skip=()) -> str:
    return "|".join(
        f"{f.name}={getattr(obj, f.name)!r}"
        for f in dataclasses.fields(obj) if f.name not in skip
    )


def metrics_digest(metrics) -> str:
    """sha256 of every ``Metrics`` field except the request log."""
    return hashlib.sha256(_fields_repr(metrics, ("per_request_log",)).encode()).hexdigest()


def log_digest(log) -> str:
    """sha256 of every field of every record of a request log."""
    h = hashlib.sha256()
    for rec in log:
        h.update(_fields_repr(rec).encode())
        h.update(b"\n")
    return h.hexdigest()

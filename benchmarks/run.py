#!/usr/bin/env python3
"""scprune benchmark: end-to-end CLI cost and fit quality, or a per-layer trace.

Run from the root of a repository checkout:

    python3 benchmarks/run.py --workload deep_stack --seed 0 --seconds 25 --trace 0

Each run generates its workspaces from --seed, calls `scprune.cli.main` in
this process one call at a time (a closed loop with one client) for about
--seconds, checks every call's outputs, and prints one JSON line with the
environment and sample counts, then the result line. With --trace 0 the result
holds the end-to-end metrics; with --trace 1 it holds per-layer calls, self
time and work counters from `tracing.Tracer`. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# BLAS runs on one thread, set before numpy loads. With two threads on a
# two-CPU machine, call times of the same prune spread by about 10% from call
# to call; with one, by about 1.5%.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scprune import cli, io, nn, zoo  # noqa: E402
from tracing import Tracer  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work")
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 5
HELDOUT_IMAGES = 8
COMPARE_RATIOS = (2.0, 4.0)
COMPARE_SELECTORS = ("firstk", "random", "maxresponse", "kmeans", "ssc")


@dataclass(frozen=True)
class Workload:
    command: str  # "prune" (uniform 2x strategy) or "compare" (lower layer conv3)
    channels: tuple[int, ...]
    input_shape: tuple[int, int, int]
    images: int
    # Models pruned per run, with seeds seed * instances + i. Where a single
    # model's cost or outcome depends on its seed (whether a channel dies and
    # aborts the prune), one model per run would not give steady figures.
    instances: int


WORKLOADS = {
    # Forwards and the refit grow with depth; SSC stays at <= 64 channels.
    # About one model in eight loses a channel to ReLU during pruning and aborts.
    "deep_stack": Workload("prune", (32, 64, 64, 64), (3, 32, 32), 32, 16),
    # One 256-channel SSC solve and spectral cut on 4096 rows; few forwards.
    "wide_pair": Workload("prune", (64, 256, 64), (3, 16, 16), 16, 1),
    # Ten refits of one pair, k-means on raw columns, held-out forwards.
    "cli_compare": Workload("compare", (32, 128, 64), (3, 16, 16), 32, 3),
    # Dead ReLU channels abort about three models in five with
    # DegenerateDataError, after a varying number of pairs.
    "dead_channel": Workload("prune", (16, 32, 32, 64, 64), (3, 16, 16), 16, 48),
}


@dataclass
class Instance:
    seed: int
    directory: str
    argv: list[str]
    outputs: tuple[str, ...]
    heldout: list
    first_outputs: tuple[bytes, ...] | None = None
    repeat_checked: bool = False
    recon_err: float | None = None


def build_instance(wl: Workload, seed: int, directory: str) -> Instance:
    """Write one model, calibration set and strategy; return the CLI call."""
    os.makedirs(os.path.join(directory, "calib"), exist_ok=True)
    model_path = os.path.join(directory, "model.scpm")
    calib_dir = os.path.join(directory, "calib")
    report = os.path.join(directory, "report.json")
    io.save_model(
        zoo.random_conv_net(seed=seed, channels=wl.channels, input_shape=wl.input_shape),
        model_path,
    )
    rng = np.random.default_rng(seed)
    for i in range(wl.images):
        image = rng.standard_normal(wl.input_shape).astype(np.float32)
        io.save_tensor(image, os.path.join(calib_dir, f"img{i:04d}.sctn"))
    rng = np.random.default_rng([seed, 1])
    heldout = [
        rng.standard_normal(wl.input_shape).astype(np.float32) for _ in range(HELDOUT_IMAGES)
    ]
    common = ["--model", model_path, "--calib", calib_dir, "--report", report]
    if wl.command == "compare":
        argv = ["compare", *common, "--layer", "conv3",
                "--ratios", ",".join(f"{r:g}" for r in COMPARE_RATIOS),
                "--selectors", ",".join(COMPARE_SELECTORS)]
        outputs = (report,)
    else:
        strategy = os.path.join(directory, "strategy.json")
        lowers = [f"conv{i}" for i in range(2, len(wl.channels) + 1)]
        with open(strategy, "w", encoding="utf-8") as fh:
            json.dump({"layers": [{"lower": name, "ratio": 2.0} for name in lowers]}, fh)
        pruned = os.path.join(directory, "pruned.scpm")
        argv = ["prune", *common, "--strategy", strategy, "--out", pruned]
        outputs = (pruned, report)
    return Instance(seed, directory, argv + ["--seed", str(seed)], outputs, heldout)


def time_setup(wl: Workload, seed: int, run_dir: str):
    """Median set-up time over repeats: fresh-interpreter import plus workspace."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    samples = []
    for repeat in range(SETUP_REPEATS):
        # A fresh directory each time: on ext4, truncating files that still
        # have unwritten blocks forces them to disk, which costs about a second.
        directory = os.path.join(run_dir, f"setup{repeat}")
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import scprune.cli"], env=env, cwd=ROOT, check=True)
        instances = [
            build_instance(wl, seed * wl.instances + i, os.path.join(directory, str(i)))
            for i in range(wl.instances)
        ]
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), instances


def expected_conv_shapes(wl: Workload) -> list[tuple[int, int]]:
    """(c_out, c_in) of every conv after a uniform 2x prune of every pair."""
    outs = [max(1, round(c / 2.0)) for c in wl.channels[:-1]] + [wl.channels[-1]]
    ins = [wl.input_shape[0]] + outs[:-1]
    return list(zip(outs, ins))


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def check_outputs(wl: Workload, inst: Instance):
    """Validate one successful call's files and record its mean reconstruction error."""
    report = io.load_report(inst.outputs[-1])
    if wl.command == "compare":
        rows = report["rows"]
        if len(rows) != len(COMPARE_RATIOS) * len(COMPARE_SELECTORS):
            raise ValueError(f"compare report has {len(rows)} rows")
        for row in rows:
            want = max(1, round(wl.channels[1] / row["ratio"]))
            if row["channels_after"] != want or not math.isfinite(row["output_error"]):
                raise ValueError(f"bad compare row {row}")
        errors = [row["recon_error_after"] for row in rows]
    else:
        pruned = io.load_model(inst.outputs[0])
        shapes = [
            tuple(layer.weights.shape[:2])
            for layer in pruned.layers
            if isinstance(layer, nn.ConvLayer)
        ]
        if shapes != expected_conv_shapes(wl):
            raise ValueError(f"pruned conv shapes {shapes} != {expected_conv_shapes(wl)}")
        errors = [rec["recon_error_after"] for rec in report["records"]]
        if len(errors) != len(wl.channels) - 1:
            raise ValueError(f"report has {len(errors)} records")
    recon = statistics.fmean(errors)
    if not math.isfinite(recon):
        raise ValueError("recon_err is not finite")
    produced = tuple(_read_bytes(p) for p in inst.outputs)
    if inst.first_outputs is None:
        inst.first_outputs = produced
    elif produced != inst.first_outputs:
        raise ValueError("two calls with the same seed wrote different files")
    else:
        inst.repeat_checked = True
    inst.recon_err = recon


def output_error(wl: Workload, inst: Instance) -> float:
    """Mean relative error of the pruned model's output on held-out inputs."""
    if wl.command == "compare":
        return statistics.fmean(r["output_error"] for r in io.load_report(inst.outputs[0])["rows"])
    original = io.load_model(os.path.join(inst.directory, "model.scpm"))
    pruned = io.load_model(inst.outputs[0])
    errors = []
    for x in inst.heldout:
        want = nn.forward(original, x)[0].astype(np.float64)
        got = nn.forward(pruned, x)[0].astype(np.float64)
        errors.append(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-30))
    return float(statistics.fmean(errors))


class Runner:
    """Calls the CLI on the instances, checking and counting every call."""

    def __init__(self, wl: Workload, instances: list[Instance], tracer):
        self.wl = wl
        self.instances = instances
        self.tracer = tracer
        # mean time of the successful calls per round, keyed by traced
        self.rounds = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def call(self, inst: Instance, traced: bool = False) -> float | None:
        """One CLI call, then its output checks.

        Returns the call's wall time, or None if it failed.
        """
        for path in inst.outputs:
            if os.path.exists(path):
                os.remove(path)
        if not traced and not self.tracer.originals_in_place():
            self.fail("an untraced call would run traced wrappers")
        self.attempted += 1
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.installed():
                    code = cli.main(inst.argv)
            else:
                code = cli.main(inst.argv)
        except Exception:  # a crash is one failed call; the run goes on
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"seed {inst.seed}: scprune {inst.argv[0]} exited {code}", file=sys.stderr)
            return None
        try:
            check_outputs(self.wl, inst)
        except (ValueError, KeyError, OSError) as exc:
            self.failed += 1
            self.fail(f"seed {inst.seed}: {exc}")
            return None
        return elapsed

    def fail(self, message: str):
        self.correct = False
        print(f"check failed: {message}", file=sys.stderr)

    def loop(self, seconds: float, traced: bool):
        """Call every instance once per round until another round would pass
        `seconds`, with at least one round and two calls.

        The mean time of a round's successful calls is one sample; failed
        calls are counted, not timed, so how many models abort does not move
        the timing. A traced run calls each instance untraced and then traced.
        """
        start = time.perf_counter()
        done = 0
        while True:
            times = {False: [], True: []}
            for inst in self.instances:
                times[False].append(self.call(inst))
                if traced:
                    times[True].append(self.call(inst, traced=True))
            for key, values in times.items():
                values = [t for t in values if t is not None]
                if values:
                    self.rounds[key].append(statistics.fmean(values))
            done += 1
            projected = (time.perf_counter() - start) * (done + 1) / done
            if self.attempted >= 2 and projected > seconds:
                break
        if not any(inst.repeat_checked for inst in self.instances):
            ok = [inst for inst in self.instances if inst.first_outputs is not None]
            if ok:  # prove determinism on one instance even if time ran out
                self.call(ok[0])


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s, instances = time_setup(wl, args.seed, run_dir)
        runner = Runner(wl, instances, Tracer())
        runner.loop(args.seconds, traced=bool(args.trace))
        ok = [inst for inst in instances if inst.recon_err is not None]
        if not ok:
            print("error: no call succeeded, so fit quality is undefined", file=sys.stderr)
            return 1
        untraced = runner.rounds[False]
        if args.trace:
            traced = runner.rounds[True]
            metrics = runner.tracer.metrics(len(traced) * wl.instances)
            metrics["tracing_overhead_s"] = (
                statistics.median(traced) - statistics.median(untraced), "s"
            )
            if not runner.tracer.originals_in_place():
                runner.fail("traced wrappers were left installed")
            if runner.tracer.calls["cli.main"] != len(traced) * wl.instances:
                runner.fail("the trace missed some CLI calls")
            samples = {"traced_rounds": len(traced), "untraced_rounds": len(untraced)}
        else:
            metrics = {
                "prune_s": (statistics.median(untraced), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
                "recon_err": (statistics.median(inst.recon_err for inst in ok), "ratio"),
                "output_err": (statistics.median(output_error(wl, inst) for inst in ok), "ratio"),
            }
            samples = {"prune_s": len(untraced), "setup_s": SETUP_REPEATS,
                       "recon_err": len(ok), "output_err": len(ok)}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(WORK)

    info = {
        "workload": args.workload,
        "env": environment(args.seed),
        "samples": samples,
        "instances": wl.instances,
        "failed_frac": {
            "value": runner.failed / runner.attempted,
            "failed": runner.failed,
            "attempted": runner.attempted,
        },
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

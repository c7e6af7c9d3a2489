"""zoneroute benchmark: seeded inputs, the real CLI chain run stage by stage
as subprocesses, every output checked, one JSON result on the last line.

Usage (from the repository root):
    python3 perfbench/run.py --workload desk|paper --seed N --seconds S --trace 0|1

--trace 0 repeats the untraced chain for about S seconds (at least three
times) and reports the end-to-end metrics as medians over the repetitions.
--trace 1 runs the chain once untraced and once with every stage wrapped by
traced_stage.py, and reports the per-layer metrics and the tracing overhead.
Workloads and metrics are described in BENCHMARK.json and perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import inputs
from layers import STAGES, layer_metrics, quantile, read_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # a run must end within 180 s
MIN_REPS = 3
JOBS = 2  # zoned training workers in untraced runs: the core count of the reference box
# Every stage runs with one BLAS thread: two pool workers on two cores must not
# oversubscribe them, and at paper scale the general checkpoint's bytes depend
# on the OpenBLAS thread count.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = {
    # The README chain: synth writes a 60-route metro, the benchmark holds out
    # 12 routes by id, zones and training see the other 48.
    "desk": {"synth": {"n_routes": 60, "stops_min": 8, "stops_max": 12, "n_neighborhoods": 3},
             "held_out": 12, "k": 5, "resolution": 7, "epochs": 4},
    # Paper scale: two training routes and one held-out route of 150 stops
    # over three neighbourhoods come from the benchmark's generator; synth
    # adds four routes of 40 stops (2-opt ground truth) to the held-out set.
    # The sizes keep a repetition near 9 s, so that medians over five
    # repetitions fit a run; 2-opt time varies about 40% from route to route,
    # so more synth work would make chain_s unsteady across seeds.
    "paper": {"synth": {"n_routes": 4, "stops_min": 40, "stops_max": 40, "n_neighborhoods": 3},
              "generated": {"train": 2, "held_out": 1, "stops_per_hood": 50},
              "k": 3, "resolution": 7, "epochs": 1},
}

# artifact -> the stage that writes it; each must repeat byte for byte
ARTIFACTS = {"routes": "synth", "zones.json": "zones", "ckpt-general": "train_general",
             "ckpt-zoned": "train_zoned", "tours-general.json": "infer_general",
             "tours-zoned.json": "infer_zoned", "report.json": "eval", "report.csv": "eval"}


class Tally:
    """Attempted and failed operations; an operation is one stage run, and
    it fails on a non-zero exit or on any failed check of its outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problems) -> None:
        self.failed += 1
        self.problems.extend(problems)


def stage_env() -> dict:
    env = {**os.environ, **BLAS_PINS}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_stage(tally: Tally, argv, log_path, deadline: float, spans_path=None):
    """Run one CLI stage to completion; returns (exit code, wall seconds)."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "zoneroute.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "traced_stage.py"), str(spans_path),
               repr(time.monotonic()), "--", *argv]
    tally.attempted += 1
    t0 = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=stage_env(),
                                cwd=ROOT, start_new_session=True)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            rc = proc.wait()
    wall = time.perf_counter() - t0
    if rc != 0:
        tally.fail([f"{argv[0]} exited {rc}, see {log_path}"])
    return rc, wall


def prepare(name: str, seed: int, d: Path) -> None:
    """Inputs that exist before the first stage: configs and generated routes."""
    wl = WORKLOADS[name]
    d.mkdir(parents=True)
    inputs.write_config(d / "synth.cfg", **wl["synth"], seed=seed)
    inputs.write_config(d / "train.cfg", epochs=wl["epochs"], seed=seed)
    if name == "paper":
        gen = wl["generated"]
        routes = inputs.generate_paper_routes(seed, "P", gen["train"] + gen["held_out"],
                                              gen["stops_per_hood"], wl["synth"]["n_neighborhoods"])
        ids = sorted(routes["route_data.json"])
        inputs.write_route_files(d / "train", inputs.subset(routes, ids[:gen["train"]]))
        inputs.write_route_files(d / "generated_held_out", inputs.subset(routes, ids[gen["train"]:]))


def assemble(name: str, seed: int, d: Path) -> None:
    """After synth: the train and held-out route directories."""
    synth = inputs.read_route_files(d / "routes")
    if name == "desk":
        train, held = inputs.split_ids(synth["route_data.json"], WORKLOADS[name]["held_out"], seed)
        inputs.write_route_files(d / "train", inputs.subset(synth, train))
        inputs.write_route_files(d / "held_out", inputs.subset(synth, held))
    else:
        generated = inputs.read_route_files(d / "generated_held_out")
        inputs.write_route_files(d / "held_out", inputs.merge(generated, synth))


def stage_argv(name: str, seed: int, d: Path, jobs: int) -> dict:
    wl = WORKLOADS[name]
    train, held = str(d / "train"), str(d / "held_out")
    return {
        "synth": ["synth", "--config", str(d / "synth.cfg"), "--out", str(d / "routes")],
        "zones": ["zones", "--routes", train, "--resolution", str(wl["resolution"]),
                  "--k", str(wl["k"]), "--seed", str(seed), "--out", str(d / "zones.json")],
        "train_general": ["train", "--strategy", "general", "--routes", train,
                          "--config", str(d / "train.cfg"), "--out", str(d / "ckpt-general")],
        "train_zoned": ["train", "--strategy", "zoned", "--routes", train,
                        "--zones", str(d / "zones.json"), "--config", str(d / "train.cfg"),
                        "--out", str(d / "ckpt-zoned"), "--jobs", str(jobs)],
        "infer_general": ["infer", "--strategy", "general", "--routes", held,
                          "--ckpt", str(d / "ckpt-general"), "--out", str(d / "tours-general.json")],
        "infer_zoned": ["infer", "--strategy", "zoned", "--routes", held,
                        "--ckpt", str(d / "ckpt-zoned"), "--out", str(d / "tours-zoned.json")],
        "eval": ["eval", "--routes", held, "--tours-general", str(d / "tours-general.json"),
                 "--tours-zoned", str(d / "tours-zoned.json"), "--zones", str(d / "zones.json"),
                 "--out", str(d / "report.json"), "--csv", str(d / "report.csv")],
    }


def check_outputs(stage: str, d: Path, state: dict) -> list[str]:
    """Checks of what `stage` wrote; fills state with recomputed values."""
    if stage == "synth":
        return check.check_routes(inputs.read_route_files(d / "routes"))
    if stage == "zones":
        return check.check_zones(d / "zones.json", state["k"])
    if stage in ("infer_general", "infer_zoned"):
        if "held_out" not in state:
            state["held_out"] = inputs.read_route_files(d / "held_out")
        problems, lengths = check.check_tours(d / f"tours-{stage[6:]}.json", state["held_out"])
        state[stage] = lengths
        return problems
    if stage == "eval":
        problems, state["mape"] = check.check_report(
            d / "report.json", state["held_out"],
            {"general": state["infer_general"], "zoned": state["infer_zoned"]})
        return problems
    ckpt = d / stage.replace("train_", "ckpt-")  # train_general, train_zoned
    return [] if any(ckpt.iterdir()) else [f"{stage}: empty checkpoint directory {ckpt}"]


def run_chain(name: str, seed: int, d: Path, tally: Tally, deadline: float, jobs: int,
              spans_dir: Path | None = None):
    """One repetition of the workload's chain. Returns a record of stage wall
    times, set-up time, artifact digests and recomputed MAPEs, or None when a
    stage failed (the failure is in the tally)."""
    state = {"k": WORKLOADS[name]["k"]}
    rec = {"stage_s": {}}
    t0 = time.perf_counter()
    prepare(name, seed, d)
    setup_s = time.perf_counter() - t0
    argv = stage_argv(name, seed, d, jobs)
    for stage in STAGES:
        spans = None if spans_dir is None else spans_dir / f"{stage}.jsonl"
        rc, rec["stage_s"][stage] = run_stage(tally, argv[stage], d / f"{stage}.log", deadline, spans)
        if rc != 0:
            return None
        try:
            problems = check_outputs(stage, d, state)
        except (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            problems = [f"{stage}: output unreadable ({exc!r})"]
        if problems:
            tally.fail(problems)
            return None
        if stage == "synth":
            t0 = time.perf_counter()
            assemble(name, seed, d)
            setup_s += time.perf_counter() - t0
    rec["setup_s"] = setup_s
    rec["chain_s"] = sum(rec["stage_s"].values())
    rec["mape"] = state["mape"]
    rec["digests"] = {a: check.tree_digest(d / a) for a in ARTIFACTS}
    return rec


def compare_digests(reps, tally: Tally, what: str) -> None:
    """Byte-identity of every artifact across repetitions of one seed."""
    first = reps[0]["digests"]
    for i, rep in enumerate(reps[1:], 2):
        for artifact, digest in rep["digests"].items():
            if digest != first[artifact]:
                tally.fail([f"{artifact} ({ARTIFACTS[artifact]}) differs between {what} 1 and {i}"])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "zoneroute").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of this tree
    return lines[1]


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_pins": BLAS_PINS, "zoned_train_jobs": JOBS if not args.trace else [JOBS, 1],
            "git_sha": git_sha(), "src_sha256": source_digest(), "machine": platform.machine()}


def metric_values(reps) -> dict:
    def median(values):
        return quantile(values, 0.5)

    m = {"setup_s": (median([r["setup_s"] for r in reps]), "s"),
         "chain_s": (median([r["chain_s"] for r in reps]), "s")}
    for stage in ("train_general", "train_zoned", "infer_general", "infer_zoned"):
        m[f"{stage}_s"] = (median([r["stage_s"][stage] for r in reps]), "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB")
    return m


def quality(rep) -> dict:
    """Held-out MAPEs as the benchmark recomputes them; exact per seed."""
    return {f"quality.mape_{s}_pct": (rep["mape"][s], "%") for s in ("general", "zoned")}


def measure(args, work: Path, tally: Tally, deadline: float) -> tuple[dict, dict]:
    start = time.monotonic()
    reps = []
    while True:
        rep = run_chain(args.workload, args.seed, work / f"rep{len(reps) + 1}", tally, deadline, JOBS)
        if rep is None:
            break
        reps.append(rep)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break  # the next repetition would end after --seconds
    if len(reps) > 1:
        compare_digests(reps, tally, "repetition")
    detail = {"repetitions": [{k: r[k] for k in ("setup_s", "chain_s", "stage_s", "digests")}
                              for r in reps]}
    if reps:
        detail["quality"] = {k: v for k, (v, _) in quality(reps[0]).items()}
    return (metric_values(reps) if reps and not tally.failed else {}), detail


def measure_traced(args, work: Path, tally: Tally, deadline: float) -> tuple[dict, dict]:
    plain = run_chain(args.workload, args.seed, work / "untraced", tally, deadline, JOBS)
    if plain is None:
        return {}, {}
    spans_dir = work / "spans"
    spans_dir.mkdir()
    traced = run_chain(args.workload, args.seed, work / "traced", tally, deadline, 1, spans_dir)
    if traced is None:
        return {}, {}
    # the traced chain trains zones with --jobs 1: this also checks that zoned
    # checkpoints are identical at any --jobs, and that tracing changes no output
    compare_digests([plain, traced], tally, "untraced --jobs 2 run and traced --jobs 1 run:")
    m, detail = layer_metrics({s: read_spans(spans_dir / f"{s}.jsonl") for s in STAGES},
                              traced["stage_s"])
    m.update(quality(plain))
    m["trace.overhead_s"] = (traced["chain_s"] - plain["chain_s"], "s")
    detail["untraced_chain_s"] = plain["chain_s"]
    detail["traced_chain_s"] = traced["chain_s"]
    return (m if not tally.failed else {}), detail


def _count_failures(argv, log_path, deadline) -> int:
    tally = Tally()
    run_stage(tally, argv, log_path, deadline)
    return tally.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zoneroute" / "cli.py").is_file():
        print(f"no zoneroute sources under {SRC}: nothing to benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "selftest").mkdir(parents=True)
    missed = check.self_test(work / "selftest", lambda a, log: _count_failures(a, log, deadline))
    if missed:
        print("checker self-test failed: " + "; ".join(missed), file=sys.stderr)
        return 3
    env = environment(args)
    print(json.dumps({"environment": env}), flush=True)

    tally = Tally()
    run = measure_traced if args.trace else measure
    metrics, detail = run(args, work, tally, deadline)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"environment": env, "attempted": tally.attempted,
                               "failed": tally.failed, "problems": tally.problems,
                               "metrics": metrics, **detail}, indent=1))
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(f"failed_share {tally.failed / max(1, tally.attempted):.4f}; details in {out.relative_to(ROOT)}")
    crosscheck = detail.get("baseline_crosscheck")
    if crosscheck:
        print("baseline cross-check (per-route ms, median vs ROADMAP table): " + json.dumps(crosscheck))
    print(json.dumps({"correct": tally.failed == 0, "attempted": max(1, tally.attempted),
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds campaignbench/ (CMake, against the repository's src/ tree) into
.bench_build/ (or $CARGO_TARGET_DIR), then runs one workload in its own
process and prints its metrics; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.

  python3 campaignbench/run.py --workload gate_units --seed 7 --seconds 20 --trace 0
  python3 campaignbench/run.py --workload all        # BENCHMARK.json's workloads, one table
  python3 campaignbench/run.py --workload perfi_epr  # by hand only (see README)
  python3 campaignbench/run.py --write-reference     # regenerate reference_digests.txt

See campaignbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

sys.dont_write_bytecode = True

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference_digests.txt")
DEFAULT_SEED = 0xC0FFEE  # gpfctl's default --seed; the reference digests use it
BUILD_LIMIT_S = 850      # a cold build of src/ plus the benchmark
RUN_LIMIT_S = 175        # one workload run, hard

# Every workload the binary runs, with the per-layer metrics that apply to
# it, by name prefix. The traced run must report exactly these; every other
# per-layer metric in BENCHMARK.json reads 0 for the workload. perfi_epr and
# rtl_tmxm are not in BENCHMARK.json: they are run by hand (see README).
APPLIES = {
    "gate_units": ("gate.", "arch.warp_instr_per_s", "store.", "warehouse.",
                   "layer.gate.", "layer.arch.", "layer.store.",
                   "layer.warehouse.", "trace."),
    "perfi_epr": ("arch.", "perfi.", "store.", "warehouse.", "layer.perfi.",
                  "layer.store.", "layer.warehouse.", "trace."),
    "rtl_tmxm": ("arch.warp_instr_per_s", "rtl.", "store.", "warehouse.",
                 "layer.rtl.", "layer.store.", "layer.warehouse.", "trace."),
    "fleet_mixed": ("gate.batches", "gate.lane_occupancy", "gate.collapse_ratio",
                    "arch.", "perfi.", "rtl.injections", "rtl.injection_ms.fu",
                    "rtl.injection_ms.tail", "rtl.injector_setup_ms",
                    "rtl.due_time_share", "rtl.count.", "net.", "store.",
                    "warehouse.", "layer.gate.", "layer.perfi.", "layer.rtl.",
                    "layer.net.", "layer.store.", "layer.warehouse.", "trace."),
}


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def child_env(build):
    """Production defaults: no GPF_* knob reaches the benchmark, and compiler
    temporaries (the build, the gate JIT) stay inside the build directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPF_")}
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def run_bounded(cmd, env, limit_s, on_line=None):
    """Runs cmd in its own process group, streaming stdout lines to on_line
    (stderr passes through). Kills the whole group after limit_s. Returns
    (returncode, timed_out)."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if on_line else sys.stderr,
                            text=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(limit_s, kill)
    timer.start()
    try:
        if on_line:
            for line in proc.stdout:
                on_line(line.rstrip("\n"))
        proc.wait()
    finally:
        timer.cancel()
        try:  # nothing the run started may outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, timed_out.is_set()


def build(build):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no src/ tree in {ROOT}: nothing to build the benchmark against")
        return None
    env = child_env(build)
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "campaign_bench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        rc, timed_out = run_bounded(step, env, BUILD_LIMIT_S)
        if rc != 0 or timed_out:
            log(f"build step failed ({'timed out' if timed_out else rc}): "
                + " ".join(step))
            return None
    return os.path.join(build, "campaign_bench")


def commit_id():
    # Only a checkout's own .git counts: git would otherwise search the
    # parent directories and report an enclosing repository's commit.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    # Not a git checkout: identify the sources by content instead.
    h = hashlib.sha256()
    for top in ("src", "campaignbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "sources-" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, build, workload, seed, seconds, trace, echo=True):
    """One workload in one process. Returns (result dict or None, stdout lines)."""
    work = os.path.join(build, "work", f"{workload}-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", work, "--jit-cache", os.path.join(build, "jit"),
           "--results", os.path.join(build, "results"),
           "--reference", REFERENCE, "--commit", commit_id(),
           "--cpu", cpu_model()]
    lines = []

    def on_line(line):
        lines.append(line)
        if echo and not line.startswith("{"):
            print(line, flush=True)

    rc, timed_out = run_bounded(cmd, child_env(build), RUN_LIMIT_S, on_line)
    shutil.rmtree(work, ignore_errors=True)
    if timed_out:
        log(f"{workload}: no result within {RUN_LIMIT_S} s; run failed")
        return None, lines
    if rc != 0 or not lines or not lines[-1].startswith("{"):
        log(f"{workload}: benchmark exited {rc} without a result")
        return None, lines
    return json.loads(lines[-1]), lines


def complete(result, spec, workload, trace):
    """Gives the binary's metrics their units from BENCHMARK.json and fills in
    the per-layer ones that do not apply to the workload with 0. Returns None
    when the run missed a metric that applies, or reported one that does not."""
    declared = spec["per_layer" if trace else "end_to_end"]
    applies = [m["name"] for m in declared
               if not trace or m["name"].startswith(APPLIES[workload])]
    got = result["metrics"]
    missing = sorted(set(applies) - set(got))
    extra = sorted(set(got) - set(applies))
    if missing or extra:
        log(f"{workload}: missing metrics {missing}, unexpected metrics {extra}")
        return None
    result["metrics"] = {m["name"]: {"value": got.get(m["name"], 0),
                                     "unit": m["unit"]} for m in declared}
    return result


def print_table(result, trace):
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        rate = result["failed"] / result["attempted"] if result["attempted"] else 0
        print(f"  {'error_rate':<28} {rate:>16.6g} "
              f"({result['failed']} of {result['attempted']} campaigns)")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    build_path = build_dir()
    binary = build(build_path)
    if not binary:
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]

    if args.write_reference:
        digests = {}
        for w in APPLIES:
            _, lines = run_workload(binary, build_path, w, DEFAULT_SEED, 1, 0,
                                    echo=False)
            for line in lines:
                if line.startswith("digest "):
                    _, label, d = line.split()
                    if digests.setdefault(label, d) != d:
                        log(f"{label}: workloads disagree on its digest")
                        return 1
        with open(REFERENCE, "w") as f:
            f.write("# Export digests (FNV-1a 64 of the store::export_store JSON) of\n"
                    f"# every benchmark campaign at the default seed {DEFAULT_SEED}.\n"
                    "# Regenerate: python3 campaignbench/run.py --write-reference\n")
            for label in sorted(digests):
                f.write(f"{label} {digests[label]}\n")
        log(f"wrote {len(digests)} digests to {REFERENCE}")
        return 0

    if args.workload != "all":
        if args.workload not in APPLIES:
            log(f"unknown workload {args.workload}; one of {', '.join(APPLIES)}")
            return 2
        result, _ = run_workload(binary, build_path, args.workload, args.seed,
                                 seconds, args.trace)
        if result is None or complete(result, spec, args.workload, args.trace) is None:
            return 1
        print_table(result, args.trace)
        print(json.dumps(result), flush=True)
        return 0

    # Every workload, each in its own process, then one table.
    rows, ok = [], True
    for w in names:
        result, lines = run_workload(binary, build_path, w, args.seed, seconds,
                                     args.trace, echo=False)
        if result is None or complete(result, spec, w, args.trace) is None:
            ok = False
            rows.append((w, None, lines))
            continue
        ok = ok and result["correct"]
        rows.append((w, result, lines))
    for w, result, lines in rows:
        print(f"== {w}")
        if result is None:
            print("  FAILED (no result)")
            continue
        print_table(result, args.trace)
        for line in lines:
            if line.startswith(("FAILED", "[campaignbench] wall clock")):
                print("  " + line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

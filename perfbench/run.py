#!/usr/bin/env python3
"""Chameleon repository benchmark.

Builds perfbench/driver.cpp against the library sources in ../src, runs one
named workload in a closed loop of fresh child processes (one traced program
run plus replay of its output per child), checks every child's output, and
prints every metric by name and unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload lu16k --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --all [--seed 1] [--seconds 30] [--out DIR]
  python3 perfbench/run.py --compare OLD.json NEW.json
  python3 perfbench/run.py --workload lu16k --seed 1 --record

--trace 0 reports the end-to-end metrics of untraced iterations; --trace 1
reports the per-layer metrics of traced iterations (perfbench/README.md).
Every run writes its full result, host block included, under perfbench/out/.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
CHILD_TIMEOUT_S = 60       # a child takes under 10 s even on a loaded host
SETUP_SAMPLES = 10         # setup-only children per run, besides iterations
MIN_ITERATIONS = 3         # untraced iterations in a --trace 0 run
RUN_LIMIT_S = 100          # start no child after this: a run ends within 180 s
TRACE_BYTES_TOLERANCE = 0.01
# Outputs that depend only on the input and must repeat exactly.
EXACT_COUNTS = (
    "sim.messages", "sim.bytes_sent", "sim.collectives",
    "trace.events_recorded", "trace.fold_windows_tested", "trace.folds",
    "trace.merge_ops", "trace.merge_zip_hits", "trace.intern_entries",
    "core.markers_processed", "core.epochs_c", "core.epochs_l",
    "core.epochs_at", "cluster.clusters", "cluster.table_bytes",
    "replay.events", "replay.messages", "replay.collectives",
    "replay.approx_events")
# Host block fields that must match before two results are compared; the
# commit and source digest are what a comparison is about, so they may differ.
HOST_IDENTITY = ("nproc", "hardware_concurrency", "build_type", "compiler",
                 "champrof_compiled_in")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def bench_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_driver",
                  "-j", jobs])
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log.flush()
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)}", code=1)
    return os.path.join(bdir, "perfbench_driver")


def cmake_cache(key):
    path = os.path.join(build_dir(), "CMakeCache.txt")
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout: source_digest identifies it
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_block(child):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": child.get("hardware_concurrency"),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": child.get("compiler"),
        "champrof_compiled_in": child.get("champrof_compiled_in"),
        "commit": git_commit(),
        "source_digest": source_digest(),
    }


# --------------------------------------------------------------------------
# Children and their checks
# --------------------------------------------------------------------------

def run_child(driver, workload, seed, mode):
    """One fresh process. Returns (parsed JSON or None, error text)."""
    cmd = [driver, "--workload", workload, "--seed", str(seed)]
    if mode == "traced":
        cmd.append("--traced")
    elif mode == "setup":
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, (f"child exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "child printed no JSON"


def expected_for(workload):
    table = load_json(os.path.join(HERE, "expected.json"))
    entry = table.get(workload)
    if entry is None:
        return None
    # A workload whose output must equal another's (lu16k_t4 == lu16k, the
    # engine's determinism contract) is checked against the same values.
    return table[entry["same_as"]] if "same_as" in entry else entry


def check_child(child, expected, mode):
    """Output checks for one iteration; returns a list of failures."""
    if mode == "setup":
        return []
    v = child["values"]
    errors = []
    for name, want in expected["digests"].items():
        got = child["digests"].get(name)
        if got != want:
            errors.append(f"digest {name}: {got} != expected {want}")
    for name, want in expected["counts"].items():
        if name in v and v[name] != want:
            errors.append(f"{name}: {v[name]:.17g} != expected {want}")
    want = expected["trace_bytes"]
    if abs(v["trace_bytes"] - want) > TRACE_BYTES_TOLERANCE * want:
        errors.append(f"trace_bytes {v['trace_bytes']:.0f} not within "
                      f"{TRACE_BYTES_TOLERANCE:.0%} of {want}")
    if v["replay.events"] != v["replay.expanded_pairs"]:
        errors.append("replay.events != expanded event-rank pairs of the trace")
    if expected.get("k") and v["cluster.clusters"] != expected["k"]:
        errors.append(f"cluster.clusters {v['cluster.clusters']:.0f} != K")
    if not expected["replay_acc_min"] <= v["replay_acc"] <= 1.0:
        errors.append(f"replay_acc {v['replay_acc']:.4f} below "
                      f"{expected['replay_acc_min']}")
    if mode == "traced":
        if v["sim.engine_self_s"] < 0:
            errors.append(f"sim.engine_self_s {v['sim.engine_self_s']:.4f} < 0")
        lo, hi = expected["prof_coverage"]
        if not lo <= v["bench.prof_coverage"] <= hi:
            errors.append(f"ChamProf accounts for {v['bench.prof_coverage']:.3f} "
                          f"of the Engine::run span, outside [{lo}, {hi}]")
    return errors


# --------------------------------------------------------------------------
# One benchmark run
# --------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(driver, workload, seed, seconds, trace, record=False):
    expected = None if record else expected_for(workload)
    if not record and expected is None:
        fail(f"no expected outputs for workload {workload!r} "
             f"in perfbench/expected.json")
    spec = bench_spec()
    attempted = 0
    failures = []
    samples = {"setup": [], "untraced": [], "traced": []}

    def spawn(mode):
        nonlocal attempted
        attempted += 1
        child, error = run_child(driver, workload, seed, mode)
        errors = [error] if child is None else (
            [] if record else check_child(child, expected, mode))
        if errors:
            failures.append(f"{mode}: " + "; ".join(errors))
        else:
            samples[mode].append(child)

    # Closed loop: one cycle is one child per mode; cycles repeat until the
    # next one would overrun --seconds (and at least `minimum` succeeded).
    start = time.monotonic()
    for _ in range(SETUP_SAMPLES):
        spawn("setup")
    modes = ["untraced", "traced"] if trace else ["untraced"]
    minimum = 1 if trace else MIN_ITERATIONS
    cycle = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = all(len(samples[m]) >= minimum for m in modes)
        if enough and elapsed + cycle > seconds:
            break
        if elapsed > RUN_LIMIT_S or len(failures) > 2 * minimum:
            break
        t0 = time.monotonic()
        for mode in modes:
            spawn(mode)
        cycle = time.monotonic() - t0

    untraced = samples["untraced"]
    traced = samples["traced"]
    # Determinism across the forwarding tool and ChamProf: the traced and
    # untraced runs of one input produce the same digests.
    if traced and untraced and traced[0]["digests"] != untraced[0]["digests"]:
        failures.append("traced and untraced runs produced different digests")
    if record:
        record_expected(workload, untraced[0] if untraced else None)

    def med(group, name):
        return median([c["values"][name] for c in group])

    metrics = {}
    setup_values = [c["values"]["setup_s"]
                    for c in samples["setup"] + untraced + traced]
    if trace and traced:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "bench.trace_overhead_s":
                value = med(traced, "trace_s") - med(untraced, "trace_s")
            else:
                value = med(traced, name)
            metrics[name] = {"value": value, "unit": m["unit"]}
    elif not trace and untraced:
        for m in spec["end_to_end"]:
            name = m["name"]
            value = median(setup_values) if name == "setup_s" else med(untraced, name)
            metrics[name] = {"value": value, "unit": m["unit"]}

    first = (untraced + traced + samples["setup"] or [{}])[0]
    return {
        "schema": "chameleon.perfbench.v1",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_block(first),
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "iterations": {k: len(v) for k, v in samples.items()},
        "elapsed_s": time.monotonic() - start,
        "metrics": metrics,
        "samples": {k: [c["values"] for c in v] for k, v in samples.items()},
        "digests": first.get("digests", {}),
    }


def record_expected(workload, child):
    """Rewrite perfbench/expected.json's entry for `workload` from a run."""
    if child is None:
        fail("cannot record: no successful untraced iteration", code=1)
    path = os.path.join(HERE, "expected.json")
    table = load_json(path)
    entry = table.get(workload, {})
    if "same_as" in entry:
        fail(f"{workload} is checked against {entry['same_as']}; record that")
    v = child["values"]
    entry["digests"] = child["digests"]
    entry["trace_bytes"] = v["trace_bytes"]
    entry["counts"] = {name: v[name] for name in EXACT_COUNTS}
    table[workload] = entry
    with open(path, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perfbench: recorded expected outputs of {workload}", file=sys.stderr)


def print_metrics(result):
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"iterations={result['iterations']} failed={result['failed']}/"
          f"{result['attempted']}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>18.6f} {m['unit']}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")


def write_result(result, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{result['workload']}.trace{result['trace']}"
                                 f".seed{result['seed']}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


# --------------------------------------------------------------------------
# Compare
# --------------------------------------------------------------------------

def compare(old_path, new_path):
    old, new = load_json(old_path), load_json(new_path)
    mismatched = [k for k in HOST_IDENTITY if old["host"].get(k) != new["host"].get(k)]
    if mismatched:
        for k in mismatched:
            print(f"host {k}: {old['host'].get(k)!r} != {new['host'].get(k)!r}",
                  file=sys.stderr)
        fail("refusing to compare results from different hosts")
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        fail("refusing to compare different workloads or trace modes")
    spec = bench_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    print(f"# {new['workload']} trace={new['trace']}: "
          f"{old['host']['commit'][:12]} -> {new['host']['commit'][:12]}")
    for name, m in new["metrics"].items():
        if name not in old["metrics"]:
            continue
        a, b = old["metrics"][name]["value"], m["value"]
        change = (b - a) / abs(a) if a else 0.0
        info = bounds.get(name, {})
        if info.get("better") == "higher":
            change = -change
        flag = ""
        if "bound" in info and change > info["bound"]:
            flag = f"  WORSE than bound {info['bound']:.0%}"
            worse += 1
        print(f"{name:36s} {a:>16.6f} {b:>16.6f} {change:>+8.1%}{flag}")
    return 1 if worse else 0


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for result files")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json for --workload from this run")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not args.all and not args.workload:
        fail("need --workload NAME, --all or --compare")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the repository root")

    driver = build()
    names = subprocess.run([driver, "--list"], capture_output=True, text=True,
                           check=True).stdout.split()
    if args.all:
        failed = 0
        for workload in names:
            for trace in (0, 1):
                result = run_workload(driver, workload, args.seed, args.seconds,
                                      trace)
                print_metrics(result)
                print(f"wrote {write_result(result, args.out)}")
                failed += result["failed"] + (0 if result["correct"] else 1)
        return 1 if failed else 0

    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(names)})")
    result = run_workload(driver, args.workload, args.seed, args.seconds,
                          args.trace, record=args.record)
    print_metrics(result)
    write_result(result, args.out)
    if not result["metrics"]:
        fail("no iteration succeeded", code=1)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the ATMem reproduction.

Builds the library and the measuring harness from source (Release, under
$CARGO_TARGET_DIR or .bench_build), runs one workload for a fixed host-time
budget, checks every operation's outputs and prints the metrics. The last
line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

  python3 perfbench/run.py --workload fig05-serial --seed 1 --seconds 45 \\
      --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
README.md in this directory). --record-expected SEEDS re-records the
serial-engine expectations; --self-test runs the benchmark's own tests.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import analysis  # noqa: E402

WORKLOADS = ("fig05-serial", "fig05-simthreads2", "mcdram-epochs")
# Workloads sharing one set of operations share the serial expectations.
EXPECTATION_GROUP = {"fig05-serial": "fig05", "fig05-simthreads2": "fig05",
                     "mcdram-epochs": "mcdram-epochs"}
EXPECTED_PATH = os.path.join(HERE, "expected.json")
# The host class the seed-state numbers in README.md were measured on.
REFERENCE_HOST = {"cpu_model": "Intel(R) Xeon(R) Processor",
                  "hardware_threads": 4}
# A run must end within this many seconds of starting, builds aside.
RUN_LIMIT_S = 170
# glibc raises its mmap threshold whenever a large mmapped block is freed,
# so whether later arrays land on the heap or in fresh mappings, and with
# it the process's peak RSS, depends on the order threads happened to
# free memory in (peaks of 19-27 MB for one fig05 pass). A fixed threshold
# (glibc's default starting value) turns the adaptation off: every large
# array is mapped on allocation and unmapped on release, and peak_rss_mb
# measures the live set.
HARNESS_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def fail(message):
    log("error: " + message)
    sys.exit(1)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, path) if not os.path.isabs(path) else path
    return os.path.join(path, "perfbench")


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "baseline",
                                       "Experiment.h")):
        fail("library sources not found under %s" % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: %s" % " ".join(step))
    return os.path.join(out, "perfbench_harness")


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, so a result names
    the code it measured even where the checkout is not a git tree."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if name.endswith(".pyc"):
                    continue
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def provenance(harness_info, seed):
    info = {k: harness_info[k] for k in ("compiler", "cpu_model",
                                         "hardware_threads", "build_type",
                                         "sim_threads")}
    info.update({"git_sha": git_sha(), "source_digest": source_digest(),
                 "nproc": os.cpu_count(), "seed": seed})
    same = all(info[k] == v for k, v in REFERENCE_HOST.items())
    info["host_class"] = "%s x%d" % (info["cpu_model"],
                                     info["hardware_threads"])
    info["host_class_label"] = ("reference host class" if same else
                                "other host class: not comparable with the "
                                "numbers in perfbench/README.md")
    return info


# ---------------------------------------------------------------------------
# Harness runs
# ---------------------------------------------------------------------------

def out_dir(workload, seed, trace):
    return os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d"
                        % (workload, seed, trace))


def run_harness(harness, args, deadline, keep=None):
    """Runs the harness; returns its JSON-lines records by type. The raw
    output is kept at `keep` when given."""
    budget = deadline - time.monotonic()
    if budget <= 0:
        fail("no time left to run the harness")
    proc = subprocess.Popen([harness] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=HARNESS_ENV)
    try:
        stdout, stderr = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("harness did not finish within %.0f s" % budget)
    if proc.returncode != 0:
        sys.stderr.write(stderr[-4000:])
        fail("harness exited with code %d" % proc.returncode)
    if keep:
        with open(keep, "w") as handle:
            handle.write(stdout)
    records = {}
    for line in stdout.splitlines():
        record = json.loads(line)
        records.setdefault(record["type"], []).append(record)
    return records


def load_expected():
    if not os.path.isfile(EXPECTED_PATH):
        return {"fields": list(analysis.EXPECTED_FIELDS), "groups": {}}
    with open(EXPECTED_PATH) as handle:
        doc = json.load(handle)
    if doc.get("fields") != list(analysis.EXPECTED_FIELDS):
        fail("%s has fields %r, expected %r" % (
            EXPECTED_PATH, doc.get("fields"), analysis.EXPECTED_FIELDS))
    return doc


def expected_from(records):
    return {analysis.op_key(r): analysis.output_vector(r)
            for r in records.get("expected", [])}


def benchmark(args):
    end_to_end_units, per_layer_units = load_units()
    harness = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    group = EXPECTATION_GROUP[args.workload]
    recorded = load_expected()["groups"].get(group, {}).get(str(args.seed))
    directory = out_dir(args.workload, args.seed, args.trace)
    shutil.rmtree(directory, ignore_errors=True)
    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace",
                    str(args.trace), "--out", directory]
    if recorded is None:
        # A seed without recorded expectations: the harness first runs
        # every operation through baseline::runExperiment on the serial
        # engine and the outputs are checked against that.
        harness_args.append("--reference")
    records = run_harness(harness, harness_args, deadline,
                          keep=os.path.join(directory, "records.jsonl"))
    expected = recorded if recorded is not None else expected_from(records)
    references = {(r["kernel"], r["dataset"]): r
                  for r in records.get("reference", [])}

    passes = records.get("pass", [])
    attempted = failed = 0
    failures = []
    for record in passes:
        attempted += len(record["ops"])
        found = analysis.check_pass(record["ops"], references, expected)
        failed += len(found)
        failures += ["pass %d: %s" % (record["pass"], f) for f in found]
    if attempted == 0:
        fail("the harness ran no operations")
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    end = records["end"][0]

    report = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace,
              "provenance": provenance(records["provenance"][0], args.seed),
              "expectations": "recorded" if recorded is not None
              else "computed in-process (serial runExperiment)",
              "passes": {"untraced": len(untraced), "traced": len(traced)},
              "failures": failures[:50]}
    if args.trace:
        with open(end["spans"]) as handle:
            spans = analysis.load_spans(json.load(handle))
        values = analysis.per_layer(untraced, traced, spans, attempted,
                                    failed)
        report["layer_shares"] = analysis.layer_shares(values)
        units = per_layer_units
    else:
        values, details = analysis.end_to_end(
            untraced, end["peak_rss_bytes"], attempted, failed)
        report["timings"] = details
        units = end_to_end_units
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    report["metrics"] = metrics
    with open(os.path.join(directory, "report.json"), "w") as handle:
        json.dump(report, handle, indent=2)
    for line in failures[:20]:
        log("FAILED " + line)
    print(json.dumps({k: report[k] for k in ("provenance", "passes")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def load_units():
    """Metric names and units, end-to-end and per-layer, from the
    benchmark's BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("%s not found" % path)
    with open(path) as handle:
        doc = json.load(handle)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


# ---------------------------------------------------------------------------
# Expectations and self-test
# ---------------------------------------------------------------------------

def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def write_expected(doc):
    """Writes the expectations one operation per line, so a re-record
    diffs by operation."""
    lines = ['{"fields": %s,' % json.dumps(doc["fields"]), ' "groups": {']
    groups = sorted(doc["groups"])
    for g, group in enumerate(groups):
        seeds = sorted(doc["groups"][group], key=int)
        lines.append('  %s: {' % json.dumps(group))
        for s, seed in enumerate(seeds):
            ops = doc["groups"][group][seed]
            lines.append('   %s: {' % json.dumps(seed))
            keys = sorted(ops)
            for k, key in enumerate(keys):
                lines.append('    %s: %s%s' % (json.dumps(key),
                                              json.dumps(ops[key]),
                                              "," if k + 1 < len(keys)
                                              else ""))
            lines.append('   }%s' % ("," if s + 1 < len(seeds) else ""))
        lines.append('  }%s' % ("," if g + 1 < len(groups) else ""))
    lines.append(' }}')
    with open(EXPECTED_PATH, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def record_expected(seeds):
    """Re-records the serial-engine expectations of every workload group
    for `seeds` straight from baseline::runExperiment."""
    harness = build()
    doc = load_expected()
    representative = {"fig05": "fig05-serial",
                      "mcdram-epochs": "mcdram-epochs"}
    for group, workload in representative.items():
        for seed in seeds:
            directory = out_dir(workload, seed, 0)
            records = run_harness(harness, [
                "--workload", workload, "--seed", str(seed), "--reference",
                "--min-passes", "0", "--max-passes", "0", "--out",
                directory], time.monotonic() + RUN_LIMIT_S)
            doc["groups"].setdefault(group, {})[str(seed)] = \
                expected_from(records)
            log("recorded %s seed %d" % (group, seed))
    write_expected(doc)


def self_test():
    """The metric-math and check unit tests, the seed-0 graph identity,
    then the output check on one real pass: clean against the recorded
    expectations, and failing once a wrong expectation or a wrong
    checksum is planted."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "unittest", "-q",
                           "test_analysis"], cwd=HERE, env=env)
    if done.returncode != 0:
        fail("unit tests failed")
    harness = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    records = run_harness(harness, ["--check-graphs"], deadline)
    if not records["check_graphs"][0]["ok"]:
        fail("seed 0 does not regenerate graph::makeDataset's graphs")

    recorded = load_expected()["groups"].get("fig05", {}).get("0")
    if recorded is None:
        fail("no recorded fig05 expectations for seed 0")
    records = run_harness(harness, [
        "--workload", "fig05-serial", "--seed", "0", "--seconds", "0",
        "--min-passes", "1", "--max-passes", "1", "--out",
        out_dir("self-test", 0, 0)], deadline)
    ops = records["pass"][0]["ops"]
    references = {(r["kernel"], r["dataset"]): r
                  for r in records["reference"]}
    found = analysis.check_pass(ops, references, recorded)
    if found:
        fail("clean pass failed its check: %s" % found[0])
    planted = json.loads(json.dumps(recorded))
    key = analysis.op_key(ops[1])
    planted[key][0] *= 1.0 + 1e-15
    if len(analysis.check_pass(ops, references, planted)) != 1:
        fail("a planted wrong expectation was not counted as a failure")
    wrong = json.loads(json.dumps(ops))
    wrong[1]["checksum"] += 1
    if key not in " ".join(analysis.check_pass(wrong, references,
                                               recorded)):
        fail("a planted wrong checksum was not counted as a failure")
    log("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", metavar="SEEDS",
                        help="re-record serial expectations, e.g. 0-10")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    elif args.record_expected:
        record_expected(parse_seeds(args.record_expected))
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds within 1..120")
    else:
        benchmark(args)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark of the SMAPPIC simulator.

Run from the repository root:

    python3 e2ebench/run.py --workload intsort-numa --seed 1 --seconds 20 --trace 0

It builds the simulator library and the benchmark binary from source into
.bench_build/ (CMake, Release), runs the workload for --seconds seconds of
whole repetitions, checks every repetition's outputs, prints a readable
report and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics. Metric definitions and the reasons behind the workloads
are in e2ebench/NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
RUN_DIR = ROOT / ".bench_build" / "run"
WORKLOADS = ("intsort-numa", "riscv-kernels", "phased-sharing")
# The binary stops starting repetitions after --seconds; this bounds the
# last repetition plus process start and exit.
RUN_SLACK_S = 100

# Fig 8 of the paper: NUMA-off over NUMA-on run time of the integer sort.
PAPER_NUMA_BAND = (1.6, 2.8)


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and lets CMake bring the binary up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd, what in (
            (["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"], "cmake configure"),
            (["cmake", "--build", str(BUILD_DIR), "-j", jobs], "build")):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail(f"{what} failed")
    binary = BUILD_DIR / "e2ebench"
    if not binary.exists():
        fail("build produced no binary")
    return binary


def run_binary(binary, args):
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(RUN_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out")  # run() has killed and reaped it
    if proc.returncode:
        fail(f"benchmark binary exited with {proc.returncode}")
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    if not records or records[-1]["rec"] != "end":
        fail("benchmark binary printed no end record")
    return records


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    """Interquartile range over the median (0 with fewer than 2 values)."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(plain, end):
    """Run time and simulation rate are taken relative to the host
    reference timed next to each repetition (see NOTES.md)."""
    return {
        "wall_ref": median([r["wall_s"] / r["ref_s"] for r in plain]),
        "sim_rate_ref": median([r["sim_cycles"] / 1e6 * r["ref_s"]
                                / r["wall_s"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in plain]),
        "peak_rss_mb": end["peak_rss_mb"],
    }


def per_layer(plain, traced, one_worker, probe, attempted, failed):
    """Per-layer metrics. A layer a workload does not run reads 0."""
    def med(recs, key):
        return median([r[key] for r in recs if key in r])

    m = {}
    m["host.wall_s"] = med(plain, "wall_s")
    m["host.sim_mcps"] = median([r["sim_cycles"] / r["wall_s"] / 1e6
                                 for r in plain])
    m["host.ref_s"] = med(plain, "ref_s")
    m["platform.construct_s"] = med(traced, "construct_s")
    m["platform.load_s"] = med(traced, "load_s")

    m["riscv.instret"] = med(plain, "instret")
    m["riscv.guest_mips"] = median(
        [r["instret"] / r["wall_s"] / 1e6 for r in plain if r["instret"]])
    m["riscv.decode_hit_ratio"] = ratio(med(plain, "decode_hits"),
                                        med(plain, "decode_lookups"))

    # The riscv/cache split of the traced riscv-kernels run, as shares of
    # its span (trace.run_s), so a workload without the split reads 0
    # rather than a constant time.
    split = [r for r in traced if "shim_equal" in r]
    split_valid = bool(split) and all(r["shim_equal"] for r in split)
    m["riscv.split_valid"] = 1 if split_valid else 0
    if split_valid:
        m["riscv.self_share"] = median(
            [1 - r["shim_port_s"] / r["shim_run_s"] for r in split])
        m["cache.port_share"] = median(
            [r["shim_port_s"] / r["shim_run_s"] for r in split])
        m["cache.port_calls"] = med(split, "shim_port_calls")
        m["cache.fastpath_ratio"] = ratio(med(split, "shim_fast_hits"),
                                          med(split, "shim_port_calls"))
    else:
        for key in ("riscv.self_share", "cache.port_share",
                    "cache.port_calls", "cache.fastpath_ratio"):
            m[key] = 0

    runs = plain + traced
    m["cache.bpc_misses"] = med(runs, "bpc_misses")
    m["cache.remote_fraction"] = ratio(med(runs, "serviced_remote"),
                                       med(runs, "serviced"))
    m["cache.dir_ops"] = med(runs, "dir_ops")
    m["cache.llc_fills"] = med(runs, "llc_fills")
    m["cache.bridge_crossings"] = med(runs, "bridge_crossings")
    m["cache.host_ns_per_miss"] = median(
        [r["wall_s"] * 1e9 / r["bpc_misses"] for r in plain
         if r["bpc_misses"]])

    m["mem.dram_accesses"] = med(runs, "dram_accesses")
    m["mem.pages"] = med(runs, "pages")
    # Lost increments of the workload proper (failed operations) plus
    # those of the shared-counter probe (the known defect, NOTES.md).
    m["mem.amo_lost"] = sum(r.get("amo_lost", 0) for r in runs + probe)

    if one_worker:
        m["parallel.speedup"] = ratio(med(one_worker, "wall_s"),
                                      med(plain, "wall_s"))
    else:
        m["parallel.speedup"] = 0
    m["parallel.epochs"] = med(traced, "epochs")
    # Barrier gaps as a rate and a tail ratio (the gaps themselves are in
    # the report), so the sequential workloads read 0 rather than a
    # constant time.
    p50 = med(traced, "epoch_us_p50")
    m["parallel.epoch_rate"] = ratio(1e6, p50)
    m["parallel.epoch_tail"] = ratio(med(traced, "epoch_us_p99"), p50)

    m["snap.checkpoint_s"] = med(traced, "checkpoint_s")
    m["snap.bytes"] = med(traced, "checkpoint_bytes")
    m["stats.dump_s"] = med(traced, "dump_s")

    cycles = [r["sim_cycles"] for r in runs]
    m["model.sim_cycles"] = median(cycles)
    m["model.sim_cycles_spread"] = ratio(max(cycles) - min(cycles),
                                         median(cycles))
    m["model.stats_digest"] = plain[0]["digest"]
    m["model.stats_digests"] = len({r["digest"] for r in runs})
    m["model.numa_off_on_ratio"] = ratio(med(runs, "cycles_off"),
                                         med(runs, "cycles_on"))

    traced_run = [r["shim_run_s"] if "shim_run_s" in r else r["wall_s"]
                  for r in traced]
    m["trace.run_s"] = median(traced_run)
    m["trace.overhead"] = ratio(median(traced_run),
                                med(plain, "wall_s")) - 1
    m["check.fail_rate"] = ratio(failed, attempted)
    return m


def report(args, plain, traced, one_worker, probe, end, metrics, units):
    """The readable part of the output (everything before the last line)."""
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{end['iterations']} iterations in {end['elapsed_s']:.1f} s, "
          f"{end['hw_threads']} host threads"
          + (f", {end['workers']} phased workers"
             if args.workload == "phased-sharing" else ""))
    print("caches start empty: every repetition builds fresh prototypes")
    walls = [r["wall_s"] for r in plain]
    rel = [r["wall_s"] / r["ref_s"] for r in plain]
    print(f"plain repetitions: {len(plain)}, wall_s median "
          f"{median(walls):.4f} s, min {min(walls):.4f}, max "
          f"{max(walls):.4f}, IQR/median {spread(walls):.3f}; "
          f"relative to the host reference: IQR/median {spread(rel):.3f}")
    cycles = [r["sim_cycles"] for r in plain + traced]
    print(f"model.sim_cycles over this run's repetitions: min {min(cycles)}, "
          f"max {max(cycles)}, "
          f"{len(set(cycles))} distinct value(s)"
          + ("" if len(set(cycles)) == 1 else
             " -- simulated time differs between identical runs"))
    if args.workload == "intsort-numa":
        r = plain[0]
        on, off = r["cycles_on"], r["cycles_off"]
        lo, hi = PAPER_NUMA_BAND
        verdict = "inside" if lo <= off / on <= hi else "outside"
        print(f"model.numa_off_on_ratio {off / on:.3f} (paper Fig 8 band "
              f"NUMA off/on {lo}-{hi}x: {verdict}); remote share of misses "
              f"NUMA on {r['remote_on']:.3f}, off {r['remote_off']:.3f}")
    if args.workload == "phased-sharing":
        lost = [r["amo_lost"] for r in plain + traced + one_worker]
        print(f"amoadd.d increments lost, each hart on its own counter: "
              f"{sum(lost)} (each one a failed operation)")
        if probe:
            lost = [r["amo_lost"] for r in probe]
            print(f"shared-counter probe at {probe[0]['workers']} workers: "
                  f"{min(lost)}-{max(lost)} of {probe[0]['increments']} "
                  f"increments lost per repetition -- known defect: "
                  f"CorePort::atomic's read-modify-write is not atomic "
                  f"across workers (reported in mem.amo_lost, not as "
                  f"failed operations)")
        if traced:
            print("host gap between quantum barriers: p50 "
                  f"{median([r['epoch_us_p50'] for r in traced]):.1f} us, "
                  f"p99 {median([r['epoch_us_p99'] for r in traced]):.1f} us")
    if args.trace and args.workload == "riscv-kernels":
        print("riscv/cache split: "
              + ("valid (shim matches the Prototype run byte for byte)"
                 if metrics["riscv.split_valid"] else
                 "VOID (shim does not reproduce the Prototype run)"))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {units[name]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    records = run_binary(build(), args)
    end = records[-1]
    plain = [r for r in records if r["rec"] == "plain"]
    traced = [r for r in records if r["rec"] == "traced"]
    one_worker = [r for r in records if r["rec"] == "one_worker"]
    probe = [r for r in records if r["rec"] == "amo_probe"]
    if not plain or (args.trace and not traced):
        fail("benchmark binary printed no repetitions")
    reps = records[:-1]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = all(r["checks_ok"] for r in reps)

    if args.trace:
        metrics = per_layer(plain, traced, one_worker, probe,
                            attempted, failed)
    else:
        metrics = end_to_end(plain, end)
    missing = set(units) - set(metrics)
    if missing:
        fail(f"metrics not measured: {sorted(missing)}")
    metrics = {name: metrics[name] for name in units}

    report(args, plain, traced, one_worker, probe, end, metrics, units)
    print(f"checks: {attempted} attempted, {failed} failed, outputs "
          + ("correct" if correct else "WRONG"))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()

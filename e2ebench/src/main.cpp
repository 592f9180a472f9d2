/**
 * @file
 * Benchmark binary: runs one workload for a time budget and prints one
 * JSON record per repetition plus a closing "end" record. run.py builds
 * it, calls it and turns the records into the benchmark's metrics.
 *
 *   e2ebench --workload W --seed N --seconds S --trace 0|1 --out DIR
 *
 * --trace 0 repeats plain repetitions. --trace 1 repeats iterations of
 * a plain repetition followed by a traced one (and, on phased-sharing,
 * a 1-worker repetition for the parallel speedup and the shared-counter
 * AMO probe), and writes the span log to DIR/spans-W-N.jsonl.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

using namespace e2e;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload "
                 "intsort-numa|riscv-kernels|phased-sharing --seed N "
                 "--seconds S --trace 0|1 --out DIR\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &s, const char *flag)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        usage((std::string("bad value for ") + flag).c_str());
    try {
        return std::stoull(s);
    } catch (const std::exception &) {
        usage((std::string("bad value for ") + flag).c_str());
    }
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have[5] = {};
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
            have[0] = true;
        } else if (flag == "--seed") {
            opt.seed = parseUnsigned(value, "--seed");
            have[1] = true;
        } else if (flag == "--seconds") {
            opt.seconds = static_cast<double>(
                parseUnsigned(value, "--seconds"));
            have[2] = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
            have[3] = true;
        } else if (flag == "--out") {
            opt.outDir = value;
            have[4] = true;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    for (bool h : have) {
        if (!h)
            usage("every flag is required");
    }
    if (opt.workload != "intsort-numa" && opt.workload != "riscv-kernels" &&
        opt.workload != "phased-sharing")
        usage(("unknown workload " + opt.workload).c_str());
    return opt;
}

/**
 * This process's peak resident set (VmHWM). getrusage's ru_maxrss would
 * also count the parent's resident set inherited across exec.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // Reported in kB.
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** One plain repetition, or one trace iteration (plain + traced). */
void
iteration(const Options &opt, SpanLog &log)
{
    const Tracing plain;
    Tracing traced{&log, SpanLog::kNoParent};
    if (opt.trace)
        traced.root = log.open(opt.workload, SpanLog::kNoParent);
    if (opt.workload == "intsort-numa") {
        intsortNuma(opt, plain);
        if (opt.trace)
            intsortNuma(opt, traced);
    } else if (opt.workload == "riscv-kernels") {
        riscvKernels(opt, plain);
        if (opt.trace)
            riscvKernels(opt, traced);
    } else {
        phasedSharing(opt, plain, opt.workers, "plain", false);
        if (opt.trace) {
            phasedSharing(opt, traced, opt.workers, "traced", false);
            phasedSharing(opt, plain, 1, "one_worker", false);
            phasedSharing(opt, plain, opt.hwThreads, "amo_probe", true);
        }
    }
    if (opt.trace)
        log.close(traced.root);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    opt.hwThreads = std::max(1u, std::thread::hardware_concurrency());
    // Timed phased runs keep half the host threads free: at one worker
    // per host thread, other tenants' load moved the run time by ~3x
    // more (NOTES.md). The probe uses every thread, where it loses
    // increments most often.
    opt.workers = std::max(1u, opt.hwThreads / 2);
    try {
        // A run is whole repetitions: it starts new ones until the
        // budget is spent, with a floor so every median has samples.
        const std::uint32_t min_iterations = opt.trace ? 2 : 3;
        SpanLog log;
        auto start = Clock::now();
        std::uint32_t done = 0;
        while (done < min_iterations ||
               seconds(Clock::now() - start) < opt.seconds) {
            iteration(opt, log);
            ++done;
        }

        Record end("end");
        end.count("iterations", done);
        end.count("hw_threads", opt.hwThreads);
        end.count("workers", opt.workers);
        end.set("peak_rss_mb", peakRssMb());
        end.set("elapsed_s", seconds(Clock::now() - start));
        end.print();
        if (opt.trace) {
            std::string path = opt.outDir + "/spans-" + opt.workload + "-" +
                               std::to_string(opt.seed) + ".jsonl";
            if (!log.write(path)) {
                std::fprintf(stderr, "e2ebench: cannot write %s\n",
                             path.c_str());
                return 1;
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
    return 0;
}

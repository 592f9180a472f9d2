/**
 * @file
 * CLI front end for the correctness harness (src/check/): runs the
 * standard litmus suite or the memory torture generator on a real
 * prototype and prints a machine-greppable report. The CI litmus job
 * runs fixed seeds on every PR; the nightly job sweeps random seeds and
 * uploads any failing repro line as an artifact.
 *
 * Usage:
 *   litmus_run --litmus [--spec AxBxC] [--seed N] [--iters N]
 *              [--threads N --quantum N] [--reference]
 *   litmus_run --torture [--spec AxBxC] [--seed N] [--ops N]
 *              [--lines N] [--threads N --quantum N] [--faulty]
 *              [--minimize]
 *   litmus_run --torture-sweep N   (N random seeds; stops on failure)
 *
 * --reference turns every host-only fast path off for the litmus suite;
 * the torture modes do not take it.
 *
 * Exit code 0 = everything passed; 1 = a forbidden outcome, golden
 * mismatch or checker violation (the repro command is printed); 2 =
 * usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/litmus.hpp"
#include "check/torture.hpp"
#include "cli_number.hpp"

using namespace smappic;

namespace
{

void
printUsage()
{
    std::fprintf(stderr,
                 "usage: litmus_run "
                 "--litmus|--torture|--torture-sweep N "
                 "[--spec AxBxC] [--seed N] [--iters N] [--ops N]"
                 " [--lines N] [--threads N] [--quantum N] "
                 "[--faulty] [--minimize] [--reference]\n");
}

struct Options
{
    bool litmus = false;
    bool torture = false;
    std::uint64_t sweep = 0;
    std::string spec = "2x1x2";
    std::uint64_t seed = 1;
    std::uint32_t iters = 8;
    std::uint32_t ops = 64;
    std::uint32_t lines = 4;
    std::uint32_t threads = 0;
    Cycles quantum = 0;
    bool faulty = false;
    bool minimize = false;
    bool reference = false;
};

int
runLitmusSuite(const Options &opt)
{
    check::LitmusConfig cfg;
    cfg.spec = opt.spec;
    cfg.seed = opt.seed;
    cfg.iterations = opt.iters;
    cfg.reference = opt.reference;
    if (opt.threads > 0) {
        cfg.parallel.threads = opt.threads;
        cfg.parallel.quantum = opt.quantum ? opt.quantum : 63;
    }

    int failures = 0;
    for (const check::LitmusTest &t : check::standardLitmusSuite()) {
        check::LitmusResult r = check::runLitmus(t, cfg);
        std::printf("litmus %-10s %s  outcomes: %s  violations: %llu\n",
                    t.name.c_str(), r.passed ? "PASS" : "FAIL",
                    r.histogram().c_str(),
                    static_cast<unsigned long long>(r.checkerViolations));
        if (!r.passed) {
            ++failures;
            std::printf("repro: %s\n", check::reproCommand(cfg).c_str());
        }
    }
    return failures ? 1 : 0;
}

check::TortureConfig
tortureConfig(const Options &opt, std::uint64_t seed)
{
    check::TortureConfig cfg;
    cfg.spec = opt.spec;
    cfg.seed = seed;
    cfg.opsPerCore = opt.ops;
    cfg.sharedLines = opt.lines;
    if (opt.threads > 0) {
        cfg.parallel.threads = opt.threads;
        cfg.parallel.quantum = opt.quantum ? opt.quantum : 63;
    }
    if (opt.faulty) {
        cfg.faultPlan.seed = seed ^ 0xfau;
        cfg.faultPlan.drop("bridge.tx", 0.02);
        cfg.faultPlan.corrupt("bridge.tx", 0.02);
        cfg.reliability.enabled = true;
    }
    return cfg;
}

void
printReport(const check::TortureReport &rep)
{
    std::printf("torture seed %llu ops %u lines %u: %s  violations: "
                "%llu  mismatches: %zu\n",
                static_cast<unsigned long long>(rep.seed), rep.opsPerCore,
                rep.sharedLines, rep.passed ? "PASS" : "FAIL",
                static_cast<unsigned long long>(rep.checkerViolations),
                rep.mismatches.size());
    for (const std::string &m : rep.mismatches)
        std::printf("  mismatch: %s\n", m.c_str());
    if (!rep.passed)
        std::printf("repro: %s\n", rep.repro.c_str());
}

int
runTortureOnce(const Options &opt)
{
    check::TortureConfig cfg = tortureConfig(opt, opt.seed);
    check::TortureReport rep = opt.minimize ? check::runAndMinimize(cfg)
                                            : check::runTorture(cfg);
    printReport(rep);
    if (opt.minimize && rep.shrinkSteps)
        std::printf("minimized in %u steps\n", rep.shrinkSteps);
    return rep.passed ? 0 : 1;
}

int
runTortureSweep(const Options &opt)
{
    for (std::uint64_t i = 0; i < opt.sweep; ++i) {
        check::TortureConfig cfg = tortureConfig(opt, opt.seed + i);
        check::TortureReport rep = check::runTorture(cfg);
        printReport(rep);
        if (!rep.passed) {
            // Minimize the failing seed before reporting it.
            check::TortureReport min = check::runAndMinimize(cfg);
            std::printf("minimized repro: %s\n", min.repro.c_str());
            return 1;
        }
    }
    std::printf("torture sweep: %llu seeds passed\n",
                static_cast<unsigned long long>(opt.sweep));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                printUsage();
                std::exit(2);
            }
            return argv[++i];
        };
        auto number = [&](auto &out) {
            if (!tools::parseNumber(next(), out)) {
                printUsage();
                std::exit(2);
            }
        };
        if (a == "--litmus") opt.litmus = true;
        else if (a == "--torture") opt.torture = true;
        else if (a == "--torture-sweep") number(opt.sweep);
        else if (a == "--spec") opt.spec = next();
        else if (a == "--seed") number(opt.seed);
        else if (a == "--iters") number(opt.iters);
        else if (a == "--ops") number(opt.ops);
        else if (a == "--lines") number(opt.lines);
        else if (a == "--threads") number(opt.threads);
        else if (a == "--quantum") number(opt.quantum);
        else if (a == "--faulty") opt.faulty = true;
        else if (a == "--minimize") opt.minimize = true;
        else if (a == "--reference") opt.reference = true;
        else {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            printUsage();
            return 2;
        }
    }
    if (opt.reference && (opt.torture || opt.sweep)) {
        std::fprintf(stderr, "--reference applies to --litmus only\n");
        printUsage();
        return 2;
    }

    try {
        int rc = 0;
        if (opt.litmus)
            rc |= runLitmusSuite(opt);
        if (opt.torture)
            rc |= runTortureOnce(opt);
        if (opt.sweep)
            rc |= runTortureSweep(opt);
        if (!opt.litmus && !opt.torture && !opt.sweep) {
            std::fprintf(stderr, "nothing to do: pass --litmus, "
                                 "--torture or --torture-sweep N\n");
            return 2;
        }
        return rc;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "litmus_run: %s\n", e.what());
        return 1;
    }
}

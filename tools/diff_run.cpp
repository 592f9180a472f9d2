/**
 * @file
 * Lockstep differential-fuzzing CLI (see src/check/isa_fuzz.hpp and
 * docs/INTERNALS.md "Differential testing").
 *
 * Generates a seeded random RV64 program, runs it on a Prototype with
 * the golden-model lockstep checker attached, and reports divergences.
 * A run is a pure function of its command line: re-running the printed
 * `repro:` line reproduces the divergence exactly.
 *
 * Options:
 *
 *   --spec <FxNxT>      Prototype geometry (default 1x1x2).
 *   --seed <N>          Base RNG seed (default 1).
 *   --runs <N>          Consecutive seeds starting at --seed (default 1).
 *   --count <N>         Instruction slots per hart (default 256).
 *   --mix <M>           alu|mul|mem|amo|csr|all|smc (default all).
 *   --shared            Sprinkle cross-hart shared-line accesses.
 *   --threads <N>       Phased engine with N workers (default:
 *                       sequential engine).
 *   --quantum <N>       Phased quantum in cycles (default 256).
 *   --reference         Turn every host-only fast path off (decode
 *                       cache, L1D hit fast path, uncore idle skip).
 *   --defect <D>        Arm a test-only defect: mulh | stale-decode.
 *                       Inverts the exit code: 0 = the checker caught
 *                       it (and prints the minimized repro), 1 = missed.
 *   --minimize          Shrink a diverging run before reporting.
 *
 * Exit codes: 0 = clean (or defect detected with --defect), 1 =
 * divergence (or defect missed), 2 = usage error.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "check/isa_fuzz.hpp"
#include "cli_number.hpp"
#include "sim/log.hpp"

using namespace smappic;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--spec <FxNxT>] [--seed <N>] [--runs <N>] "
        "[--count <N>] [--mix <M>] [--shared] [--threads <N>] "
        "[--quantum <N>] [--reference] [--defect <D>] [--minimize]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    check::FuzzConfig cfg;
    std::uint64_t runs = 1;
    bool minimize = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *name) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", name);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--spec") {
            const char *v = value("--spec");
            if (v == nullptr)
                return usage(argv[0]);
            cfg.spec = v;
        } else if (arg == "--seed") {
            const char *v = value("--seed");
            if (v == nullptr || !tools::parseNumber(v, cfg.seed))
                return usage(argv[0]);
        } else if (arg == "--runs") {
            const char *v = value("--runs");
            if (v == nullptr || !tools::parseNumber(v, runs) || runs == 0)
                return usage(argv[0]);
        } else if (arg == "--count") {
            const char *v = value("--count");
            if (v == nullptr || !tools::parseNumber(v, cfg.count) ||
                cfg.count == 0 || cfg.count > 100000)
                return usage(argv[0]);
        } else if (arg == "--mix") {
            const char *v = value("--mix");
            if (v == nullptr)
                return usage(argv[0]);
            try {
                cfg.mix = check::parseMix(v);
            } catch (const FatalError &e) {
                std::fprintf(stderr, "%s\n", e.what());
                return usage(argv[0]);
            }
        } else if (arg == "--shared") {
            cfg.shared = true;
        } else if (arg == "--threads") {
            const char *v = value("--threads");
            if (v == nullptr || !tools::parseNumber(v, cfg.threads) ||
                cfg.threads == 0 || cfg.threads > 64)
                return usage(argv[0]);
        } else if (arg == "--quantum") {
            const char *v = value("--quantum");
            if (v == nullptr || !tools::parseNumber(v, cfg.quantum) ||
                cfg.quantum == 0)
                return usage(argv[0]);
        } else if (arg == "--reference") {
            cfg.reference = true;
        } else if (arg == "--defect") {
            const char *v = value("--defect");
            if (v == nullptr)
                return usage(argv[0]);
            if (std::strcmp(v, "mulh") == 0) {
                cfg.defect = riscv::CoreTestMutation::kMulhCorrupt;
            } else if (std::strcmp(v, "stale-decode") == 0) {
                cfg.defect = riscv::CoreTestMutation::kStaleDecode;
            } else {
                std::fprintf(stderr, "unknown defect '%s'\n", v);
                return usage(argv[0]);
            }
        } else if (arg == "--minimize") {
            minimize = true;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            return usage(argv[0]);
        }
    }

    // An armed defect needs a mix that actually exercises it.
    if (cfg.defect == riscv::CoreTestMutation::kStaleDecode) {
        cfg.mix = check::FuzzMix::kSmc;
    } else if (cfg.defect == riscv::CoreTestMutation::kMulhCorrupt &&
               cfg.mix != check::FuzzMix::kMul &&
               cfg.mix != check::FuzzMix::kAll) {
        cfg.mix = check::FuzzMix::kMul;
    }
    bool defectMode = cfg.defect != riscv::CoreTestMutation::kNone;

    std::uint64_t diverging = 0;
    try {
        for (std::uint64_t r = 0; r < runs; ++r) {
            check::FuzzConfig run = cfg;
            run.seed = cfg.seed + r;
            check::FuzzResult res;
            std::string repro = "repro: " + check::reproCommand(run);
            if (minimize || defectMode) {
                check::MinimizeResult m = check::runFuzzAndMinimize(run);
                res = m.result;
                if (res.diverged)
                    repro = m.repro;
            } else {
                res = check::runFuzz(run);
            }

            std::printf("seed %llu: %llu commits, %zu divergence(s)%s\n",
                        static_cast<unsigned long long>(run.seed),
                        static_cast<unsigned long long>(res.commits),
                        res.divergences.size(),
                        res.exitedCleanly ? "" : " [no clean exit]");
            if (res.diverged) {
                ++diverging;
                for (const auto &d : res.divergences)
                    std::printf("%s\n", d.message.c_str());
                std::printf("%s\n", repro.c_str());
            }
            if (!res.exitedCleanly && !res.diverged) {
                // A hung program with no divergence is a harness bug.
                std::fprintf(stderr,
                             "seed %llu: program did not exit\n",
                             static_cast<unsigned long long>(run.seed));
                return 1;
            }
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    if (defectMode) {
        if (diverging == runs) {
            std::printf("defect detected in %llu/%llu run(s)\n",
                        static_cast<unsigned long long>(diverging),
                        static_cast<unsigned long long>(runs));
            return 0;
        }
        std::fprintf(stderr,
                     "defect MISSED: %llu/%llu run(s) diverged\n",
                     static_cast<unsigned long long>(diverging),
                     static_cast<unsigned long long>(runs));
        return 1;
    }
    return diverging == 0 ? 0 : 1;
}

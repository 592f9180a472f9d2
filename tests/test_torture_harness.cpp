/**
 * @file
 * Tests for the multi-core memory torture harness (src/check/torture):
 * the generator is a pure function of its seed, clean runs match the
 * flat golden model under the sequential engine, the phased engine and
 * a faulty-substrate + reliable-bridge configuration, and an armed
 * directory mutation produces a failing report that minimizes and
 * carries a deterministically reproducing seed.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "check/cli.hpp"
#include "check/torture.hpp"
#include "sim/types.hpp"

namespace smappic::check
{
namespace
{

TEST(TortureGenerator, IsAPureFunctionOfTheSeed)
{
    TortureConfig cfg;
    cfg.seed = 99;
    TortureProgram a = generateTorture(cfg);
    TortureProgram b = generateTorture(cfg);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.finalSlots, b.finalSlots);
    EXPECT_EQ(a.checksums, b.checksums);

    cfg.seed = 100;
    TortureProgram c = generateTorture(cfg);
    EXPECT_NE(a.source, c.source);
}

TEST(TortureGenerator, RejectsDegenerateShapes)
{
    TortureConfig cfg;
    cfg.sharedLines = 0;
    EXPECT_THROW(generateTorture(cfg), FatalError);
    cfg.sharedLines = 33; // past imm12-addressable window
    EXPECT_THROW(generateTorture(cfg), FatalError);
    cfg.sharedLines = 4;
    cfg.opsPerCore = 0;
    EXPECT_THROW(generateTorture(cfg), FatalError);
}

TEST(TortureHarness, SequentialRunMatchesGoldenModel)
{
    TortureConfig cfg;
    cfg.seed = 5;
    TortureReport rep = runTorture(cfg);
    EXPECT_TRUE(rep.passed)
        << (rep.mismatches.empty() ? "checker" : rep.mismatches[0]);
    EXPECT_EQ(rep.checkerViolations, 0u);
    EXPECT_NE(rep.repro.find("--seed 5"), std::string::npos);
}

TEST(TortureHarness, SeedSweepPassesSequentially)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        TortureConfig cfg;
        cfg.seed = seed;
        cfg.opsPerCore = 48;
        TortureReport rep = runTorture(cfg);
        EXPECT_TRUE(rep.passed)
            << "seed " << seed << ": "
            << (rep.mismatches.empty() ? "checker violations"
                                       : rep.mismatches[0]);
    }
}

TEST(TortureHarness, ParallelEngineMatchesGoldenModel)
{
    // At 4x1x2 and 96 ops the core bodies lie past the +-4 KiB reach of
    // the mhartid dispatch branch.
    for (auto [spec, ops] :
         {std::pair{"2x1x2", 64u}, std::pair{"4x1x2", 96u}}) {
        for (std::uint32_t threads : {1u, 2u, 4u}) {
            TortureConfig cfg;
            cfg.spec = spec;
            cfg.seed = 11;
            cfg.opsPerCore = ops;
            cfg.parallel.threads = threads;
            cfg.parallel.quantum = 63;
            TortureReport rep = runTorture(cfg);
            EXPECT_TRUE(rep.passed)
                << spec << ", " << threads << " workers: "
                << (rep.mismatches.empty() ? "checker violations"
                                           : rep.mismatches[0]);
            EXPECT_NE(rep.repro.find("--threads"), std::string::npos);
        }
    }
}

TEST(TortureHarness, SurvivesFaultySubstrateWithReliableBridge)
{
    TortureConfig cfg;
    cfg.seed = 21;
    cfg.faultPlan.seed = 77;
    cfg.faultPlan.drop("bridge.tx", 0.02);
    cfg.faultPlan.corrupt("bridge.tx", 0.02);
    cfg.reliability.enabled = true;
    TortureReport rep = runTorture(cfg);
    EXPECT_TRUE(rep.passed)
        << (rep.mismatches.empty() ? "checker violations"
                                   : rep.mismatches[0]);
}

TEST(TortureHarness, ReproCommandRoundTrips)
{
    // Each repro line must parse back, through the driver's flag table,
    // into the config it was rendered from.
    auto replays = [](const TortureConfig &cfg) {
        cli::Options opt;
        ASSERT_TRUE(cli::parseRepro(reproCommand(cfg), opt))
            << reproCommand(cfg);
        auto fields = [](const TortureConfig &c) {
            return std::tie(c.spec, c.seed, c.opsPerCore, c.sharedLines,
                            c.parallel.threads, c.parallel.quantum,
                            c.reliability.enabled);
        };
        const TortureConfig back = cli::tortureConfig(opt, opt.seed);
        EXPECT_EQ(fields(back), fields(cfg));
    };
    TortureConfig cfg;
    cfg.seed = 6;
    EXPECT_EQ(reproCommand(cfg),
              "smappic torture --spec 2x1x2 --seed 6 --ops 64 --lines 4");
    replays(cfg);
    cfg.parallel.quantum = 100; // Phased at one worker.
    EXPECT_EQ(reproCommand(cfg),
              "smappic torture --spec 2x1x2 --seed 6 --ops 64 --lines 4 "
              "--threads 1 --quantum 100");
    replays(cfg);
    cfg.spec = "4x1x2";
    cfg.opsPerCore = 96;
    cfg.parallel.threads = 2;
    cfg.parallel.quantum = 63;
    cfg.reliability.enabled = true; // What --faulty sets.
    EXPECT_EQ(reproCommand(cfg),
              "smappic torture --spec 4x1x2 --seed 6 --ops 96 --lines 4 "
              "--threads 2 --quantum 63 --faulty");
    replays(cfg);
}

TEST(TortureHarness, MutationFailsMinimizesAndReproduces)
{
    TortureConfig cfg;
    cfg.seed = 31;
    cfg.opsPerCore = 64;
    cfg.sharedLines = 8;
    // Arm the lost-invalidation mutation on the first shared line; the
    // harness must fail (stale data and/or checker violations), shrink,
    // and hand back a seed that still reproduces the failure.
    cfg.preRun = [](platform::Prototype &proto,
                    const riscv::Program &prog) {
        proto.memorySystem().setTestMutation(
            cache::TestMutation::kLostInvalidation,
            lineAlign(prog.symbol("shared")));
    };

    TortureReport rep = runAndMinimize(cfg);
    EXPECT_FALSE(rep.passed);
    EXPECT_GT(rep.shrinkSteps, 0u);
    EXPECT_LE(rep.opsPerCore, cfg.opsPerCore);
    EXPECT_LE(rep.sharedLines, cfg.sharedLines);
    EXPECT_EQ(rep.seed, cfg.seed);
    EXPECT_NE(rep.repro.find("--seed 31"), std::string::npos);

    // Deterministic replay: rebuild the minimized config from the
    // report and re-run — the failure must reproduce identically.
    TortureConfig replay = cfg;
    replay.opsPerCore = rep.opsPerCore;
    replay.sharedLines = rep.sharedLines;
    TortureReport again = runTorture(replay);
    EXPECT_FALSE(again.passed);
    EXPECT_EQ(again.checkerViolations, rep.checkerViolations);
    EXPECT_EQ(again.mismatches, rep.mismatches);
}

} // namespace
} // namespace smappic::check

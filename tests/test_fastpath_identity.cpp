/**
 * @file
 * The identity table of the host-only fast paths. Rows are the knobs —
 * core.decodeCache, core.dataFastPath, uncore.idleSkip — plus the
 * reference row, which turns all of them off at once
 * (PrototypeConfig::disableFastPaths). Columns are the three ways a
 * fast path could leak into what the prototype measures:
 *  - sequential engine, knob on vs off;
 *  - phased engine, {on, off} x {1, 2, 4} workers, each against on at
 *    1 worker;
 *  - checkpoint interchange: an on run's mid-run checkpoint restores
 *    into an off prototype, and both final checkpoints match byte for
 *    byte (the knob is outside the checkpoint and the fingerprint).
 * Every cell compares stats dump, binary trace and SMCK bytes. The
 * knob-specific tests (SMC, bail parity, watchdog, give-up, ...) live in
 * each knob's own test file.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "platform/prototype.hpp"
#include "snap/snapshot.hpp"
#include "support/identity.hpp"

namespace smappic
{
namespace
{

using platform::PrototypeConfig;

/** One knob: how to set it, and the workload that exercises it. */
struct Row
{
    const char *name;
    /** Sets the knob; the reference row's "off" is disableFastPaths(). */
    void (*set)(PrototypeConfig &cfg, bool on);
    std::string source;
    std::uint64_t budget;       ///< Instructions per core, engine columns.
    std::uint64_t resumeBudget; ///< Instructions per core, interchange.
    Cycles interval;            ///< Checkpoint interval, interchange.
};

/** Names the row in test listings (ctest shows `.../decodeCache`). */
void
PrintTo(const Row &row, std::ostream *os)
{
    *os << row.name;
}

const Row kRows[] = {
    {"decodeCache",
     [](PrototypeConfig &cfg, bool on) { cfg.core.decodeCache.enabled = on; },
     test::kDecodeMixSource, 20'000, 30'000, 4000},
    {"dataFastPath",
     [](PrototypeConfig &cfg, bool on) { cfg.core.dataFastPath = on; },
     test::kShareMixSource, 20'000, 30'000, 4000},
    {"idleSkip",
     [](PrototypeConfig &cfg, bool on) { cfg.uncore.idleSkip = on; },
     test::kWfiTimerSource, 60'000, 60'000, 20'000},
    {"reference",
     [](PrototypeConfig &cfg, bool on) {
         if (!on)
             cfg.disableFastPaths();
     },
     test::kReferenceSource, 60'000, 60'000, 20'000},
};

class FastPathIdentity : public ::testing::TestWithParam<Row>
{
  protected:
    /** The row's surface run, checkpointing into @p dir. */
    test::RunFn
    runner(const test::fs::path &dir) const
    {
        const Row &row = GetParam();
        return [&row, dir](bool on, std::uint32_t threads) {
            PrototypeConfig cfg = test::engineConfig("2x1x2", threads);
            row.set(cfg, on);
            cfg.trace.enabled = true;
            return test::runSurface(cfg, row.source, row.budget, dir);
        };
    }
};

TEST_P(FastPathIdentity, SequentialOnMatchesOff)
{
    test::Verdict v;
    test::compareSequential(runner(test::scratchDir("surface")), v);
    EXPECT_TRUE(v.identical()) << v.report;
}

TEST_P(FastPathIdentity, PhasedMatchesOnAtOneWorker)
{
    test::Verdict v;
    test::comparePhased(runner(test::scratchDir("surface")), v);
    EXPECT_TRUE(v.identical()) << v.report;
}

TEST_P(FastPathIdentity, CheckpointsInterchangeBetweenOnAndOff)
{
    const Row &row = GetParam();
    auto finalCheckpoint = [&row](bool on, const test::fs::path &dir,
                                  const std::string &restoreFrom) {
        PrototypeConfig cfg = test::resumeConfig(dir, row.interval);
        row.set(cfg, on);
        platform::Prototype proto(cfg);
        proto.loadSourceReplicated(row.source);
        if (!restoreFrom.empty())
            proto.restore(restoreFrom);
        proto.runCores(test::allCores(proto), row.resumeBudget);
        test::fs::path final = dir / "final.smck";
        proto.checkpoint(final.string());
        return test::slurp(final);
    };

    test::fs::path dir_on = test::scratchDir("on");
    std::string final_on = finalCheckpoint(true, dir_on, "");
    auto mids = snap::listCheckpoints(dir_on.string());
    ASSERT_GE(mids.size(), 2u) << "workload too short to checkpoint";
    std::string final_off = finalCheckpoint(false, test::scratchDir("off"),
                                            mids[mids.size() / 2]);
    EXPECT_EQ(final_on == final_off, true);
}

INSTANTIATE_TEST_SUITE_P(Knobs, FastPathIdentity, ::testing::ValuesIn(kRows));

} // namespace
} // namespace smappic

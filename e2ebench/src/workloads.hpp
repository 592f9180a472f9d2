/**
 * @file
 * The three benchmark workloads. Each function runs one repetition on
 * freshly built prototypes, so every cache starts empty, and prints
 * one record: "plain" repetitions are timed exactly as the end-to-end
 * metrics need, "traced" ones add spans, fine-grained tracing where the
 * benchmark can reach a layer boundary, a checkpoint and a stats dump.
 */

#pragma once

#include <cstdint>
#include <string>

#include "record.hpp"

namespace e2e
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string outDir; ///< Checkpoints and the span log go here.
    std::uint32_t hwThreads = 1; ///< Host threads the machine offers.
    std::uint32_t workers = 1;   ///< Phased-engine workers when timed.
};

/** A traced repetition records its spans under a root span in @p log. */
struct Tracing
{
    SpanLog *log = nullptr; ///< Null for a plain repetition.
    std::uint32_t root = SpanLog::kNoParent;
};

/** Fig 8/9 integer sort, NUMA on and off, on 4x1x12. */
void intsortNuma(const Options &opt, const Tracing &tr);

/** Compute + copy kernels on 1x1x2, sequential engine. */
void riscvKernels(const Options &opt, const Tracing &tr);

/** Node-local loops with cross-node AMOs and false sharing on 4x1x4,
 *  phased engine with @p workers workers. @p amo_probe makes every hart
 *  add to one counter and reports lost increments without failing. */
void phasedSharing(const Options &opt, const Tracing &tr,
                   std::uint32_t workers, const char *kind, bool amo_probe);

} // namespace e2e

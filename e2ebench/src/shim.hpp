/**
 * @file
 * The traced riscv-kernels run: the riscv/cache split taken at the only
 * public boundary the benchmark can own, the core's MemPort.
 *
 * It builds the CoherentSystem and RvCores a Prototype would build for
 * the same config, connects them through a port that forwards exactly
 * as Prototype's private CorePort does and times every forwarded call,
 * and drives the cores with the sequential runCores() interleaving
 * (100-instruction chunks, smallest local clock first). The uncore the
 * Prototype adds (CLINT, event queue, devices) is absent, which the
 * kernels never touch; the equivalence check against a Prototype run of
 * the same program is what makes the split valid.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "platform/prototype.hpp"
#include "record.hpp"

namespace e2e
{

struct ShimResult
{
    double runS = 0;  ///< The drive loop: cores plus forwarded calls.
    double portS = 0; ///< Time inside forwarded MemPort calls.
    std::uint64_t portCalls = 0;
    std::uint64_t fastHits = 0; ///< Fast-hit probes that hit.
    std::vector<std::uint64_t> instret;
    std::vector<smappic::Cycles> cycles;
    std::vector<std::uint64_t> exitCode;
    std::vector<bool> exited;
    std::string csCoreStats; ///< The "cs." and "core." dump lines.
};

/** The "cs." and "core." lines of @p stats' dump, in dump order. */
std::string csCoreLines(const smappic::sim::StatRegistry &stats);

/**
 * Runs @p source on harts 0..harts-1 of a shim built for @p cfg (which
 * must select the sequential engine). Spans go to @p log under
 * @p parent.
 */
ShimResult runShim(const smappic::platform::PrototypeConfig &cfg,
                   const std::string &source, std::uint32_t harts,
                   SpanLog &log, std::uint32_t parent);

} // namespace e2e

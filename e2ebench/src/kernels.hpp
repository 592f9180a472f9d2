/**
 * @file
 * Guest programs of the two RISC-V workloads, generated from the seed,
 * with the results each hart must produce computed on the host.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace e2e
{

/** A program plus the exit code (a0 at `exit`) each hart must report. */
struct Kernels
{
    std::string source;
    std::vector<std::uint64_t> expectedExit; ///< Indexed by hart id.
};

/**
 * riscv-kernels: hart 0 runs the compute kernel (the decode-cache
 * bench's ALU + load loop), hart 1 the copy kernel (a load/modify/store
 * sweep over four dwords of its own line, so every access after the
 * first is an L1D hit or a BPC-M store hit). Both stop after
 * @p iterations and exit with a checksum of their registers/line.
 * The seed picks the data words the kernels start from.
 */
Kernels kernelsProgram(std::uint64_t seed, std::uint64_t iterations);

/** Shared-memory layout of the phased-sharing program, all on node 0. */
struct SharingLayout
{
    smappic::Addr counters = 0;  ///< One 64-byte line per local tile.
    smappic::Addr slots = 0;     ///< One 64-byte line per local tile.
    bool sharedCounter = false;  ///< Every hart adds to counters[0].
    std::uint64_t incrementsPerHart = 0;
    std::uint64_t lastSlotValue = 0; ///< Each slot's final value.

    /** Hart @p gid's amoadd.d target: its own dword, laid out like its
     *  slot, or the one shared counter. */
    smappic::Addr counter(smappic::GlobalTileId gid,
                          std::uint32_t tiles_per_node) const;

    /** Hart @p gid's slot: line = local tile, dword = node. */
    smappic::Addr slot(smappic::GlobalTileId gid,
                       std::uint32_t tiles_per_node) const;
};

/**
 * phased-sharing: every hart runs a load/add/store loop on its own line
 * of its node's replica for @p iterations. Every 64th iteration it also
 * does `amoadd.d` of 1 on its own counter dword and stores the iteration
 * number to its own slot. Counters and slots are homed on node 0, each
 * line shared with one hart of every other node. With
 * @p shared_counter every hart adds to one counter instead (the probe
 * of the lost-increment defect, see NOTES.md). It exits with the sum of
 * its two data words. The program is written for 4 tiles per node and
 * at most 8 nodes.
 */
Kernels sharingProgram(std::uint64_t seed, std::uint32_t harts,
                       std::uint64_t iterations, bool shared_counter,
                       SharingLayout &layout);

} // namespace e2e

/**
 * @file
 * Checkpoint policy and checkpoint-file utilities on top of the SMCK
 * container (snap/state_io.hpp): the SnapshotConfig knob carried by
 * PrototypeConfig, deterministic checkpoint naming, retention pruning,
 * and the inspect/validate/diff primitives behind `smappic snap`.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "snap/state_io.hpp"

namespace smappic::snap
{

/** Periodic-checkpoint knobs carried by PrototypeConfig. */
struct SnapshotConfig
{
    /** Cycles between automatic barrier checkpoints; 0 disables them.
     *  Checkpoints land on the first quantum barrier at or past each
     *  interval mark, so the set of checkpoint cycles is a pure function
     *  of (config, workload), never of worker count. */
    Cycles interval = 0;
    /** Directory receiving smck-<cycle>.smck files (created on demand). */
    std::string dir = "checkpoints";
    /** Newest checkpoints kept on disk; older ones are pruned. 0 keeps
     *  everything. */
    std::uint32_t keep = 2;

    bool enabled() const { return interval > 0; }
};

/** Parsed kMeta section plus the file's section table. */
struct SnapshotInfo
{
    std::uint32_t version = 0;
    std::uint64_t configHash = 0;
    std::string configName; ///< AxBxC spec of the writing prototype.
    std::uint64_t seed = 0;
    std::uint32_t nodes = 0;
    std::uint32_t tilesPerNode = 0;
    Cycles cycle = 0;            ///< Virtual time of the checkpoint.
    std::uint64_t instret = 0;   ///< Committed instructions, all harts.
    std::vector<Reader::SectionDesc> sections;
};

/** Reads header + kMeta of @p path. @throws FatalError when malformed. */
SnapshotInfo inspect(const std::string &path);

/**
 * Full-file validation: header, every section's CRC, and kMeta sanity.
 * @param error Receives a description of the first failure (may be null).
 * @return True when the file is a well-formed checkpoint.
 */
bool validate(const std::string &path, std::string *error = nullptr);

/**
 * Section-level comparison of two checkpoints. Returns human-readable
 * difference lines ("cache: 1324 vs 1388 bytes, payloads differ"), empty
 * when the files are equivalent. @throws FatalError on malformed input.
 */
std::vector<std::string> diff(const std::string &path_a,
                              const std::string &path_b);

/** Canonical file name for a checkpoint at @p cycle. */
std::string checkpointFileName(Cycles cycle);

/** Newest checkpoint file in @p dir ("" when none exist). */
std::string latestCheckpoint(const std::string &dir);

/** All checkpoint files in @p dir, oldest first. */
std::vector<std::string> listCheckpoints(const std::string &dir);

/** Deletes all but the newest @p keep checkpoints (0 keeps everything). */
void pruneCheckpoints(const std::string &dir, std::uint32_t keep);

} // namespace smappic::snap

/**
 * @file
 * The command-line layer of the `smappic` driver (tools/smappic.cpp).
 *
 * One declarative flag table serves every subcommand: each flag is
 * declared once with its value syntax, the subcommands that accept it,
 * its default per subcommand and a setter that checks its bounds through
 * parseNumber(). Parsing, defaults and the usage text all derive from
 * that table, and so do the check configs built from a parse: the engine
 * shape is one sim::ParallelConfig, whose active() is the only rule that
 * picks the sequential or the phased engine.
 *
 * reproLine() renders the shared flags of the `repro:` lines that the
 * fuzz, litmus and torture harnesses print; parseRepro() reads such a
 * line back through the same table, so a repro line replays its run.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/isa_fuzz.hpp"
#include "check/litmus.hpp"
#include "check/torture.hpp"
#include "sim/parallel.hpp"
#include "sim/watchdog.hpp"

namespace smappic::check::cli
{

/** The driver's subcommands, as bits of a flag's acceptance mask. */
enum Sub : std::uint8_t
{
    kFuzz = 1u << 0,    ///< Lockstep differential fuzzing.
    kLitmus = 1u << 1,  ///< The standard litmus suite.
    kTorture = 1u << 2, ///< The memory torture generator (or a sweep).
    kSnap = 1u << 3,    ///< SMCK inspect|validate|diff|run|resume.
    kTrace = 1u << 4,   ///< Binary trace inspection.
    kProbe = 1u << 5,   ///< The phased engine's determinism probe.
};

/** Every flag's value after a parse. A field keeps its subcommand's
 *  default from the table unless the command line sets it. */
struct Options
{
    std::uint32_t sub = 0; ///< The Sub bit; 0 until the name is parsed.
    /** Words that are not flags: the snap verb and its files, or the
     *  trace file. */
    std::vector<std::string> operands;

    std::string spec;
    std::uint64_t seed = 0;
    sim::ParallelConfig parallel;
    std::uint64_t maxInstructions = 0;
    bool reference = false;
    bool minimize = false;

    // fuzz
    std::uint64_t runs = 0;
    std::uint32_t count = 0;
    FuzzMix mix = FuzzMix::kAll;
    bool shared = false;
    riscv::CoreTestMutation defect = riscv::CoreTestMutation::kNone;

    // litmus
    std::uint32_t iters = 0;

    // torture and snap run|resume
    std::uint32_t ops = 0;
    std::uint32_t lines = 0;
    bool faulty = false;
    std::uint64_t sweep = 0; ///< Seeds to sweep; 0 runs one seed.

    // snap run|resume
    Cycles interval = 0;
    std::string dir;
    std::uint32_t keep = 0;
    std::string statsJson;
    std::string trace; ///< Binary trace output (snap, probe).
    Cycles killAt = 0;
    Cycles watchdogStall = 0;
    sim::WatchdogAction watchdogAction = sim::WatchdogAction::kRecover;
    std::optional<std::uint32_t> wedgeNode;
    std::uint64_t wedgeAfter = 0;
    std::string from;

    // trace
    bool check = false;
    std::string json;
    std::optional<std::uint16_t> node;
    /** componentBit() mask; 0 keeps every component. */
    std::uint32_t components = 0;
    std::optional<std::pair<Cycles, Cycles>> window; ///< Half-open.
};

/**
 * Parses @p words, the command line after the program name: the
 * subcommand, then its flags and operands in any order. Fills every
 * default first. On a malformed command line prints the reason on
 * stderr and returns false; the caller then prints usage().
 */
bool parse(const std::vector<std::string> &words, Options &out);

/** Parses a `smappic <sub> ...` line as reproCommand() renders it. */
bool parseRepro(const std::string &line, Options &out);

/** The usage text of @p sub, or of every subcommand when @p sub is 0,
 *  derived from the flag table. Starts with "usage:". */
std::string usage(std::uint32_t sub = 0);

/** The run a parsed fuzz command line names. An armed defect moves the
 *  mix to one that exercises it. */
FuzzConfig fuzzConfig(const Options &opt);

/** The run a parsed litmus command line names. */
LitmusConfig litmusConfig(const Options &opt);

/** The run a parsed torture or snap command line names, at @p seed (a
 *  sweep steps it); --faulty adds a seeded lossy bridge and turns the
 *  reliable link on. */
TortureConfig tortureConfig(const Options &opt, std::uint64_t seed);

/**
 * A repro line: `smappic <sub> --spec S --seed N`, then @p shape (the
 * harness's own flags, each with a leading space), then the engine flags
 * whenever @p engine is active(), then the @p tail switches.
 */
std::string reproLine(const char *sub, const std::string &spec,
                      std::uint64_t seed, const std::string &shape,
                      const sim::ParallelConfig &engine,
                      const std::string &tail);

} // namespace smappic::check::cli

/**
 * @file
 * Generic set-associative tag array with true-LRU replacement.
 *
 * Used for every cache structure in the platform: L1I/L1D, the BYOC private
 * cache (BPC), LLC slices, and the TLBs of the RISC-V core model. The array
 * tracks tags and a per-line auxiliary state word; data is kept in the
 * functional backing store, as is usual for timing-directory models.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/log.hpp"
#include "sim/types.hpp"

namespace smappic::snap
{
class Writer;
class Reader;
} // namespace smappic::snap

namespace smappic::cache
{

/** Result of probing or filling a CacheArray. */
struct Victim
{
    Addr line = 0;            ///< Base address of the evicted line.
    std::uint32_t state = 0;  ///< Its auxiliary state at eviction.
};

/** Set-associative array of line-granular entries. */
class CacheArray
{
  public:
    /** slotOf() result for a line that is not resident. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /**
     * @param size_bytes Total capacity.
     * @param ways Associativity.
     * @param line_bytes Line size (power of two).
     */
    CacheArray(std::uint64_t size_bytes, std::uint32_t ways,
               std::uint32_t line_bytes = kCacheLineBytes);

    /** True when @p addr's line is present; updates LRU on hit. */
    bool lookup(Addr addr);

    /**
     * True when @p addr's line is resident with aux state exactly
     * @p state, updating LRU as lookup() would; a miss or a state
     * mismatch mutates nothing. Single-scan fusion of
     * probe() + state() + lookup() for hit fast paths.
     */
    bool lookupIfState(Addr addr, std::uint32_t state);

    /** True when present; does not touch LRU (snoop/inspection path). */
    bool probe(Addr addr) const;

    /** Returns the aux state of a resident line. @pre probe(addr). */
    std::uint32_t state(Addr addr) const;

    /** Sets the aux state of a resident line. @pre probe(addr). */
    void setState(Addr addr, std::uint32_t state);

    /**
     * Inserts @p addr's line (must not be resident), evicting the LRU way
     * if the set is full. When @p slot_out is non-null it receives the slot
     * the line now occupies (the victim's former slot on an eviction).
     * @return The victim, if one was evicted.
     */
    std::optional<Victim> insert(Addr addr, std::uint32_t state = 0,
                                 std::uint32_t *slot_out = nullptr);

    /**
     * Slot whose line insert() would evict for @p addr's line right now,
     * or kNoSlot when the set still has an empty way. Mutates nothing.
     */
    std::uint32_t victimSlot(Addr addr) const;

    /** Removes a line if present; returns its state. */
    std::optional<std::uint32_t> invalidate(Addr addr);

    /** Drops every line. */
    void flush();

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }
    std::uint32_t lineBytes() const { return lineBytes_; }

    /**
     * Number of line slots. Slot set * ways + way names one way of one
     * set; a resident line keeps its slot until it is evicted or
     * invalidated, so callers may index side tables by slot.
     */
    std::uint32_t slots() const { return sets_ * ways_; }

    /** Slot holding @p addr's line, or kNoSlot; does not touch LRU. */
    std::uint32_t slotOf(Addr addr) const;

    /** Line resident in @p slot, or nullopt when the slot is empty. */
    std::optional<Addr> lineAt(std::uint32_t slot) const;

    /** Number of resident lines (for inclusion/occupancy checks). */
    std::uint64_t occupancy() const;

    /** Invokes @p fn(line, state) for every resident line. */
    void forEachLine(
        const std::function<void(Addr, std::uint32_t)> &fn) const;

    /** Serializes the full array (tags, aux state, exact LRU order). */
    void saveState(snap::Writer &w) const;
    /** Restores into an identically shaped array (geometry-checked). */
    void restoreState(snap::Reader &r);

  private:
    /** tag_ value of an empty slot; lines are aligned, so never a line. */
    static constexpr Addr kEmpty = ~Addr{0};

    /** First slot of @p addr's set. */
    std::size_t setBase(Addr addr) const
    {
        return static_cast<std::size_t>((addr >> lineShift_) & (sets_ - 1)) *
               ways_;
    }
    /** First empty way of the set at @p base, else its true-LRU way
     *  (the first among equal stamps). */
    std::size_t fillSlot(std::size_t base) const;
    /** Line base address of @p addr. */
    Addr lineOf(Addr addr) const { return addr & ~(Addr{lineBytes_} - 1); }

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t lineBytes_;
    std::uint32_t lineShift_; ///< log2(lineBytes_).
    std::uint64_t useClock_ = 0;
    // Per slot, set-major (slot = set * ways + way), split by field so a
    // set scan reads only the tags.
    std::vector<Addr> tag_;              ///< Resident line, or kEmpty.
    std::vector<std::uint32_t> state_;   ///< Aux state word.
    std::vector<std::uint64_t> lastUse_; ///< LRU stamp from useClock_.
};

} // namespace smappic::cache

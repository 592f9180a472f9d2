#include "cache/cache_array.hpp"

#include <algorithm>
#include <bit>

#include "snap/state_io.hpp"

namespace smappic::cache
{

CacheArray::CacheArray(std::uint64_t size_bytes, std::uint32_t ways,
                       std::uint32_t line_bytes)
    : ways_(ways), lineBytes_(line_bytes)
{
    fatalIf(ways == 0, "cache needs at least one way");
    fatalIf(line_bytes == 0 || !std::has_single_bit(line_bytes),
            "cache line size must be a power of two");
    fatalIf(size_bytes % (static_cast<std::uint64_t>(ways) * line_bytes) != 0,
            "cache size must be a multiple of ways * line size");
    std::uint64_t sets = size_bytes / ways / line_bytes;
    fatalIf(sets == 0 || !std::has_single_bit(sets),
            "cache set count must be a nonzero power of two");
    sets_ = static_cast<std::uint32_t>(sets);
    lineShift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes));
    std::size_t slots = static_cast<std::size_t>(sets_) * ways_;
    tag_.assign(slots, kEmpty);
    state_.assign(slots, 0);
    lastUse_.assign(slots, 0);
}

std::uint32_t
CacheArray::slotOf(Addr addr) const
{
    Addr line = lineOf(addr);
    std::size_t base = setBase(addr);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (tag_[base + w] == line)
            return static_cast<std::uint32_t>(base + w);
    }
    return kNoSlot;
}

std::optional<Addr>
CacheArray::lineAt(std::uint32_t slot) const
{
    Addr line = tag_.at(slot);
    return line != kEmpty ? std::optional<Addr>(line) : std::nullopt;
}

bool
CacheArray::lookup(Addr addr)
{
    std::uint32_t slot = slotOf(addr);
    if (slot == kNoSlot)
        return false;
    lastUse_[slot] = ++useClock_;
    return true;
}

bool
CacheArray::lookupIfState(Addr addr, std::uint32_t state)
{
    std::uint32_t slot = slotOf(addr);
    if (slot == kNoSlot || state_[slot] != state)
        return false;
    lastUse_[slot] = ++useClock_;
    return true;
}

bool
CacheArray::probe(Addr addr) const
{
    return slotOf(addr) != kNoSlot;
}

std::uint32_t
CacheArray::state(Addr addr) const
{
    std::uint32_t slot = slotOf(addr);
    panicIf(slot == kNoSlot, "state() on non-resident line");
    return state_[slot];
}

void
CacheArray::setState(Addr addr, std::uint32_t state)
{
    std::uint32_t slot = slotOf(addr);
    panicIf(slot == kNoSlot, "setState() on non-resident line");
    state_[slot] = state;
}

std::size_t
CacheArray::fillSlot(std::size_t base) const
{
    std::size_t lru = base;
    for (std::size_t s = base; s < base + ways_; ++s) {
        if (tag_[s] == kEmpty)
            return s;
        if (lastUse_[s] < lastUse_[lru])
            lru = s;
    }
    return lru;
}

std::uint32_t
CacheArray::victimSlot(Addr addr) const
{
    std::size_t slot = fillSlot(setBase(addr));
    return tag_[slot] == kEmpty ? kNoSlot : static_cast<std::uint32_t>(slot);
}

std::optional<Victim>
CacheArray::insert(Addr addr, std::uint32_t state, std::uint32_t *slot_out)
{
    panicIf(slotOf(addr) != kNoSlot, "insert() of already-resident line");
    std::size_t slot = fillSlot(setBase(addr));
    std::optional<Victim> victim;
    if (tag_[slot] != kEmpty)
        victim = Victim{tag_[slot], state_[slot]};

    tag_[slot] = lineOf(addr);
    state_[slot] = state;
    lastUse_[slot] = ++useClock_;
    if (slot_out)
        *slot_out = static_cast<std::uint32_t>(slot);
    return victim;
}

std::optional<std::uint32_t>
CacheArray::invalidate(Addr addr)
{
    std::uint32_t slot = slotOf(addr);
    if (slot == kNoSlot)
        return std::nullopt;
    tag_[slot] = kEmpty;
    return state_[slot];
}

void
CacheArray::flush()
{
    std::fill(tag_.begin(), tag_.end(), kEmpty);
}

void
CacheArray::forEachLine(
    const std::function<void(Addr, std::uint32_t)> &fn) const
{
    for (std::size_t s = 0; s < tag_.size(); ++s) {
        if (tag_[s] != kEmpty)
            fn(tag_[s], state_[s]);
    }
}

std::uint64_t
CacheArray::occupancy() const
{
    return static_cast<std::uint64_t>(
        tag_.size() - static_cast<std::size_t>(
                          std::count(tag_.begin(), tag_.end(), kEmpty)));
}

void
CacheArray::saveState(snap::Writer &w) const
{
    w.u32(sets_);
    w.u32(ways_);
    w.u32(lineBytes_);
    w.u64(useClock_);
    for (std::size_t s = 0; s < tag_.size(); ++s) {
        bool valid = tag_[s] != kEmpty;
        w.boolean(valid);
        if (!valid)
            continue;
        w.u64(tag_[s]);
        w.u32(state_[s]);
        w.u64(lastUse_[s]);
    }
}

void
CacheArray::restoreState(snap::Reader &r)
{
    std::uint32_t sets = r.u32();
    std::uint32_t ways = r.u32();
    std::uint32_t line_bytes = r.u32();
    fatalIf(sets != sets_ || ways != ways_ || line_bytes != lineBytes_,
            strfmt("checkpoint cache geometry %ux%u/%uB does not match the "
                   "live array's %ux%u/%uB",
                   sets, ways, line_bytes, sets_, ways_, lineBytes_));
    useClock_ = r.u64();
    for (std::size_t s = 0; s < tag_.size(); ++s) {
        tag_[s] = kEmpty;
        state_[s] = 0;
        lastUse_[s] = 0;
        if (!r.boolean())
            continue;
        Addr line = r.u64();
        fatalIf(line != lineOf(line) ||
                    setBase(line) != s - s % ways_,
                strfmt("checkpoint line 0x%llx sits in the wrong set",
                       static_cast<unsigned long long>(line)));
        tag_[s] = line;
        state_[s] = r.u32();
        lastUse_[s] = r.u64();
    }
}

} // namespace smappic::cache

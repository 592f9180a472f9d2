#include "kernels.hpp"

#include <sstream>

#include "platform/prototype.hpp"
#include "sim/random.hpp"

namespace e2e
{

namespace
{

/** Data words stay below 2^62 so the assembler reads them as written. */
std::uint64_t
dataWord(smappic::sim::Xoroshiro &rng)
{
    return rng.next() >> 2;
}

} // namespace

Kernels
kernelsProgram(std::uint64_t seed, std::uint64_t iterations)
{
    smappic::sim::Xoroshiro rng(seed);
    const std::uint64_t w = dataWord(rng);
    std::uint64_t line[4];
    for (auto &v : line)
        v = dataWord(rng);

    std::ostringstream src;
    src << "_start:\n"
           "    csrr t0, 0xf14\n"
           "    bne t0, zero, copy\n"
           "    la t6, cbuf\n"
           "    li t1, 0\n"
           "    li t2, 1\n"
           "    li t3, 7\n"
           "    li a1, "
        << iterations
        << "\n"
           "cloop:\n"
           "    ld t4, 0(t6)\n"
           "    add t1, t1, t4\n"
           "    xor t2, t2, t1\n"
           "    slli t4, t1, 1\n"
           "    srli t5, t2, 2\n"
           "    add t1, t1, t3\n"
           "    andi t2, t2, 2047\n"
           "    or t1, t1, t0\n"
           "    sub t4, t4, t5\n"
           "    addi a1, a1, -1\n"
           "    bne a1, zero, cloop\n"
           "    xor a0, t1, t2\n"
           "    li a7, 93\n"
           "    ecall\n"
           "copy:\n"
           "    la t6, dbuf\n"
           "    li a1, "
        << iterations
        << "\n"
           "kloop:\n"
           "    ld t2, 0(t6)\n"
           "    ld t3, 8(t6)\n"
           "    ld t4, 16(t6)\n"
           "    ld t5, 24(t6)\n"
           "    add t2, t2, t3\n"
           "    xor t3, t3, t4\n"
           "    add t4, t4, t5\n"
           "    xor t5, t5, t2\n"
           "    sd t2, 0(t6)\n"
           "    sd t3, 8(t6)\n"
           "    sd t4, 16(t6)\n"
           "    sd t5, 24(t6)\n"
           "    addi a1, a1, -1\n"
           "    bne a1, zero, kloop\n"
           "    add a0, t2, t3\n"
           "    add a0, a0, t4\n"
           "    add a0, a0, t5\n"
           "    li a7, 93\n"
           "    ecall\n"
           ".data\n"
           ".align 6\n"
           "cbuf: .dword "
        << w
        << "\n"
           ".align 6\n"
           "dbuf: .dword "
        << line[0] << "\n    .dword " << line[1] << "\n    .dword "
        << line[2] << "\n    .dword " << line[3] << "\n";

    // Host replay of both loops (hart 0's mhartid, t0, is 0).
    std::uint64_t t1 = 0;
    std::uint64_t t2 = 1;
    std::uint64_t a = line[0], b = line[1], c = line[2], d = line[3];
    for (std::uint64_t i = 0; i < iterations; ++i) {
        t1 += w;
        t2 ^= t1;
        t1 += 7;
        t2 &= 2047;
        a += b;
        b ^= c;
        c += d;
        d ^= a;
    }
    return Kernels{src.str(), {t1 ^ t2, a + b + c + d}};
}

namespace
{

/** Offset of hart @p gid's dword: line = local tile, dword = node. */
smappic::Addr
sharedDword(smappic::GlobalTileId gid, std::uint32_t tiles_per_node)
{
    return (gid % tiles_per_node) * smappic::kCacheLineBytes +
           (gid / tiles_per_node) * 8;
}

} // namespace

smappic::Addr
SharingLayout::counter(smappic::GlobalTileId gid,
                       std::uint32_t tiles_per_node) const
{
    return sharedCounter ? counters
                         : counters + sharedDword(gid, tiles_per_node);
}

smappic::Addr
SharingLayout::slot(smappic::GlobalTileId gid,
                    std::uint32_t tiles_per_node) const
{
    return slots + sharedDword(gid, tiles_per_node);
}

Kernels
sharingProgram(std::uint64_t seed, std::uint32_t harts,
               std::uint64_t iterations, bool shared_counter,
               SharingLayout &layout)
{
    constexpr std::uint32_t kTilesPerNode = 4;
    layout.counters = smappic::platform::kDramBase + 0x800000;
    layout.slots = layout.counters + 0x1000;
    layout.sharedCounter = shared_counter;
    layout.incrementsPerHart = (iterations + 63) / 64;
    layout.lastSlotValue = (iterations - 1) / 64 * 64;

    smappic::sim::Xoroshiro rng(seed);
    std::uint64_t words[kTilesPerNode][2];
    for (auto &tile : words) {
        tile[0] = dataWord(rng);
        tile[1] = dataWord(rng);
    }

    std::ostringstream src;
    src << "_start:\n"
           "    csrr t0, 0xf14\n"
           "    li t1, "
        << kTilesPerNode
        << "\n"
           "    remu s1, t0, t1      # local tile\n"
           "    divu s2, t0, t1      # node\n"
           "    la t1, buf           # node-local replica\n"
           "    slli t2, s1, 6\n"
           "    add t1, t1, t2       # this tile's own line\n"
           "    slli t3, s2, 3\n"
           "    add t2, t2, t3       # line of this local tile, dword of this node\n"
           "    li s3, "
        << layout.counters << "\n"
        << (shared_counter ? "" : "    add s3, s3, t2       # own counter\n")
        << "    li s4, "
        << layout.slots
        << "\n"
           "    add s4, s4, t2       # own slot\n"
           "    li a1, "
        << iterations
        << "\n"
           "    li t2, 0\n"
           "    li s5, 1\n"
           "loop:\n"
           "    andi t3, t2, 8\n"
           "    add t4, t1, t3\n"
           "    ld t5, 0(t4)\n"
           "    add t5, t5, t2\n"
           "    sd t5, 0(t4)\n"
           "    andi t3, t2, 63\n"
           "    bne t3, zero, skip\n"
           "    amoadd.d zero, s5, (s3)\n"
           "    sd t2, 0(s4)\n"
           "skip:\n"
           "    addi t2, t2, 1\n"
           "    bne t2, a1, loop\n"
           "    ld a0, 0(t1)\n"
           "    ld t3, 8(t1)\n"
           "    add a0, a0, t3\n"
           "    li a7, 93\n"
           "    ecall\n"
           ".data\n"
           ".align 6\n"
           "buf:\n";
    for (const auto &tile : words)
        src << "    .dword " << tile[0] << "\n    .dword " << tile[1]
            << "\n    .space 48\n";

    std::vector<std::uint64_t> expected(harts);
    for (std::uint32_t h = 0; h < harts; ++h) {
        std::uint64_t x[2] = {words[h % kTilesPerNode][0],
                              words[h % kTilesPerNode][1]};
        for (std::uint64_t i = 0; i < iterations; ++i)
            x[(i & 8) ? 1 : 0] += i;
        expected[h] = x[0] + x[1];
    }
    return Kernels{src.str(), std::move(expected)};
}

} // namespace e2e

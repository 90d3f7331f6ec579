// Tmem addressing. Every page stored in transcendent memory is identified by
// the three-element tuple the paper describes: a pool identifier, a 64-bit
// object identifier and a 32-bit page index within the object. Both the guest
// kernel module and the hypervisor speak in these keys.
#pragma once

#include <cstddef>
#include <cstdint>

namespace smartmem::tmem {

using PoolId = std::uint32_t;
inline constexpr PoolId kInvalidPool = ~0u;

/// Pool semantics, matching Xen tmem:
///  * Ephemeral (cleancache): the hypervisor may drop pages at any time to
///    reclaim space; a get may therefore miss, and a successful get removes
///    the page (it is a victim cache).
///  * Persistent (frontswap): pages are guaranteed to survive until the guest
///    flushes them; a get leaves the page in place, and the guest flushes the
///    key once the corresponding swap slot is freed.
enum class PoolType : std::uint8_t { kEphemeral, kPersistent };

struct TmemKey {
  PoolId pool = kInvalidPool;
  std::uint64_t object = 0;
  std::uint32_t index = 0;

  friend bool operator==(const TmemKey&, const TmemKey&) = default;
};

/// The store hashes each key once per operation and caches the value in its
/// entry, so evictions and index moves never re-mix the key.
struct TmemKeyHash {
  std::size_t operator()(const TmemKey& k) const {
    // splitmix64-style mixing of the three fields.
    std::uint64_t x = k.object;
    x ^= (static_cast<std::uint64_t>(k.pool) << 32) | k.index;
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// Storage tier of a tmem page. The base system is DRAM-only; the Ex-Tmem
/// extension (Venkatesan et al., cited by the paper's conclusions) backs
/// overflow capacity with non-volatile memory: slower per copy, but far
/// cheaper per byte than DRAM and still orders of magnitude faster than the
/// virtual disk. kRemote marks a page served from a donor node's pool over
/// the inter-node fabric (the cluster lending extension): slower again than
/// NVM, but still well below the virtual disk. kCompressed is the
/// zswap-style tier (src/tier): pages kept in DRAM but compressed, charged
/// against a *byte* budget instead of a page count and paying a
/// compress/decompress CPU cost per access. The logical latency chain is
/// DRAM -> compressed -> NVM -> remote; kCompressed is declared last only
/// so the pre-existing enumerator values stay stable.
enum class Tier : std::uint8_t { kDram, kNvm, kRemote, kCompressed };

/// Simulated page contents. The model does not copy real 4 KiB payloads; an
/// opaque 64-bit token stands in for the data so that tests can verify that
/// a get returns exactly what the matching put stored.
using PagePayload = std::uint64_t;

}  // namespace smartmem::tmem

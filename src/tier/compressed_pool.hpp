// A zswap-style compressed tier: pages stored compressed in a byte budget.
//
// Unlike the page-granular DRAM/NVM tiers, the compressed pool's capacity is
// *bytes*: a page occupies ceil(kPageSize / ratio) bytes, so its effective
// page capacity is elastic — a pool of B bytes holds between B/kPageSize
// (incompressible) and 8*B/kPageSize (best-case) pages, depending on what
// the tenants store. The pool is a pure accounting ledger: the entries
// themselves live in the TmemStore's entry map (tier = kCompressed) and the
// store asks the pool three questions — how many bytes would this page
// cost, does it fit, and charge/release it.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "tier/compressibility.hpp"
#include "tmem/key.hpp"

namespace smartmem::obs {
class Registry;
}

namespace smartmem::tier {

struct CompressedPoolConfig {
  /// Byte budget of the tier. 0 disables the tier entirely (the default —
  /// the store's tier chain is then byte-identical to the pre-tier system).
  std::uint64_t capacity_bytes = 0;
  CompressibilityConfig model;
};

class CompressedPool {
 public:
  explicit CompressedPool(CompressedPoolConfig config)
      : config_(config), model_(config.model) {}

  bool enabled() const { return config_.capacity_bytes > 0; }

  /// Bytes the page at (vm, kind, object, index) occupies when compressed.
  /// Deterministic: a pure hash, identical across threads and call orders.
  std::uint32_t page_bytes(VmId vm, tmem::PoolType kind, std::uint64_t object,
                           std::uint32_t index) const {
    return model_.compressed_bytes(vm, kind, object, index);
  }

  bool fits(std::uint32_t bytes) const {
    return enabled() && bytes_used_ + bytes <= config_.capacity_bytes;
  }

  /// Charges `bytes` to the budget (the caller has checked fits()).
  void add(std::uint32_t bytes);

  /// Releases a previously charged page.
  void remove(std::uint32_t bytes);

  std::uint64_t capacity_bytes() const { return config_.capacity_bytes; }
  std::uint64_t bytes_used() const { return bytes_used_; }
  std::uint64_t free_bytes() const {
    return config_.capacity_bytes - bytes_used_;
  }
  std::uint64_t peak_bytes() const { return peak_bytes_; }
  /// Pages currently resident in the tier.
  PageCount pages() const { return pages_; }
  PageCount peak_pages() const { return peak_pages_; }

  const CompressibilityModel& model() const { return model_; }

  /// Registers the tier's byte/occupancy gauges under `prefix`
  /// (e.g. "tier.compressed."). No-op columns when the tier is disabled —
  /// callers should only register when enabled() to keep metric sets stable.
  void register_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  CompressedPoolConfig config_;
  CompressibilityModel model_;
  std::uint64_t bytes_used_ = 0;
  std::uint64_t peak_bytes_ = 0;
  PageCount pages_ = 0;
  PageCount peak_pages_ = 0;
};

}  // namespace smartmem::tier

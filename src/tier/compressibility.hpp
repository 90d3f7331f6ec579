// Deterministic per-workload compressibility model for the compressed tier.
//
// Real zswap stores each page at whatever size the compressor achieves; what
// matters for capacity planning is the *distribution* of ratios a workload
// produces (text and zeroed heap compress 4-8x, encrypted or already-packed
// data barely 1x). The simulator does not carry real 4 KiB payloads, so the
// model synthesizes a per-page compressed size as a pure hash of
// (seed, vm, pool kind, object, index):
//
//   * per-(vm, kind) mean ratio — each VM's frontswap and cleancache streams
//     get a stable characteristic ratio drawn from [min_ratio, max_ratio],
//     so VMs differ the way real tenants do;
//   * per-page jitter around that mean, so a pool is not uniform.
//
// Being a pure hash (no shared RNG stream) the model is order-independent:
// the same key compresses to the same size no matter which thread, shard or
// interleaving asks, which is what keeps multi-threaded runs bit-identical.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "tmem/key.hpp"

namespace smartmem::tier {

struct CompressibilityConfig {
  /// Seed mixed into every hash. 0 asks the scenario runner to derive one
  /// from the run seed (node_config_for), so repetitions see different —
  /// but reproducible — workload compressibility; tests and targeted
  /// ablations set an explicit value.
  std::uint64_t seed = 0;
  /// Per-(vm, kind) mean ratios are drawn uniformly from this range.
  double min_ratio = 1.5;
  double max_ratio = 4.0;
};

class CompressibilityModel {
 public:
  explicit CompressibilityModel(CompressibilityConfig config)
      : config_(config) {}

  /// Characteristic mean ratio of (vm, kind) — a pure function of the seed.
  double mean_ratio(VmId vm, tmem::PoolType kind) const;

  /// Compressed size in bytes of the page at (vm, kind, object, index).
  /// Pure function of the seed: order- and thread-independent. Always in
  /// [kPageSize/8, kPageSize].
  std::uint32_t compressed_bytes(VmId vm, tmem::PoolType kind,
                                 std::uint64_t object,
                                 std::uint32_t index) const;

  const CompressibilityConfig& config() const { return config_; }

 private:
  CompressibilityConfig config_;
};

}  // namespace smartmem::tier

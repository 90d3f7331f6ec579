#include "tier/compressibility.hpp"

#include <algorithm>
#include <cmath>

namespace smartmem::tier {

namespace {

/// Per-page jitter: the page ratio is mean * (1 +/- kJitter), clamped to
/// [1.0, 8.0] (a page never grows, and >8x is unrealistic for 4 KiB).
constexpr double kJitter = 0.25;

/// splitmix64 finalizer: the same mixer the key hash and the Rng seeder use.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hash value (53 mantissa bits).
double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

double CompressibilityModel::mean_ratio(VmId vm, tmem::PoolType kind) const {
  const std::uint64_t h =
      mix64(config_.seed ^ mix64((static_cast<std::uint64_t>(vm) << 8) |
                                 static_cast<std::uint64_t>(kind)));
  const double lo = std::min(config_.min_ratio, config_.max_ratio);
  const double hi = std::max(config_.min_ratio, config_.max_ratio);
  return lo + (hi - lo) * unit(h);
}

std::uint32_t CompressibilityModel::compressed_bytes(
    VmId vm, tmem::PoolType kind, std::uint64_t object,
    std::uint32_t index) const {
  const double mean = mean_ratio(vm, kind);
  // Page-level jitter: hash the full key so the same page always compresses
  // to the same size, independent of call order.
  std::uint64_t h = mix64(config_.seed ^ mix64(object) ^
                          mix64((static_cast<std::uint64_t>(vm) << 40) |
                                (static_cast<std::uint64_t>(kind) << 32) |
                                index));
  const double wobble = 1.0 + kJitter * (2.0 * unit(h) - 1.0);
  const double ratio = std::clamp(mean * wobble, 1.0, 8.0);
  // ceil(page / ratio), clamped to [kPageSize/8, kPageSize] (the ratio clamp
  // guarantees it, but keep the accounting invariant explicit).
  const auto out = static_cast<std::uint32_t>(
      std::ceil(static_cast<double>(kPageSize) / ratio));
  return std::clamp(out, static_cast<std::uint32_t>(kPageSize / 8),
                    static_cast<std::uint32_t>(kPageSize));
}

}  // namespace smartmem::tier

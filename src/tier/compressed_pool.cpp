#include "tier/compressed_pool.hpp"

#include <algorithm>
#include <cassert>

#include "obs/registry.hpp"

namespace smartmem::tier {

void CompressedPool::add(std::uint32_t bytes) {
  assert(enabled() && bytes_used_ + bytes <= config_.capacity_bytes);
  bytes_used_ += bytes;
  ++pages_;
  peak_bytes_ = std::max(peak_bytes_, bytes_used_);
  peak_pages_ = std::max(peak_pages_, pages_);
}

void CompressedPool::remove(std::uint32_t bytes) {
  assert(bytes_used_ >= bytes && pages_ > 0);
  bytes_used_ -= bytes;
  --pages_;
}

void CompressedPool::register_metrics(obs::Registry& reg,
                                      const std::string& prefix) const {
  reg.add_gauge(prefix + "bytes_used",
                [this] { return static_cast<double>(bytes_used_); });
  reg.add_gauge(prefix + "capacity_bytes", [this] {
    return static_cast<double>(config_.capacity_bytes);
  });
  reg.add_gauge(prefix + "pages",
                [this] { return static_cast<double>(pages_); });
  reg.add_gauge(prefix + "peak_bytes",
                [this] { return static_cast<double>(peak_bytes_); });
}

}  // namespace smartmem::tier

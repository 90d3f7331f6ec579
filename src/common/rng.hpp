// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic decision in the model (workload access patterns, jitter)
// draws from an explicitly-passed Rng so that a scenario run is a pure
// function of its seed. The generator is xoshiro256** (Blackman & Vigna),
// seeded through splitmix64; it is far faster than std::mt19937_64 and has
// no measurable bias for the distributions used here.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

namespace smartmem {

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// UniformRandomBitGenerator interface.
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t uniform_range(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform_double();

  /// Bernoulli trial with probability `p` of returning true.
  bool chance(double p);

  /// Derives an independent stream (for giving each VM its own generator).
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_;
};

/// Zipf-distributed sampler over {0, ..., n-1} with exponent `s`.
///
/// Draws by the rejection-inversion method of Hörmann & Derflinger: each
/// step maps one uniform draw to a point u and either accepts a rank or
/// rejects and draws again. A table over the first ranks decides most steps
/// by comparing u with the ranks' boundaries in u-space. A step whose u lies
/// within a guard band of a boundary, or past the tabulated head, computes
/// the inverse as the table-free method does, so every draw and the number
/// of rng values consumed equal the table-free computation's (DESIGN §16).
/// Tables are immutable and shared process-wide per exact (n, s), so a
/// sampler is cheap to construct for a pair seen before.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);

  std::uint64_t sample(Rng& rng) const;

  /// One rejection-inversion step at a `u` in the range sample() draws
  /// from, [H(1.5) - 1, H(n + 1/2)] for H the antiderivative of x^-s: the
  /// 0-based rank it accepts, or n() when it rejects. sample() takes steps
  /// at fresh u until one accepts.
  std::uint64_t step(double u) const;

  /// Whether the table decides the step at `u` (false in a guard band, past
  /// the tabulated head, and for a sampler without a table).
  bool tabulated(double u) const;

  /// Ranks the table covers: min(n, a fixed head bound), lower where the
  /// table's error bound does not hold up to that bound, 0 for no table.
  std::uint64_t table_ranks() const;

  std::uint64_t n() const { return n_; }
  double exponent() const { return s_; }

 private:
  struct Table;

  double h(double x) const;
  double h_integral(double x) const;
  double h_integral_inverse(double x) const;
  /// The step computed without the table.
  std::uint64_t reference_step(double u) const;
  /// Table lookup: the step's result, or kUndecided.
  std::uint64_t table_step(double u) const;
  std::shared_ptr<const Table> build_table() const;

  static constexpr std::uint64_t kUndecided = ~0ULL;

  std::uint64_t n_;
  double s_;
  double h_integral_x1_;
  double h_integral_n_;
  double threshold_;
  std::shared_ptr<const Table> table_;
};

}  // namespace smartmem

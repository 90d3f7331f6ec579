#include "common/rng.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace smartmem {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire's multiply-shift rejection method: unbiased and division-free in
  // the common case.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::uniform_range(std::uint64_t lo, std::uint64_t hi) {
  assert(lo <= hi);
  return lo + uniform(hi - lo + 1);
}

double Rng::uniform_double() {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_double() < p;
}

Rng Rng::split() {
  return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

// ---- ZipfSampler -------------------------------------------------------------
//
// In u-space, rank k (1-based) is [R(k-1), R(k)) with R(k) = H(k + 1/2),
// where H is h_integral. A step at u accepts k when u >= T(k) = H(k - t),
// t the threshold, or else when u >= B(k) = H(k + 1/2) - h(k). The table
// stores B(k) computed by the reference's own expression, so comparing u
// with it is exact. R and T are where the reference's floating-point inverse
// changes its answer, and that inverse may err near them: the table decides
// only a u more than `guard` away from every boundary, a distance derived
// from the inverse's error bound (DESIGN §16).

namespace {

// A u whose exact inverse lies within this relative distance of a boundary
// falls back to the reference computation.
constexpr double kGuardRel = 0x1p-30;

// Head bound: ranks past it fall back to the reference computation. A
// table over every rank of a large window spills out of the cache and
// reads slower than the computation it replaces.
constexpr std::uint64_t kMaxTableRanks = 4096;

// Bound on the relative error of the reference's inverse, computed as
// exp(log1p(u * sigma) / sigma) (or exp(u) near sigma = 0) plus the rounding
// of x + 0.5, for an exact inverse in [0.5, x_max], with libm's exp, log,
// log1p and expm1 within 4 ulp (DESIGN §16).
double inverse_error_bound(double sigma, double x_max) {
  const auto cond = [sigma](double x) {
    return std::abs(sigma) > 1e-8
               ? std::abs(std::expm1(-sigma * std::log(x))) / std::abs(sigma)
               : 0.0;
  };
  return 0x1p-52 * (6.0 * std::log(2.0 * x_max) +
                    std::max(cond(0.49), cond(x_max)) + 8.0);
}

}  // namespace

struct ZipfSampler::Table {
  // Rank k's boundaries at index k; index 0 holds only rank 1's lower edge.
  struct Rank {
    double thr;     // T(k): the step accepts at or above
    double accept;  // B(k): below thr, the step accepts at or above
    double hi;      // R(k); +inf for rank n
  };
  std::vector<Rank> ranks;
  // Per equal-width cell of u-space: a rank at or below the rank of every u
  // in the cell, where the lookup's forward scan starts.
  std::vector<std::uint32_t> guide;
  double lo = 0.0;  // R(0)
  double decide_below = 0.0;
  double guard = 0.0;
  double cell_scale = 0.0;

  // The guide cell of a u at distance d >= 0 above lo. Lookup and build
  // share this expression, so a u at or above a boundary never gets a
  // lower cell than the boundary.
  std::size_t cell_of(double d) const {
    const double pos = d * cell_scale;
    const std::size_t last = guide.size() - 1;
    return pos < static_cast<double>(last) ? static_cast<std::size_t>(pos)
                                           : last;
  }
};

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  assert(n >= 1);
  assert(s >= 0.0);
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_n_ = h_integral(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));

  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, std::uint64_t>,
                  std::shared_ptr<const Table>>
      tables;
  const std::lock_guard<std::mutex> lock(mu);
  const auto [it, fresh] =
      tables.try_emplace({n_, std::bit_cast<std::uint64_t>(s_)});
  if (fresh) it->second = build_table();
  table_ = it->second;
}

std::shared_ptr<const ZipfSampler::Table> ZipfSampler::build_table() const {
  const double sigma = 1.0 - s_;
  std::uint64_t head = std::min(n_, kMaxTableRanks);
  while (head > 0 &&
         inverse_error_bound(sigma, static_cast<double>(head) + 1.0) >
             kGuardRel / 4) {
    head /= 2;
  }
  if (head == 0) return nullptr;

  auto t = std::make_shared<Table>();
  // Widens the guard to cover the boundary at x = beta, whose cut is c:
  // the u-space image of beta's relative guard band, plus the error of c.
  const auto cover = [&](double beta, double c) {
    const double band = h_integral(beta * (1.0 + kGuardRel)) -
                        h_integral(beta * (1.0 - kGuardRel));
    const double log_beta = std::log(beta);
    const double err = 0x1p-48 * (std::exp(sigma * log_beta) *
                                      std::abs(log_beta) +
                                  std::abs(c) + 1.0);
    t->guard = std::max(t->guard, band + err);
    return c;
  };
  t->lo = cover(0.5, h_integral(0.5));
  t->ranks.resize(head + 1);
  t->ranks[0].hi = t->lo;
  for (std::uint64_t k = 1; k <= head; ++k) {
    const double kd = static_cast<double>(k);
    const double beta = kd - threshold_;
    Table::Rank& r = t->ranks[k];
    r.thr = std::max(cover(beta, h_integral(beta)), t->ranks[k - 1].hi);
    const double upper = h_integral(kd + 0.5);
    r.accept = upper - h(kd);
    r.hi = k == n_ ? std::numeric_limits<double>::infinity()
                   : cover(kd + 0.5, upper);
  }
  t->decide_below = head < n_ ? t->ranks[head].hi - t->guard
                               : std::numeric_limits<double>::infinity();

  // Rank k + 1's lower edge is ranks[k].hi. guide[i] is the highest rank
  // whose lower edge falls in a cell below i: rounding is monotonic, so
  // every u in cell i is at or above that edge.
  const double top = head < n_ ? t->ranks[head].hi : h_integral_n_;
  const std::size_t cells = head;
  t->cell_scale = static_cast<double>(cells) / (top - t->lo);
  t->guide.resize(cells);
  std::uint64_t k = 1;
  for (std::size_t i = 0; i < cells; ++i) {
    while (k < head && t->cell_of(t->ranks[k].hi - t->lo) < i) ++k;
    t->guide[i] = static_cast<std::uint32_t>(k);
  }
  return t;
}

double ZipfSampler::h(double x) const { return std::exp(-s_ * std::log(x)); }

double ZipfSampler::h_integral(double x) const {
  // Antiderivative of t^-s evaluated at x: (x^(1-s) - 1) / (1-s), computed
  // via expm1/log for stability, with the s == 1 limit equal to ln(x).
  const double log_x = std::log(x);
  if (std::abs(1.0 - s_) > 1e-8) {
    return std::expm1((1.0 - s_) * log_x) / (1.0 - s_);
  }
  return log_x;
}

double ZipfSampler::h_integral_inverse(double x) const {
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;
  if (std::abs(1.0 - s_) > 1e-8) {
    return std::exp(std::log1p(t) / (1.0 - s_));
  }
  return std::exp(x);
}

std::uint64_t ZipfSampler::reference_step(double u) const {
  const double x = h_integral_inverse(u);
  std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
  if (k < 1) k = 1;
  if (k > n_) k = n_;
  const double kd = static_cast<double>(k);
  if (kd - x <= threshold_ || u >= h_integral(kd + 0.5) - h(kd)) {
    return k - 1;  // shift to 0-based
  }
  return n_;
}

std::uint64_t ZipfSampler::table_step(double u) const {
  const Table& t = *table_;
  const double d = u - t.lo;
  if (!(d > t.guard && u < t.decide_below)) return kUndecided;
  std::size_t k = t.guide[t.cell_of(d)];
  while (u >= t.ranks[k].hi) ++k;
  const Table::Rank& r = t.ranks[k];
  if (u - t.ranks[k - 1].hi > t.guard && r.hi - u > t.guard &&
      std::abs(u - r.thr) > t.guard) {
    return u >= r.thr || u >= r.accept ? k - 1 : n_;
  }
  return kUndecided;
}

std::uint64_t ZipfSampler::step(double u) const {
  if (table_) {
    const std::uint64_t k = table_step(u);
    if (k != kUndecided) return k;
  }
  return reference_step(u);
}

bool ZipfSampler::tabulated(double u) const {
  return table_ && table_step(u) != kUndecided;
}

std::uint64_t ZipfSampler::table_ranks() const {
  return table_ ? table_->ranks.size() - 1 : 0;
}

std::uint64_t ZipfSampler::sample(Rng& rng) const {
  while (true) {
    const double u =
        h_integral_n_ + rng.uniform_double() * (h_integral_x1_ - h_integral_n_);
    const std::uint64_t k = step(u);
    if (k < n_) return k;
  }
}

}  // namespace smartmem

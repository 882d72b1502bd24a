// The benchmark's own seeded input model and the constants the generator, the
// checker and the harness share. It is kept apart from the program's
// generators (src/graph/generators) so that a change there cannot change a
// workload, and it includes no program header: the checker rebuilds the same
// graph from the seed without using any of the program's code.
//
// Model: the web-crawl model the program documents in
// src/graph/generators.hpp, with the parameters `spnl_gen --model=webcrawl`
// uses by default (the graphs behind the project's reference figures):
//   * Out-degrees follow a bounded Pareto law with tail index 2.0 and mean 10
//     (x_min = 5), rounded, at least 1 and at most 2^14.
//   * With probability 0.6 a vertex first copies each entry of a predecessor
//     1..8 ids back with probability 0.5 (the web copying model: consecutively
//     crawled pages share link lists).
//   * Every further edge is local with probability 0.9: v ± max(1, round(
//     Exp(mean 64))), reflected at the ends (a BFS crawl numbers neighbours
//     at nearby ids). Otherwise it points to the target of a uniformly random
//     earlier edge with probability 0.75 (preferential attachment, heavy
//     in-degrees) or to a uniformly random id.
//   * Lists are sorted and de-duplicated; there are no self-loops.
// The random tenant is the same graph under a seeded random relabeling π:
// vertex π(v) has out-neighbours π(u), sorted and listed in new-id order, so
// the stream carries no id locality.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// |V| of every generated graph.
inline constexpr std::uint32_t kVertices = 1'000'000;

/// The capacity slack of the partitions: a partition may hold slack·|V|/K
/// vertices. It must match the tools' default (PartitionConfig::slack), since
/// the workloads run the tools with their defaults.
inline constexpr double kSlack = 1.1;

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double p) { return unit() < p; }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// CSR adjacency: out-neighbours of v are targets[offsets[v] .. offsets[v+1]).
struct Csr {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> targets;

  std::uint32_t num_vertices() const {
    return static_cast<std::uint32_t>(offsets.size() - 1);
  }
  std::uint64_t num_edges() const { return targets.size(); }
};

inline Csr generate_crawl(std::uint32_t n, std::uint64_t seed) {
  constexpr double kMeanDegree = 10.0, kAlpha = 2.0, kLocality = 0.9, kScale = 64.0;
  constexpr double kCopyProb = 0.6, kCopyFraction = 0.5, kPreferential = 0.75;
  const std::uint64_t cap = std::min<std::uint64_t>(1u << 14, n - 1);
  const double x_min = kMeanDegree * (kAlpha - 1.0) / kAlpha;
  Rng rng(seed * 0x2545f4914f6cdd1dull + 0x5f0fa11ull);
  Csr g;
  g.offsets.reserve(std::size_t{n} + 1);
  g.offsets.push_back(0);
  g.targets.reserve(std::size_t{n} * 10);
  const std::int64_t size = n;
  std::vector<std::uint32_t> adj;
  for (std::int64_t v = 0; v < size; ++v) {
    const double raw = x_min / std::pow(1.0 - rng.unit(), 1.0 / kAlpha);
    const auto degree = std::clamp<std::uint64_t>(std::llround(raw), 1, cap);
    adj.clear();
    if (v > 0 && rng.chance(kCopyProb)) {
      const std::int64_t ref = v - 1 - static_cast<std::int64_t>(
                                           rng.below(std::min<std::int64_t>(v, 8)));
      for (std::uint64_t e = g.offsets[ref]; e < g.offsets[ref + 1]; ++e) {
        if (adj.size() >= degree) break;
        if (rng.chance(kCopyFraction) && g.targets[e] != v) adj.push_back(g.targets[e]);
      }
    }
    while (adj.size() < degree) {
      std::int64_t u = 0;
      if (rng.chance(kLocality)) {
        const auto step = std::max<std::int64_t>(
            1, std::llround(-kScale * std::log(1.0 - rng.unit())));
        u = rng.chance(0.5) ? v + step : v - step;
        if (u < 0) u = -u;
        if (u >= size) u = 2 * size - 2 - u;
        u = std::max<std::int64_t>(u, 0);
      } else if (!g.targets.empty() && rng.chance(kPreferential)) {
        u = g.targets[rng.below(g.targets.size())];
      } else {
        u = static_cast<std::int64_t>(rng.below(n));
      }
      if (u != v) adj.push_back(static_cast<std::uint32_t>(u));
    }
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
    g.targets.insert(g.targets.end(), adj.begin(), adj.end());
    g.offsets.push_back(g.targets.size());
  }
  return g;
}

/// The seeded random relabeling π of 0..n-1 (Fisher–Yates).
inline std::vector<std::uint32_t> relabeling(std::uint32_t n, std::uint64_t seed) {
  Rng rng(seed ^ 0x7e1abe1ed0000001ull);
  std::vector<std::uint32_t> pi(n);
  for (std::uint32_t i = 0; i < n; ++i) pi[i] = i;
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(pi[i - 1], pi[rng.below(i)]);
  }
  return pi;
}

/// `g` under π, listed in new-id order with each list sorted.
inline Csr relabel(const Csr& g, const std::vector<std::uint32_t>& pi) {
  const std::uint32_t n = g.num_vertices();
  std::vector<std::uint32_t> inverse(n);
  for (std::uint32_t v = 0; v < n; ++v) inverse[pi[v]] = v;
  Csr out;
  out.offsets.reserve(std::size_t{n} + 1);
  out.offsets.push_back(0);
  out.targets.reserve(g.targets.size());
  for (std::uint32_t w = 0; w < n; ++w) {
    const std::uint32_t old = inverse[w];
    const auto begin = out.targets.size();
    for (std::uint64_t e = g.offsets[old]; e < g.offsets[old + 1]; ++e) {
      out.targets.push_back(pi[g.targets[e]]);
    }
    std::sort(out.targets.begin() + static_cast<std::ptrdiff_t>(begin), out.targets.end());
    out.offsets.push_back(out.targets.size());
  }
  return out;
}

/// Input variants: "ordered" (the crawl as generated) or "random" (relabeled).
inline Csr build_graph(const std::string& variant, std::uint32_t n, std::uint64_t seed) {
  if (variant != "ordered" && variant != "random") {
    throw std::invalid_argument("unknown graph variant '" + variant + "'");
  }
  Csr g = generate_crawl(n, seed);
  if (variant == "random") return relabel(g, relabeling(n, seed));
  return g;
}

}  // namespace perfbench

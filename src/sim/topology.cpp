#include "sim/topology.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "geom/spatial_grid.hpp"
#include "util/contracts.hpp"

namespace rrnet::sim {

namespace {
std::vector<geom::Vec2> channel_positions(const phy::Channel& channel) {
  std::vector<geom::Vec2> positions;
  positions.reserve(channel.node_count());
  for (std::uint32_t i = 0; i < channel.node_count(); ++i) {
    positions.push_back(channel.position(i));
  }
  return positions;
}
}  // namespace

Topology::Topology(const phy::Channel& channel)
    : Topology(channel_positions(channel), channel.nominal_range_m()) {}

Topology::Topology(const std::vector<geom::Vec2>& positions, double range_m)
    : adjacency_(positions.size()) {
  const auto n = static_cast<std::uint32_t>(positions.size());
  if (n == 0) return;
  // Candidates come from grid range queries; the exact test below is the
  // one an all-pairs scan applies, and query output is sorted by id, so
  // every list is the same ascending list that scan builds. The grid wants
  // coordinates inside [0, w] x [0, h]: it indexes positions shifted to the
  // bounding box, queried with a little slack for the shift's rounding,
  // while the edge test uses the original coordinates.
  geom::Vec2 lo = positions[0];
  geom::Vec2 hi = positions[0];
  for (const geom::Vec2 p : positions) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  std::vector<geom::Vec2> shifted;
  shifted.reserve(n);
  for (const geom::Vec2 p : positions) shifted.push_back(p - lo);
  const double width = hi.x - lo.x;
  const double height = hi.y - lo.y;
  // Cells of at least the range (a query scans 3x3) and never many more
  // cells than nodes.
  const double cell = std::max(
      {range_m, std::sqrt(width * height / n),
       std::max(width, height) / (4.0 * n), 1e-9});
  const geom::SpatialGrid grid(
      geom::Terrain(std::max(width, cell), std::max(height, cell)), cell,
      shifted);
  const double magnitude = std::max({std::abs(lo.x), std::abs(lo.y),
                                     std::abs(hi.x), std::abs(hi.y)});
  const double slack = 1e-9 * (range_m + magnitude);
  const double range_sq = range_m * range_m;
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t i = 0; i < n; ++i) {
    grid.query(shifted[i], range_m + slack, candidates);
    for (const std::uint32_t j : candidates) {
      if (j != i &&
          geom::distance_sq(positions[i], positions[j]) <= range_sq) {
        adjacency_[i].push_back(j);
      }
    }
  }
}

const std::vector<std::uint32_t>& Topology::neighbors(
    std::uint32_t node) const {
  RRNET_EXPECTS(node < adjacency_.size());
  return adjacency_[node];
}

double Topology::average_degree() const noexcept {
  if (adjacency_.empty()) return 0.0;
  std::size_t edges2 = 0;
  for (const auto& list : adjacency_) edges2 += list.size();
  return static_cast<double>(edges2) / static_cast<double>(adjacency_.size());
}

int Topology::hop_distance(std::uint32_t from, std::uint32_t to) const {
  RRNET_EXPECTS(from < adjacency_.size());
  RRNET_EXPECTS(to < adjacency_.size());
  if (from == to) return 0;
  std::vector<int> dist(adjacency_.size(), -1);
  std::queue<std::uint32_t> queue;
  dist[from] = 0;
  queue.push(from);
  while (!queue.empty()) {
    const std::uint32_t u = queue.front();
    queue.pop();
    for (const std::uint32_t v : adjacency_[u]) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        if (v == to) return dist[v];
        queue.push(v);
      }
    }
  }
  return -1;
}

bool Topology::connected() const {
  return largest_component() == adjacency_.size();
}

std::size_t Topology::largest_component() const {
  std::vector<bool> seen(adjacency_.size(), false);
  std::size_t best = 0;
  for (std::uint32_t root = 0; root < adjacency_.size(); ++root) {
    if (seen[root]) continue;
    std::size_t size = 0;
    std::queue<std::uint32_t> queue;
    queue.push(root);
    seen[root] = true;
    while (!queue.empty()) {
      const std::uint32_t u = queue.front();
      queue.pop();
      ++size;
      for (const std::uint32_t v : adjacency_[u]) {
        if (!seen[v]) {
          seen[v] = true;
          queue.push(v);
        }
      }
    }
    best = std::max(best, size);
  }
  return best;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> draw_connected_pairs(
    const Topology& topology, std::size_t pairs, des::Rng& rng, int min_hops,
    std::size_t max_attempts) {
  RRNET_EXPECTS(topology.node_count() >= 2);
  const auto n = static_cast<std::int64_t>(topology.node_count());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  out.reserve(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    std::pair<std::uint32_t, std::uint32_t> chosen{0, 1};
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      const auto src = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
      const auto dst = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
      if (src == dst) continue;
      chosen = {src, dst};
      const int hops = topology.hop_distance(src, dst);
      if (hops >= min_hops) break;
    }
    out.push_back(chosen);
  }
  return out;
}

}  // namespace rrnet::sim

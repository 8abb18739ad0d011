#pragma once

/// \file diffusion_pick.hpp
/// The cell pick of the placer's bin diffusion (placer.cpp). An overfull bin
/// sheds cells one at a time toward a chosen neighbour. Each time it moves
/// the cell closest to that neighbour's edge, i.e. the leftmost bucket
/// position holding the largest or smallest x or y, and swap-removes it
/// from the bucket.

#include <array>
#include <cstddef>
#include <vector>

namespace m3d {

/// Tournament tree over the positions of one bin's bucket. Every node keeps,
/// for each of the four directions, the leftmost position in its subtree
/// holding the extreme coordinate. pick() reads the root in O(1) and
/// swapRemove() re-plays the bucket's swap-remove on the two leaves it
/// changes in O(log k).
///
/// A combine takes the right child's position only when its coordinate is
/// strictly better than the left child's, so ties go to the smaller
/// position. That is what a left-to-right scan with a strict comparison
/// returns; fed the same removals, tree and scan pick the same position
/// every time. Coordinates must be finite.
class DiffusionPick {
 public:
  enum Dir { kMaxX = 0, kMinX = 1, kMaxY = 2, kMinY = 3 };

  /// Builds the tree over \p bucket: position p holds the cell bucket[p] at
  /// (x[bucket[p]], y[bucket[p]]). Keeps its allocations across builds.
  void build(const std::vector<int>& bucket, const std::vector<double>& x,
             const std::vector<double>& y) {
    count_ = bucket.size();
    leaves_ = 1;
    while (leaves_ < count_) leaves_ <<= 1;
    kx_.resize(count_);
    ky_.resize(count_);
    node_.assign(2 * leaves_, kEmpty);
    for (std::size_t p = 0; p < count_; ++p) {
      const auto cell = static_cast<std::size_t>(bucket[p]);
      kx_[p] = x[cell];
      ky_[p] = y[cell];
      const int pos = static_cast<int>(p);
      node_[leaves_ + p] = {pos, pos, pos, pos};
    }
    for (std::size_t i = leaves_ - 1; i >= 1; --i) combine(i);
  }

  std::size_t size() const { return count_; }

  /// Leftmost position holding the extreme coordinate of \p d. Requires
  /// size() > 0.
  std::size_t pick(Dir d) const { return static_cast<std::size_t>(node_[1][d]); }

  /// Mirrors `bucket[pos] = bucket.back(); bucket.pop_back();`.
  void swapRemove(std::size_t pos) {
    const std::size_t last = count_ - 1;
    kx_[pos] = kx_[last];
    ky_[pos] = ky_[last];
    --count_;
    node_[leaves_ + last] = kEmpty;
    refresh(last);
    if (pos != last) refresh(pos);
  }

 private:
  using Node = std::array<int, 4>;
  static constexpr Node kEmpty = {-1, -1, -1, -1};

  /// The better of positions \p a (left) and \p b (right) under \p key; the
  /// left one wins ties.
  template <bool kMax>
  static int better(int a, int b, const std::vector<double>& key) {
    if (a < 0) return b;
    if (b < 0) return a;
    const double ka = key[static_cast<std::size_t>(a)];
    const double kb = key[static_cast<std::size_t>(b)];
    return (kMax ? kb > ka : kb < ka) ? b : a;
  }

  void combine(std::size_t i) {
    const Node& l = node_[2 * i];
    const Node& r = node_[2 * i + 1];
    node_[i] = {better<true>(l[kMaxX], r[kMaxX], kx_), better<false>(l[kMinX], r[kMinX], kx_),
                better<true>(l[kMaxY], r[kMaxY], ky_), better<false>(l[kMinY], r[kMinY], ky_)};
  }

  /// Recomputes the ancestors of leaf \p pos.
  void refresh(std::size_t pos) {
    for (std::size_t i = (leaves_ + pos) >> 1; i >= 1; i >>= 1) combine(i);
  }

  std::size_t count_ = 0;
  std::size_t leaves_ = 1;
  std::vector<double> kx_;  ///< x of the cell at each position.
  std::vector<double> ky_;
  std::vector<Node> node_;  ///< node_[1] is the root; leaves start at leaves_.
};

}  // namespace m3d

#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"

namespace imap::core {

/// K-nearest-neighbour state-density estimator (Sec. 5.2, "State Density
/// Approximation"): d(s) ≈ 1 / ‖s − s*_D‖ where s*_D is the k-th nearest
/// stored state. Nonparametric and forgetting-free, unlike RND/ICM-style
/// prediction-error estimators — which is why the paper uses it.
///
/// Capacity is bounded; once full, *reservoir sampling* keeps the stored set
/// a uniform subsample of everything ever added, so the union buffer B still
/// represents the full historical mixture ρ^α = Σ_i d^{π_i^α}.
class KnnBuffer {
 public:
  KnnBuffer(std::size_t dim, std::size_t capacity, std::size_t k, Rng rng);

  void add(const double* s);
  void add(const std::vector<double>& s);

  /// Squared k-th-neighbour distance of each of `n` queries (row-major,
  /// stride dim()) into out[0..n); +inf when fewer than k states are stored.
  /// Exact brute force through the active backend's knn_scan kernel: vector
  /// lanes across stored rows, pool threads across query tiles. Each query's
  /// result is the serial scan's bit for bit, for any backend and any thread
  /// count.
  void knn_distance_sq_batch(const double* queries, std::size_t n,
                             double* out) const;

  /// Squared k-th-neighbour distance of one query: a batch of one.
  double knn_distance_sq(const double* s) const;
  double knn_distance_sq(const std::vector<double>& s) const;

  /// Euclidean distance from `s` to its k-th nearest stored neighbour
  /// (sqrt of knn_distance_sq; +inf when fewer than k states are stored).
  double knn_distance(const double* s) const;
  double knn_distance(const std::vector<double>& s) const;

  /// KNN density estimate 1 / (knn_distance + eps); 0 when under-filled.
  double density(const std::vector<double>& s) const;

  std::size_t size() const { return size_; }
  std::size_t dim() const { return dim_; }
  std::size_t k() const { return k_; }
  std::size_t total_added() const { return total_; }
  bool empty() const { return size_ == 0; }
  void clear();

  /// Serialize the stored rows (row-major, whatever the in-memory layout),
  /// reservoir counters and sampling stream so a restored buffer continues
  /// the exact reservoir sequence. load_state throws CheckError on a
  /// checkpoint whose geometry or counters are inconsistent.
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

 private:
  std::size_t dim_;
  std::size_t capacity_;
  std::size_t k_;
  std::size_t stride_;  ///< capacity_ rounded up to kernel::kKnnLanes
  Rng rng_;
  /// Dim-major: dimension c of stored row r at data_[c·stride_ + r]. Slots
  /// past size_ are padding the scan kernels load but never insert.
  std::vector<double> data_;
  std::size_t size_ = 0;
  std::size_t total_ = 0;
};

}  // namespace imap::core

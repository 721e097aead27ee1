#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/kernel_backend.h"

namespace imap::testing {

/// Brute-force squared distance with the summation chain the KNN scan
/// promises: sq = 0; sq += d·d with d = row[c] − q[c], ascending c. The
/// product goes through a volatile so it is rounded on its own even where
/// the test TU's flags would let the compiler contract mul+add into an FMA.
inline double chain_sq(const double* row, const double* q, std::size_t dim) {
  double sq = 0.0;
  for (std::size_t c = 0; c < dim; ++c) {
    const double d = row[c] - q[c];
    const volatile double dd = d * d;
    sq += dd;
  }
  return sq;
}

/// The k-th smallest chain_sq from `q` over `rows`; +inf when fewer than k.
inline double kth_sq(const std::vector<std::vector<double>>& rows,
                     const double* q, std::size_t k) {
  if (rows.size() < k) return std::numeric_limits<double>::infinity();
  std::vector<double> sq;
  for (const auto& r : rows) sq.push_back(chain_sq(r.data(), q, r.size()));
  std::nth_element(sq.begin(), sq.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   sq.end());
  return sq[k - 1];
}

/// Mirror of KnnBuffer's stored set: the same fill-then-reservoir rule, fed
/// by a copy of the buffer's own sampling stream.
class ReservoirMirror {
 public:
  ReservoirMirror(std::size_t capacity, Rng stream)
      : capacity_(capacity), stream_(stream) {}

  void add(const std::vector<double>& s) {
    ++total_;
    if (rows_.size() < capacity_) {
      rows_.push_back(s);
      return;
    }
    const auto j = static_cast<std::size_t>(
        stream_.uniform_int(0, static_cast<int>(total_) - 1));
    if (j < capacity_) rows_[j] = s;
  }

  const std::vector<std::vector<double>>& rows() const { return rows_; }

 private:
  std::size_t capacity_;
  Rng stream_;
  std::size_t total_ = 0;
  std::vector<std::vector<double>> rows_;
};

/// Names of every compiled backend this CPU can run, scalar included.
inline std::vector<std::string> runnable_backends() {
  std::vector<std::string> names;
  for (const auto* be : nn::kernel::all_backends())
    if (be->supported()) names.emplace_back(be->name);
  return names;
}

}  // namespace imap::testing

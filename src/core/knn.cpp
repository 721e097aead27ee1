#include "core/knn.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "nn/kernel_backend.h"

namespace imap::core {

namespace {

namespace kernel = nn::kernel;

constexpr std::size_t kMaxK = 16;

/// The reservoir draw is uniform_int(0, total − 1) over int, so the running
/// count must stay representable as one.
constexpr std::size_t kMaxTotal = INT_MAX;

std::size_t padded_stride(std::size_t capacity) {
  return (capacity + kernel::kKnnLanes - 1) / kernel::kKnnLanes *
         kernel::kKnnLanes;
}

}  // namespace

KnnBuffer::KnnBuffer(std::size_t dim, std::size_t capacity, std::size_t k,
                     Rng rng)
    : dim_(dim),
      capacity_(capacity),
      k_(k),
      stride_(padded_stride(capacity)),
      rng_(rng) {
  IMAP_CHECK(dim_ > 0);
  IMAP_CHECK(capacity_ >= k_ && k_ >= 1);
  IMAP_CHECK(k_ <= kMaxK);
  data_.resize(dim_ * stride_);
}

void KnnBuffer::add(const double* s) {
  IMAP_CHECK_MSG(total_ < kMaxTotal,
                 "KnnBuffer: reservoir count would exceed INT_MAX");
  ++total_;
  std::size_t slot = size_;
  if (size_ < capacity_) {
    ++size_;
  } else {
    // Reservoir sampling: replace a uniform slot with probability cap/total.
    slot = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(total_) - 1));
    if (slot >= capacity_) return;
  }
  for (std::size_t c = 0; c < dim_; ++c) data_[c * stride_ + slot] = s[c];
}

void KnnBuffer::add(const std::vector<double>& s) {
  IMAP_CHECK(s.size() == dim_);
  IMAP_NCHECK_FINITE_VEC(s, "KnnBuffer::add state");
  add(s.data());
}

void KnnBuffer::knn_distance_sq_batch(const double* queries, std::size_t n,
                                      double* out) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (size_ < k_) {
    std::fill(out, out + n, kInf);
    return;
  }
  const kernel::KernelBackend& be = kernel::active_backend();
  const auto scan = be.knn_scan != nullptr
                        ? be.knn_scan
                        : kernel::scalar_backend().knn_scan;
  // Threads across query tiles, lanes across rows: each query's top-k is
  // independent of which tile or thread scans it, so the result is the
  // serial scan's for any thread count.
  const std::size_t tiles =
      (n + kernel::kKnnQueryTile - 1) / kernel::kKnnQueryTile;
  parallel_for_chunked(tiles, 0, [&](std::size_t tb, std::size_t te) {
    const std::size_t qb = tb * kernel::kKnnQueryTile;
    const std::size_t qe = std::min(n, te * kernel::kKnnQueryTile);
    std::vector<double> best((qe - qb) * k_, kInf);
    scan(data_.data(), stride_, size_, dim_, queries + qb * dim_, qe - qb, k_,
         best.data());
    for (std::size_t q = qb; q < qe; ++q) {
      out[q] = best[(q - qb) * k_ + k_ - 1];
      // +Inf is the legitimate "fewer than k neighbours" sentinel, so the
      // guard only excludes NaN and negative distances.
      IMAP_NCHECK_BOUNDS(out[q], 0.0, kInf, "knn.distance_sq");
    }
  });
}

double KnnBuffer::knn_distance_sq(const double* s) const {
  double sq = 0.0;
  knn_distance_sq_batch(s, 1, &sq);
  return sq;
}

double KnnBuffer::knn_distance_sq(const std::vector<double>& s) const {
  IMAP_CHECK(s.size() == dim_);
  return knn_distance_sq(s.data());
}

double KnnBuffer::knn_distance(const double* s) const {
  return std::sqrt(knn_distance_sq(s));
}

double KnnBuffer::knn_distance(const std::vector<double>& s) const {
  IMAP_CHECK(s.size() == dim_);
  return knn_distance(s.data());
}

double KnnBuffer::density(const std::vector<double>& s) const {
  const double sq = knn_distance_sq(s);
  if (!std::isfinite(sq)) return 0.0;
  // One scalar sqrt per query; the row scan itself stays sqrt-free.
  return 1.0 / (std::sqrt(sq) + 1e-6);
}

void KnnBuffer::clear() {
  size_ = 0;
  total_ = 0;
}

void KnnBuffer::save_state(BinaryWriter& w) const {
  w.write_u64(dim_);
  w.write_u64(capacity_);
  w.write_u64(k_);
  rng_.save_state(w);
  w.write_u64(size_);
  w.write_u64(total_);
  // Row-major on disk, as the archive format has always stored it.
  std::vector<double> rows(size_ * dim_);
  for (std::size_t r = 0; r < size_; ++r)
    for (std::size_t c = 0; c < dim_; ++c)
      rows[r * dim_ + c] = data_[c * stride_ + r];
  w.write_vec(rows);
}

void KnnBuffer::load_state(BinaryReader& r) {
  IMAP_CHECK_MSG(r.read_u64() == dim_ && r.read_u64() == capacity_ &&
                     r.read_u64() == k_,
                 "KNN checkpoint has wrong geometry");
  Rng rng = rng_;
  rng.load_state(r);
  const std::size_t size = r.read_u64();
  const std::size_t total = r.read_u64();
  // add() keeps size == min(total, capacity) with total ≤ INT_MAX, which
  // rules out size > capacity and total < size.
  IMAP_CHECK_MSG(size == std::min(total, capacity_) && total <= kMaxTotal,
                 "corrupt KNN checkpoint: size " << size << ", total "
                                                 << total << ", capacity "
                                                 << capacity_);
  const std::vector<double> rows = r.read_vec();
  IMAP_CHECK_MSG(rows.size() == size * dim_, "corrupt KNN checkpoint");
  for (std::size_t i = 0; i < size; ++i)
    for (std::size_t c = 0; c < dim_; ++c)
      data_[c * stride_ + i] = rows[i * dim_ + c];
  rng_ = rng;
  size_ = size;
  total_ = total;
}

}  // namespace imap::core

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/knn.h"
#include "knn_oracle.h"
#include "nn/kernel_backend.h"

namespace imap::core {
namespace {

TEST(Knn, ExactDistancesSmallSet) {
  Rng rng(3);
  KnnBuffer buf(1, 16, 1, rng);
  for (const double x : {0.0, 1.0, 3.0}) buf.add(std::vector<double>{x});
  EXPECT_DOUBLE_EQ(buf.knn_distance(std::vector<double>{0.5}), 0.5);
  EXPECT_DOUBLE_EQ(buf.knn_distance(std::vector<double>{3.0}), 0.0);
  EXPECT_DOUBLE_EQ(buf.knn_distance(std::vector<double>{10.0}), 7.0);
}

TEST(Knn, KthNearestNotFirst) {
  Rng rng(3);
  KnnBuffer buf(1, 16, 3, rng);
  for (const double x : {0.0, 1.0, 2.0, 10.0}) buf.add(std::vector<double>{x});
  // 3rd nearest of 0.1: distances {0.1, 0.9, 1.9, 9.9} → 1.9.
  EXPECT_DOUBLE_EQ(buf.knn_distance(std::vector<double>{0.1}), 1.9);
}

TEST(Knn, UnderfilledReportsInfinityAndZeroDensity) {
  Rng rng(3);
  KnnBuffer buf(2, 16, 3, rng);
  buf.add(std::vector<double>{0.0, 0.0});
  EXPECT_TRUE(std::isinf(buf.knn_distance(std::vector<double>{1.0, 1.0})));
  EXPECT_DOUBLE_EQ(buf.density({1.0, 1.0}), 0.0);
}

TEST(Knn, DensityInverseOfDistance) {
  Rng rng(3);
  KnnBuffer buf(1, 8, 1, rng);
  buf.add(std::vector<double>{0.0});
  EXPECT_NEAR(buf.density({2.0}), 0.5, 1e-5);
  EXPECT_GT(buf.density({0.1}), buf.density({1.0}));
}

TEST(Knn, MatchesBruteForceOnRandomData) {
  // Dims 1–13 (Hopper's is 11); capacities on and off the 8-row lane block;
  // three times as many adds as slots, so reservoir replacement rewrites the
  // dim-major columns; query counts never a multiple of the 4-query tile,
  // some queries duplicating stored rows (distance 0). Every backend must
  // return the brute-force squared distance bit for bit through both the
  // batch and the single-query entry.
  for (const std::string& backend : testing::runnable_backends()) {
    nn::kernel::ScopedBackend forced(backend);
    ASSERT_TRUE(forced.activated());
    for (std::size_t dim = 1; dim <= 13; ++dim) {
      Rng rng(7 + dim);
      const std::size_t k = 1 + dim % 4, cap = 5 * dim + 3, nq = 4 * dim + 3;
      const Rng stream(100 + dim);
      KnnBuffer buf(dim, cap, k, stream);
      testing::ReservoirMirror mirror(cap, stream);
      for (std::size_t i = 0; i < 3 * cap; ++i) {
        const auto s = rng.normal_vec(dim);
        buf.add(s);
        mirror.add(s);
      }
      ASSERT_EQ(buf.size(), mirror.rows().size());
      std::vector<double> queries;
      for (std::size_t q = 0; q < nq; ++q) {
        const auto s =
            q % 3 == 0 ? mirror.rows()[q % cap] : rng.normal_vec(dim);
        queries.insert(queries.end(), s.begin(), s.end());
      }
      std::vector<double> got(nq);
      buf.knn_distance_sq_batch(queries.data(), nq, got.data());
      for (std::size_t q = 0; q < nq; ++q) {
        const double* qp = queries.data() + q * dim;
        const double want = testing::kth_sq(mirror.rows(), qp, k);
        EXPECT_EQ(got[q], want) << backend << " dim " << dim << " query " << q;
        EXPECT_EQ(buf.knn_distance_sq(qp), want) << backend << " dim " << dim;
      }
    }
  }
}

TEST(Knn, ReservoirKeepsCapacityAndTotal) {
  Rng rng(9);
  KnnBuffer buf(2, 50, 3, rng);
  for (int i = 0; i < 500; ++i) buf.add(rng.normal_vec(2));
  EXPECT_EQ(buf.size(), 50u);
  EXPECT_EQ(buf.total_added(), 500u);
}

TEST(Knn, ReservoirIsApproximatelyUniform) {
  // Feed two phases with distinguishable distributions; a correct reservoir
  // keeps ≈ half from each, while naive ring-replacement would keep only
  // the second phase.
  Rng rng(11);
  KnnBuffer buf(1, 200, 1, rng);
  for (int i = 0; i < 1000; ++i) buf.add(std::vector<double>{0.0});
  for (int i = 0; i < 1000; ++i) buf.add(std::vector<double>{100.0});
  // Query near 0: if any phase-1 points survived, distance ≈ 0.
  EXPECT_LT(buf.knn_distance(std::vector<double>{0.0}), 1.0);
  EXPECT_LT(buf.knn_distance(std::vector<double>{100.0}), 1.0);
}

TEST(Knn, ClearResets) {
  Rng rng(3);
  KnnBuffer buf(1, 8, 1, rng);
  buf.add(std::vector<double>{1.0});
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.total_added(), 0u);
}

TEST(Knn, RejectsBadConfig) {
  Rng rng(3);
  EXPECT_THROW(KnnBuffer(0, 8, 1, rng), CheckError);
  EXPECT_THROW(KnnBuffer(2, 2, 3, rng), CheckError);  // capacity < k
}

TEST(Knn, RejectsWrongDim) {
  Rng rng(3);
  KnnBuffer buf(3, 8, 1, rng);
  EXPECT_THROW(buf.add(std::vector<double>{1.0}), CheckError);
}

}  // namespace
}  // namespace imap::core

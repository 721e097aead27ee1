// Archive container format (magic / version / sections / CRC trailer) and
// the save_state/load_state round-trip contract of every stateful component.

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/bias_reduction.h"
#include "core/experiment.h"
#include "core/knn.h"
#include "nn/adam.h"
#include "nn/checkpoint.h"
#include "nn/gaussian.h"
#include "nn/mlp.h"
#include "temp_dir.h"

namespace imap {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::unique_temp_dir("imap_test_serialize");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  static std::vector<std::uint8_t> slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void spit(const std::string& p, const std::vector<std::uint8_t>& b) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(b.size()));
  }

  std::string dir_;
};

TEST_F(SerializeTest, ArchiveMultiSectionRoundTrip) {
  ArchiveWriter w;
  w.section("alpha").write_i64(-7);
  w.section("beta/gamma").write_string("hello");
  w.section("alpha").write_f64(2.5);  // repeated name appends
  ASSERT_TRUE(w.save(path("a.snap")));

  ArchiveReader a;
  ASSERT_TRUE(ArchiveReader::load(path("a.snap"), a));
  EXPECT_EQ(a.version(), kFormatVersion);
  EXPECT_EQ(a.section_names(),
            (std::vector<std::string>{"alpha", "beta/gamma"}));
  EXPECT_TRUE(a.has("alpha"));
  EXPECT_FALSE(a.has("delta"));

  auto alpha = a.section("alpha");
  EXPECT_EQ(alpha.read_i64(), -7);
  EXPECT_EQ(alpha.read_f64(), 2.5);
  EXPECT_TRUE(alpha.exhausted());
  auto bg = a.section("beta/gamma");
  EXPECT_EQ(bg.read_string(), "hello");
}

TEST_F(SerializeTest, ArchiveSkipsUnknownSections) {
  // A reader only ever asks for the sections it knows — extra sections from
  // a newer writer (same format version) are simply never touched.
  ArchiveWriter w;
  w.section("known").write_u64(1);
  w.section("future/extension").write_vec({1.0, 2.0, 3.0});
  ASSERT_TRUE(w.save(path("f.snap")));

  ArchiveReader a;
  ASSERT_TRUE(ArchiveReader::load(path("f.snap"), a));
  auto known = a.section("known");
  EXPECT_EQ(known.read_u64(), 1u);
}

TEST_F(SerializeTest, ArchiveMissingFileAndMissingSection) {
  ArchiveReader a;
  EXPECT_FALSE(ArchiveReader::load(path("nope.snap"), a));

  ArchiveWriter w;
  w.section("only").write_u64(0);
  ASSERT_TRUE(w.save(path("o.snap")));
  ASSERT_TRUE(ArchiveReader::load(path("o.snap"), a));
  EXPECT_THROW(a.section("absent"), CheckError);
}

TEST_F(SerializeTest, ArchiveRejectsBitFlip) {
  ArchiveWriter w;
  w.section("payload").write_vec(std::vector<double>(64, 1.25));
  ASSERT_TRUE(w.save(path("c.snap")));

  auto bytes = slurp(path("c.snap"));
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] ^= 0x01;  // single flipped bit anywhere
  spit(path("c.snap"), bytes);

  ArchiveReader a;
  EXPECT_THROW(ArchiveReader::load(path("c.snap"), a), CheckError);
}

TEST_F(SerializeTest, ArchiveRejectsTruncation) {
  ArchiveWriter w;
  w.section("payload").write_vec(std::vector<double>(64, 1.25));
  ASSERT_TRUE(w.save(path("t.snap")));

  auto bytes = slurp(path("t.snap"));
  bytes.resize(bytes.size() - 3);  // torn tail
  spit(path("t.snap"), bytes);

  ArchiveReader a;
  EXPECT_THROW(ArchiveReader::load(path("t.snap"), a), CheckError);
}

TEST_F(SerializeTest, ArchiveRejectsOldFormatVersion) {
  // Fabricate a structurally valid v1 archive: magic | version 1 | zero
  // sections | correct CRC. Every loader must refuse it with a CheckError —
  // never a silent misread of old zoo/cache artifacts.
  std::vector<std::uint8_t> bytes{'I', 'M', 'A', 'P'};
  auto put_u64 = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_u64(1);  // old format version
  put_u64(0);  // no sections
  const std::uint32_t crc = crc32(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i)
    bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  spit(path("old.pol"), bytes);

  ArchiveReader a;
  EXPECT_THROW(ArchiveReader::load(path("old.pol"), a), CheckError);
  // The zoo loads policies through this path: an old-format checkpoint file
  // surfaces as a clear error, not a garbage network.
  EXPECT_THROW(nn::load_policy(path("old.pol")), CheckError);
}

// Length-prefixed reads bound the count by the unread bytes, by division:
// a count whose byte length overflows is a typed error, never an
// std::length_error or bad_alloc from an allocation sized by the count.
TEST_F(SerializeTest, ReadVecRejectsAnOverflowingCount) {
  BinaryWriter w;
  w.write_u64(std::uint64_t{1} << 61);  // × 8 bytes wraps to 0
  BinaryReader r(w.buffer());
  EXPECT_THROW(r.read_vec(), CheckError);
}

TEST_F(SerializeTest, ReadStringRejectsAnOverflowingLength) {
  BinaryWriter w;
  w.write_u64(UINT64_MAX);
  w.write_u64(0);
  BinaryReader r(w.buffer());
  EXPECT_THROW(r.read_string(), CheckError);
}

TEST_F(SerializeTest, PolicyCheckpointRejectsAnOversizedLayerCount) {
  BinaryWriter w;
  w.write_u64(std::uint64_t{1} << 61);
  w.write_u64(3);
  BinaryReader r(w.buffer());
  EXPECT_THROW(nn::read_policy(r), CheckError);
}

/// A result-cache payload whose curve count claims 2^61 points.
BinaryWriter result_with_curve_count(std::uint64_t count) {
  BinaryWriter w;
  for (int i = 0; i < 5; ++i) w.write_u64(0);  // eval stats
  w.write_vec({1.0, 2.0});                     // episode returns
  w.write_u64(count);
  w.write_i64(1);
  w.write_f64(0.5);
  w.write_f64(0.25);
  return w;
}

TEST_F(SerializeTest, ResultCacheRejectsAnOversizedCurveCount) {
  BenchConfig cfg;
  cfg.zoo_dir = dir_;
  cfg.scale = 0.01;
  core::ExperimentRunner runner(cfg);
  core::AttackPlan plan;
  plan.env_name = "FetchReach";
  plan.attack = core::AttackKind::None;
  plan.eval_episodes = 3;
  const auto norm = runner.normalize_plan(plan);
  const auto b = runner.budgets(norm);
  std::filesystem::create_directories(dir_ + "/results");
  ASSERT_TRUE(result_with_curve_count(std::uint64_t{1} << 61)
                  .save(dir_ + "/results/" +
                        runner.cache_key(norm, b.steps, b.episodes) +
                        ".res"));
  EXPECT_THROW(runner.run(plan), CheckError);
}

TEST_F(SerializeTest, ResultCodecRejectsAnOversizedCurveCount) {
  // The DAG fabric's reply frames carry the same codec.
  const auto w = result_with_curve_count(std::uint64_t{1} << 61);
  BinaryReader r(w.buffer());
  core::AttackOutcome out;
  EXPECT_THROW(core::read_result(r, out), CheckError);
}

TEST_F(SerializeTest, ResultCodecKeepsTheCacheLayout) {
  core::AttackOutcome out;
  out.victim_eval.returns.mean = 1.5;
  out.victim_eval.returns.stddev = 0.5;
  out.victim_eval.returns.episodes = 2;
  out.victim_eval.success_rate = 0.25;
  out.victim_eval.mean_length = 7.0;
  out.victim_eval.episode_returns = {1.0, 2.0};
  out.curve = {{100, 0.5, 1.0}, {200, 0.75, 0.5}};
  BinaryWriter w;
  core::write_result(w, out);
  // f64 ×2, u64, f64 ×2, vec(2), u64 count, 2 × (i64, f64, f64).
  EXPECT_EQ(w.buffer().size(), 5 * 8 + 8 + 2 * 8 + 8 + 2 * 24u);
  BinaryReader r(w.buffer());
  core::AttackOutcome back;
  core::read_result(r, back);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.victim_eval.episode_returns, out.victim_eval.episode_returns);
  EXPECT_EQ(back.victim_eval.returns.episodes, 2u);
  ASSERT_EQ(back.curve.size(), 2u);
  EXPECT_EQ(back.curve[1].steps, 200);
  EXPECT_EQ(back.curve[1].tau, 0.5);
}

TEST_F(SerializeTest, ArchiveRejectsAnOverflowingSectionLength) {
  // A well-formed header and CRC around a section-name length of 2^64 − 1.
  std::vector<std::uint8_t> bytes{'I', 'M', 'A', 'P'};
  const auto put_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_u64(kFormatVersion);
  put_u64(1);           // one section
  put_u64(UINT64_MAX);  // its name length
  const std::uint32_t crc = crc32(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i)
    bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  EXPECT_THROW(ArchiveReader::parse(bytes, "crafted"), CheckError);
}

TEST_F(SerializeTest, AtomicSaveLeavesNoTempFile) {
  ArchiveWriter w;
  w.section("s").write_u64(9);
  ASSERT_TRUE(w.save(path("atomic.snap")));
  EXPECT_TRUE(std::filesystem::exists(path("atomic.snap")));
  EXPECT_FALSE(std::filesystem::exists(path("atomic.snap") + ".tmp"));

  // Unwritable destination: reports failure, leaves nothing behind.
  const std::string bad = dir_ + "/no_such_dir/x.snap";
  EXPECT_FALSE(w.save(bad));
  EXPECT_FALSE(std::filesystem::exists(bad));
  EXPECT_FALSE(std::filesystem::exists(bad + ".tmp"));
}

TEST_F(SerializeTest, BinaryWriterSaveIsASingleSectionArchive) {
  BinaryWriter w;
  w.write_u64(123);
  ASSERT_TRUE(w.save(path("legacy.pol")));

  ArchiveReader a;
  ASSERT_TRUE(ArchiveReader::load(path("legacy.pol"), a));
  EXPECT_EQ(a.section_names(), std::vector<std::string>{"data"});
  auto data = a.section("data");
  EXPECT_EQ(data.read_u64(), 123u);
}

TEST_F(SerializeTest, RngRoundTripContinuesStream) {
  Rng original(42);
  for (int i = 0; i < 100; ++i) original.uniform();

  BinaryWriter w;
  original.save_state(w);
  BinaryReader r(w.buffer());
  Rng restored(0);
  restored.load_state(r);

  EXPECT_EQ(restored.seed(), original.seed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(restored.next_u64(), original.next_u64()) << "draw " << i;
  }
  // split depends only on the seed, so derived streams also agree.
  EXPECT_EQ(restored.split(5).next_u64(), original.split(5).next_u64());
}

TEST_F(SerializeTest, MlpAndAdamRoundTripResumeIdentically) {
  Rng rng(3);
  nn::Mlp net({4, 8, 2}, rng);
  nn::Adam opt(net.params().size());

  // A few updates to give the moments non-trivial state.
  std::vector<double> grads(net.params().size(), 0.01);
  for (int i = 0; i < 3; ++i) opt.step(net.params(), grads);

  BinaryWriter w;
  net.save_state(w);
  opt.save_state(w);

  Rng rng2(99);  // different init: every weight overwritten by load
  nn::Mlp net2({4, 8, 2}, rng2);
  nn::Adam opt2(net2.params().size());
  BinaryReader r(w.buffer());
  net2.load_state(r);
  opt2.load_state(r);
  EXPECT_TRUE(r.exhausted());

  EXPECT_EQ(net2.params(), net.params());
  // The next update sequence must be bit-identical.
  for (int i = 0; i < 3; ++i) {
    opt.step(net.params(), grads);
    opt2.step(net2.params(), grads);
  }
  EXPECT_EQ(net2.params(), net.params());
  EXPECT_EQ(opt2.iterations(), opt.iterations());
}

TEST_F(SerializeTest, MlpRejectsArchitectureMismatch) {
  Rng rng(3);
  nn::Mlp net({4, 8, 2}, rng);
  BinaryWriter w;
  net.save_state(w);

  nn::Mlp other({4, 6, 2}, rng);
  BinaryReader r(w.buffer());
  EXPECT_THROW(other.load_state(r), CheckError);

  nn::Adam opt(5);
  BinaryWriter wo;
  opt.save_state(wo);
  nn::Adam opt2(6);
  BinaryReader ro(wo.buffer());
  EXPECT_THROW(opt2.load_state(ro), CheckError);
}

TEST_F(SerializeTest, GaussianPolicyRoundTrip) {
  Rng rng(11);
  nn::GaussianPolicy p(4, 2, {8}, rng);
  p.clamp_log_std(-1.0, -1.0);  // distinctive log_std

  BinaryWriter w;
  p.save_state(w);
  Rng rng2(12);
  nn::GaussianPolicy q(4, 2, {8}, rng2);
  BinaryReader r(w.buffer());
  q.load_state(r);

  EXPECT_EQ(q.flat_params(), p.flat_params());
  EXPECT_EQ(q.log_std(), p.log_std());
}

TEST_F(SerializeTest, KnnBufferRoundTripContinuesReservoir) {
  Rng rng(7);
  core::KnnBuffer knn(3, 16, 2, Rng(13));
  // Overfill so the reservoir-sampling counters matter.
  for (int i = 0; i < 40; ++i) knn.add(rng.normal_vec(3));

  BinaryWriter w;
  knn.save_state(w);
  core::KnnBuffer restored(3, 16, 2, Rng(0));
  BinaryReader r(w.buffer());
  restored.load_state(r);

  const auto q = rng.normal_vec(3);
  EXPECT_EQ(restored.knn_distance(q), knn.knn_distance(q));
  EXPECT_EQ(restored.total_added(), knn.total_added());

  // Continued adds follow the exact same reservoir replacement sequence.
  Rng feed_a(21), feed_b(21);
  for (int i = 0; i < 40; ++i) {
    knn.add(feed_a.normal_vec(3));
    restored.add(feed_b.normal_vec(3));
  }
  EXPECT_EQ(restored.knn_distance(q), knn.knn_distance(q));

  core::KnnBuffer wrong(4, 16, 2, Rng(0));
  BinaryReader r2(w.buffer());
  EXPECT_THROW(wrong.load_state(r2), CheckError);
}

// A KNN checkpoint written field by field (the layout save_state emits), so
// tests can state counters no live buffer reaches.
std::vector<std::uint8_t> knn_archive(std::uint64_t size, std::uint64_t total,
                                      std::size_t rows) {
  BinaryWriter w;
  w.write_u64(2);   // dim
  w.write_u64(4);   // capacity
  w.write_u64(1);   // k
  Rng(5).save_state(w);
  w.write_u64(size);
  w.write_u64(total);
  w.write_vec(std::vector<double>(2 * rows, 0.5));
  return w.buffer();
}

TEST_F(SerializeTest, KnnBufferRejectsInconsistentCounters) {
  const auto load = [](std::uint64_t size, std::uint64_t total,
                       std::size_t rows) {
    core::KnnBuffer knn(2, 4, 1, Rng(0));
    BinaryReader r(knn_archive(size, total, rows));
    knn.load_state(r);
    return knn;
  };
  EXPECT_NO_THROW(load(3, 3, 3));
  EXPECT_NO_THROW(load(4, 9, 4));
  EXPECT_THROW(load(5, 5, 5), CheckError);   // size > capacity
  EXPECT_THROW(load(3, 2, 3), CheckError);   // total < size
  EXPECT_THROW(load(3, 9, 3), CheckError);   // not full, yet past capacity
  EXPECT_THROW(load(3, 3, 2), CheckError);   // rows disagree with size
  // The reservoir draws uniform_int(0, total − 1) over int.
  EXPECT_THROW(load(4, std::uint64_t{INT_MAX} + 1, 4), CheckError);
  EXPECT_THROW(load(4, ~std::uint64_t{0}, 4), CheckError);
}

TEST_F(SerializeTest, KnnBufferRefusesToCountPastIntMax) {
  core::KnnBuffer knn(2, 4, 1, Rng(0));
  BinaryReader r(knn_archive(4, INT_MAX - 1, 4));
  knn.load_state(r);
  const std::vector<double> s = {1.0, 2.0};
  knn.add(s);  // the last count whose draw fits an int
  EXPECT_EQ(knn.total_added(), static_cast<std::size_t>(INT_MAX));
  EXPECT_THROW(knn.add(s), CheckError);
  EXPECT_EQ(knn.total_added(), static_cast<std::size_t>(INT_MAX));
}

TEST_F(SerializeTest, BiasReductionRoundTripContinuesDual) {
  core::BiasReduction br(true, 5.0, 1.0);
  for (int i = 0; i < 5; ++i) br.observe(0.1 * i);

  BinaryWriter w;
  br.save_state(w);
  core::BiasReduction restored(true, 5.0, 1.0);
  BinaryReader r(w.buffer());
  restored.load_state(r);

  EXPECT_EQ(restored.tau(), br.tau());
  br.observe(0.9);
  restored.observe(0.9);
  EXPECT_EQ(restored.tau(), br.tau());
}

}  // namespace
}  // namespace imap

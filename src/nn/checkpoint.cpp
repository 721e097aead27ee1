#include "nn/checkpoint.h"

#include "common/check.h"

namespace imap::nn {

namespace {
// Extract {hidden...} from a full size vector {in, hidden..., out}.
std::vector<std::size_t> hidden_of(const std::vector<std::size_t>& sizes) {
  IMAP_CHECK(sizes.size() >= 2);
  return {sizes.begin() + 1, sizes.end() - 1};
}

void write_sizes(BinaryWriter& w, const std::vector<std::size_t>& sizes) {
  w.write_u64(sizes.size());
  for (auto s : sizes) w.write_u64(s);
}

std::vector<std::size_t> read_sizes(BinaryReader& r) {
  const auto n = r.read_count(sizeof(std::uint64_t));
  std::vector<std::size_t> sizes(n);
  for (auto& s : sizes) s = r.read_u64();
  return sizes;
}
}  // namespace

void write_policy(BinaryWriter& w, const GaussianPolicy& p) {
  write_sizes(w, p.net().sizes());
  w.write_vec(p.flat_params());
}

GaussianPolicy read_policy(BinaryReader& r) {
  const auto sizes = read_sizes(r);
  const auto params = r.read_vec();
  Rng dummy(0);
  GaussianPolicy p(sizes.front(), sizes.back(), hidden_of(sizes), dummy);
  IMAP_CHECK_MSG(params.size() == p.n_params(),
                 "policy checkpoint has wrong parameter count");
  p.set_flat_params(params);
  return p;
}

void write_value_net(BinaryWriter& w, const ValueNet& v) {
  write_sizes(w, v.net().sizes());
  w.write_vec(v.params());
}

ValueNet read_value_net(BinaryReader& r) {
  const auto sizes = read_sizes(r);
  const auto params = r.read_vec();
  Rng dummy(0);
  ValueNet v(sizes.front(), hidden_of(sizes), dummy);
  IMAP_CHECK_MSG(params.size() == v.n_params(),
                 "value-net checkpoint has wrong parameter count");
  v.params() = params;
  return v;
}

bool save_policy(const std::string& path, const GaussianPolicy& p) {
  BinaryWriter w;
  write_policy(w, p);
  return w.save(path);
}

std::optional<GaussianPolicy> load_policy(const std::string& path) {
  BinaryReader r;
  if (!BinaryReader::load(path, r)) return std::nullopt;
  return read_policy(r);
}

}  // namespace imap::nn

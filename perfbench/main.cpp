// Attack-cell and serving benchmark: command-line entry point.
//
//   perfbench --workload <hopper_sarl|hopper_imap_pc|serve_infer>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints progress on stderr and, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics when
// untraced, the per-layer metrics when traced. Exits 1 when any operation
// failed or any output check did not hold.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Trace::open(const std::string& name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), now_s(), 0.0});
  stack_.push_back(id);
  return id;
}

void Trace::close(int id) {
  spans_[static_cast<std::size_t>(id)].t1 = now_s();
  stack_.pop_back();
}

double Trace::self_time(int id) const {
  double self = spans_[static_cast<std::size_t>(id)].dur();
  for (const auto& s : spans_)
    if (s.parent == id) self -= s.dur();
  return self;
}

double Trace::total_under(int root, const std::string& name) const {
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    int p = spans_[i].parent;
    while (p >= 0 && p != root) p = spans_[static_cast<std::size_t>(p)].parent;
    if (p == root) total += spans_[i].dur();
  }
  return total;
}

std::string Trace::to_json() const {
  std::ostringstream os;
  os.precision(9);
  const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    os << (i ? ",\n " : "") << "{\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"parent\": " << s.parent << ", \"start_s\": " << s.t0 - origin
       << ", \"end_s\": " << s.t1 - origin
       << ", \"self_s\": " << self_time(static_cast<int>(i)) << "}";
  }
  os << "]\n";
  return os.str();
}

void fill(Result& r, const std::vector<MetricDef>& defs,
          const std::vector<std::pair<std::string, double>>& values) {
  for (const auto& [name, value] : values) {
    if (std::none_of(defs.begin(), defs.end(),
                     [&](const MetricDef& d) { return name == d.name; }))
      throw std::logic_error("metric " + name + " is not declared");
  }
  for (const auto& d : defs) {
    double v = 0.0;
    for (const auto& [name, value] : values)
      if (name == d.name) v = value;
    r.add(d.name, d.unit, v);
  }
}

std::string trace_path(const Args& args) {
  const auto dir =
      std::filesystem::path(args.work_dir).parent_path() / "traces";
  std::filesystem::create_directories(dir);
  return (dir / (args.workload + "-seed" + std::to_string(args.seed) +
                 ".json"))
      .string();
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ULL;
  }
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <hopper_sarl|hopper_imap_pc|"
               "serve_infer> --seed N --seconds S --trace 0|1 --work-dir D\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        have_seconds = true;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
        have_trace = true;
      } else if (key == "--work-dir") {
        a.work_dir = val;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      a.work_dir.empty() || !(a.seconds > 0.0))
    usage("--workload, --seed, --seconds (> 0), --trace and --work-dir are "
          "required");
  return a;
}

void print_result(const Result& r, bool correct) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : -1.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  // The measured configuration is fixed here rather than inherited: one
  // pool thread, in-process collection, auto-detected kernels, fp64
  // training-side victim handles.
  setenv("IMAP_THREADS", "1", 1);
  for (const char* knob : {"IMAP_PROCS", "IMAP_KERNEL", "IMAP_VICTIM_QUANT",
                           "IMAP_SNAPSHOT_EVERY", "IMAP_HALT_AFTER_ITERS"})
    unsetenv(knob);

  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);
  Result r;
  try {
    if (args.workload == "hopper_sarl" || args.workload == "hopper_imap_pc")
      r = run_training(args);
    else if (args.workload == "serve_infer")
      r = run_serving(args);
    else
      usage("unknown workload " + args.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run aborted: " << e.what() << "\n";
    std::filesystem::remove_all(args.work_dir);
    return 1;
  }
  std::filesystem::remove_all(args.work_dir);
  const bool correct = r.attempted > 0 && r.failed == 0;
  print_result(r, correct);
  return correct ? 0 : 1;
}

// Shared pieces of the attack-cell and serving benchmark: run arguments, the
// result record printed as the last stdout line, sample statistics, and the
// in-memory stage-span recorder used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory inside the checkout
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports. `attempted`/`failed` count the workload's
/// operations (set-ups and cells, or HTTP requests).
struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  double failed_frac() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 1.0;
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> xs);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Stage spans of a traced run, kept in memory and written out at the end.
/// A span's self time is its duration minus the time its direct children
/// cover; spans of one cell share the cell's root span as ancestor.
class Trace {
 public:
  /// Open a span under the innermost open span; returns its id.
  int open(const std::string& name);
  void close(int id);

  struct Span {
    std::string name;
    int parent = -1;
    double t0 = 0.0;
    double t1 = 0.0;
    double dur() const { return t1 - t0; }
  };

  const std::vector<Span>& spans() const { return spans_; }
  double self_time(int id) const;
  /// Sum of the durations of spans named `name` under root span `root`.
  double total_under(int root, const std::string& name) const;
  /// Spans as a JSON array: name, parent, start/end seconds, self seconds.
  std::string to_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null trace records nothing (the untraced runs).
class Scope {
 public:
  Scope(Trace* trace, const std::string& name)
      : trace_(trace), id_(trace ? trace->open(name) : -1) {}
  ~Scope() {
    if (trace_) trace_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Trace* trace_;
  int id_;
};

/// FNV-1a over raw bytes; outcome digests hash doubles bitwise.
class Digest {
 public:
  void bytes(const void* p, std::size_t n);
  void f64(double x) { bytes(&x, sizeof x); }
  void i64(long long x) { bytes(&x, sizeof x); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics an untraced run prints, on every workload (BENCHMARK.json's
/// end_to_end list; README.md gives each one's per-workload definition).
inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"p50_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

/// The metrics a traced run prints, on every workload (BENCHMARK.json's
/// per_layer list). A layer that does no work on a workload reports 0.
inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"rl.iterate.p90_ms", "ms"},
      {"rl.update.busy_s", "s"},
      {"rl.update.minibatches", "count"},
      {"rl.update.epochs_run", "count"},
      {"rl.collect.busy_s", "s"},
      {"rl.collect.steps", "count"},
      {"env.step_us", "us"},
      {"nn.victim.query_us", "us"},
      {"core.regularizer.busy_s", "s"},
      {"core.regularizer.rows", "count"},
      {"core.knn.query_us", "us"},
      {"core.knn.reservoir_rows", "count"},
      {"attack.eval.busy_s", "s"},
      {"attack.eval.episodes", "count"},
      {"core.zoo.victim_train_s", "s"},
      {"serve.infer.server_us_p50", "us"},
      {"serve.infer.server_us_p99", "us"},
      {"serve.coalescer.rows_per_batch", "rows"},
      {"serve.coalescer.batches", "count"},
      {"serve.model_cache.hits", "count"},
      {"serve.model_cache.misses", "count"},
      {"serve.requests.bad", "count"},
      {"loadgen.latency_us_p99", "us"},
      {"loadgen.lag_us_p99", "us"},
      {"loadgen.max_rate_per_s", "1/s"},
      {"trace.coverage", "fraction"},
      {"trace.overhead_frac", "fraction"},
      {"failed_frac", "fraction"},
  };
  return defs;
}

/// Fill `r` with every metric of `defs`, taking values from `values` by
/// name (0 for a layer the workload does not exercise). Throws on a value
/// whose name is not in `defs`.
void fill(Result& r, const std::vector<MetricDef>& defs,
          const std::vector<std::pair<std::string, double>>& values);

/// File the span timeline of a traced run is written to: traces/ next to
/// the work directory, which is removed when the run ends.
std::string trace_path(const Args& args);

Result run_training(const Args& args);
Result run_serving(const Args& args);

}  // namespace perfbench

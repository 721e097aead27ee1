#include "grid_runner.h"

#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#include <thread>

#include "common/proc.h"
#include "common/thread_pool.h"
#include "core/experiment_dag.h"
#include "env/registry.h"

namespace imap::bench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string cell_label(const core::AttackPlan& plan) {
  std::string label = plan.env_name + "/" + plan.defense + "/" +
                      core::to_string(plan.attack) +
                      (plan.bias_reduction ? "+BR" : "");
  for (auto& c : label)
    if (c == ' ') c = '-';
  return label;
}

}  // namespace

GridRunner::GridRunner(core::ExperimentRunner& runner, std::string bench_name)
    : runner_(runner), bench_name_(std::move(bench_name)) {}

std::vector<core::AttackOutcome> GridRunner::run_plans(
    const std::vector<core::AttackPlan>& plans) {
  const auto t0 = std::chrono::steady_clock::now();

  // Multi-process fabric: route the whole grid through the DAG scheduler —
  // victim and attack cells become dependency-ordered nodes executed by a
  // pool of worker processes. Results are identical to the thread path
  // below (cells derive randomness from their plan only).
  if (const int procs = proc::configured_procs(); procs > 1) {
    std::cerr << "  [" << bench_name_ << "] dispatching " << plans.size()
              << " cells to the DAG scheduler (" << procs << " procs)\n";
    core::DagOptions dopts;
    dopts.procs = procs;
    core::DagScheduler sched(runner_.config(), dopts);
    auto out = sched.run(plans);
    const auto& nodes = sched.nodes();
    const auto& secs = sched.node_seconds();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      std::string label =
          nodes[i].kind == core::DagNode::Kind::Attack
              ? cell_label(nodes[i].plan)
              : "victim/" + nodes[i].env_name +
                    (nodes[i].kind == core::DagNode::Kind::Victim
                         ? "/" + nodes[i].defense
                         : std::string());
      for (auto& c : label)
        if (c == ' ') c = '-';
      timings_.push_back({std::move(label), secs[i]});
    }
    wall_seconds_ += seconds_since(t0);
    return out;
  }

  // Coalesce duplicate cells (benches re-query shared cells; Table 3 shares
  // Table 2's grid) so one cache key is computed — and stored — exactly once.
  std::vector<std::size_t> unique_of(plans.size());
  std::vector<std::size_t> unique_cells;  // index into plans
  {
    std::map<std::string, std::size_t> seen;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const auto& p = plans[i];
      const auto b = runner_.budgets(p);
      const auto key = runner_.cache_key(p, b.steps, b.episodes);
      const auto [it, inserted] = seen.emplace(key, unique_cells.size());
      if (inserted) unique_cells.push_back(i);
      unique_of[i] = it->second;
    }
  }

  // Pre-train the victims serially, deduped by the checkpoint identity (the
  // TRAINING env: sparse tasks share their dense counterpart's victim), so
  // concurrent cells only ever read checkpoints.
  {
    std::set<std::string> warmed;
    for (const auto idx : unique_cells) {
      const auto& p = plans[idx];
      if (env::spec(p.env_name).type == env::TaskType::MultiAgent) {
        if (warmed.insert("game|" + p.env_name).second)
          runner_.zoo().game_victim(p.env_name);
      } else {
        const auto train_name = env::make_training_env(p.env_name)->name();
        if (warmed.insert(train_name + "|" + p.defense).second)
          runner_.zoo().victim(p.env_name, p.defense);
      }
    }
  }

  std::vector<core::AttackOutcome> unique_out(unique_cells.size());
  std::vector<double> unique_secs(unique_cells.size(), 0.0);
  std::mutex log_m;
  parallel_for(
      unique_cells.size(),
      [&](std::size_t u) {
        const auto& plan = plans[unique_cells[u]];
        {
          std::lock_guard<std::mutex> lk(log_m);
          std::cerr << "  [" << bench_name_ << "] running "
                    << cell_label(plan) << "...\n";
        }
        const auto c0 = std::chrono::steady_clock::now();
        unique_out[u] = runner_.run(plan);
        unique_secs[u] = seconds_since(c0);
      },
      /*grain=*/1);

  for (std::size_t u = 0; u < unique_cells.size(); ++u)
    timings_.push_back({cell_label(plans[unique_cells[u]]), unique_secs[u]});
  wall_seconds_ += seconds_since(t0);

  std::vector<core::AttackOutcome> out(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i)
    out[i] = unique_out[unique_of[i]];
  return out;
}

void GridRunner::run_jobs(
    std::vector<std::pair<std::string, std::function<void()>>> jobs) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> secs(jobs.size(), 0.0);
  std::mutex log_m;
  parallel_for(
      jobs.size(),
      [&](std::size_t j) {
        {
          std::lock_guard<std::mutex> lk(log_m);
          std::cerr << "  [" << bench_name_ << "] running " << jobs[j].first
                    << "...\n";
        }
        const auto c0 = std::chrono::steady_clock::now();
        jobs[j].second();
        secs[j] = seconds_since(c0);
      },
      /*grain=*/1);
  for (std::size_t j = 0; j < jobs.size(); ++j)
    timings_.push_back({jobs[j].first, secs[j]});
  wall_seconds_ += seconds_since(t0);
}

void GridRunner::write_report() const {
  double serial_equiv = 0.0;
  for (const auto& t : timings_) serial_equiv += t.seconds;
  const double speedup =
      wall_seconds_ > 0.0 ? serial_equiv / wall_seconds_ : 1.0;

  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\"threads\": " << effective_concurrency()
     << ", \"procs\": " << proc::configured_procs()
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"cells\": " << timings_.size()
     << ", \"serial_equiv_s\": " << serial_equiv
     << ", \"wall_s\": " << wall_seconds_ << ", \"speedup\": " << speedup
     << ", \"cell_wall_s\": {";
  for (std::size_t i = 0; i < timings_.size(); ++i) {
    if (i) os << ", ";
    os << '"' << timings_[i].label << "\": " << timings_[i].seconds;
  }
  os << "}}";
  write_parallel_report_entry(bench_name_, os.str());
  std::cerr << "  [" << bench_name_ << "] " << timings_.size() << " cells, "
            << serial_equiv << "s serial-equivalent in " << wall_seconds_
            << "s wall (" << speedup << "x, " << effective_concurrency()
            << " threads) -> BENCH_parallel.json\n";
}

namespace {

/// Split the top level of a flat JSON object {"k": <value>, ...} into
/// (key, raw value) pairs. Minimal but sufficient for files we wrote
/// ourselves; anything unparseable is dropped rather than corrupted further.
std::vector<std::pair<std::string, std::string>> split_top_level(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') return out;
  ++i;
  while (true) {
    skip_ws();
    if (i >= text.size()) return out;
    if (text[i] == '}') return out;
    if (text[i] == ',') {
      ++i;
      continue;
    }
    if (text[i] != '"') return out;
    ++i;
    std::string key;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) key += text[i++];
      key += text[i++];
    }
    if (i >= text.size()) return out;
    ++i;  // closing quote
    skip_ws();
    if (i >= text.size() || text[i] != ':') return out;
    ++i;
    skip_ws();
    // Raw value: balance braces/brackets outside strings until a top-level
    // ',' or the closing '}'.
    const std::size_t vstart = i;
    int depth = 0;
    bool in_str = false;
    while (i < text.size()) {
      const char c = text[i];
      if (in_str) {
        if (c == '\\')
          ++i;
        else if (c == '"')
          in_str = false;
      } else if (c == '"') {
        in_str = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) break;
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
      ++i;
    }
    std::string value = text.substr(vstart, i - vstart);
    while (!value.empty() &&
           std::isspace(static_cast<unsigned char>(value.back())))
      value.pop_back();
    out.emplace_back(std::move(key), std::move(value));
  }
}

}  // namespace

void write_report_entry(const std::string& path, const std::string& key,
                        const std::string& entry_json) {
  std::vector<std::pair<std::string, std::string>> entries;
  if (std::filesystem::exists(path)) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    entries = split_top_level(ss.str());
  }
  bool replaced = false;
  for (auto& [k, v] : entries)
    if (k == key) {
      v = entry_json;
      replaced = true;
    }
  if (!replaced) entries.emplace_back(key, entry_json);

  std::ofstream out(path);
  out << "{\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << "  \"" << entries[i].first << "\": " << entries[i].second;
    out << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  out << "}\n";
}

void write_parallel_report_entry(const std::string& bench_name,
                                 const std::string& entry_json) {
  write_report_entry("BENCH_parallel.json", bench_name, entry_json);
}

}  // namespace imap::bench

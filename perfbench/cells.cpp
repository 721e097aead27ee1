// Training workloads: attack cells on Hopper against a freshly trained,
// seeded victim.
//
//   hopper_sarl     SA-RL cells. The PPO update dominates; KNN is never
//                   called, so this is the control for KNN changes.
//   hopper_imap_pc  IMAP-PC cells. The regularizer (a scan of the
//                   4096-row reservoir plus reservoir writes) dominates.
//
// A cell is the ExperimentRunner's single-agent cell at bench scale 0.2:
// 12 PPO iterations of 2048 adversary steps with library-default
// PpoOptions, then 40 evaluation episodes. The benchmark drives the public
// trainer API itself, so no result cache is ever consulted; every cell
// starts from the same seed, so every cell must reproduce the first cell's
// outcome digest bit for bit.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "attack/sa_rl.h"
#include "attack/threat_model.h"
#include "bench.h"
#include "common/stats.h"
#include "core/bias_reduction.h"
#include "core/experiment.h"
#include "core/imap_trainer.h"
#include "core/knn.h"
#include "core/regularizer.h"
#include "core/zoo.h"
#include "env/registry.h"
#include "nn/kernel_backend.h"

namespace perfbench {
namespace {

using namespace imap;

constexpr double kScale = 0.2;
const char* const kEnv = "Hopper";
constexpr long long kAttackSteps = 24'000;  // 120k dense-task steps x 0.2
constexpr int kIters = 12;                  // ceil(24000 / 2048)
constexpr int kEvalEpisodes = 40;           // 100 x min(1, 2 x 0.2)
constexpr int kSetups = 3;
// A run times cells for --seconds, and at least this many.
constexpr int kMinTimedCells = 5;

enum class Kind { SaRl, ImapPc };

struct Outcome {
  rl::EvalStats eval;
  std::vector<core::CurvePoint> curve;

  std::uint64_t digest() const {
    Digest d;
    d.f64(eval.returns.mean);
    d.f64(eval.returns.stddev);
    d.i64(static_cast<long long>(eval.returns.episodes));
    d.f64(eval.success_rate);
    d.f64(eval.mean_length);
    for (const double r : eval.episode_returns) d.f64(r);
    for (const auto& p : curve) {
      d.i64(p.steps);
      d.f64(p.victim_success);
      d.f64(p.tau);
    }
    return d.value();
  }
};

/// Per-cell stage totals of a traced cell.
struct Stages {
  double wall = 0.0, collect = 0.0, bonus = 0.0, update = 0.0, eval = 0.0;
  double iter_p90_ms = 0.0;
  long long steps = 0, rows = 0, minibatches = 0, episodes = 0;
  double coverage() const {
    return wall > 0.0 ? (collect + bonus + update + eval) / wall : 0.0;
  }
};

struct Cell {
  Kind kind;
  std::unique_ptr<rl::Env> deploy;
  rl::PolicyHandle victim;
  double eps;
  Rng rng;

  core::ImapOptions imap_options() const {
    core::ImapOptions o;  // ExperimentRunner::imap_options for IMAP-PC
    o.reg.type = core::RegularizerType::PC;
    o.ppo = rl::PpoOptions{};
    o.surrogate_scale = deploy->max_steps();
    return o;
  }
};

rl::ActionFn frozen_mean(const nn::GaussianPolicy& policy) {
  auto snap = std::make_shared<nn::GaussianPolicy>(policy);
  return [snap](const std::vector<double>& obs) {
    return snap->mean_action(obs);
  };
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

template <typename Attacker>
Outcome train_untraced(Attacker& a, const Cell& c,
                       std::vector<double>& iter_ms) {
  Outcome o;
  while (a.trainer().steps_done() < kAttackSteps) {
    const double t0 = now_s();
    const auto s = a.iterate();
    iter_ms.push_back((now_s() - t0) * 1e3);
    o.curve.push_back({s.total_steps, s.mean_surrogate, s.tau});
  }
  require(a.trainer().iterations_done() == kIters,
          "cell stopped short of its iteration count");
  Rng rng = c.rng;
  Rng eval_rng = rng.split(0xe7a1ULL);
  o.eval = attack::evaluate_attack(*c.deploy, c.victim, a.adversary(), c.eps,
                                   kEvalEpisodes, eval_rng);
  return o;
}

/// One cell through SaRl / ImapTrainer::iterate(), timing each iterate().
Outcome cell_untraced(const Cell& c, std::vector<double>& iter_ms) {
  Rng rng = c.rng;
  if (c.kind == Kind::SaRl) {
    attack::SaRl a(*c.deploy, c.victim, c.eps, rl::PpoOptions{}, rng);
    return train_untraced(a, c, iter_ms);
  }
  core::ImapTrainer a(*c.deploy, c.victim, c.eps, c.imap_options(), rng);
  return train_untraced(a, c, iter_ms);
}

/// The same cell with stage spans. IMAP's bonus stage is internal to
/// ImapTrainer::iterate(), so the IMAP loop mirrors ImapTrainer's set-up
/// from public parts (regularizer on split(0x4e67), PPO on split(1), then
/// bonus and Bias-Reduction between collect and update); the digest check
/// against the untraced cells proves the mirror bit-identical. `buf` and
/// `prev` end up holding the cell's last two rollouts, for the probes.
Outcome cell_traced_body(const Cell& c, Trace& trace, Stages& st,
                         rl::RolloutBuffer& buf, rl::RolloutBuffer& prev) {
  Rng rng = c.rng;
  Outcome o;
  const core::ImapOptions opts = c.imap_options();
  std::unique_ptr<attack::SaRl> sarl;
  std::unique_ptr<rl::PpoTrainer> imap_ppo;
  std::unique_ptr<core::AdversarialRegularizer> reg;
  core::BiasReduction br(opts.bias_reduction, opts.eta, opts.tau0);
  if (c.kind == Kind::SaRl) {
    sarl = std::make_unique<attack::SaRl>(*c.deploy, c.victim, c.eps,
                                          rl::PpoOptions{}, rng);
  } else {
    const attack::StatePerturbationEnv attack_env(
        *c.deploy, c.victim, c.eps, attack::RewardMode::Adversary);
    reg = core::make_regularizer(opts.reg, attack_env.obs_dim(),
                                 attack_env.act_dim(), rng.split(0x4e67ULL));
    imap_ppo = std::make_unique<rl::PpoTrainer>(attack_env, opts.ppo,
                                                rng.split(1));
    // Never invoked (the loop runs the stages itself); its presence turns
    // on the intrinsic advantage channel in update(), as in ImapTrainer.
    imap_ppo->set_intrinsic_hook([](rl::RolloutBuffer&) { return 0.0; });
  }
  rl::PpoTrainer& ppo = sarl ? sarl->trainer() : *imap_ppo;
  // Counts minibatch steps; adds no gradient.
  ppo.set_regularizer_hook(
      [&st](nn::GaussianPolicy&, const rl::RolloutBuffer&,
            const std::vector<std::size_t>&) { ++st.minibatches; });

  int iters = 0;
  while (ppo.steps_done() < kAttackSteps) {
    const Scope iter(&trace, "iter");
    std::swap(buf, prev);
    {
      const Scope s(&trace, "iter.collect");
      ppo.collect(buf);
    }
    st.steps += static_cast<long long>(buf.size());
    double tau = 0.0;
    if (reg) {
      const Scope s(&trace, "iter.bonus");
      reg->compute(buf, ppo.policy());
      if (!buf.episode_surrogate.empty())
        br.observe(-mean(buf.episode_surrogate) / opts.surrogate_scale);
      tau = br.tau();
      st.rows += static_cast<long long>(buf.size());
    }
    rl::IterStats s;
    s.total_steps = ppo.steps_done();
    s.mean_surrogate = mean(buf.episode_surrogate);
    s.tau = tau;
    {
      const Scope sp(&trace, "iter.update");
      ppo.update(buf, tau, s);
    }
    o.curve.push_back({s.total_steps, s.mean_surrogate, s.tau});
    ++iters;
  }
  require(iters == kIters, "traced cell stopped short of its iteration count");
  const Scope s(&trace, "cell.eval");
  Rng eval_rng = rng.split(0xe7a1ULL);
  o.eval = attack::evaluate_attack(*c.deploy, c.victim,
                                   frozen_mean(ppo.policy()), c.eps,
                                   kEvalEpisodes, eval_rng);
  st.episodes = static_cast<long long>(o.eval.episode_returns.size());
  return o;
}

Outcome cell_traced(const Cell& c, Trace& trace, Stages& st,
                    rl::RolloutBuffer& buf, rl::RolloutBuffer& prev) {
  int root = -1;
  Outcome o;
  {
    const Scope cell(&trace, "cell");
    root = cell.id();
    o = cell_traced_body(c, trace, st, buf, prev);
  }
  st.wall = trace.spans()[static_cast<std::size_t>(root)].dur();
  st.collect = trace.total_under(root, "iter.collect");
  st.bonus = trace.total_under(root, "iter.bonus");
  st.update = trace.total_under(root, "iter.update");
  st.eval = trace.total_under(root, "cell.eval");
  std::vector<double> iter_ms;
  for (const auto& s : trace.spans())
    if (s.name == "iter" && s.parent == root) iter_ms.push_back(s.dur() * 1e3);
  st.iter_p90_ms = quantile(iter_ms, 0.9);
  return o;
}

void check_outcome(const Outcome& o) {
  require(o.curve.size() == static_cast<std::size_t>(kIters) &&
              o.eval.episode_returns.size() ==
                  static_cast<std::size_t>(kEvalEpisodes) &&
              std::isfinite(o.eval.returns.mean),
          "malformed cell outcome");
}

/// Runs `fn` as one counted operation: a throw, or a digest other than
/// `want` when `want` is set, is a failure. Returns the digest (0 after a
/// throw).
template <typename Fn>
std::uint64_t counted(Result& r, std::uint64_t want, Fn&& fn) {
  ++r.attempted;
  try {
    const Outcome o = fn();
    check_outcome(o);
    const std::uint64_t d = o.digest();
    if (want != 0 && d != want) {
      ++r.failed;
      std::cerr << "perfbench: cell digest " << std::hex << d
                << " differs from the first cell's " << want << std::dec
                << "\n";
    }
    return d;
  } catch (const std::exception& e) {
    ++r.failed;
    std::cerr << "perfbench: cell failed: " << e.what() << "\n";
    return 0;
  }
}

/// Mean microseconds per call of `fn(i)` over i in [0, n), median of 5
/// passes.
template <typename Fn>
double probe_us(std::size_t n, Fn&& fn) {
  std::vector<double> per;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    per.push_back((now_s() - t0) * 1e6 / static_cast<double>(n));
  }
  return median(per);
}

}  // namespace

Result run_training(const Args& args) {
  const Kind kind =
      args.workload == "hopper_sarl" ? Kind::SaRl : Kind::ImapPc;
  Result r;
  Trace trace;
  Trace* tr = args.trace ? &trace : nullptr;

  // Set-up: train the seeded victim in a fresh zoo, several times when
  // untraced so setup_s is a median. Training is deterministic, so every
  // set-up must produce the same victim bits.
  std::vector<double> setup_s;
  std::unique_ptr<core::Zoo> zoo;
  std::shared_ptr<const nn::GaussianPolicy> victim;
  std::uint64_t victim_digest = 0;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    const std::string dir = args.work_dir + "/zoo" + std::to_string(i);
    auto z = std::make_unique<core::Zoo>(dir, kScale, args.seed);
    ++r.attempted;
    if (std::filesystem::exists(z->checkpoint_path(kEnv, "PPO"))) {
      ++r.failed;
      std::cerr << "perfbench: set-up found a victim checkpoint in " << dir
                << "\n";
    }
    const double t0 = now_s();
    {
      const Scope s(tr, "setup.victim_train");
      victim = z->victim_shared(kEnv);
    }
    setup_s.push_back(now_s() - t0);
    std::vector<double> params;
    victim->flat_params_into(params);
    Digest d;
    d.bytes(params.data(), params.size() * sizeof(double));
    if (i == 0) victim_digest = d.value();
    if (d.value() != victim_digest ||
        !std::filesystem::exists(z->checkpoint_path(kEnv, "PPO"))) {
      ++r.failed;
      std::cerr << "perfbench: set-up " << i
                << " trained a different victim or wrote no checkpoint\n";
    }
    if (zoo) std::filesystem::remove_all(zoo->dir());
    zoo = std::move(z);
  }

  Cell c{kind, env::make_env(kEnv), core::Zoo::as_policy(*victim),
         env::spec(kEnv).epsilon, Rng(args.seed).split(0xce11ULL)};

  // The first cell's digest is the reference every later cell of this seed
  // must reproduce. True when a cell succeeded and matched it.
  std::uint64_t ref = 0;
  const auto run_cell = [&](auto&& fn) {
    const std::uint64_t d = counted(r, ref, fn);
    if (ref == 0) ref = d;
    return d != 0 && d == ref;
  };

  // Warm-up: one untimed cell, which also sets the reference digest, so
  // first-touch allocation and cold caches stay out of the timed cells.
  std::vector<double> discard;
  run_cell([&] { return cell_untraced(c, discard); });

  const std::string kernel = nn::kernel::active_backend().name;
  const double t_measure = now_s();
  const auto more = [&](std::size_t tried, std::size_t min_tried) {
    return tried < min_tried || now_s() - t_measure < args.seconds;
  };

  if (!args.trace) {
    std::vector<double> cell_s, iter_ms;
    for (std::size_t timed = 0; more(timed, kMinTimedCells); ++timed) {
      std::vector<double> cell_iter_ms;
      const double t0 = now_s();
      if (!run_cell([&] { return cell_untraced(c, cell_iter_ms); })) continue;
      cell_s.push_back(now_s() - t0);
      iter_ms.insert(iter_ms.end(), cell_iter_ms.begin(), cell_iter_ms.end());
    }
    std::cerr << "perfbench: " << args.workload << " seed " << args.seed
              << ": " << cell_s.size() << " timed cells, median "
              << median(cell_s) << " s; " << iter_ms.size()
              << " iterate() calls, median " << median(iter_ms)
              << " ms; 1 pool thread, kernels " << kernel
              << "; cell walls s:";
    for (const double w : cell_s) std::cerr << " " << w;
    std::cerr << "\n";
    fill(r, end_to_end_metrics(),
         {{"setup_s", median(setup_s)},
          {"p50_ms", median(iter_ms)},
          {"throughput_per_s", 1.0 / median(cell_s)},
          {"peak_rss_mb", peak_rss_mb()}});
    return r;
  }

  // Traced run: untraced and traced cells alternate, so the overhead
  // estimate compares cells taken under the same machine conditions.
  std::vector<Stages> traced;
  std::vector<double> untraced_s;
  rl::RolloutBuffer buf, prev;
  for (std::size_t i = 0; more(i / 2, 2); ++i) {
    if (i % 2 == 0) {
      const double t0 = now_s();
      if (run_cell([&] { return cell_untraced(c, discard); }))
        untraced_s.push_back(now_s() - t0);
    } else {
      Stages st;
      if (run_cell([&] { return cell_traced(c, trace, st, buf, prev); }))
        traced.push_back(st);
    }
  }
  if (traced.empty() || untraced_s.empty()) return r;

  // Probes over the last traced cell's own rollout states.
  const std::size_t n = buf.size();
  std::vector<std::vector<double>> victim_act(n);
  const double query_us = probe_us(
      n, [&](std::size_t i) { victim_act[i] = c.victim.query(buf.obs[i]); });
  auto env = env::make_env(kEnv);
  Rng env_rng = Rng(args.seed).split(0x57e9ULL);
  env->reset(env_rng);
  const double step_us = probe_us(n, [&](std::size_t i) {
    const auto res = env->step(victim_act[i]);
    if (res.done || res.truncated) env->reset(env_rng);
  });
  double knn_us = 0.0, knn_rows = 0.0;
  if (kind == Kind::ImapPc) {
    const core::RegularizerOptions ro = c.imap_options().reg;
    core::KnnBuffer knn(c.deploy->obs_dim(), ro.pc_capacity, ro.knn_k,
                        Rng(args.seed).split(0x6b6eULL));
    for (const auto* b : {&prev, &buf})
      for (std::size_t i = 0; i < b->size(); ++i) knn.add(b->obs[i]);
    double acc = 0.0;
    knn_us = probe_us(
        n, [&](std::size_t i) { acc += knn.knn_distance_sq(buf.obs[i]); });
    knn_rows = static_cast<double>(knn.size());
    if (!std::isfinite(acc)) {
      ++r.failed;
      std::cerr << "perfbench: KNN probe returned a non-finite distance\n";
    }
  }

  // The stage split of the best traced cell, so the stages add up to one
  // cell's wall time; coverage is the worst over traced cells.
  const Stages& b = *std::min_element(
      traced.begin(), traced.end(),
      [](const Stages& x, const Stages& y) { return x.wall < y.wall; });
  // Overhead: median over (untraced, traced) neighbour pairs, so machine
  // drift between pairs cancels.
  double coverage = 1.0;
  std::vector<double> ratio;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    coverage = std::min(coverage, traced[i].coverage());
    if (i < untraced_s.size()) ratio.push_back(traced[i].wall / untraced_s[i]);
  }
  const double minibatches_per_epoch = std::ceil(
      2048.0 / static_cast<double>(rl::PpoOptions{}.minibatch));
  std::cerr << "perfbench: " << args.workload << " seed " << args.seed
            << " traced: " << traced.size() << " traced and "
            << untraced_s.size() << " untraced cells; best traced cell "
            << b.wall << " s = collect " << b.collect << " + bonus "
            << b.bonus << " + update " << b.update << " + eval " << b.eval
            << "; kernels " << kernel << "\n";
  std::ofstream(trace_path(args)) << trace.to_json();
  fill(r, per_layer_metrics(),
       {{"rl.iterate.p90_ms", b.iter_p90_ms},
        {"rl.update.busy_s", b.update},
        {"rl.update.minibatches", static_cast<double>(b.minibatches)},
        {"rl.update.epochs_run",
         static_cast<double>(b.minibatches) / minibatches_per_epoch},
        {"rl.collect.busy_s", b.collect},
        {"rl.collect.steps", static_cast<double>(b.steps)},
        {"env.step_us", step_us},
        {"nn.victim.query_us", query_us},
        {"core.regularizer.busy_s", b.bonus},
        {"core.regularizer.rows", static_cast<double>(b.rows)},
        {"core.knn.query_us", knn_us},
        {"core.knn.reservoir_rows", knn_rows},
        {"attack.eval.busy_s", b.eval},
        {"attack.eval.episodes", static_cast<double>(b.episodes)},
        {"core.zoo.victim_train_s", setup_s.front()},
        {"trace.coverage", coverage},
        {"trace.overhead_frac", median(ratio) - 1.0},
        {"failed_frac", r.failed_frac()}});
  return r;
}

}  // namespace perfbench

// serve_infer workload: single-row `POST /infer?env=Hopper` requests to an
// in-process serve::Server at daemon defaults (int8, coalescing on,
// max_wait_us 200), with handler threads and client keep-alive connections
// capped at nproc.
//
//  * Latency: an open loop of independent users, Poisson arrivals at a
//    fixed low rate, each request timed from its scheduled send time.
//  * Throughput: every connection sends its next request as soon as the
//    previous one is answered (closed loop); requests answered per second.
//  * Traced runs also walk a fixed ladder of offered open-loop rates for the
//    highest rate whose p99 meets the latency limit without a growing
//    backlog.
//
// Once a second a side connection sends `POST /models/invalidate`, so
// model-cache rebuilds run beside the reads. Every response body must equal
// PolicyHandle::serving(victim, int8).query(obs) as the server formats it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <thread>

#include "bench.h"
#include "core/zoo.h"
#include "env/registry.h"
#include "nn/kernel_backend.h"
#include "rl/policy_handle.h"
#include "serve/http.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using namespace imap;

const char* const kEnv = "Hopper";
// The zoo Hopper victim's network does not depend on how long it trained,
// so a short training run gives a checkpoint that serves exactly like the
// scale-0.2 one at a fraction of the set-up cost.
constexpr double kScale = 0.01;
constexpr int kObsPool = 512;
constexpr int kServerStarts = 15;
// Requests/s: about a tenth of the closed-loop saturation rate, so requests
// mostly arrive alone and a coalescing leader's wait for followers shows.
constexpr double kLowRate = 1000.0;
constexpr double kLimitUs = 2000.0;    // p99 latency limit of a ladder rung
constexpr double kLadderBase = 2000.0; // rung k offers kLadderBase * 1.05^k
constexpr double kLadderStep = 1.05;
constexpr int kCoarse = 4;             // rungs skipped per coarse step
// Latency is taken per window of kWindow requests in send order (a window's
// p99 has 10 samples beyond it), and a phase reports its best window.
// Shared virtual machines stall every thread for several milliseconds a few
// times a second; one stall decides a phase-wide p99, but leaves most
// windows clean.
constexpr std::size_t kWindow = 1000;
constexpr std::size_t kRungWindows = 3;
constexpr double kCapacityWindowS = 1.0;

std::string format_row(const std::vector<double>& a) {
  char num[32];
  std::string out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto res = std::to_chars(num, num + sizeof num, a[i]);
    if (i > 0) out += ' ';
    out.append(num, static_cast<std::size_t>(res.ptr - num));
  }
  out += '\n';
  return out;
}

std::string post(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                static_cast<socklen_t>(sizeof addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Send one request and read its Content-Length-framed response. False on a
/// dropped connection.
bool round_trip(int fd, const std::string& request, int& status,
                std::string& body) {
  if (fd < 0 || !serve::send_all(fd, request)) return false;
  std::string buf;
  char chunk[4096];
  for (;;) {
    const std::size_t head_end = buf.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      const std::size_t cl = buf.find("Content-Length: ");
      if (buf.compare(0, 9, "HTTP/1.1 ") != 0 || cl == std::string::npos ||
          cl > head_end)
        return false;
      status = std::atoi(buf.c_str() + 9);
      const auto len = static_cast<std::size_t>(
          std::strtoull(buf.c_str() + cl + 16, nullptr, 10));
      if (buf.size() >= head_end + 4 + len) {
        body = buf.substr(head_end + 4, len);
        return true;
      }
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// The inputs every phase draws from: request texts and the bodies the
/// server must answer them with.
struct Inputs {
  std::vector<std::string> request;
  std::vector<std::string> expect;
};

/// Checks one /infer exchange; true when it succeeded.
bool infer_ok(int fd, const Inputs& in, std::size_t i) {
  int status = 0;
  std::string body;
  return round_trip(fd, in.request[i], status, body) && status == 200 &&
         body == in.expect[i];
}

void wait_until(double due) {
  for (;;) {
    const double rem = due - now_s();
    if (rem <= 0.0) return;
    if (rem > 150e-6)
      std::this_thread::sleep_for(std::chrono::duration<double>(rem - 100e-6));
  }
}

struct Phase {
  std::vector<double> lat_us;  ///< done - scheduled, per request
  std::vector<double> lag_us;  ///< sent - scheduled, per request
  long long failed = 0;
  bool backlog_grew = false;

  double p(double q) const { return quantile(lat_us, q); }
  /// Lowest q-quantile over the phase's kWindow-request windows.
  double best_window(double q) const {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b + kWindow <= lat_us.size(); b += kWindow) {
      const auto first = lat_us.begin() + static_cast<std::ptrdiff_t>(b);
      best = std::min(best, quantile({first, first + kWindow}, q));
    }
    return best;
  }
  bool meets_limit() const {
    return failed == 0 && !backlog_grew && best_window(0.99) <= kLimitUs;
  }
};

/// One open-loop phase: `n` Poisson arrivals at `rate`, spread over the
/// client connections. Each request is timed from its scheduled send time,
/// so a stalled connection charges the wait to every request queued behind
/// it.
Phase run_phase(std::vector<int>& conns, std::uint16_t port, const Inputs& in,
                double rate, std::size_t n, Rng& rng) {
  std::vector<double> due;
  std::vector<std::size_t> which;
  for (double t = 0.0; due.size() < n;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    due.push_back(t);
    which.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(in.request.size()) - 1)));
  }
  Phase ph;
  ph.lat_us.assign(n, 0.0);
  ph.lag_us.assign(n, 0.0);
  std::atomic<std::size_t> next{0};
  std::atomic<long long> failed{0};
  const double t0 = now_s() + 0.005;
  std::vector<std::thread> senders;
  for (auto& fd : conns) {
    senders.emplace_back([&, fdp = &fd] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (std::size_t i; (i = next.fetch_add(1)) < n;) {
        const double at = t0 + due[i];
        wait_until(at);
        const double sent = now_s();
        if (!infer_ok(*fdp, in, which[i])) {
          failed.fetch_add(1);
          ::close(*fdp);
          *fdp = connect_to(port);
        }
        const double done = now_s();
        ph.lag_us[i] = (sent - at) * 1e6;
        ph.lat_us[i] = (done - at) * 1e6;
      }
    });
  }
  for (auto& t : senders) t.join();
  ph.failed = failed.load();
  // The generator's own backlog: how late requests went out at the end of
  // the phase against its start. A queue that keeps growing shows here even
  // before the p99 crosses the limit.
  if (n >= 8) {
    const auto q = static_cast<std::ptrdiff_t>(n / 4);
    const std::vector<double> first(ph.lag_us.begin(), ph.lag_us.begin() + q);
    const std::vector<double> last(ph.lag_us.end() - q, ph.lag_us.end());
    ph.backlog_grew = median(last) > median(first) + 100.0;
  }
  return ph;
}

/// Closed loop over every connection for `windows` windows; returns the
/// best window's requests answered per second.
double closed_loop_qps(std::vector<int>& conns, std::uint16_t port,
                       const Inputs& in, int windows, Result& r) {
  std::vector<double> qps;
  for (int w = 0; w < windows; ++w) {
    std::atomic<long long> ok{0}, failed{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    const double t0 = now_s();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      clients.emplace_back([&, c] {
        int& fd = conns[c];
        for (std::size_t i = c; !stop.load(); i += conns.size()) {
          if (infer_ok(fd, in, i % in.request.size())) {
            ok.fetch_add(1);
          } else {
            failed.fetch_add(1);
            ::close(fd);
            fd = connect_to(port);
          }
        }
      });
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kCapacityWindowS));
    stop.store(true);
    for (auto& t : clients) t.join();
    qps.push_back(static_cast<double>(ok.load()) / (now_s() - t0));
    r.attempted += ok.load() + failed.load();
    r.failed += failed.load();
  }
  return *std::max_element(qps.begin(), qps.end());
}

/// Sends POST /models/invalidate once a second until stopped.
class Invalidator {
 public:
  explicit Invalidator(std::uint16_t port)
      : port_(port), thread_([this] { loop(); }) {}
  ~Invalidator() { stop(); }
  Invalidator(const Invalidator&) = delete;
  Invalidator& operator=(const Invalidator&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  long long sent() const { return sent_.load(); }
  long long failed() const { return failed_.load(); }

 private:
  void loop() {
    int fd = connect_to(port_);
    const std::string req = post("/models/invalidate", "");
    double next = now_s() + 1.0;
    while (!stop_.load()) {
      if (now_s() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      next += 1.0;
      int status = 0;
      std::string body;
      sent_.fetch_add(1);
      if (!round_trip(fd, req, status, body) || status != 200) {
        failed_.fetch_add(1);
        ::close(fd);
        fd = connect_to(port_);
      }
    }
    if (fd >= 0) ::close(fd);
  }

  std::uint16_t port_;
  std::atomic<bool> stop_{false};
  std::atomic<long long> sent_{0};
  std::atomic<long long> failed_{0};
  std::thread thread_;  // last: started once the members it uses exist
};

}  // namespace

Result run_serving(const Args& args) {
  Result r;
  Trace trace;
  Trace* tr = args.trace ? &trace : nullptr;
  const auto nproc = static_cast<int>(
      std::max(1U, std::thread::hardware_concurrency()));

  // Victim checkpoint and request inputs, untimed. Observations are states
  // along the victim's own trajectories.
  const std::string zoo_dir = args.work_dir + "/zoo";
  const auto victim =
      core::Zoo(zoo_dir, kScale, args.seed).victim_shared(kEnv);
  const rl::PolicyHandle direct = rl::PolicyHandle::serving(victim, true);
  Inputs in;
  {
    auto env = env::make_env(kEnv);
    Rng rng = Rng(args.seed).split(0x0b5ULL);
    auto obs = env->reset(rng);
    for (int i = 0; i < kObsPool; ++i) {
      in.request.push_back(post("/infer?env=Hopper", format_row(obs)));
      in.expect.push_back(format_row(direct.query(obs)));
      const auto res = env->step(victim->mean_action(obs));
      obs = (res.done || res.truncated) ? env->reset(rng) : res.obs;
    }
  }

  serve::ServeOptions opts;  // daemon defaults, handler threads <= nproc
  opts.threads = std::min(opts.threads, nproc);
  opts.bench.zoo_dir = zoo_dir;
  opts.bench.scale = kScale;
  opts.bench.seed = args.seed;

  // Set-up: server start through the first answered /infer (checkpoint
  // load, CRC check, int8 build), median over several cold servers.
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kServerStarts); ++i) {
    ++r.attempted;
    const double t0 = now_s();
    bool ok = false;
    {
      const Scope s(tr, "setup.server_start");
      serve::Server server(opts);
      server.start();
      const int fd = connect_to(server.port());
      ok = infer_ok(fd, in, 0);
      setup_s.push_back(now_s() - t0);
      if (fd >= 0) ::close(fd);
    }
    if (!ok) ++r.failed;
  }

  serve::Server server(opts);
  server.start();
  std::vector<int> conns;
  for (int i = 0; i < nproc; ++i) conns.push_back(connect_to(server.port()));
  Rng rng = Rng(args.seed).split(0x10adULL);
  Invalidator inval(server.port());

  // The latency phase, 60% of the run.
  Phase low;
  {
    const Scope s(tr, "load.low_rate");
    const auto windows = static_cast<std::size_t>(
        std::max(1.0, std::floor(0.6 * args.seconds * kLowRate / kWindow)));
    low = run_phase(conns, server.port(), in, kLowRate, windows * kWindow,
                    rng);
  }
  r.attempted += static_cast<long long>(low.lat_us.size());
  r.failed += low.failed;
  auto& m = server.metrics();
  const double server_p50 = m.infer_latency_us.percentile(50.0);
  const double server_p99 = m.infer_latency_us.percentile(99.0);
  const double rows_per_batch = m.batch_size.mean();
  const auto batches = static_cast<double>(m.coalesced_batches.get());
  const auto hits = static_cast<double>(m.cache_hits.get());
  const auto misses = static_cast<double>(m.cache_misses.get());
  const auto bad = static_cast<double>(m.bad_requests.get());

  double qps = 0.0, max_rate = 0.0;
  if (!args.trace) {
    const int windows = std::max(3, static_cast<int>(0.3 * args.seconds));
    qps = closed_loop_qps(conns, server.port(), in, windows, r);
  } else {
    // Ladder: coarse steps up to the first rung over the limit, then single
    // rungs up from the last passing coarse rung.
    const Scope s(tr, "load.ladder");
    int passed = -1;
    const auto rung = [&](int k) {
      const double rate = kLadderBase * std::pow(kLadderStep, k);
      const Phase ph = run_phase(conns, server.port(), in, rate,
                                 kRungWindows * kWindow, rng);
      r.attempted += static_cast<long long>(ph.lat_us.size());
      r.failed += ph.failed;
      std::cerr << "perfbench: rung " << k << " offered " << rate
                << "/s: best window p99 " << ph.best_window(0.99)
                << " us, lag p99 " << quantile(ph.lag_us, 0.99) << " us"
                << (ph.backlog_grew ? ", backlog grew" : "")
                << (ph.meets_limit() ? "" : "  (over)") << "\n";
      if (ph.meets_limit() && k > passed) {
        passed = k;
        max_rate = rate;
      }
      return ph.meets_limit();
    };
    int k = 0;
    while (rung(k) && k < 60) k += kCoarse;
    for (int f = std::max(0, k - kCoarse + 1); f < k; ++f)
      if (!rung(f)) break;
  }
  inval.stop();
  r.attempted += inval.sent();
  r.failed += inval.failed();
  for (const int fd : conns)
    if (fd >= 0) ::close(fd);
  server.stop();

  std::cerr << "perfbench: serve_infer seed " << args.seed << ": "
            << low.lat_us.size() << " requests at " << kLowRate
            << "/s: p50 " << low.p(0.5) << " us, p99 " << low.p(0.99)
            << " us, best window p50 " << low.best_window(0.5)
            << " us, best window p99 " << low.best_window(0.99)
            << " us; closed loop " << qps << "/s; " << opts.threads
            << " handler threads, " << nproc << " connections, kernels "
            << nn::kernel::active_backend().name << "\n";
  if (!args.trace) {
    fill(r, end_to_end_metrics(),
         {{"setup_s", median(setup_s)},
          {"p50_ms", low.best_window(0.5) / 1e3},
          {"throughput_per_s", qps},
          {"peak_rss_mb", peak_rss_mb()}});
    return r;
  }
  std::ofstream(trace_path(args)) << trace.to_json();
  fill(r, per_layer_metrics(),
       {{"serve.infer.server_us_p50", server_p50},
        {"serve.infer.server_us_p99", server_p99},
        {"serve.coalescer.rows_per_batch", rows_per_batch},
        {"serve.coalescer.batches", batches},
        {"serve.model_cache.hits", hits},
        {"serve.model_cache.misses", misses},
        {"serve.requests.bad", bad},
        {"loadgen.latency_us_p99", low.p(0.99)},
        {"loadgen.lag_us_p99", quantile(low.lag_us, 0.99)},
        {"loadgen.max_rate_per_s", max_rate},
        {"failed_frac", r.failed_frac()}});
  return r;
}

}  // namespace perfbench

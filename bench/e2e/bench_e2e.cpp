// bench_e2e — the repo benchmark's driver: one grid workload, measured
// end to end on the scenario layer, with every other layer observed
// from outside.
//
//   bench_e2e --workload=W [--seed=S] [--scale=X] [--runs=K]
//             [--seconds=T] [--trace=FILE]
//   bench_e2e --smoke
//
// A measurement first constructs the workload's first Scenario several
// times (every construction is timed; `setup_s` is the fastest).  It then
// runs K Scenarios, one per sub-seed derived from S — the pass every
// virtual metric is pooled over — and keeps cycling through the same K
// specs until T seconds have passed since the measurement began.  The
// host time of a spec is its fastest run (the host's speed wanders by a
// third over seconds; a slow spell costs a repeat, not the result); a
// repeated sub-seed must reproduce its digest.  Output is one
// `name value unit` line per metric and a last line `correct 1` (or
// `correct 0` and exit 1 when a gate failed).
//
// Layers are measured without touching src/: on every node a
// SelectionPolicy decorator wraps the node's chooser and hands VLink a
// forwarding proxy Driver whose connect() wraps the ConnectFn.  The hook
// reads engine state and host time only — it schedules no event — so a
// hooked run has the same digest as a bare one.  With --trace, every
// spec runs both timed and untimed (alternately, over at least two
// passes); timed runs additionally time every select / driver connect /
// scenario connect callback (steady_clock) and sample 1 session in 1000
// into a Chrome trace-event file, so the tracing overhead is measured,
// not guessed.
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "grid/grid.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "simnet/link_model.hpp"
#include "vlink/driver.hpp"
#include "vlink/vlink.hpp"

namespace {

namespace pc = padico::core;
namespace sc = padico::scenario;
namespace sn = padico::simnet;
namespace vl = padico::vlink;

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double trace_us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kProcessStart).count();
}

// ---------------------------------------------------------------------------
// Workloads.  `scale` multiplies the session count of the full-size
// definition.  The default scale and K size one run() at 0.4-0.8 s of
// Release wall time on a 4-core x86 box, so a 30 s window repeats the
// pass of K runs about five times.
// ---------------------------------------------------------------------------

std::uint64_t scaled(std::uint64_t full, double scale) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(static_cast<double>(full) * scale)));
}

// The ROADMAP headline: 10k nodes (100 Ethernet-100 clusters on the VTHD
// WAN), Zipf-hot keys, one 64 B / 256 B round trip per session.
sc::ScenarioSpec wan_rpc(std::uint64_t seed, double scale) {
  sc::ScenarioSpec s =
      sc::small_world(100, 100, scaled(1'000'000, scale), 5'000'000.0, seed);
  s.name = "wan_rpc";
  return s;
}

// The parallel world: one Myrinet-2000 cluster, every frame through
// SanDriver -> Madeleine -> MadIO -> arbitration; the WAN stays idle.
sc::ScenarioSpec san_rpc(std::uint64_t seed, double scale) {
  sc::ScenarioSpec s;
  s.name = "san_rpc";
  s.seed = seed;
  s.clusters = {sc::ClusterSpec{1024, 64, sn::profiles::myrinet2000()}};
  s.workload.sessions = scaled(400'000, scale);
  s.workload.rate_per_sec = 5'000'000.0;
  s.workload.requests_per_session = 4;
  return s;
}

// Per-byte work: 16 round trips of 256 B up / 256 KiB down, uniform
// keys.  At 30 sessions/s server access links are ~16% busy; at 120/s
// (63%) queueing made the latency tail vary by a quarter across seeds.
sc::ScenarioSpec wan_bulk(std::uint64_t seed, double scale) {
  sc::ScenarioSpec s;
  s.name = "wan_bulk";
  s.seed = seed;
  s.clusters.assign(16, sc::ClusterSpec{16, 4, sn::profiles::ethernet100()});
  s.workload.sessions = scaled(10'000, scale);
  s.workload.rate_per_sec = 30.0;
  s.workload.requests_per_session = 16;
  s.workload.request_bytes = 256;
  s.workload.reply_bytes = 256 * 1024;
  s.workload.key_skew = 0.0;
  return s;
}

// Bounded-Pareto mean gap in ns (the churn schedule spans the expected
// arrival window).
double pareto_mean_gap(double alpha, double lo, double hi) {
  const double num = std::pow(lo, alpha) * alpha / (alpha - 1.0) *
                     (std::pow(lo, 1.0 - alpha) - std::pow(hi, 1.0 - alpha));
  return num / (1.0 - std::pow(lo / hi, alpha));
}

// Heavy-tailed SOAP sessions under constant topology churn.  Every
// 50 ms a node joins cluster (7i) mod 32 or the WAN browns out to 25%
// for 20 ms, alternately: both invalidate selector caches grid-wide and
// neither loses a frame, so no session fails (README: churn kinds that
// drop traffic stay out of the benchmark).
sc::ScenarioSpec churn_soap(std::uint64_t seed, double scale) {
  sc::ScenarioSpec s =
      sc::small_world(32, 32, scaled(600'000, scale), 1.0, seed);
  s.name = "churn_soap";
  sc::WorkloadSpec& w = s.workload;
  w.arrival = sc::Arrival::pareto;
  w.pareto_alpha = 1.5;
  w.gap_min = pc::microseconds(16);
  w.gap_max = pc::milliseconds(50);
  w.flavor = sc::Flavor::soap;
  w.requests_per_session = 3;
  const double window_ns =
      static_cast<double>(w.sessions) *
      pareto_mean_gap(w.pareto_alpha, static_cast<double>(w.gap_min),
                      static_cast<double>(w.gap_max));
  const pc::Duration every = pc::milliseconds(50);
  const auto events =
      static_cast<std::uint32_t>(window_ns / static_cast<double>(every));
  for (std::uint32_t i = 1; i <= events; ++i) {
    sc::ChurnEvent ev;
    ev.at = every * i;
    ev.cluster = (7 * i) % 32;
    if (i % 2 == 1) {
      ev.kind = sc::ChurnKind::node_join;
    } else {
      ev.kind = sc::ChurnKind::wan_brownout;
      ev.duration = pc::milliseconds(20);
      ev.magnitude = 0.25;
    }
    s.churn.push_back(ev);
  }
  return s;
}

struct Workload {
  const char* name;
  sc::ScenarioSpec (*make)(std::uint64_t seed, double scale);
  double bench_scale;  // default --scale
  int pass_runs;       // default --runs (K)
};

// K x scale sets the sessions every virtual metric is pooled over: it
// keeps their across-seed spread to about 5% or less, and puts 16
// connects beyond wan_bulk's p99.9.
constexpr Workload kWorkloads[] = {
    {"wan_rpc", wan_rpc, 0.05, 6},
    {"san_rpc", san_rpc, 0.075, 6},
    {"wan_bulk", wan_bulk, 0.1, 16},
    {"churn_soap", churn_soap, 0.075, 6},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Seed of sub-run j of a measurement seeded `seed` (j = 0 is the seed
/// itself, so a one-run pass is the plain scenario).
std::uint64_t sub_seed(std::uint64_t seed, int j) {
  return seed + static_cast<std::uint64_t>(j) * 0x9e3779b97f4a7c15ull;
}

// The full-size wan_rpc run at seed 2026 is bench_scenario's large run;
// it must keep bench_scenario's recorded digest.
constexpr std::uint64_t kRecordedSeed = 2026;
constexpr const char* kRecordedWanRpcDigest = "853677e0eb63e80d";

// ---------------------------------------------------------------------------
// Connect latency: fixed-size log-linear histogram (64 sub-buckets per
// octave, <1.6% bucket width) of virtual ns, plus an unbounded bucket
// for connects that failed or never completed.
// ---------------------------------------------------------------------------

class LatencyHistogram {
 public:
  void record(std::uint64_t v) noexcept {
    ++bins_[static_cast<std::size_t>(index(v))];
    ++count_;
  }
  void record_unbounded(std::uint64_t n = 1) noexcept { count_ += n; }
  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
    count_ += other.count_;
  }
  std::uint64_t count() const noexcept { return count_; }

  /// Value at quantile q (linear within a bucket); +inf when the rank
  /// lands among unbounded samples, NaN when empty.
  double quantile(double q) const noexcept {
    if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = bins_[static_cast<std::size_t>(i)];
      if (seen + c >= rank) {
        const double pos = (static_cast<double>(rank - seen) - 0.5) /
                           static_cast<double>(c);
        return static_cast<double>(lo(i)) + pos * static_cast<double>(width(i));
      }
      seen += c;
    }
    return std::numeric_limits<double>::infinity();
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr int kBuckets = (65 - kSubBits) * static_cast<int>(kSub);

  static int index(std::uint64_t v) noexcept {
    if (v < 2 * kSub) return static_cast<int>(v);
    const int shift = std::bit_width(v) - (kSubBits + 1);
    return (shift + 1) * static_cast<int>(kSub) +
           static_cast<int>((v >> shift) - kSub);
  }
  static std::uint64_t lo(int i) noexcept {
    if (i < static_cast<int>(2 * kSub)) return static_cast<std::uint64_t>(i);
    const int shift = i / static_cast<int>(kSub) - 1;
    return (kSub + static_cast<std::uint64_t>(i) % kSub) << shift;
  }
  static std::uint64_t width(int i) noexcept {
    if (i < static_cast<int>(2 * kSub)) return 1;
    return std::uint64_t{1} << (i / static_cast<int>(kSub) - 1);
  }

  std::array<std::uint64_t, kBuckets> bins_{};
  std::uint64_t count_ = 0;  // including unbounded samples
};

// ---------------------------------------------------------------------------
// Trace-event log (Chrome JSON, host microseconds since process start)
// ---------------------------------------------------------------------------

class TraceLog {
 public:
  void span(const char* name, Clock::time_point t0, Clock::time_point t1) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  name, trace_us(t0), trace_us(t1) - trace_us(t0));
    events_.emplace_back(buf);
  }
  void engine_sample(Clock::time_point t, const pc::Engine& eng) {
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"engine\",\"ph\":\"C\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"args\":{\"processed\":%llu,\"pending\":%zu,"
                  "\"vnow_us\":%.3f}}",
                  trace_us(t), static_cast<unsigned long long>(eng.processed()),
                  eng.pending_count(), static_cast<double>(eng.now()) / 1e3);
    events_.emplace_back(buf);
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < events_.size(); ++i) {
      std::fputs(events_[i].c_str(), f);
      std::fputs(i + 1 < events_.size() ? ",\n" : "\n", f);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::string> events_;
};

// ---------------------------------------------------------------------------
// Outside-in hook: SelectionPolicy decorator + forwarding proxy Driver
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSampleEvery = 1000;

/// What one run's hooks observed.  Shared by every node's hook.
struct Probe {
  pc::Engine* engine = nullptr;
  bool timed = false;         // host-time every hooked call
  TraceLog* trace = nullptr;  // non-null: sample spans + counters into it

  LatencyHistogram connect_vns;
  std::uint64_t selects = 0;
  std::uint64_t select_failed = 0;
  std::uint64_t connects = 0;
  std::uint64_t connects_done = 0;
  bool sample_next = false;  // the select just made belongs to a sampled session

  // Host ns, exclusive of nested hooked spans.
  std::int64_t select_ns = 0;
  std::int64_t connect_ns = 0;
  std::int64_t on_connect_ns = 0;
};

class ProxyDriver final : public vl::Driver {
 public:
  ProxyDriver(vl::Driver& real, Probe& probe)
      : vl::Driver(real.name()), real_(&real), probe_(&probe) {
    set_net_class(real.net_class());
    set_caps(real.caps());
  }

  vl::Driver* real() const noexcept { return real_; }

  void listen(pc::Port port, AcceptFn fn) override {
    real_->listen(port, std::move(fn));
  }
  void unlisten(pc::Port port) override { real_->unlisten(port); }
  bool listening(pc::Port port) const override { return real_->listening(port); }
  bool can_listen(pc::Port port) const override { return real_->can_listen(port); }
  bool reaches(pc::NodeId node) const override { return real_->reaches(node); }
  bool lossy() const override { return real_->lossy(); }

  void connect(const vl::RemoteAddr& remote, ConnectFn on_connect) override {
    Probe& p = *probe_;
    ++p.connects;
    const bool sampled = std::exchange(p.sample_next, false);
    const pc::SimTime v0 = p.engine->now();
    ConnectFn wrapped = [&p, v0, sampled, fn = std::move(on_connect)](
                            pc::Result<std::unique_ptr<vl::Link>> r) {
      ++p.connects_done;
      if (r.ok()) {
        p.connect_vns.record(p.engine->now() - v0);
      } else {
        p.connect_vns.record_unbounded();
      }
      if (!p.timed) {
        fn(std::move(r));
        return;
      }
      const Clock::time_point t0 = Clock::now();
      fn(std::move(r));
      const Clock::time_point t1 = Clock::now();
      p.on_connect_ns += ns_between(t0, t1);
      if (sampled && p.trace != nullptr) p.trace->span("scenario.on_connect", t0, t1);
    };
    if (!p.timed) {
      real_->connect(remote, std::move(wrapped));
      return;
    }
    const std::int64_t nested0 = p.on_connect_ns;
    const Clock::time_point t0 = Clock::now();
    real_->connect(remote, std::move(wrapped));
    const Clock::time_point t1 = Clock::now();
    // A synchronous failure runs the callback inside connect().
    p.connect_ns += ns_between(t0, t1) - (p.on_connect_ns - nested0);
    if (sampled && p.trace != nullptr) p.trace->span("vlink.connect", t0, t1);
  }

 private:
  vl::Driver* real_;
  Probe* probe_;
};

class HookPolicy final : public vl::SelectionPolicy {
 public:
  HookPolicy(vl::SelectionPolicy& inner, Probe& probe,
             std::function<void()> before_select)
      : inner_(&inner), probe_(&probe), before_select_(std::move(before_select)) {}

  vl::Driver* select(pc::NodeId dst, pc::Error* error) override {
    Probe& p = *probe_;
    before_select_();
    const bool sampled = p.trace != nullptr && p.selects % kSampleEvery == 0;
    ++p.selects;
    vl::Driver* d = nullptr;
    if (p.timed) {
      const Clock::time_point t0 = Clock::now();
      d = inner_->select(dst, error);
      const Clock::time_point t1 = Clock::now();
      p.select_ns += ns_between(t0, t1);
      if (sampled) {
        p.trace->engine_sample(t0, *p.engine);
        p.trace->span("selector.select", t0, t1);
      }
    } else {
      d = inner_->select(dst, error);
      if (sampled) p.trace->engine_sample(Clock::now(), *p.engine);
    }
    if (d == nullptr) {
      ++p.select_failed;
      return nullptr;
    }
    p.sample_next = sampled;
    return proxy_for(*d);
  }

  void on_drivers_changed() override { inner_->on_drivers_changed(); }

 private:
  vl::Driver* proxy_for(vl::Driver& real) {
    for (const auto& proxy : proxies_) {
      if (proxy->real() == &real) return proxy.get();
    }
    proxies_.push_back(std::make_unique<ProxyDriver>(real, *probe_));
    return proxies_.back().get();
  }

  vl::SelectionPolicy* inner_;
  Probe* probe_;
  std::function<void()> before_select_;
  std::vector<std::unique_ptr<ProxyDriver>> proxies_;
};

/// Hooks every node of a scenario's grid, including nodes that
/// node_join churn adds mid-run (caught up on the next hooked select,
/// so sessions a new node opens before then go unsampled).
class Hooks {
 public:
  Hooks(sc::Scenario& scenario, Probe& probe)
      : grid_(&scenario.grid()), probe_(&probe) {
    probe.engine = &grid_->engine();
    catch_up();
  }
  Hooks(const Hooks&) = delete;
  Hooks& operator=(const Hooks&) = delete;

 private:
  void catch_up() {
    while (hooks_.size() < grid_->size()) {
      vl::VLink& vlink = grid_->node(hooks_.size()).vlink();
      hooks_.push_back(std::make_unique<HookPolicy>(
          vlink.policy(), *probe_, [this] {
            if (hooks_.size() != grid_->size()) catch_up();
          }));
      vlink.set_policy(hooks_.back().get());
    }
  }

  padico::grid::Grid* grid_;
  Probe* probe_;
  std::vector<std::unique_ptr<HookPolicy>> hooks_;
};

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

using Counts = std::map<std::string, std::uint64_t, std::less<>>;

Counts counters_of(const padico::obs::Registry& reg) {
  Counts out;
  for (const auto& [name, c] : reg.counters()) out.emplace(name, c.value());
  return out;
}

struct RunResult {
  sc::Report report;
  double wall_s = 0;
  bool correct = true;
  std::string why;  // first failed gate

  LatencyHistogram connect_vns;
  Counts delta;  // engine-registry counters over run()
  std::int64_t pending_max = 0;

  // Hook totals (host ns are zero when untimed).
  std::uint64_t selects = 0;
  std::uint64_t connects = 0;
  std::int64_t select_ns = 0;
  std::int64_t connect_ns = 0;
  std::int64_t on_connect_ns = 0;
};

void gate(RunResult& r, bool ok, const std::string& what) {
  if (!ok && r.correct) {
    r.correct = false;
    r.why = what;
  }
}

/// Run a constructed scenario with hooks installed and check its
/// report.  `timed` host-times the hooked calls; `trace` (optional)
/// receives the sampled spans and the run span.
RunResult run_scenario(sc::Scenario& scenario, bool timed, TraceLog* trace) {
  Probe probe;
  probe.timed = timed;
  probe.trace = trace;
  Hooks hooks(scenario, probe);
  const padico::obs::Registry& reg = scenario.grid().engine().obs();
  const Counts before = counters_of(reg);

  RunResult r;
  const Clock::time_point t0 = Clock::now();
  r.report = scenario.run();
  const Clock::time_point t1 = Clock::now();
  r.wall_s = seconds_between(t0, t1);
  if (trace != nullptr) trace->span("run", t0, t1);

  for (const auto& [name, v] : counters_of(reg)) {
    auto it = before.find(name);
    r.delta.emplace(name, v - (it == before.end() ? 0 : it->second));
  }
  if (const padico::obs::Gauge* g = reg.find_gauge("engine.pending")) {
    r.pending_max = g->max();
  }
  probe.connect_vns.record_unbounded(probe.select_failed +
                                     (probe.connects - probe.connects_done));
  r.connect_vns = probe.connect_vns;
  r.selects = probe.selects;
  r.connects = probe.connects;
  r.select_ns = probe.select_ns;
  r.connect_ns = probe.connect_ns;
  r.on_connect_ns = probe.on_connect_ns;

  // Correctness gates.  Every benchmark workload is failure-free by
  // construction, so any failed session is a defect.
  const sc::ScenarioSpec& spec = scenario.spec();
  const sc::WorkloadSpec& w = spec.workload;
  const sc::Report& rep = r.report;
  gate(r, rep.opened == w.sessions, "opened != spec.sessions");
  gate(r, rep.opened == rep.closed + rep.failed, "opened != closed + failed");
  gate(r, rep.failed == 0, "sessions failed");
  gate(r, rep.churn_applied == spec.churn.size(), "churn not fully applied");
  // Every round trip carries the request and the reply, each wrapped in
  // the flavour's envelope (the same wire overhead both ways).
  const std::uint64_t trips = w.sessions * w.requests_per_session;
  const std::uint64_t envelope = rep.payload_tx_bytes / trips - w.request_bytes;
  gate(r, rep.payload_tx_bytes == trips * (w.request_bytes + envelope) &&
              rep.payload_rx_bytes == trips * (w.reply_bytes + envelope),
       "payload totals != sessions * requests * (bytes + envelope) both ways");
  gate(r, probe.connects == probe.connects_done, "a hooked connect never completed");
  gate(r, probe.select_failed == 0, "a hooked select found no driver");
  gate(r, probe.connects > 0, "no connect went through the hook");
  return r;
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Sums over the K runs of a pass.
struct Pass {
  LatencyHistogram connect_vns;
  Counts delta;
  std::uint64_t opened = 0;
  std::uint64_t payload = 0;
  std::uint64_t events = 0;
  double vseconds = 0;
  std::int64_t pending_max = 0;
  int runs = 0;

  void add(const RunResult& r) {
    connect_vns.merge(r.connect_vns);
    for (const auto& [name, v] : r.delta) delta[name] += v;
    opened += r.report.opened;
    payload += r.report.payload_tx_bytes + r.report.payload_rx_bytes;
    events += r.report.events;
    vseconds += pc::to_seconds(r.report.duration);
    pending_max = std::max(pending_max, r.pending_max);
    ++runs;
  }
  double get(std::string_view name) const {
    auto it = delta.find(name);
    return it == delta.end() ? 0.0 : static_cast<double>(it->second);
  }
  /// Sum of the counters named prefix*suffix (per-network totals).
  double sum(std::string_view prefix, std::string_view suffix) const {
    std::uint64_t total = 0;
    for (const auto& [name, v] : delta) {
      if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
          name.ends_with(suffix)) {
        total += v;
      }
    }
    return static_cast<double>(total);
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print(const char* name, double value, const char* unit) {
  std::printf("%s %.17g %s\n", name, value, unit);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double rusage_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

/// `VmHWM` (peak) or `VmRSS` (current) resident set of this process, in
/// KiB; -1 when unreadable.  Not ru_maxrss: that survives exec, so a
/// child of a bigger process (the Python runner) would start at the
/// parent's peak.
long status_kb(std::string_view field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  long kb = -1;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    const std::string_view l = line;
    if (l.starts_with(field) && l.size() > field.size() && l[field.size()] == ':') {
      kb = std::strtol(line + field.size() + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

struct Options {
  std::string workload;
  std::uint64_t seed = kRecordedSeed;
  double scale = 0;  // 0: the workload's bench scale
  int runs = 0;      // 0: the workload's K
  double seconds = 0;
  std::string trace;
  bool smoke = false;
};

int measure(const Options& opt) {
#if defined(__GLIBC__)
  // Keep freed memory in the process.  Otherwise every Scenario returns
  // its pages to the kernel and the next one faults them back in, zeroed:
  // then each construction and run also pays page zeroing, whose speed
  // follows the other tenants' memory traffic.  On wan_rpc that made
  // some constructions 60% slower.  The first construction still pays
  // it; peak_rss_mb is unchanged.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
  const Workload& wl = *find_workload(opt.workload);
  const double scale = opt.scale > 0 ? opt.scale : wl.bench_scale;
  const int k_runs = opt.runs > 0 ? opt.runs : wl.pass_runs;
  std::vector<sc::ScenarioSpec> specs;
  for (int j = 0; j < k_runs; ++j) specs.push_back(wl.make(sub_seed(opt.seed, j), scale));
  const bool tracing = !opt.trace.empty();
  TraceLog trace;
  const Clock::time_point start = Clock::now();

  // Set-up: every Scenario construction is timed and `setup_s` is the
  // fastest.  Up front the first spec is built at least kMinSetups times
  // and until kSetupFloorS is spent (small grids build in about a
  // millisecond); the last of those runs first.  Each later run's
  // construction counts too, so the sample spans the whole window
  // rather than one moment of the host.  Not the median: on a shared
  // host, constructions switch between two speeds 50% apart for seconds
  // at a time, and the median follows whichever held longer.
  constexpr std::size_t kMinSetups = 5;
  constexpr double kSetupFloorS = 0.1;
  constexpr std::size_t kMaxSetups = 100;
  std::unique_ptr<sc::Scenario> scenario;
  std::vector<double> setup_times;
  auto construct = [&](const sc::ScenarioSpec& spec) {
    scenario.reset();
    const Clock::time_point t0 = Clock::now();
    scenario = std::make_unique<sc::Scenario>(spec);
    const Clock::time_point t1 = Clock::now();
    setup_times.push_back(seconds_between(t0, t1));
    if (tracing) trace.span("setup", t0, t1);
  };
  const long rss0 = status_kb("VmRSS");
  construct(specs[0]);
  const long setup_rss_kb = status_kb("VmRSS") - rss0;
  double setup_spent = setup_times.back();
  while (setup_times.size() < kMinSetups ||
         (setup_spent < kSetupFloorS && setup_times.size() < kMaxSetups)) {
    construct(specs[0]);
    setup_spent += setup_times.back();
  }
  const double nodes = static_cast<double>(scenario->grid().size());

  // Runs: the pass over the K specs, then more cycles until the window
  // is spent.  Each spec keeps its fastest untimed and timed run.  Traced
  // mode times spec j on pass p when p + j is odd, so after two passes
  // every spec has run both ways.
  struct Best {
    double closed = 0;
    double events = 0;
    double untimed = std::numeric_limits<double>::infinity();
    double timed = std::numeric_limits<double>::infinity();
  };
  std::vector<Best> best(static_cast<std::size_t>(k_runs));
  Pass pass;
  std::vector<std::string> digests;
  std::vector<double> select_ns, connect_ns, on_connect_ns, covered;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  bool traced = false;
  std::string why;
  int runs = 0;
  const int min_runs = tracing ? 2 * k_runs : k_runs;
  for (int k = 0;; ++k) {
    const int j = k % k_runs;
    if (!scenario) construct(specs[j]);
    const bool timed = tracing && (k / k_runs + j) % 2 == 1;
    RunResult r = run_scenario(*scenario, timed, timed && !traced ? &trace : nullptr);
    traced = traced || timed;
    scenario.reset();
    if (k < k_runs) {
      digests.push_back(r.report.digest);
      pass.add(r);
    }
    gate(r, r.report.digest == digests[j], "a repeated sub-seed changed its digest");
    if (correct && !r.correct) {
      correct = false;
      why = r.why;
    }
    attempted += r.report.opened;
    failed += r.report.failed;
    ++runs;
    Best& b = best[j];
    b.closed = static_cast<double>(r.report.closed);
    b.events = static_cast<double>(r.report.events);
    if (timed) {
      const double conns = static_cast<double>(r.connects);
      select_ns.push_back(ratio(static_cast<double>(r.select_ns),
                                static_cast<double>(r.selects)));
      connect_ns.push_back(ratio(static_cast<double>(r.connect_ns), conns));
      on_connect_ns.push_back(ratio(static_cast<double>(r.on_connect_ns), conns));
      covered.push_back(static_cast<double>(r.select_ns + r.connect_ns +
                                            r.on_connect_ns) /
                        (r.wall_s * 1e9));
      b.timed = std::min(b.timed, r.wall_s);
    } else {
      b.untimed = std::min(b.untimed, r.wall_s);
    }
    if (k + 1 >= min_runs && seconds_between(start, Clock::now()) >= opt.seconds) break;
  }
  // Sums over the specs that ran untimed (and, for the overhead, timed
  // too): closed sessions, engine events and fastest run() walls.
  double closed_sum = 0, events_sum = 0, wall_sum = 0;
  double both_untimed = 0, both_timed = 0;
  for (const Best& b : best) {
    if (std::isinf(b.untimed)) continue;
    closed_sum += b.closed;
    events_sum += b.events;
    wall_sum += b.untimed;
    if (!std::isinf(b.timed)) {
      both_untimed += b.untimed;
      both_timed += b.timed;
    }
  }
  if (wl.make == wan_rpc && opt.seed == kRecordedSeed && scale == 1.0 &&
      digests[0] != kRecordedWanRpcDigest && correct) {
    correct = false;
    why = std::string("wan_rpc seed 2026 digest is not the recorded ") +
          kRecordedWanRpcDigest;
  }

  const double opened = static_cast<double>(pass.opened);
  std::printf("workload %s -\nseed %llu -\nscale %g -\ndigest %s -\n", wl.name,
              static_cast<unsigned long long>(opt.seed), scale, digests[0].c_str());
  print("runs", runs, "count");
  print("pass.runs", pass.runs, "count");
  print("attempted", static_cast<double>(attempted), "sessions");
  print("failed", static_cast<double>(failed), "sessions");
  print("nodes", nodes, "count");

  // End to end.
  print("sessions_per_wall_s", ratio(closed_sum, wall_sum), "1/s");
  const double setup_s = *std::min_element(setup_times.begin(), setup_times.end());
  print("setup_s", setup_s, "s");
  const long peak_kb = status_kb("VmHWM");
  if (peak_kb <= 0 && correct) {
    correct = false;
    why = "cannot read VmHWM from /proc/self/status";
  }
  print("peak_rss_mb", static_cast<double>(peak_kb) / 1024.0, "MB");
  print("connect_p50_vus", pass.connect_vns.quantile(0.5) / 1e3, "us");
  print("connect_p99_vus", pass.connect_vns.quantile(0.99) / 1e3, "us");
  print("connect_p999_vus", pass.connect_vns.quantile(0.999) / 1e3, "us");
  print("connect.samples", static_cast<double>(pass.connect_vns.count()), "count");
  print("vmakespan_s", pass.vseconds / pass.runs, "s");

  // Per layer: engine-registry deltas over the pass (virtual, so the
  // same on every measurement of the seed).
  const double hits = pass.get("selector.cache.hits");
  const double calls = hits + pass.get("selector.cache.misses");
  const double events = static_cast<double>(pass.events);
  const double combined = pass.get("madio.hdr.combined");
  print("selector.calls", calls, "count");
  print("selector.hit_rate", ratio(hits, calls), "frac");
  print("selector.evictions", pass.get("selector.cache.evictions"), "count");
  print("vlink.frames_per_session", ratio(pass.get("vlink.tx.frames"), opened),
        "1/session");
  print("engine.events_per_session", ratio(events, opened), "1/session");
  print("engine.pending_max", static_cast<double>(pass.pending_max), "count");
  print("engine.ns_per_event", ratio(wall_sum * 1e9, events_sum), "ns");
  print("arb.turns_per_dispatch",
        ratio(pass.get("arb.pump_turns"),
              pass.get("arb.dispatch.sys") + pass.get("arb.dispatch.mad")),
        "ratio");
  print("arb.switches", pass.get("arb.switches"), "count");
  print("madio.dispatches_per_session", ratio(pass.get("madio.dispatches"), opened),
        "1/session");
  print("madio.combined_frac",
        ratio(combined, combined + pass.get("madio.hdr.split")), "frac");
  print("simnet.msgs_per_session", ratio(pass.sum("net.", ".msgs"), opened),
        "1/session");
  print("simnet.wire_bytes_per_payload_byte",
        ratio(pass.sum("net.", ".bytes"), static_cast<double>(pass.payload)), "B/B");
  print("simnet.dropped", pass.sum("net.", ".dropped"), "count");
  print("scenario.failed", pass.get("scenario.failed"), "count");
  print("grid.setup_us_per_node", setup_s * 1e6 / nodes, "us");
  print("grid.setup_kb_per_node", static_cast<double>(setup_rss_kb) / nodes, "KB");

  // Per layer: host time from the timed runs.
  if (tracing) {
    print("selector.select_ns", median(select_ns), "ns");
    print("vlink.connect_ns", median(connect_ns), "ns");
    print("scenario.on_connect_ns", median(on_connect_ns), "ns");
    print("trace.covered_frac", median(covered), "frac");
    print("trace.overhead_frac", ratio(both_timed, both_untimed) - 1.0, "frac");
    if (!trace.write(opt.trace) && correct) {
      correct = false;
      why = "cannot write the trace file " + opt.trace;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  print("proc.user_s", rusage_s(ru.ru_utime), "s");
  print("proc.sys_s", rusage_s(ru.ru_stime), "s");

  if (!correct) std::fprintf(stderr, "bench_e2e: FAIL: %s\n", why.c_str());
  std::printf("correct %d -\n", correct ? 1 : 0);
  return correct ? 0 : 1;
}

/// Every workload at 1% size: the correctness gates, replay (same seed,
/// same digest; new seed, new digest) and a timed, traced run that must
/// keep the digest.
int smoke() {
  bool ok = true;
  for (const Workload& wl : kWorkloads) {
    const Clock::time_point t0 = Clock::now();
    auto run = [&](std::uint64_t seed, bool timed) {
      sc::Scenario s(wl.make(seed, 0.01));
      TraceLog trace;
      return run_scenario(s, timed, timed ? &trace : nullptr);
    };
    const RunResult a = run(kRecordedSeed, false);
    const RunResult b = run(kRecordedSeed, true);
    const RunResult c = run(kRecordedSeed + 1, false);
    std::string why;
    for (const RunResult* r : {&a, &b, &c}) {
      if (why.empty() && !r->correct) why = r->why;
    }
    if (why.empty() && a.report.digest != b.report.digest) {
      why = "the traced run changed the digest";
    }
    if (why.empty() && a.report.digest == c.report.digest) {
      why = "a new seed kept the digest";
    }
    std::printf("%-10s %s  %6llu sessions  %.2f s  %s\n", wl.name,
                a.report.digest.c_str(),
                static_cast<unsigned long long>(a.report.opened),
                seconds_between(t0, Clock::now()), why.empty() ? "ok" : why.c_str());
    ok = ok && why.empty();
  }
  std::printf("smoke %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    std::string v;
    auto value = [&](std::string_view key) {
      if (!a.starts_with(key)) return false;
      v = std::string(a.substr(key.size()));
      return true;
    };
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (value("--workload=")) {
      opt.workload = v;
    } else if (value("--seed=")) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("--scale=")) {
      opt.scale = std::strtod(v.c_str(), nullptr);
      if (!(opt.scale > 0 && opt.scale <= 10)) return false;
    } else if (value("--runs=")) {
      opt.runs = std::atoi(v.c_str());
      if (opt.runs < 1 || opt.runs > 64) return false;
    } else if (value("--seconds=")) {
      opt.seconds = std::strtod(v.c_str(), nullptr);
      if (!(opt.seconds >= 0)) return false;
    } else if (value("--trace=")) {
      opt.trace = v;
    } else {
      return false;
    }
  }
  return opt.smoke || find_workload(opt.workload) != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=W [--seed=S] [--scale=X] [--runs=K]\n"
                 "                 [--seconds=T] [--trace=FILE]\n"
                 "       bench_e2e --smoke\n"
                 "workloads:");
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  return opt.smoke ? smoke() : measure(opt);
}

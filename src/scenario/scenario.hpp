// Scenario engine: generated large-scale workloads over a Grid.
//
// A Scenario turns one ScenarioSpec + seed into
//
//   * a topology — one private network per cluster plus a shared WAN
//     backbone, every node attached to both, the first `servers` nodes
//     of each cluster listening as servers;
//   * a workload — short-lived client sessions (connect, N request /
//     reply round trips, close) opened at seeded Poisson or
//     bounded-Pareto instants, each targeting a Zipf-hot key that
//     hashes onto a server, with per-flavor (VIO / Java-socket / SOAP)
//     CPU charges and envelope overhead;
//   * churn — node joins and leaves, link flaps, loss bursts and WAN
//     brownouts injected at spec'd virtual instants through the grid's
//     live-mutation API.
//
// Everything derives from the seed through fixed-point samplers
// (arrival.hpp), so a run is bit-replayable: the Report's FNV-1a
// digest folds every session completion, churn application and final
// counter, and two runs of the same spec produce the same digest on
// any platform.  test_determinism.cpp and bench_scenario gate on that.
//
// A Scenario is single-shot: construct, run(), read the Report.
// Replay = construct a second Scenario from the same spec.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/bytes.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "grid/grid.hpp"
#include "middleware/personality.hpp"
#include "obs/registry.hpp"
#include "personalities/vio.hpp"
#include "scenario/arrival.hpp"
#include "scenario/spec.hpp"

namespace padico::scenario {

/// The well-known port every scenario server listens on.
inline constexpr core::Port kServerPort = 7000;

/// What a run produced.  `opened == closed + failed` always holds: a
/// session that connected and finished its round trips counts closed;
/// one that hit a connect error, lost its node, or was still in flight
/// when the workload drained (churn/loss left it hanging) counts
/// failed.
struct Report {
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  std::uint64_t failed = 0;

  /// Application payload bytes written by clients / received back.
  std::uint64_t payload_tx_bytes = 0;
  std::uint64_t payload_rx_bytes = 0;

  /// Churn events actually applied (a node_leave with no candidate
  /// left is skipped, and skips fold into the digest too).
  std::uint64_t churn_applied = 0;

  /// Engine events dispatched and virtual time elapsed over the run.
  std::uint64_t events = 0;
  core::SimTime duration = 0;

  /// Derived virtual-time rates (duration == 0 gives 0).
  double events_per_vsec = 0.0;
  double bytes_per_vsec = 0.0;
  double sessions_per_vsec = 0.0;

  /// FNV-1a fold of every completion record, churn application and
  /// final counter, as 16 hex digits.  Equal digests mean the runs
  /// were observably identical (same sessions, same order, same
  /// instants) — the replay regression key.
  std::string digest;

  /// obs::Registry::snapshot() at end of run.
  std::string registry;
};

class Scenario {
 public:
  /// Validates the spec (throws std::invalid_argument) and builds the
  /// topology; no workload runs yet.
  explicit Scenario(ScenarioSpec spec);
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;
  ~Scenario();

  const ScenarioSpec& spec() const noexcept { return spec_; }
  grid::Grid& grid() noexcept { return grid_; }

  /// Drive the whole workload to completion and report.  Callable
  /// once; a second call throws std::logic_error.
  Report run();

  /// Node ids of the listening servers / the current client pool
  /// (churn mutates the latter while running).
  const std::vector<core::NodeId>& servers() const noexcept {
    return servers_;
  }
  std::size_t client_count() const noexcept { return clients_.size(); }

 private:
  struct Session;
  struct ServerConn;

  void open_next();
  void open_session(std::uint64_t id);
  void send_request(std::uint64_t id);
  void on_client_ready(std::uint64_t id);
  void complete_session(std::uint64_t id);
  void fail_session(std::uint64_t id, const char* why);
  void retire_session(std::uint64_t id);

  void on_accept(core::NodeId server, std::shared_ptr<vio::Socket> sock);
  void on_server_ready(std::uint64_t conn_id);
  void send_reply(std::uint64_t conn_id, bool final_request);

  void apply_churn(const ChurnEvent& ev);

  /// Run `fn` once `cost` of `node`'s serialized virtual CPU has been
  /// reserved (immediately when cost == 0).
  void after_cpu(core::NodeId node, core::Duration cost, core::EventFn fn);
  /// Reserve `cost` of CPU on `node` (monotone per node); returns the
  /// completion instant.  Same semantics as middleware::CostClock.
  core::SimTime cpu_reserve(core::NodeId node, core::Duration cost);

  void fold(std::uint64_t v) noexcept;

  ScenarioSpec spec_;
  grid::Grid grid_;

  // Topology handles.
  std::vector<simnet::NetId> cluster_nets_;
  simnet::NetId wan_net_ = 0;
  std::vector<core::NodeId> servers_;
  // (node, cluster) of every connectable client; node_join appends,
  // node_leave erases.
  std::vector<std::pair<core::NodeId, std::uint32_t>> clients_;

  // Faults in force per (kind, network).  Overlapping faults of one
  // kind on one network nest: the latest one's setting holds, and the
  // spec's state (link up, spec profile) comes back when the last ends.
  std::map<std::pair<ChurnKind, simnet::NetId>, std::uint32_t> faults_;

  // Seeded streams: session instants, placement (client/key picks),
  // churn victims — independent so adding churn never shifts the
  // workload's draws.
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::unique_ptr<ZipfPicker> keys_;
  core::Rng place_rng_;
  core::Rng churn_rng_;

  // Flavor: per-message CPU model + envelope bytes on the wire.
  middleware::CostModel cost_;
  std::uint32_t envelope_ = 0;
  std::uint32_t request_wire_ = 0;
  std::uint32_t reply_wire_ = 0;
  // Per-node CPU availability, indexed by node id (dense, grown on
  // demand) — replaces a std::map of CostClocks on the hottest
  // scenario path (every request/reply charges CPU).
  std::vector<core::SimTime> cpu_free_;
  core::Bytes request_scratch_;
  core::Bytes reply_scratch_;

  // Live workload state.
  // Hash maps: lookup dominates (one find per protocol step).  The
  // only iteration is run()'s final failure sweep, which sorts ids
  // first so the digest stays identical to the ordered-map original.
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::unordered_map<std::uint64_t, ServerConn> conns_;
  std::uint64_t conn_seq_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t payload_tx_ = 0;
  std::uint64_t payload_rx_ = 0;
  std::uint64_t churn_applied_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  bool ran_ = false;

  // obs instrumentation (owned by the engine's registry).
  obs::Rate* sessions_rate_;
  obs::Rate* bytes_rate_;
  obs::Counter* obs_failed_;
  obs::Counter* obs_churn_;
};

/// Convenience spec factories used by tests and benches: `clusters`
/// clusters of `nodes_per_cluster` nodes (one server each) under the
/// default WAN, `sessions` short sessions at `rate_per_sec`.
ScenarioSpec small_world(std::uint32_t clusters, std::uint32_t nodes_per_cluster,
                         std::uint64_t sessions, double rate_per_sec,
                         std::uint64_t seed);

}  // namespace padico::scenario

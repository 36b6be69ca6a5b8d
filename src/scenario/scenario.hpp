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
// Live per-session and per-server-connection state sits in two slot
// tables: chunks of slots whose freed slots are reused, so storage
// follows the number of sessions in flight, not the number opened.
// Every closure the workload schedules names its session by a 64-bit
// handle, `(generation << 32) | slot`; a closure that outlives its
// session finds a newer generation in the slot and does nothing.  A
// session keeps its open-order id for the digest.
//
// Request and reply bytes are immutable buffers the Scenario builds
// once (`core::SharedBytes`): every write posts a handle to them, and
// on the IP drivers they reach the reading link with no host copy.
//
// A flavor is a cost profile, not a personality: its core::CostModel
// prices each request and reply, and the charge queues on the node's
// own core::CostClock.  The scenario sits on the grid beside the
// middleware personalities and uses none of them.
//
// A Scenario is single-shot: construct, run(), read the Report.
// Replay = construct a second Scenario from the same spec.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bytes.hpp"
#include "core/cost_clock.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "grid/grid.hpp"
#include "obs/registry.hpp"
#include "scenario/arrival.hpp"
#include "scenario/spec.hpp"
#include "vlink/link.hpp"

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
  using Handle = std::uint64_t;

  /// Live `T`s by handle: slots in fixed chunks of `kChunk`, a freed
  /// slot reused (newest freed first) before a new one is cut, so
  /// storage follows the peak number of live `T`s, never the number
  /// ever inserted.  A slot never moves.  Its generation is odd while
  /// occupied, and insert and erase each bump it: a handle,
  /// `(generation << 32) | slot`, names one occupant and goes stale
  /// when that occupant is erased.
  template <typename T>
  class SlotTable {
   public:
    /// Occupy a slot with a default `T`; returns its handle.
    Handle insert() {
      std::uint32_t i = free_;
      if (i == kNil) {
        i = size_++;
        if (i % kChunk == 0) {
          chunks_.push_back(std::make_unique<Slot[]>(kChunk));
        }
      } else {
        free_ = at(i).next_free;
      }
      return (std::uint64_t{++at(i).gen} << 32) | i;
    }

    /// The occupant `h` names, or null once it was erased.
    T* find(Handle h) noexcept {
      Slot& s = at(static_cast<std::uint32_t>(h));
      return s.gen == static_cast<std::uint32_t>(h >> 32) ? &s.value
                                                          : nullptr;
    }

    /// Destroy the occupant `h` names (no-op once it was erased).
    void erase(Handle h) {
      if (!find(h)) return;
      const auto i = static_cast<std::uint32_t>(h);
      Slot& s = at(i);
      s.value = T{};
      ++s.gen;
      s.next_free = free_;
      free_ = i;
    }

    /// `fn(T&)` on every occupant, in slot order.
    template <typename Fn>
    void for_each(Fn fn) {
      for (std::uint32_t i = 0; i < size_; ++i) {
        Slot& s = at(i);
        if (s.gen & 1u) fn(s.value);
      }
    }

    void clear() {
      chunks_.clear();
      size_ = 0;
      free_ = kNil;
    }

   private:
    static constexpr std::uint32_t kChunk = 64;
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    struct Slot {
      T value;
      std::uint32_t gen = 0;           // odd while occupied
      std::uint32_t next_free = kNil;  // the free list, while free
    };
    Slot& at(std::uint32_t i) noexcept {
      return chunks_[i / kChunk][i % kChunk];
    }

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t size_ = 0;  // slots ever cut
    std::uint32_t free_ = kNil;
  };

  void open_next();
  void open_session(std::uint64_t id);
  /// The session `h` names while it is still unsettled (neither closed
  /// nor failed), else null.
  Session* unsettled(Handle h) noexcept;
  void send_request(Handle h);
  void on_client_ready(Handle h);
  void complete_session(Handle h);
  void fail_session(Handle h, const char* why);
  void retire_session(Handle h);

  void on_accept(core::NodeId server, std::unique_ptr<vlink::Link> link);
  void on_server_ready(Handle h);
  void send_reply(Handle h, bool final_request);

  void apply_churn(const ChurnEvent& ev);

  /// Run `fn` once `cost` of `node`'s serialized virtual CPU has been
  /// reserved (immediately when cost == 0).
  void after_cpu(core::NodeId node, core::Duration cost, core::EventFn fn);

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
  core::CostModel cost_;
  std::uint32_t envelope_ = 0;
  std::uint32_t request_wire_ = 0;
  std::uint32_t reply_wire_ = 0;
  // Per-node serialized CPU, indexed by node id (dense, grown on
  // demand): every request and reply charges one.
  std::vector<core::CostClock> cpu_;
  // The wire bytes every request and reply carries, built once and
  // never changed: each write posts a shared handle, so the bytes ride
  // by reference from the writer's link to the reader's.  A request's
  // first byte is its final-request marker: request_[fin].
  core::SharedBytes request_[2];
  core::SharedBytes reply_;

  // Live workload state, by handle (see SlotTable).  A reference into
  // either table stays valid until its occupant is erased; only a
  // posted event erases one (retire_session, send_reply), so a
  // reference never dies under the protocol step that holds it.  The
  // one walk, run()'s final sweep, sorts what it collects, so slot
  // order never reaches the digest.
  SlotTable<Session> sessions_;
  SlotTable<ServerConn> conns_;
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

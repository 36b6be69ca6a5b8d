// padico::selector — topology-aware access-method selection.
//
// The paper's claim: PadicoTM picks the right method per peer
// automatically — Madeleine/MadIO inside a SAN cluster, plain TCP
// ("sysio") on the LAN/WAN, and parallel streams where one socket
// cannot fill the pipe.  `Chooser` is that policy, one instance per
// node, installed as the node VLink's SelectionPolicy by the Grid.
//
// Policy notes (ranking, nearest class wins):
//   * classify(dst) — dst is `loopback` if it is the node itself,
//     otherwise the tightest NetClass affinity among registered
//     drivers that reach it (san < lan < wan); peers no driver
//     reaches classify as `wan` (the most conservative assumption)
//     and fail at choose/select time.
//   * choose(dst)  — within the destination's class, the first
//     registered driver whose affinity matches the class; for `wan`
//     destinations an explicit override (`set_wan_method`, seeded from
//     gr::BuildOptions::wan_method) wins if that driver reaches the
//     peer.  The default WAN method is therefore plain "sysio" —
//     parallel streams are *activated*, exactly like the paper's §5
//     runs, by pinning "pstream".  One refinement: when the default
//     pick is a lossy driver (Driver::lossy(), e.g. "sysio" on a
//     transcontinental profile), the first same-class kCapLossTolerant
//     non-lossy sibling — the grid's "vrp" adapter — is preferred, so
//     default traffic over lossy WANs gets loss repair for free.  The
//     explicit wan override is exempt: pinning a lossy method is a
//     deliberate ablation choice.
//   * path_secure(dst) — whether the chosen driver's path stays on
//     trusted infrastructure (kCapSecure, derived from the link
//     profile): SAN/LAN yes, WAN no, loopback trivially yes.
//
// Decisions are cached per destination in a hash map (the connect
// path probes it once per session open; nothing iterates it).  The
// cache is invalidated when the driver registry changes
// (VLink::add_driver notifies the installed policy) and when the WAN
// override changes; runtime topology churn invalidates *targeted*
// entries — the Grid subscribes to each network's change
// notifications and calls `invalidate(dst)` for a detached node, full
// `invalidate()` only on the choosers of nodes attached to a medium
// whose link state or model changed.
//
// Hit / miss / eviction totals are published as obs counters
// (`selector.cache.hits` / `.misses` / `.evictions`) on the engine's
// registry, so cache behaviour shows up in bench snapshots and
// Perfetto exports next to the vlink traffic counters.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "obs/registry.hpp"
#include "selector/net_class.hpp"
#include "vlink/vlink.hpp"

namespace padico::selector {

class Chooser final : public vlink::SelectionPolicy {
 public:
  /// Ranks `vlink`'s registry; borrows it (the grid::Node owns both).
  explicit Chooser(vlink::VLink& vlink);

  /// Distance class of `dst` as seen from this node (cached).
  NetClass classify(core::NodeId dst);

  /// Method name choose/select would use for `dst`: a registered
  /// driver's name, or "loopback" for the node itself.  Throws
  /// std::runtime_error if no driver reaches `dst`.
  std::string choose(core::NodeId dst);

  /// Whether the chosen path to `dst` stays on trusted infrastructure.
  /// Unreachable peers report false (assume the worst).
  bool path_secure(core::NodeId dst);

  /// Override the method used for wan-class destinations ("" restores
  /// the default ranking).  Ignored for peers the named driver cannot
  /// reach.
  void set_wan_method(std::string method);
  const std::string& wan_method() const noexcept { return wan_method_; }

  /// Drop every cached decision.
  void invalidate();

  /// Drop the cached decision for one destination (targeted churn
  /// invalidation: one node detached, only paths *to it* changed).
  void invalidate(core::NodeId dst);

  // SelectionPolicy: the connect path of VLink delegates here.
  vlink::Driver* select(core::NodeId dst, core::Error* error) override;
  void on_drivers_changed() override { invalidate(); }

  // Cache introspection (tests and diagnostics).
  std::size_t cache_size() const noexcept { return cache_.size(); }
  std::uint64_t lookups() const noexcept { return lookups_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return lookups_ - hits_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct Decision {
    NetClass cls = NetClass::wan;
    vlink::Driver* driver = nullptr;  // null: loopback or unreachable
  };

  const Decision& decide(core::NodeId dst);
  Decision compute(core::NodeId dst) const;

  vlink::VLink* vlink_;
  std::string wan_method_;
  std::unordered_map<core::NodeId, Decision> cache_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t evictions_ = 0;
  // Engine-wide cache totals (shared by every chooser on the engine).
  obs::Counter* obs_hits_;
  obs::Counter* obs_misses_;
  obs::Counter* obs_evictions_;
};

}  // namespace padico::selector

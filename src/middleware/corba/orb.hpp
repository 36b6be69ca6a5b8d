// padico::orb — the CORBA personality: a GIOP-flavoured
// request/reply ORB over vlink links.
//
// One Orb instance is one ORB runtime on one node (the paper runs
// omniORB, Mico and ORBacus side by side over PadicoTM; each maps to
// an `OrbProfile` here).  Servers `activate` named objects and
// `start()` accepting; clients `invoke` object references — requests
// pipeline freely per connection, replies match on request id.
// Connections open lazily through the node's chooser (VLink::connect
// without a method), so the same ORB code runs over MadIO in the
// cluster and plain sockets across a WAN, which is the paper's whole
// point.
//
// Where the Table 1 / Figure 3 numbers come from: every request and
// reply is CDR-marshalled (middleware/corba/cdr.hpp) and charged to
// the Personality CostModel — per-message overhead both ways plus,
// for the copying marshalers (Mico, ORBacus), a per-byte pass that
// serializes on the ORB's virtual CPU and caps their bandwidth curves
// at ~55 / ~63 MB/s while the zero-copy omniORBs ride the wire to the
// Myrinet plateau.  The marshalling itself is the same for every
// profile: one frame in one buffer, posted as one write.
//
// Frame format over the stream (host byte order), header first, its
// body length filled in once the body is marshalled:
//   [u32 body_len][u8 kind 0=request 1=reply][u32 request_id]
// request body:  string object_key, string method, u32 argc, args
// reply body:    u8 status (core::Status), u32 argc, results
// arg encoding:  u8 kind (Any::Kind), then octets / string / u64.
//
// Ownership / determinism: an Orb borrows its Host and VLink (the
// grid Node owns both) and owns its links, reader coroutines and
// pending-reply book.  Scheduled sends and connect callbacks hold a
// liveness token, so an Orb may die with requests or connects in
// flight.  All books are ordered maps.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/bytes.hpp"
#include "core/host.hpp"
#include "core/result.hpp"
#include "core/task.hpp"
#include "middleware/personality.hpp"
#include "vlink/vlink.hpp"

namespace padico::orb {

/// A CORBA any: the argument/result cell of the dynamic invocation
/// surface the benches use.
class Any {
 public:
  enum class Kind : std::uint8_t { none = 0, octets = 1, string = 2, u64 = 3 };

  Any() = default;
  Any(core::Bytes octets) : v_(std::move(octets)) {}        // NOLINT: implicit
  Any(std::string s) : v_(std::move(s)) {}                  // NOLINT: implicit
  Any(std::uint64_t v) : v_(v) {}                           // NOLINT: implicit

  Kind kind() const noexcept { return static_cast<Kind>(v_.index()); }
  const core::Bytes& octets() const { return std::get<core::Bytes>(v_); }
  const std::string& str() const { return std::get<std::string>(v_); }
  std::uint64_t u64() const { return std::get<std::uint64_t>(v_); }

 private:
  std::variant<std::monostate, core::Bytes, std::string, std::uint64_t> v_;
};

/// Reference to an activated object: where it lives and its key.
struct ObjectRef {
  core::NodeId node = 0;
  core::Port port = 0;
  std::string key;
};

/// Outcome of one invocation.
struct Reply {
  core::Status status = core::Status::ok;
  std::vector<Any> results;
};

/// One real ORB implementation's identity + cost profile.
struct OrbProfile {
  std::string name;
  core::CostModel costs;
};

namespace profiles {
OrbProfile omniorb3();
OrbProfile omniorb4();
OrbProfile mico();
OrbProfile orbacus();
}  // namespace profiles

class Orb final : public middleware::Personality {
 public:
  /// Servant body: receives the method name and arguments, returns the
  /// results.
  using Method = std::function<std::vector<Any>(const std::string& method,
                                                std::vector<Any> args)>;

  /// An ORB runtime on `vlink`'s node.  `port` is where start() will
  /// accept.  `method` pins the access method for *outgoing*
  /// connections (benches that force a paradigm); empty routes through
  /// the node's chooser, like any topology-unaware middleware.
  Orb(core::Host& host, vlink::VLink& vlink, OrbProfile profile,
      core::Port port, std::string method = {});
  ~Orb();

  const OrbProfile& profile() const noexcept { return profile_; }
  core::Port port() const noexcept { return port_; }

  /// Register (or replace) the servant under `key`.
  void activate(const std::string& key, Method method);

  /// Begin accepting connections on port().
  void start();
  bool started() const noexcept { return started_; }

  /// Reference to this ORB's object `key` (valid on any client that
  /// can reach this node).
  ObjectRef ref_of(const std::string& key) const;

  /// Invoke `method` on `ref`.  Requests pipeline: the returned
  /// completion fires when the reply arrives (status `refused` if the
  /// connection could not be opened, `error` for an unknown object).
  /// Caller rule (GCC 12): bind `ref`/`method`/`args` to named locals
  /// and keep this call OUT of a `co_await` full-expression —
  /// `auto call = orb.invoke(ref, m, std::move(args)); co_await call;`
  /// (see DESIGN.md "Conventions" on coroutine argument temporaries).
  core::Completion<Reply> invoke(const ObjectRef& ref,
                                 const std::string& method,
                                 std::vector<Any> args);

  std::uint64_t requests_sent() const noexcept { return requests_sent_; }
  std::uint64_t requests_served() const noexcept { return requests_served_; }
  std::uint64_t protocol_errors() const noexcept { return protocol_errors_; }

 private:
  static constexpr std::size_t kFrameHeader = 9;
  static constexpr std::uint8_t kRequest = 0;
  static constexpr std::uint8_t kReply = 1;

  // Each reader is declared after its link, so it dies first.
  struct ClientConn {
    std::unique_ptr<vlink::Link> link;
    bool connecting = false;
    // Frames marshalled before the connection opened, in order.
    std::vector<std::pair<std::uint32_t, core::Bytes>> queued;
    core::Task reader;
  };

  struct ServerConn {
    std::unique_ptr<vlink::Link> link;
    core::Task reader;
  };

  void ensure_conn(core::NodeId node, core::Port port);
  core::Task client_loop(vlink::Link& link);
  core::Task server_loop(vlink::Link& link);
  void fail_request(std::uint32_t id, core::Status status);

  core::Host* host_;
  vlink::VLink* vlink_;
  OrbProfile profile_;
  core::Port port_;
  std::string method_;
  bool started_ = false;
  std::map<std::string, Method> objects_;
  std::map<std::pair<core::NodeId, core::Port>, ClientConn> conns_;
  std::map<std::uint32_t, core::Completion<Reply>> pending_;
  std::deque<ServerConn> server_conns_;
  std::uint32_t next_request_ = 1;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t requests_served_ = 0;
  std::uint64_t protocol_errors_ = 0;
  // Scheduled sends outliving the Orb become no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace padico::orb

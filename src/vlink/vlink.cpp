#include "vlink/vlink.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace padico::vlink {

VLink::VLink(core::Host& host) : host_(&host), policy_(&default_policy_) {}

VLink::~VLink() = default;

void VLink::add_driver(std::unique_ptr<Driver> driver) {
  // Replay sticky listens so a late-registered driver accepts on the
  // same ports as its older siblings.  Ascending port order, so the
  // replay sequence is independent of the hash map's bucket layout.
  std::vector<core::Port> ports;
  ports.reserve(listens_.size());
  for (const auto& [port, fn] : listens_) ports.push_back(port);
  std::sort(ports.begin(), ports.end());
  for (core::Port port : ports) driver->listen(port, listens_[port]);
  drivers_.push_back(std::move(driver));
  policy_->on_drivers_changed();
}

Driver* VLink::driver(const std::string& method) const {
  for (const auto& d : drivers_) {
    if (d->name() == method) return d.get();
  }
  return nullptr;
}

void VLink::set_policy(SelectionPolicy* policy) {
  policy_ = policy != nullptr ? policy : &default_policy_;
}

void VLink::listen(core::Port port, Driver::AcceptFn on_accept) {
  // Validate across ALL drivers before registering with any, so a
  // port-space collision (e.g. pstream's P ^ 0x8000 rendezvous
  // mapping) throws with every driver's books untouched.  A port not
  // already ours is refused while any driver serves it (e.g. as an
  // adapter's rendezvous): listening would replace that handler.
  const bool relisten = listens_.count(port) != 0;
  for (const auto& d : drivers_) {
    if (!d->can_listen(port) || (!relisten && d->listening(port))) {
      throw std::logic_error("vlink: driver '" + d->name() +
                             "' cannot listen on port " +
                             std::to_string(port) +
                             " (port-space collision)");
    }
  }
  for (const auto& d : drivers_) d->listen(port, on_accept);
  listens_[port] = std::move(on_accept);
}

void VLink::unlisten(core::Port port) {
  // Ports listened through individual drivers are not ours to tear
  // down: fan out only for sticky registrations made via listen().
  if (listens_.erase(port) == 0) return;
  for (const auto& d : drivers_) d->unlisten(port);
}

void VLink::connect(const std::string& method, const RemoteAddr& remote,
                    Driver::ConnectFn on_connect) {
  Driver* d = driver(method);
  if (!d) {
    on_connect(core::Result<std::unique_ptr<Link>>::err(
        core::Status::error, "no driver named '" + method + "'"));
    return;
  }
  d->connect(remote, std::move(on_connect));
}

void VLink::connect(const RemoteAddr& remote, Driver::ConnectFn on_connect) {
  core::Error error;
  Driver* d = policy_->select(remote.node, &error);
  if (!d) {
    on_connect(core::Result<std::unique_ptr<Link>>::err(error.status,
                                                        error.message));
    return;
  }
  d->connect(remote, std::move(on_connect));
}

Driver* FirstReachablePolicy::select(core::NodeId dst, core::Error* error) {
  for (const auto& d : vlink_->drivers()) {
    if (d->reaches(dst)) return d.get();
  }
  if (error) {
    *error = {core::Status::unreachable,
              "no driver reaches node " + std::to_string(dst)};
  }
  return nullptr;
}

}  // namespace padico::vlink

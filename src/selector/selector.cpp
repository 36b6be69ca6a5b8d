#include "selector/selector.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace padico::selector {

Chooser::Chooser(vlink::VLink& vlink) : vlink_(&vlink) {
  obs::Registry& reg = vlink.host().engine().obs();
  obs_hits_ = &reg.counter("selector.cache.hits");
  obs_misses_ = &reg.counter("selector.cache.misses");
  obs_evictions_ = &reg.counter("selector.cache.evictions");
}

void Chooser::invalidate() {
  if (!cache_.empty()) {
    evictions_ += cache_.size();
    obs_evictions_->add(cache_.size());
    cache_.clear();
  }
}

void Chooser::invalidate(core::NodeId dst) {
  if (cache_.erase(dst) != 0) {
    ++evictions_;
    obs_evictions_->add();
  }
}

Chooser::Decision Chooser::compute(core::NodeId dst) const {
  Decision d;
  if (dst == vlink_->node()) {
    d.cls = NetClass::loopback;
    return d;
  }
  // Tightest class any reaching driver serves; unreachable peers
  // keep the conservative {wan, nullptr} default.
  bool reachable = false;
  for (const auto& drv : vlink_->drivers()) {
    if (!drv->reaches(dst)) continue;
    if (!reachable || drv->net_class() < d.cls) d.cls = drv->net_class();
    reachable = true;
  }
  if (!reachable) return d;
  // WAN override first (the paper's "activate parallel streams"
  // switch), then the first registered driver whose affinity
  // matches the destination's class.
  bool overridden = false;
  if (d.cls == NetClass::wan && !wan_method_.empty()) {
    if (vlink::Driver* o = vlink_->driver(wan_method_);
        o != nullptr && o->reaches(dst)) {
      d.driver = o;
      overridden = true;
    }
  }
  if (d.driver == nullptr) {
    for (const auto& drv : vlink_->drivers()) {
      if (drv->reaches(dst) && drv->net_class() == d.cls) {
        d.driver = drv.get();
        break;
      }
    }
  }
  // Loss repair beats raw speed: if the pick drops frames, swap in
  // the first same-class loss-tolerant sibling that reaches the
  // peer (the grid stacks "vrp" on every lossy profile).  The
  // explicit wan override above is exempt — pinning a lossy method
  // is a deliberate ablation choice.
  if (!overridden && d.driver != nullptr && d.driver->lossy()) {
    for (const auto& drv : vlink_->drivers()) {
      if (drv->reaches(dst) && drv->net_class() == d.cls &&
          drv->has_cap(kCapLossTolerant) && !drv->lossy()) {
        d.driver = drv.get();
        break;
      }
    }
  }
  return d;
}

const Chooser::Decision& Chooser::decide(core::NodeId dst) {
  ++lookups_;
  if (auto it = cache_.find(dst); it != cache_.end()) {
    ++hits_;
    obs_hits_->add();
    return it->second;
  }
  obs_misses_->add();
  return cache_.emplace(dst, compute(dst)).first->second;
}

NetClass Chooser::classify(core::NodeId dst) { return decide(dst).cls; }

std::string Chooser::choose(core::NodeId dst) {
  const Decision& d = decide(dst);
  if (d.cls == NetClass::loopback) return "loopback";
  if (d.driver == nullptr) {
    throw std::runtime_error("selector: no driver reaches node " +
                             std::to_string(dst));
  }
  return d.driver->name();
}

bool Chooser::path_secure(core::NodeId dst) {
  const Decision& d = decide(dst);
  if (d.cls == NetClass::loopback) return true;
  return d.driver != nullptr && d.driver->has_cap(kCapSecure);
}

void Chooser::set_wan_method(std::string method) {
  if (method == wan_method_) return;
  wan_method_ = std::move(method);
  invalidate();
}

vlink::Driver* Chooser::select(core::NodeId dst, core::Error* error) {
  const Decision& d = decide(dst);
  if (d.driver != nullptr) return d.driver;
  if (error) {
    if (d.cls == NetClass::loopback) {
      *error = {core::Status::unreachable,
                "selector: node " + std::to_string(dst) +
                    " is the local node (no loopback driver)"};
    } else {
      *error = {core::Status::unreachable,
                "no driver reaches node " + std::to_string(dst)};
    }
  }
  return nullptr;
}

}  // namespace padico::selector

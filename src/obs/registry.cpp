#include "obs/registry.hpp"

#include <cinttypes>
#include <cstdio>

namespace padico::obs {

namespace {

Registry* g_registry = nullptr;

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

}  // namespace

void set_global_registry(Registry* r) noexcept { g_registry = r; }
Registry* global_registry() noexcept { return g_registry; }

Registry::~Registry() {
  if (g_registry != nullptr && g_registry != this) g_registry->merge(*this);
}

Counter& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

Rate& Registry::rate(std::string_view name) {
  auto it = rates_.find(name);
  if (it == rates_.end()) {
    it = rates_.emplace(std::string(name), Rate{clock_}).first;
  }
  return it->second;
}

const Counter* Registry::find_counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  rates_.clear();
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).add(c.value());
  for (const auto& [name, g] : other.gauges_) {
    Gauge& mine = gauge(name);
    if (g.max() > mine.max()) mine.set(g.max());
  }
  for (const auto& [name, h] : other.histograms_) histogram(name).merge(h);
  for (const auto& [name, r] : other.rates_) rate(name).merge(r);
}

std::string Registry::snapshot() const {
  std::string out = "# obs registry";
  if (clock_ != nullptr) {
    out += " t=";
    append_u64(out, *clock_);
    out += "ns";
  }
  if (empty()) {
    out += " (empty)\n";
    return out;
  }
  out += "\n";
  for (const auto& [name, c] : counters_) {
    out += "counter " + name + " ";
    append_u64(out, c.value());
    out += "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += "gauge " + name + " ";
    append_i64(out, g.value());
    out += " max=";
    append_i64(out, g.max());
    out += "\n";
  }
  for (const auto& [name, r] : rates_) {
    out += "rate " + name + " ";
    append_u64(out, r.count());
    out += " elapsed=";
    append_u64(out, r.elapsed());
    out += "ns per_sec=";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", r.per_sec());
    out += buf;
    out += "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += "hist " + name + " count=";
    append_u64(out, h.count());
    out += " total=";
    append_u64(out, h.total());
    out += " max=";
    append_u64(out, h.max());
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (h.bucket_count(i) == 0) continue;
      out += i == Histogram::kOverflowBucket ? " [overflow]=" : " [";
      if (i != Histogram::kOverflowBucket) {
        append_u64(out, Histogram::bucket_lo(i));
        out += "..";
        append_u64(out, Histogram::bucket_hi(i));
        out += "]=";
      }
      append_u64(out, h.bucket_count(i));
    }
    out += "\n";
  }
  return out;
}

}  // namespace padico::obs

#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <shared_mutex>

namespace idea::obs {
namespace {

/// Process-wide interning state, mirroring the MsgType registry: a deque so
/// the strings backing MetricId::name() views never move, plus an ordered
/// name index for lookup and name-sorted exports.
struct Registry {
  std::shared_mutex mu;
  std::deque<std::string> names;  // index = id; [0] reserved for "?"
  std::map<std::string, std::uint16_t, std::less<>> by_name;

  Registry() { names.emplace_back("?"); }
};

Registry& registry() {
  static Registry r;
  return r;
}

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(n, sizeof(buf) - 1));
}

}  // namespace

MetricId MetricId::intern(std::string_view name) {
  assert(!name.empty());
  Registry& r = registry();
  {
    std::shared_lock lock(r.mu);
    auto it = r.by_name.find(name);
    if (it != r.by_name.end()) return MetricId(it->second);
  }
  std::unique_lock lock(r.mu);
  auto it = r.by_name.find(name);
  if (it != r.by_name.end()) return MetricId(it->second);
  if (r.names.size() > UINT16_MAX) {
    std::fprintf(stderr,
                 "MetricId registry exhausted (%zu metrics); cannot intern "
                 "\"%.*s\"\n",
                 r.names.size(), static_cast<int>(name.size()), name.data());
    std::abort();
  }
  const auto id = static_cast<std::uint16_t>(r.names.size());
  r.names.emplace_back(name);
  r.by_name.emplace(r.names.back(), id);
  return MetricId(id);
}

MetricId MetricId::lookup(std::string_view name) {
  Registry& r = registry();
  std::shared_lock lock(r.mu);
  auto it = r.by_name.find(name);
  return it == r.by_name.end() ? MetricId() : MetricId(it->second);
}

std::string_view MetricId::name() const {
  Registry& r = registry();
  std::shared_lock lock(r.mu);
  return id_ < r.names.size() ? std::string_view(r.names[id_])
                              : std::string_view("?");
}

double Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t next = seen + buckets[b];
    if (static_cast<double>(next) >= target) {
      // Interpolate within the bucket's value range [lo, hi).
      const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
      const double hi = b == 0 ? 1.0 : static_cast<double>(1ull << b);
      const double into =
          (target - static_cast<double>(seen)) /
          static_cast<double>(buckets[b]);
      return lo + into * (hi - lo);
    }
    seen = next;
  }
  return static_cast<double>(max);
}

void Histogram::merge(const Histogram& o) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += o.buckets[b];
  count += o.count;
  sum += o.sum;
  if (o.max > max) max = o.max;
}

std::map<std::string, std::uint64_t> MetricsRegistry::counters_by_name()
    const {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t id = 0; id < counters_.size(); ++id) {
    if (counters_[id] == 0) continue;
    Registry& r = registry();
    std::shared_lock lock(r.mu);
    if (id < r.names.size()) out.emplace(r.names[id], counters_[id]);
  }
  return out;
}

bool MetricsRegistry::empty() const {
  for (std::uint64_t c : counters_) {
    if (c != 0) return false;
  }
  for (std::uint8_t s : gauge_set_) {
    if (s != 0) return false;
  }
  for (const auto& h : histograms_) {
    if (h != nullptr && h->count > 0) return false;
  }
  return true;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (std::size_t id = 0; id < other.counters_.size(); ++id) {
    if (other.counters_[id] == 0) continue;
    grow(counters_, static_cast<std::uint16_t>(id));
    counters_[id] += other.counters_[id];
  }
  for (std::size_t id = 0; id < other.gauge_set_.size(); ++id) {
    if (other.gauge_set_[id] == 0) continue;
    grow(gauges_, static_cast<std::uint16_t>(id));
    grow(gauge_set_, static_cast<std::uint16_t>(id));
    gauges_[id] = other.gauges_[id];
    gauge_set_[id] = 1;
  }
  for (std::size_t id = 0; id < other.histograms_.size(); ++id) {
    if (other.histograms_[id] == nullptr) continue;
    grow(histograms_, static_cast<std::uint16_t>(id));
    if (histograms_[id] == nullptr) {
      histograms_[id] = std::make_unique<Histogram>();
    }
    histograms_[id]->merge(*other.histograms_[id]);
  }
}

void MetricsRegistry::reset() {
  counters_.clear();
  gauges_.clear();
  gauge_set_.clear();
  histograms_.clear();
}

void MetricsRegistry::append_json(std::string& out,
                                  const std::string& indent) const {
  // Collect (name, id) pairs per kind, name-sorted, so the dump is
  // byte-identical across runs regardless of interning order.
  auto named = [](auto&& pred) {
    std::vector<std::pair<std::string, std::uint16_t>> out_ids;
    Registry& r = registry();
    std::shared_lock lock(r.mu);
    for (const auto& [name, id] : r.by_name) {
      if (pred(id)) out_ids.emplace_back(name, id);
    }
    return out_ids;  // by_name iterates name-sorted already
  };

  const auto counters = named([&](std::uint16_t id) {
    return id < counters_.size() && counters_[id] != 0;
  });
  const auto gauges = named([&](std::uint16_t id) {
    return id < gauge_set_.size() && gauge_set_[id] != 0;
  });
  const auto hists = named([&](std::uint16_t id) {
    return id < histograms_.size() && histograms_[id] != nullptr &&
           histograms_[id]->count > 0;
  });

  out += "{\n";
  out += indent + "  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    append_fmt(out, "%s    \"%s\": %llu", indent.c_str(),
               counters[i].first.c_str(),
               static_cast<unsigned long long>(counters_[counters[i].second]));
  }
  out += counters.empty() ? "},\n" : "\n" + indent + "  },\n";
  out += indent + "  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    append_fmt(out, "%s    \"%s\": %lld", indent.c_str(),
               gauges[i].first.c_str(),
               static_cast<long long>(gauges_[gauges[i].second]));
  }
  out += gauges.empty() ? "},\n" : "\n" + indent + "  },\n";
  out += indent + "  \"histograms\": {";
  for (std::size_t i = 0; i < hists.size(); ++i) {
    const Histogram& h = *histograms_[hists[i].second];
    out += i == 0 ? "\n" : ",\n";
    append_fmt(out, "%s    \"%s\": {", indent.c_str(),
               hists[i].first.c_str());
    append_fmt(out, "\"count\": %llu, \"sum\": %llu, \"max\": %llu, ",
               static_cast<unsigned long long>(h.count),
               static_cast<unsigned long long>(h.sum),
               static_cast<unsigned long long>(h.max));
    append_fmt(out, "\"mean\": %.3f, \"p50\": %.1f, \"p95\": %.1f, ",
               h.mean(), h.quantile(0.5), h.quantile(0.95));
    out += "\"buckets\": [";
    bool first = true;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) out += ", ";
      first = false;
      append_fmt(out, "[%zu, %llu]", b,
                 static_cast<unsigned long long>(h.buckets[b]));
    }
    out += "]}";
  }
  out += hists.empty() ? "}\n" : "\n" + indent + "  }\n";
  out += indent + "}";
}

}  // namespace idea::obs

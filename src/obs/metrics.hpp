#pragma once
/// \file metrics.hpp
/// \brief Deterministic metrics: interned names, counters, gauges and
///        fixed-bucket histograms.
///
/// The observability substrate every future controller reads from (the
/// ROADMAP's detection-driven adaptive consistency needs to *see* staleness,
/// escalation, repair and latency behavior before it can act on them).  Two
/// properties drive the design:
///
///  * **Hot-path recording is an array index.**  A MetricId is the interned
///    form of a metric name — the same scheme as net::MsgType — so add(),
///    set_gauge() and observe() cost a bounds check plus an increment into a
///    flat vector.  Names are interned once at static-initialization time;
///    the recording path never touches the string registry.
///
///  * **Dumps are byte-deterministic.**  Every recorded value derives from
///    the simulator clock or protocol state — never wall-clock — and every
///    export walks metrics in name order, so two fixed-seed runs produce
///    byte-identical metric dumps (a golden-testable property).
///
/// Disabled observability must cost (at most) one branch per call site:
/// components record through a Meter, a nullable registry handle whose
/// operations no-op when unset.  Defining IDEA_OBS_DISABLED turns the Meter
/// into a compile-time null sink with no members at all.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace idea::obs {

/// Interned metric name: a small integer id into a process-wide registry
/// mapping id <-> name.  Ids index flat per-registry arrays directly.
class MetricId {
 public:
  /// The invalid/unset metric; its name renders as "?".
  constexpr MetricId() = default;

  /// Intern `name`, returning the existing id when already registered.
  static MetricId intern(std::string_view name);

  /// Look up an already-interned name; returns the invalid MetricId when
  /// `name` was never interned.
  static MetricId lookup(std::string_view name);

  /// The interned name ("?" for the invalid metric).  The returned view
  /// points into the registry and stays valid for the process lifetime.
  [[nodiscard]] std::string_view name() const;

  [[nodiscard]] constexpr std::uint16_t id() const { return id_; }
  [[nodiscard]] constexpr bool valid() const { return id_ != 0; }

  friend constexpr bool operator==(MetricId, MetricId) = default;

 private:
  explicit constexpr MetricId(std::uint16_t id) : id_(id) {}

  std::uint16_t id_ = 0;
};

/// Fixed-bucket histogram over non-negative integer samples (latencies in
/// microseconds, staleness in versions, queue depths, ...).  Buckets are
/// powers of two — sample v lands in bucket bit_width(v), i.e. bucket b
/// covers [2^(b-1), 2^b) with bucket 0 reserved for v == 0 — so bucket
/// assignment is one instruction and the bounds are identical across runs
/// without per-metric configuration.
struct Histogram {
  /// 2^39 us is ~6.4 simulated days; anything beyond clamps into the
  /// last bucket (max still records the true value).
  static constexpr std::size_t kBuckets = 40;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void observe(std::uint64_t v) {
    std::size_t b = 0;
    while ((1ull << b) <= v && b + 1 < kBuckets) ++b;
    ++buckets[b];
    ++count;
    sum += v;
    if (v > max) max = v;
  }

  [[nodiscard]] double mean() const {
    return count == 0
               ? 0.0
               : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Quantile estimate by linear interpolation within the hit bucket's
  /// value range.  Deterministic; exact for single-valued buckets.
  [[nodiscard]] double quantile(double q) const;

  void merge(const Histogram& o);
};

/// One registry of metrics: flat arrays indexed by MetricId.  A deployment
/// keeps one registry per endpoint plus a cluster-level one; see
/// observability.hpp for the aggregation and export surface.
class MetricsRegistry {
 public:
  // --- recording (hot path) -------------------------------------------
  void add(MetricId m, std::uint64_t delta = 1) {
    grow(counters_, m.id());
    counters_[m.id()] += delta;
  }

  void set_gauge(MetricId m, std::int64_t value) {
    grow(gauges_, m.id());
    grow(gauge_set_, m.id());
    gauges_[m.id()] = value;
    gauge_set_[m.id()] = 1;
  }

  void observe(MetricId m, std::uint64_t value) {
    grow(histograms_, m.id());
    if (histograms_[m.id()] == nullptr) {
      histograms_[m.id()] = std::make_unique<Histogram>();
    }
    histograms_[m.id()]->observe(value);
  }

  // --- reading ---------------------------------------------------------
  [[nodiscard]] std::uint64_t counter(MetricId m) const {
    return m.id() < counters_.size() ? counters_[m.id()] : 0;
  }
  [[nodiscard]] std::int64_t gauge(MetricId m) const {
    return m.id() < gauges_.size() ? gauges_[m.id()] : 0;
  }
  /// Null when the metric was never observed here.
  [[nodiscard]] const Histogram* histogram(MetricId m) const {
    return m.id() < histograms_.size() ? histograms_[m.id()].get() : nullptr;
  }

  /// Name-keyed snapshot of the nonzero counters (tests, diagnostics).
  [[nodiscard]] std::map<std::string, std::uint64_t> counters_by_name() const;

  /// Whether anything was ever recorded here.
  [[nodiscard]] bool empty() const;

  /// Fold `other` into this registry (counters add, gauges keep the
  /// other's value when set there, histograms merge bucket-wise).  The
  /// cluster aggregator is built from this.
  void merge(const MetricsRegistry& other);

  void reset();

  /// Append this registry as a JSON object to `out`, metrics sorted by
  /// name — byte-deterministic for fixed-seed runs.  `indent` is the
  /// leading whitespace of the object's members.
  void append_json(std::string& out, const std::string& indent) const;

 private:
  template <typename V>
  static void grow(std::vector<V>& v, std::uint16_t id) {
    if (id >= v.size()) v.resize(id + 1);
  }

  std::vector<std::uint64_t> counters_;        ///< Indexed by MetricId.
  std::vector<std::int64_t> gauges_;           ///< Indexed by MetricId.
  std::vector<std::uint8_t> gauge_set_;        ///< 1 = gauge was written.
  std::vector<std::unique_ptr<Histogram>> histograms_;  ///< Sparse.
};

/// Nullable recording handle: the one-branch null sink.  Components hold a
/// Meter instead of a registry so that deployments without observability
/// pay a single predictable branch per record call — and none at all when
/// IDEA_OBS_DISABLED is defined, which compiles every Meter operation away.
#ifndef IDEA_OBS_DISABLED
class Meter {
 public:
  Meter() = default;
  explicit Meter(MetricsRegistry* registry) : registry_(registry) {}

  [[nodiscard]] bool enabled() const { return registry_ != nullptr; }

  void add(MetricId m, std::uint64_t delta = 1) const {
    if (registry_ != nullptr) registry_->add(m, delta);
  }
  void set_gauge(MetricId m, std::int64_t value) const {
    if (registry_ != nullptr) registry_->set_gauge(m, value);
  }
  void observe(MetricId m, std::uint64_t value) const {
    if (registry_ != nullptr) registry_->observe(m, value);
  }

 private:
  MetricsRegistry* registry_ = nullptr;
};
#else
class Meter {
 public:
  Meter() = default;
  explicit Meter(MetricsRegistry*) {}
  [[nodiscard]] bool enabled() const { return false; }
  void add(MetricId, std::uint64_t = 1) const {}
  void set_gauge(MetricId, std::int64_t) const {}
  void observe(MetricId, std::uint64_t) const {}
};
#endif

}  // namespace idea::obs

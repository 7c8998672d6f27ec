#include "obs/observability.hpp"

namespace idea::obs {

Observability::Observability(std::uint32_t endpoints,
                             ObservabilityConfig config) {
  ensure_endpoints(endpoints);
  if (config.tracing) tracer_ = std::make_unique<Tracer>();
}

MetricsRegistry& Observability::endpoint(NodeId id) {
  if (id >= endpoints_.size()) ensure_endpoints(id + 1);
  return endpoints_[id];
}

void Observability::ensure_endpoints(std::uint32_t count) {
  while (endpoints_.size() < count) endpoints_.emplace_back();
}

MetricsRegistry Observability::aggregate() const {
  MetricsRegistry out;
  out.merge(cluster_);
  for (const MetricsRegistry& r : endpoints_) out.merge(r);
  return out;
}

std::string Observability::export_metrics_json() const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"cluster\": ";
  cluster_.append_json(out, "  ");
  out += ",\n  \"aggregate\": ";
  aggregate().append_json(out, "  ");
  out += ",\n  \"endpoints\": [";
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    endpoints_[i].append_json(out, "    ");
  }
  out += endpoints_.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void Observability::note_repair_trace(FileId file, const TraceContext& tc) {
  if (tc.active()) repair_traces_[file] = tc;
}

TraceContext Observability::peek_repair_trace(FileId file) const {
  auto it = repair_traces_.find(file);
  return it == repair_traces_.end() ? TraceContext{} : it->second;
}

void Observability::clear_repair_trace(FileId file) {
  repair_traces_.erase(file);
}

}  // namespace idea::obs

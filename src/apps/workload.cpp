#include "apps/workload.hpp"

namespace idea::apps {

ContentGenerator make_stroke_generator(std::uint64_t seed) {
  // Deterministic short "strokes"; meta delta = scaled ASCII sum (§4.4.1).
  return [seed](NodeId writer, int index) {
    Rng rng(mix64(seed ^ (static_cast<std::uint64_t>(writer) << 20) ^
                  static_cast<std::uint64_t>(index)));
    static constexpr const char* kWords[] = {
        "circle", "arrow", "note",  "box",   "line",
        "erase",  "label", "graph", "point", "mark"};
    std::string text = kWords[rng.next_below(10)];
    text += '-';
    text += std::to_string(rng.next_below(100));
    double ascii_sum = 0;
    for (char c : text) ascii_sum += static_cast<unsigned char>(c);
    return std::make_pair(text, ascii_sum / 100.0);
  };
}

UpdateWorkload::UpdateWorkload(core::IdeaCluster& cluster,
                               std::vector<NodeId> writers,
                               WorkloadParams params,
                               ContentGenerator generator,
                               std::uint64_t seed)
    : cluster_(cluster), writers_(std::move(writers)), params_(params),
      generator_(std::move(generator)), rng_(seed) {}

void UpdateWorkload::start() {
  const SimTime now = cluster_.sim().now();
  end_time_ = now + params_.duration;
  for (NodeId w : writers_) schedule_writer(w, 0, now);
}

void UpdateWorkload::schedule_writer(NodeId writer, int index, SimTime when) {
  if (when >= end_time_) return;
  cluster_.sim().schedule_at(when, [this, writer, index] {
    ++attempted_;
    auto [content, meta] = generator_(writer, index);
    if (!cluster_.node(writer).write(std::move(content), meta)) {
      ++blocked_;
    }
    SimDuration gap = params_.interval;
    if (params_.jitter_frac > 0.0) {
      const double j = rng_.uniform(-params_.jitter_frac,
                                    params_.jitter_frac);
      gap += static_cast<SimDuration>(static_cast<double>(gap) * j);
    }
    schedule_writer(writer, index + 1, cluster_.sim().now() + gap);
  });
}

}  // namespace idea::apps

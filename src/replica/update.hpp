#pragma once
/// \file update.hpp
/// \brief The unit of replicated state change.
///
/// An Update is one write issued by one node against one shared file (a
/// white-board stroke, a ticket booking, ...).  Identity is (writer, seq);
/// a writer's own updates are totally ordered, updates of different writers
/// may conflict.  `meta_delta` is the update's contribution to the file's
/// critical meta-data value (§4.4.1: sum of ASCII codes, sale price, ...).

#include <cstdint>
#include <string>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace idea::replica {

/// Globally unique identity of an update.
struct UpdateKey {
  NodeId writer = kNoNode;
  std::uint64_t seq = 0;  ///< 1-based within the writer's history.

  friend bool operator==(const UpdateKey&, const UpdateKey&) = default;
  friend auto operator<=>(const UpdateKey&, const UpdateKey&) = default;
};

struct UpdateKeyHash {
  std::size_t operator()(const UpdateKey& k) const {
    return static_cast<std::size_t>(
        mix64((static_cast<std::uint64_t>(k.writer) << 32) ^ k.seq));
  }
};

struct Update {
  UpdateKey key;
  SimTime stamp = 0;        ///< Writer-local timestamp of the write.
  std::string content;      ///< Opaque application payload.
  double meta_delta = 0.0;  ///< Contribution to the critical meta value.
  FileId file = 0;
  bool invalidated = false; ///< Set by the invalidate-both policy.

  /// Estimated serialized size for message accounting.
  [[nodiscard]] std::uint32_t wire_bytes() const {
    return static_cast<std::uint32_t>(40 + content.size());
  }

  friend bool operator==(const Update&, const Update&) = default;
};
// Every replica logs every update it holds, so the member order is kept
// for the layout: `file` and `invalidated` share the word after
// `meta_delta`; placed apart, each would pad a word of its own.
static_assert(sizeof(Update) <= 72, "an Update pads to a wider layout");

/// Canonical display order: by stamp, ties by writer then seq.  All replicas
/// holding the same update set render the same sequence, which is what the
/// white board's "order preservation" means.
struct CanonicalOrder {
  bool operator()(const Update& a, const Update& b) const {
    if (a.stamp != b.stamp) return a.stamp < b.stamp;
    return a.key < b.key;
  }
};

}  // namespace idea::replica

#pragma once
/// \file message.hpp
/// \brief Protocol message representation and accounting.
///
/// IDEA runs in-process (simulated or threaded), so messages carry typed
/// payloads (see payload.hpp) instead of serialized bytes.  Each message
/// still declares a `wire_bytes` estimate so the overhead benches (Table 3)
/// can account communication cost the way the paper does (message counts
/// and an assumed ~1 KB packet size).
///
/// The hot-path representation is deliberately lean: the protocol tag is an
/// interned MsgType id (one comparison / one array index instead of string
/// hashing), and the body is a refcounted immutable Payload, so copying a
/// Message at a transport hop costs a refcount bump, not a deep copy.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/msg_type.hpp"
#include "net/payload.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace idea::net {

/// One protocol message in flight.
struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  FileId file = 0;          ///< Shared object this message concerns.
  MsgType type;             ///< Interned protocol tag, e.g. "detect.vv".
  Payload payload;          ///< Shared immutable body; receiver casts by type.
  std::uint32_t wire_bytes = 64;  ///< Estimated on-the-wire size.
  SimTime sent_at = 0;      ///< Stamped by the transport on send.
  /// Group-epoch fence (shard layer): a migrated file's replica group is
  /// rebuilt under a new epoch, and messages from the old epoch must not
  /// leak into the new stacks with remapped sender ranks.  0 for every
  /// deployment that never changes membership.
  std::uint32_t epoch = 0;
  /// Causal-trace context (obs layer): the trace this message belongs to
  /// and the sender-side span covering its flight.  Metadata only — not
  /// counted in wire_bytes, never consulted by the protocols — so traced
  /// and untraced runs are byte-identical.  0 = untraced.
  std::uint64_t trace = 0;
  std::uint32_t span = 0;
  /// Delivery-confirmation request (shard layer): the receiver of a
  /// replicate push acks it iff this is set.  The sender sets it on every
  /// push while the group's resends are on, and on the pushes of a
  /// WriteConcern{w > 1} put.  One flag bit in a real header; not counted
  /// in wire_bytes.
  bool want_ack = false;
};

/// Per-type and total message/byte counters.
///
/// Per-type counts live in a flat array indexed by the interned type id, so
/// the record() on every send is two increments and an array bump — no map
/// node allocation, no string hashing.  Counter reads are cheap and the
/// benches snapshot/reset between phases, so background-resolution overhead
/// can be attributed per period (Table 3).
class MessageCounters {
 public:
  void record(MsgType type, std::uint32_t bytes) {
    ++messages_;
    bytes_ += bytes;
    const std::uint16_t id = type.id();
    if (id >= per_type_.size()) grow(id);
    ++per_type_[id];
  }

  /// Convenience for tests/diagnostics that speak names; interns `type`.
  void record(std::string_view type, std::uint32_t bytes) {
    record(MsgType::intern(type), bytes);
  }

  [[nodiscard]] std::uint64_t total_messages() const { return messages_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return bytes_; }

  [[nodiscard]] std::uint64_t messages_of(MsgType type) const {
    return type.id() < per_type_.size() ? per_type_[type.id()] : 0;
  }
  [[nodiscard]] std::uint64_t messages_of(std::string_view type) const {
    // A never-interned name must count 0 — lookup's invalid MsgType (id 0)
    // would otherwise alias the untyped-message bucket.
    const MsgType t = MsgType::lookup(type);
    return t.valid() ? messages_of(t) : 0;
  }

  /// Name-keyed snapshot of the nonzero per-type counts (diagnostics and
  /// bench reports; not a hot path).
  [[nodiscard]] std::map<std::string, std::uint64_t> by_type() const;

  /// Messages whose type starts with `prefix` (e.g. "resolve."), resolved
  /// through the registry's ordered name index (a lower_bound range walk,
  /// not a scan over every recorded type).
  [[nodiscard]] std::uint64_t messages_with_prefix(
      std::string_view prefix) const;

  void reset();

 private:
  void grow(std::uint16_t id);

  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::vector<std::uint64_t> per_type_;  ///< Indexed by MsgType id.
};

/// Receiver interface implemented by every protocol node.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void on_message(const Message& msg) = 0;
};

}  // namespace idea::net

#pragma once
/// \file service.hpp
/// \brief Multi-file IDEA endpoint: the per-file message demultiplexer.
///
/// §4.1: "because consistency is associated with a single file, the concept
/// of top/bottom layer is also associated with a given shared file —
/// different files may have different top layers — and different top layers
/// do not interfere with one another.  For example, if a user joins
/// multiple virtual white boards, each white board is treated separately
/// and independently."
///
/// IdeaService is what one endpoint does for the files it hosts: it claims
/// the endpoint's transport slot for its lifetime and hands each incoming
/// message to the handler its deployment names for the message's file, so
/// every file's protocol stack runs separately.  It keeps no per-file
/// state: which handler serves (endpoint, file) is the deployment's fact
/// (ShardedCluster reads it from the file's group record), asked through
/// FileSinks once per message.

#include "net/transport.hpp"
#include "util/ids.hpp"

namespace idea::core {

/// The one question an endpoint asks its deployment: which handler takes
/// `file`'s messages at `endpoint`.
class FileSinks {
 public:
  /// The handler (borrowed) for `file`'s messages arriving at `endpoint`;
  /// nullptr when the endpoint hosts no live replica of the file, and the
  /// message drops.
  [[nodiscard]] virtual net::MessageHandler* sink(NodeId endpoint,
                                                  FileId file) = 0;

 protected:
  ~FileSinks() = default;
};

class IdeaService final : public net::MessageHandler {
 public:
  /// `transport` and `sinks` are borrowed and must outlive the service.
  IdeaService(NodeId self, net::Transport& transport, FileSinks& sinks)
      : self_(self), transport_(transport), sinks_(sinks) {
    transport_.attach(self_, this);
  }

  ~IdeaService() override { transport_.detach(self_); }

  IdeaService(const IdeaService&) = delete;
  IdeaService& operator=(const IdeaService&) = delete;

  [[nodiscard]] NodeId id() const { return self_; }

  /// Hand the message to its file's sink; messages for files with no sink
  /// here are dropped (this endpoint is a bottom-layer bystander for them
  /// at most, and gossip dedup tolerates the loss).
  void on_message(const net::Message& msg) override {
    if (net::MessageHandler* sink = sinks_.sink(self_, msg.file)) {
      sink->on_message(msg);
    }
  }

 private:
  NodeId self_;
  net::Transport& transport_;
  FileSinks& sinks_;
};

}  // namespace idea::core

#pragma once
/// \file ransub.hpp
/// \brief RanSub (Kostić et al. [9]): epoch-based uniform random subset
///        distribution over a tree, carrying temperature advertisements.
///
/// Nodes are arranged in a 4-ary tree by id.  Each epoch has two waves:
///
///  * collect — leaves send their own state up; each internal node merges
///    its children's samples with its own state into a uniform sample of its
///    subtree (weighted reservoir merge) and forwards it to its parent;
///  * distribute — the root takes the whole-tree sample and pushes a uniform
///    random subset down; every node ends the epoch holding a random subset
///    of (node, temperature) advertisements drawn from the entire tree.
///
/// IDEA's temperature overlay consumes these subsets: hot writers appear in
/// everyone's samples within a few epochs, which is how the top layer forms
/// ("after warming up, the four writers form a top layer" — §6.1).

#include <functional>
#include <unordered_map>
#include <vector>

#include "net/msg_type.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace idea::overlay {

/// One advertisement travelling in RanSub samples.
struct TempAd {
  NodeId node = kNoNode;
  FileId file = 0;
  double temperature = 0.0;
  SimTime stamped_at = 0;
};

/// The tree's fan-out (4) and the 2 s an internal node waits for its
/// children's collect samples before it proceeds without the stragglers
/// are constants (ransub.cpp).
struct RanSubParams {
  std::uint32_t sample_size = 8;    ///< Ads per sample.
  SimDuration epoch = sec(5);       ///< Epoch length (root timer).
  std::uint32_t nodes = 0;          ///< Total node count (tree shape).
};

/// Static k-ary tree helper (node 0 is the root).
struct KaryTree {
  std::uint32_t arity;
  std::uint32_t nodes;

  [[nodiscard]] NodeId parent(NodeId n) const {
    return n == 0 ? kNoNode : (n - 1) / arity;
  }
  [[nodiscard]] std::vector<NodeId> children(NodeId n) const;
  [[nodiscard]] bool is_leaf(NodeId n) const { return children(n).empty(); }
};

/// Per-node RanSub agent.  Drives the collect/distribute waves over the
/// Transport; the root's epoch timer starts each round.
class RanSubAgent final : public net::MessageHandler {
 public:
  /// `supply_ads` returns this node's current advertisements (its own
  /// temperatures).  `deliver` is invoked once per epoch with the random
  /// subset this node received in the distribute wave.
  RanSubAgent(NodeId self, FileId file, net::Transport& transport,
              RanSubParams params,
              std::function<std::vector<TempAd>()> supply_ads,
              std::function<void(const std::vector<TempAd>&)> deliver,
              std::uint64_t seed);

  RanSubAgent(const RanSubAgent&) = delete;
  RanSubAgent& operator=(const RanSubAgent&) = delete;
  ~RanSubAgent() override;

  /// Start the epoch timer (root only; no-op elsewhere).
  void start();

  void on_message(const net::Message& msg) override;

  /// Messages types used by the protocol (exposed for accounting).
  static const net::MsgType kCollectType;      ///< "ransub.collect"
  static const net::MsgType kDistributeType;   ///< "ransub.distribute"
  static const net::MsgType kEpochType;        ///< "ransub.epoch"

  [[nodiscard]] std::uint64_t epochs_completed() const { return epochs_; }

 private:
  struct Sample {
    std::vector<TempAd> ads;
    double weight = 0.0;  ///< Subtree population this sample represents.
  };

  void begin_epoch();
  void on_epoch_marker(const net::Message& msg);
  void on_collect(const net::Message& msg);
  void on_distribute(const net::Message& msg);
  void arm_collect_deadline();
  void try_finish_collect();
  void finish_collect();
  [[nodiscard]] Sample own_sample();
  /// Weighted uniform merge of child samples + own state.
  [[nodiscard]] Sample merge_samples(std::vector<Sample> parts);
  void send_distribute(const std::vector<TempAd>& subset);

  NodeId self_;
  FileId file_;  ///< Overlays are per-file (§4.1); stamped on every message.
  net::Transport& transport_;
  RanSubParams params_;
  KaryTree tree_;
  std::function<std::vector<TempAd>()> supply_ads_;
  std::function<void(const std::vector<TempAd>&)> deliver_;
  Rng rng_;

  std::uint64_t current_epoch_ = 0;
  std::uint64_t epochs_ = 0;
  bool collect_done_ = true;
  std::unordered_map<NodeId, Sample> pending_children_;
  std::uint64_t timer_handle_ = 0;
  std::uint64_t deadline_handle_ = 0;
};

}  // namespace idea::overlay

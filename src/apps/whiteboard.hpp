#pragma once
/// \file whiteboard.hpp
/// \brief Emulated distributed white board (§3.1, §5.1) — the synchronous
///        collaboration application.
///
/// Each participant holds a local replica of the board; strokes are writes
/// whose meta-data is the (scaled) ASCII sum of the stroke text.  Scripted
/// users watch the consistency level IDEA attaches to their view: in
/// on-demand mode an unsatisfied user calls user_unsatisfied() (IDEA then
/// resolves and learns L1 + delta); hint-based users rely on the standing
/// hint and can re-hint mid-session (Figure 8).

#include <string>
#include <vector>

#include "client/session.hpp"
#include "core/cluster.hpp"
#include "util/stats.hpp"

namespace idea::shard {
class ShardedCluster;
}

namespace idea::apps {

/// Scripted stand-in for a human participant.
struct UserModel {
  NodeId node = kNoNode;
  /// The user's *real* tolerance: seeing a level below this annoys them.
  double real_tolerance = 0.9;
  /// In on-demand mode, an annoyed user complains (user_unsatisfied).
  bool complains = true;
  std::uint64_t times_annoyed = 0;
  std::uint64_t times_complained = 0;
};

class WhiteboardApp {
 public:
  WhiteboardApp(core::IdeaCluster& cluster, std::vector<NodeId> participants);

  /// Post a stroke as `user`; returns false while resolution blocks writes.
  bool post(NodeId user, const std::string& text);

  /// The board as `user` currently sees it (canonical order, live strokes).
  [[nodiscard]] std::vector<std::string> view(NodeId user) const;

  /// The consistency level attached to `user`'s latest view.
  [[nodiscard]] double level(NodeId user) const;

  /// Attach a scripted user; their reactions run on every level sample.
  void attach_user(UserModel user);

  /// Record one sample per participant into the time series (bench helper).
  void sample_levels(SimTime now);

  [[nodiscard]] const std::vector<NodeId>& participants() const {
    return participants_;
  }
  [[nodiscard]] const TimeSeries& worst_series() const { return worst_; }
  [[nodiscard]] const TimeSeries& average_series() const { return average_; }
  [[nodiscard]] const std::vector<UserModel>& users() const { return users_; }

  /// True iff all participants see identical boards.
  [[nodiscard]] bool boards_match() const;

  /// Meta value for a stroke: scaled ASCII sum, as in the paper.
  [[nodiscard]] static double stroke_meta(const std::string& text);

 private:
  core::IdeaCluster& cluster_;
  std::vector<NodeId> participants_;
  std::vector<UserModel> users_;
  TimeSeries worst_{"view from the user"};
  TimeSeries average_{"system average"};
};

/// The white board as a sharded-cluster tenant: one board file placed on
/// the ring, each participant a client session attached at its own
/// endpoint with the board's declared consistency level.  Strokes are
/// strong writes through the participant's session; views are routed
/// reads at the declared level — the sharded deployment of §3.1, driven
/// entirely through the unified client API.
class SharedWhiteboard {
 public:
  SharedWhiteboard(shard::ShardedCluster& cluster, FileId board,
                   std::vector<NodeId> participants,
                   client::ConsistencyLevel level);

  /// Post a stroke as `user`; returns false while resolution blocks
  /// writes.
  bool post(NodeId user, const std::string& text);

  /// The board as `user`'s session currently reads it (live strokes,
  /// canonical order, served per the declared level).
  [[nodiscard]] std::vector<std::string> view(NodeId user);

  /// The routed read behind view(), with its staleness/latency detail.
  [[nodiscard]] client::OpHandle<client::ReadResult> read(NodeId user);

  /// True iff every participant's declared-level view currently matches
  /// the coordinator's strong view.
  [[nodiscard]] bool boards_match();

  [[nodiscard]] const std::vector<NodeId>& participants() const {
    return participants_;
  }
  [[nodiscard]] FileId board() const { return board_; }

 private:
  [[nodiscard]] client::ClientSession& session_of(NodeId user);

  FileId board_;
  std::vector<NodeId> participants_;
  client::Client client_;
  std::vector<client::ClientSession> sessions_;  ///< Parallel to participants_.
};

}  // namespace idea::apps

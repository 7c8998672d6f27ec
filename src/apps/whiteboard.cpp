#include "apps/whiteboard.hpp"

#include <algorithm>
#include <cassert>

#include "shard/sharded_cluster.hpp"

namespace idea::apps {

WhiteboardApp::WhiteboardApp(core::IdeaCluster& cluster,
                             std::vector<NodeId> participants)
    : cluster_(cluster), participants_(std::move(participants)) {}

double WhiteboardApp::stroke_meta(const std::string& text) {
  double ascii_sum = 0;
  for (char c : text) ascii_sum += static_cast<unsigned char>(c);
  return ascii_sum / 100.0;
}

bool WhiteboardApp::post(NodeId user, const std::string& text) {
  return cluster_.node(user).write(text, stroke_meta(text));
}

std::vector<std::string> WhiteboardApp::view(NodeId user) const {
  std::vector<std::string> out;
  for (const auto& u : cluster_.node(user).store().ordered_contents()) {
    if (!u.invalidated) out.push_back(u.content);
  }
  return out;
}

double WhiteboardApp::level(NodeId user) const {
  return cluster_.node(user).current_level();
}

void WhiteboardApp::attach_user(UserModel user) {
  users_.push_back(user);
  const std::size_t idx = users_.size() - 1;
  cluster_.node(user.node).set_level_listener(
      [this, idx](const core::LevelSample& sample) {
        UserModel& u = users_[idx];
        if (sample.level < u.real_tolerance) {
          ++u.times_annoyed;
          if (u.complains) {
            ++u.times_complained;
            cluster_.node(u.node).user_unsatisfied();
          }
        }
      });
}

void WhiteboardApp::sample_levels(SimTime now) {
  double worst = 1.0;
  double sum = 0.0;
  for (NodeId p : participants_) {
    const double lv = level(p);
    worst = std::min(worst, lv);
    sum += lv;
  }
  const double t = to_sec(now);
  worst_.add(t, worst);
  average_.add(t, sum / static_cast<double>(participants_.size()));
}

bool WhiteboardApp::boards_match() const {
  if (participants_.empty()) return true;
  const auto first = view(participants_.front());
  for (NodeId p : participants_) {
    if (view(p) != first) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// SharedWhiteboard (sharded deployment, session API)
// ---------------------------------------------------------------------------

SharedWhiteboard::SharedWhiteboard(shard::ShardedCluster& cluster,
                                   FileId board,
                                   std::vector<NodeId> participants,
                                   client::ConsistencyLevel level)
    : board_(board),
      participants_(std::move(participants)),
      client_(cluster) {
  sessions_.reserve(participants_.size());
  client::SessionOptions options;
  options.level = level;
  for (NodeId p : participants_) {
    options.origin = p;
    sessions_.push_back(client_.session(options));
  }
  if (!sessions_.empty()) sessions_.front().open(board_);
}

client::ClientSession& SharedWhiteboard::session_of(NodeId user) {
  const auto it =
      std::find(participants_.begin(), participants_.end(), user);
  assert(it != participants_.end() && "unknown whiteboard participant");
  return sessions_[static_cast<std::size_t>(it - participants_.begin())];
}

bool SharedWhiteboard::post(NodeId user, const std::string& text) {
  return session_of(user)
      .put(board_, text, WhiteboardApp::stroke_meta(text))
      .ok();
}

client::OpHandle<client::ReadResult> SharedWhiteboard::read(NodeId user) {
  return session_of(user).read(board_);
}

std::vector<std::string> SharedWhiteboard::view(NodeId user) {
  std::vector<std::string> out;
  const client::OpHandle<client::ReadResult> handle = read(user);
  if (!handle.ok()) return out;
  for (const replica::Update& u : *handle->updates) {
    if (!u.invalidated) out.push_back(u.content);
  }
  return out;
}

double SharedWhiteboard::level() {
  return sessions_.empty() ? 1.0 : sessions_.front().level(board_);
}

bool SharedWhiteboard::boards_match() {
  if (sessions_.empty()) return true;
  const client::OpHandle<client::ReadResult> strong =
      sessions_.front().read(board_, client::ConsistencyLevel::strong());
  if (!strong.ok()) return false;
  std::vector<std::string> reference;
  for (const replica::Update& u : *strong->updates) {
    if (!u.invalidated) reference.push_back(u.content);
  }
  for (NodeId p : participants_) {
    if (view(p) != reference) return false;
  }
  return true;
}

}  // namespace idea::apps

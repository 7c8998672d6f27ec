#include "replica/hint_store.hpp"

#include <algorithm>
#include <utility>

namespace idea::replica {

void HintStore::enqueue(HintedWrite hint) {
  hints_.push_back(std::move(hint));
  ++stats_.queued;
}

template <typename Match>
std::vector<HintedWrite> HintStore::extract(Match match) {
  std::vector<HintedWrite> out;
  auto keep = hints_.begin();
  for (auto it = hints_.begin(); it != hints_.end(); ++it) {
    if (match(*it)) {
      out.push_back(std::move(*it));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  hints_.erase(keep, hints_.end());
  return out;
}

std::vector<HintedWrite> HintStore::drain_for(NodeId target) {
  std::vector<HintedWrite> out =
      extract([target](const HintedWrite& h) { return h.target == target; });
  stats_.drained += out.size();
  return out;
}

std::size_t HintStore::drop_file(FileId file) {
  const std::size_t dropped = take_file(file).size();
  stats_.dropped += dropped;
  return dropped;
}

std::vector<HintedWrite> HintStore::take_file(FileId file) {
  return extract([file](const HintedWrite& h) { return h.file == file; });
}

void HintStore::re_mint(HintedWrite hint) {
  hints_.push_back(std::move(hint));
  ++stats_.reminted;
}

std::size_t HintStore::depth_for(NodeId target) const {
  return static_cast<std::size_t>(
      std::count_if(hints_.begin(), hints_.end(),
                    [target](const HintedWrite& h) {
                      return h.target == target;
                    }));
}

}  // namespace idea::replica

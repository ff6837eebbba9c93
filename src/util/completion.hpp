// The reorder buffer behind the engine's streaming combine path.
//
// The ProtocolEngine's determinism story rests on one small mechanism: no
// matter in which order machine summaries COMPLETE (sequentially, by thread
// scheduling on the in-process CompletionQueue, or by frame arrival from
// socket or shm workers), the coordinator absorbs them in ascending
// machine-id order, so every run consumes the coordinator's RNG and mutates
// the fold draw-for-draw the same way. The engine's one collect loop feeds
// every machine-phase shape through one CanonicalReorder, so the
// seed-for-seed differential between the transports tests the transports,
// not copies of the reordering logic.
#pragma once

#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace rcc {

/// Reorder buffer keyed on machine id: feed it completions in any order, it
/// invokes the absorb callback for every id that becomes releasable in
/// ascending order (id i is releasable once 0..i-1 have all been absorbed).
class CanonicalReorder {
 public:
  explicit CanonicalReorder(std::size_t k) : completed_(k, 0) {}

  /// Marks `id` complete and absorbs every releasable id in order.
  template <typename Absorb>
  void complete(std::size_t id, Absorb&& absorb) {
    RCC_CHECK(id < completed_.size() && completed_[id] == 0);
    completed_[id] = 1;
    while (next_ < completed_.size() && completed_[next_] != 0) {
      absorb(next_);
      ++next_;
    }
  }

  /// True once every id in [0, k) has been absorbed.
  bool drained() const { return next_ == completed_.size(); }

 private:
  std::vector<char> completed_;
  std::size_t next_ = 0;
};

}  // namespace rcc

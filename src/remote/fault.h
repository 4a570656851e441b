// Fault-injecting FetchTransport wrapper for tests.
//
// Wraps any transport and perturbs its fetches deterministically:
//
//   * drop  — the fetch "fails on the wire": the inner transport is
//             never asked, and a failed completion is delivered instead
//             (how an RC transport surfaces exhausted NIC-level retries);
//   * tear  — the fetch completes but the buffer looks torn: one version
//             word is bumped to an odd value after the copy, so seqlock
//             validation must reject it;
//   * delay — completions are withheld for a number of polls before
//             delivery, exercising the engine's wait loop.
//
// Faults fire per fetch in post order: fetch k (0-based) is dropped when
// `drop.Hits(k)`, torn when `tear.Hits(k)`. This makes tests exact: a
// plan of {first: 3} means fetches 0,1,2 fail and fetch 3 succeeds.
#pragma once

#include <cstdint>
#include <deque>

#include "rdmasim/rdma.h"
#include "remote/transport.h"
#include "rtree/layout.h"

namespace catfish::remote {

class FaultInjectingTransport final : public FetchTransport {
 public:
  explicit FaultInjectingTransport(FetchTransport* inner) : inner_(inner) {}

  /// Which fetch ordinals each fault hits: the flaky-link plan of
  /// rdmasim, counted per transport here.
  using FaultPlan = rdma::FaultController::DropPlan;
  FaultPlan drop;   ///< fail these fetches outright
  FaultPlan tear;   ///< deliver these fetches with a torn version word
  uint64_t delay_polls = 0;  ///< withhold each completion this many polls

  bool PostFetch(uint64_t token, ChunkId id,
                 std::span<std::byte> dst) override {
    const uint64_t ordinal = fetches_++;
    if (drop.Hits(ordinal)) {
      held_.push_back(Held{FetchCompletion{token, false}, delay_polls, true});
      return true;
    }
    if (!inner_->PostFetch(token, id, dst)) return false;
    if (tear.Hits(ordinal)) pending_tears_.Add(token, dst);
    return true;
  }

  size_t PollCompletions(std::span<FetchCompletion> out) override {
    // Pull everything the inner transport has ready, apply tears, then
    // queue through the delay line. Entries surfaced by THIS poll are
    // marked fresh and skip this poll's aging pass — otherwise they would
    // be delivered one poll early (after delay_polls - 1 further polls
    // instead of delay_polls).
    FetchCompletion inner_out[16];
    size_t n;
    while ((n = inner_->PollCompletions(inner_out)) > 0) {
      for (size_t i = 0; i < n; ++i) {
        ApplyTear(inner_out[i]);
        held_.push_back(Held{inner_out[i], delay_polls, true});
      }
    }
    for (auto& h : held_) {
      if (h.fresh) {
        h.fresh = false;
      } else if (h.polls_left > 0) {
        --h.polls_left;
      }
    }
    size_t produced = 0;
    while (produced < out.size() && !held_.empty() &&
           held_.front().polls_left == 0 && !held_.front().fresh) {
      out[produced++] = held_.front().wc;
      held_.pop_front();
    }
    return produced;
  }

  uint64_t fetches_posted() const noexcept { return fetches_; }

 private:
  struct Held {
    FetchCompletion wc;
    uint64_t polls_left;
    /// Set on the poll (or post) that enqueued the entry; cleared by the
    /// next aging pass in lieu of a decrement, so every entry waits a
    /// full `delay_polls` polls regardless of when it was enqueued.
    bool fresh;
  };
  void ApplyTear(const FetchCompletion& wc) {
    // Token-keyed in-flight bookkeeping shared with QpFetchTransport
    // (PendingFetchMap): posted tears are looked up — and retired — by
    // the completion's token.
    const auto dst = pending_tears_.Take(wc.token);
    if (!dst) return;
    if (wc.ok && dst->size() >= rtree::kLineSize) {
      // Make line 0's version odd: validation must reject the image.
      auto line0 = dst->first(rtree::kLineSize);
      rtree::BeginWrite(line0);
    }
  }

  FetchTransport* inner_;
  uint64_t fetches_ = 0;
  std::deque<Held> held_;
  PendingFetchMap pending_tears_;
};

}  // namespace catfish::remote

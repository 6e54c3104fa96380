#include "cusim/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace cusfft::cusim {

void Timeline::clear() {
  items_.clear();
  schedule_.clear();
  events_.clear();
  last_on_stream_.clear();
  pending_deps_.clear();
  pending_after_.clear();
  dep_arena_.reset();
  barrier_ = 0;
  dirty_ = true;
}

void Timeline::clear_events() {
  events_.clear();
  // The cached makespan/schedule was computed for the pre-clear event set;
  // force the next simulate() to recompute rather than reuse it.
  dirty_ = true;
}

std::size_t Timeline::record_event(StreamId s) {
  EventMark m;
  m.scoped = true;
  if (const auto it = last_on_stream_.find(s); it != last_on_stream_.end())
    m.item = static_cast<std::ptrdiff_t>(it->second);
  events_.push_back(m);
  return events_.size() - 1;
}

void Timeline::wait_event(StreamId s, std::size_t event_id) {
  if (event_id >= events_.size())
    throw std::out_of_range("Timeline::wait_event: unknown event");
  const EventMark& e = events_[event_id];
  if (e.scoped) {
    if (e.item >= 0)
      pending_deps_[s].push_back(static_cast<std::size_t>(e.item));
  } else {
    std::size_t& upto = pending_after_[s];
    upto = std::max(upto, e.upto);
  }
}

double Timeline::event_time_s(std::size_t event_id) const {
  return event_time_s(event_id, schedule_);
}

double Timeline::event_time_s(std::size_t event_id,
                              const std::vector<ItemSchedule>& sched) const {
  if (event_id >= events_.size())
    throw std::out_of_range("Timeline::event_time_s: unknown event");
  const EventMark& e = events_[event_id];
  if (e.scoped) {
    if (e.item < 0 || static_cast<std::size_t>(e.item) >= sched.size())
      return 0.0;
    return sched[static_cast<std::size_t>(e.item)].finish_s;
  }
  double t = 0.0;
  for (std::size_t i = 0; i < e.upto && i < sched.size(); ++i)
    t = std::max(t, sched[i].finish_s);
  return t;
}

std::size_t Timeline::submit(TimelineItem item) {
  return submit(std::move(item), {});
}

std::size_t Timeline::submit(TimelineItem item,
                             std::span<const std::size_t> deps) {
  item.after = barrier_;
  if (const auto it = pending_after_.find(item.stream);
      it != pending_after_.end()) {
    item.after = std::max(item.after, it->second);
    pending_after_.erase(it);
  }
  // Merge caller-set deps, the explicit list, and the stream's pending
  // wait_event() deps into one arena-backed span: the caller's storage may
  // not outlive this call, the arena does (until clear()).
  const auto pend = pending_deps_.find(item.stream);
  const std::size_t pend_n =
      pend != pending_deps_.end() ? pend->second.size() : 0;
  const std::size_t total = item.deps.size() + deps.size() + pend_n;
  if (total != 0) {
    std::size_t* dst = dep_arena_.alloc_array<std::size_t>(total);
    std::size_t k = 0;
    for (const std::size_t d : item.deps) dst[k++] = d;
    for (const std::size_t d : deps) dst[k++] = d;
    if (pend_n != 0)
      for (const std::size_t d : pend->second) dst[k++] = d;
    item.deps = {dst, total};
  }
  if (pend != pending_deps_.end()) pending_deps_.erase(pend);
  items_.push_back(std::move(item));
  last_on_stream_[items_.back().stream] = items_.size() - 1;
  dirty_ = true;
  return items_.size() - 1;
}

MergedSchedule merged_schedule(std::span<const ScheduleLane> lanes,
                               const PcieStaging& staging) {
  const std::size_t nlanes = lanes.size();
  MergedSchedule ms;
  ms.items.resize(nlanes);
  ms.pcie_queue_s.assign(nlanes, 0.0);

  // A running or startable item: only stream heads can be either.
  struct Head {
    std::size_t g = 0;  // global index (lane-major); npos once retired
    unsigned lane = 0;
    double mem_left = 0, comp_left = 0;
    bool running = false;
    bool held = false;  // ready this step but queued by the staging policy
  };
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  // Lane l holds the global indices [base[l], base[l + 1]).
  std::vector<std::size_t> base(nlanes + 1, 0);
  for (std::size_t l = 0; l < nlanes; ++l) {
    base[l + 1] = base[l] + lanes[l].items.size();
    ms.items[l].assign(lanes[l].items.size(), ItemSchedule{});
  }
  const std::size_t n = base[nlanes];
  auto item_of = [&](std::size_t g, unsigned l) -> const TimelineItem& {
    return lanes[l].items[g - base[l]];
  };
  auto make_head = [&](std::size_t g, unsigned l) {
    Head h;
    h.g = g;
    h.lane = l;
    h.mem_left = item_of(g, l).mem_s;
    h.comp_left = item_of(g, l).compute_s;
    return h;
  };
  // next[g]: the following item on g's stream (npos if none); the first
  // item of every stream is an initial head, found in ascending order.
  std::vector<std::size_t> next(n, npos);
  std::vector<Head> heads;
  for (unsigned l = 0; l < nlanes; ++l) {
    std::vector<std::pair<StreamId, std::size_t>> last;  // global indices
    for (std::size_t g = base[l]; g < base[l + 1]; ++g) {
      const StreamId sid = item_of(g, l).stream;
      const auto it = std::find_if(
          last.begin(), last.end(),
          [&](const auto& p) { return p.first == sid; });
      if (it != last.end()) {
        next[it->second] = g;
        it->second = g;
      } else {
        last.emplace_back(sid, g);
        heads.push_back(make_head(g, l));
      }
    }
  }

  constexpr double kEps = 1e-15;
  std::vector<char> done(n, 0);
  // done_prefix[l]: the lane's first not-done local index, so "all of
  // [0, after) done" is `after <= done_prefix[l]`.
  std::vector<std::size_t> done_prefix(nlanes, 0);
  std::vector<unsigned> dev_running(nlanes, 0), dev_mem(nlanes, 0);
  unsigned pcie_running = 0;
  unsigned rr_next = 0;  // round-robin rotation cursor (lane index)
  const auto nl = static_cast<unsigned>(nlanes);
  auto rr_dist = [&](unsigned l) { return (l + nl - rr_next) % nl; };
  double t = 0.0;
  std::size_t done_count = 0;
  while (done_count < n) {
    // Start every eligible head, respecting each lane's kernel window and
    // the root-complex staging policy for PCIe copies.
    Head* rr_pick = nullptr;  // best kRoundRobin candidate this step
    for (Head& h : heads) {
      h.held = false;
      if (h.running) continue;
      const TimelineItem& it = item_of(h.g, h.lane);
      if (it.after > done_prefix[h.lane]) continue;  // barrier window open
      const std::size_t lane_n = base[h.lane + 1] - base[h.lane];
      if (std::any_of(it.deps.begin(), it.deps.end(), [&](std::size_t d) {
            return d < lane_n && !done[base[h.lane] + d];
          }))
        continue;
      if (it.resource == Resource::kDeviceMemory) {
        if (dev_running[h.lane] >= lanes[h.lane].max_kernels) continue;
        ++dev_running[h.lane];
      } else {
        switch (staging.kind) {
          case PcieStaging::Kind::kUnlimited:
            break;
          case PcieStaging::Kind::kMaxInflight:
            if (pcie_running >= staging.limit) {
              h.held = true;
              continue;
            }
            break;
          case PcieStaging::Kind::kRoundRobin:
            // One copy at a time; the winner is the ready lane closest in
            // rotation after the last admission (earliest-submitted copy
            // within it, by visiting order). Decided after the pass.
            h.held = true;
            if (pcie_running == 0 &&
                (!rr_pick || rr_dist(h.lane) < rr_dist(rr_pick->lane)))
              rr_pick = &h;
            continue;
        }
        ++pcie_running;
      }
      h.running = true;
      ms.items[h.lane][h.g - base[h.lane]].start_s = t;
    }
    if (rr_pick) {
      rr_pick->held = false;
      rr_pick->running = true;
      ++pcie_running;
      ms.items[rr_pick->lane][rr_pick->g - base[rr_pick->lane]].start_s = t;
      rr_next = (rr_pick->lane + 1) % nl;
    }

    // Bandwidth is shared only among items that still demand memory:
    // per lane for device memory, across all lanes for PCIe.
    std::fill(dev_mem.begin(), dev_mem.end(), 0u);
    unsigned pcie_mem = 0;
    for (const Head& h : heads)
      if (h.running && h.mem_left > kEps)
        (item_of(h.g, h.lane).resource == Resource::kDeviceMemory
             ? dev_mem[h.lane]
             : pcie_mem)++;
    auto share_of = [&](const Head& h) {
      return item_of(h.g, h.lane).resource == Resource::kDeviceMemory
                 ? static_cast<double>(std::max(1u, dev_mem[h.lane]))
                 : static_cast<double>(std::max(1u, pcie_mem));
    };

    // Next completion under the current bandwidth shares.
    double dt = std::numeric_limits<double>::infinity();
    for (const Head& h : heads) {
      if (!h.running) continue;
      const double share = share_of(h);
      dt = std::min(dt, std::max(h.comp_left, h.mem_left * share));
      // Shares change when an item's memory demand drains, even if its
      // compute phase keeps running — that is also an event.
      if (h.mem_left > kEps) dt = std::min(dt, h.mem_left * share);
    }
    if (!std::isfinite(dt))
      throw std::runtime_error(
          "cusim: schedule deadlock — " + std::to_string(n - done_count) +
          " of " + std::to_string(n) +
          " items can never start (unsatisfiable dependencies)");
    dt = std::max(dt, 0.0);

    // Advance every running head by dt; a retired head hands its slot to
    // the next item on its stream.
    bool retired = false;
    for (Head& h : heads) {
      if (h.held) ms.pcie_queue_s[h.lane] += dt;  // admission wait
      if (!h.running) continue;
      const double share = share_of(h);
      h.comp_left -= dt;
      h.mem_left -= dt / share;
      if (!(h.comp_left <= kEps && h.mem_left <= kEps)) continue;  // NaN too
      done[h.g] = 1;
      ++done_count;
      ms.items[h.lane][h.g - base[h.lane]].finish_s = t + dt;
      if (item_of(h.g, h.lane).resource == Resource::kDeviceMemory)
        --dev_running[h.lane];
      else
        --pcie_running;
      h = next[h.g] != npos ? make_head(next[h.g], h.lane) : Head{npos};
      retired = true;
    }
    t += dt;
    if (retired) {
      // Successors have larger indices: one insertion pass restores the
      // ascending order, and exhausted streams (npos) sink to the end.
      for (std::size_t i = 1; i < heads.size(); ++i)
        for (std::size_t j = i; j > 0 && heads[j - 1].g > heads[j].g; --j)
          std::swap(heads[j - 1], heads[j]);
      while (!heads.empty() && heads.back().g == npos) heads.pop_back();
      for (std::size_t l = 0; l < nlanes; ++l)
        while (base[l] + done_prefix[l] < base[l + 1] &&
               done[base[l] + done_prefix[l]])
          ++done_prefix[l];
    }
  }
  ms.makespan_s = t;
  return ms;
}

double Timeline::simulate() {
  if (!dirty_) return makespan_s_;
  const ScheduleLane lane{items_, max_kernels_};
  MergedSchedule ms = merged_schedule({&lane, 1}, PcieStaging::Unlimited());
  schedule_ = std::move(ms.items[0]);
  makespan_s_ = ms.makespan_s;
  dirty_ = false;
  return makespan_s_;
}

}  // namespace cusfft::cusim

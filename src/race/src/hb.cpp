#include "hpcgpt/race/hb.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

namespace hpcgpt::race {

namespace {

/// Sparse vector clock keyed by dense thread index.
struct VectorClock {
  std::map<int, int> c;

  int get(int t) const {
    const auto it = c.find(t);
    return it == c.end() ? 0 : it->second;
  }
  void bump(int t) { ++c[t]; }
  void join(const VectorClock& other) {
    for (const auto& [t, v] : other.c) {
      int& mine = c[t];
      mine = std::max(mine, v);
    }
  }
  /// True when this clock is <= other pointwise.
  bool leq(const VectorClock& other) const {
    return std::all_of(c.begin(), c.end(), [&](const auto& kv) {
      return kv.second <= other.get(kv.first);
    });
  }
};

struct ShadowCell {
  VectorClock reads;   // per-thread read times
  VectorClock writes;  // per-thread write times
  std::map<int, std::string> last_writer_var;
  std::string var;  // representative name for diagnostics
};

class HbEngine {
 public:
  explicit HbEngine(const HbOptions& options) : opt_(options) {}

  std::vector<RaceReport> run(const Trace& trace) {
    for (const Event& e : trace) process(e);
    flush_barriers();
    return std::move(reports_);
  }

 private:
  // Dense thread identity per (region, thread). The serial master context
  // (region == -1) is identity 0.
  int identity(int region, int thread) {
    const auto key = std::make_pair(region, thread);
    const auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
    const int id = static_cast<int>(ids_.size()) + 1;
    ids_[key] = id;
    // New region thread: starts from the fork-time snapshot of its region.
    const auto snap = fork_snapshot_.find(region);
    if (snap != fork_snapshot_.end()) {
      clocks_[id] = snap->second;
    }
    clocks_[id].bump(id);
    return id;
  }

  VectorClock& clock_of(int region, int thread) {
    return clocks_[identity(region, thread)];
  }

  std::uint64_t cell_of(std::uint64_t addr) const {
    return opt_.shadow_granularity <= 1 ? addr
                                        : addr / opt_.shadow_granularity;
  }

  void report(const std::string& var, std::uint64_t addr, int a, int b,
              const std::string& detail) {
    if (!reported_vars_.insert(var).second) return;
    RaceReport r;
    r.var = var;
    r.addr = addr;
    r.first_thread = a;
    r.second_thread = b;
    r.detail = detail;
    reports_.push_back(std::move(r));
  }

  void process(const Event& e) {
    if (e.kind != EventKind::Barrier) flush_barriers();
    switch (e.kind) {
      case EventKind::Fork: {
        // The forking context's clock becomes the team's starting point.
        VectorClock& master = clock_of(-1, e.thread);
        fork_snapshot_[e.region] = master;
        master.bump(identity(-1, e.thread));
        region_threads_[e.region];  // ensure entry
        return;
      }
      case EventKind::Join: {
        VectorClock& master = clock_of(-1, e.thread);
        for (const int id : region_threads_[e.region]) {
          master.join(clocks_[id]);
        }
        master.bump(identity(-1, e.thread));
        return;
      }
      case EventKind::Acquire: {
        if (!opt_.respect_atomics && e.lock >= 1000) return;
        clock_of(e.region, e.thread).join(locks_[e.lock]);
        note_region_thread(e);
        return;
      }
      case EventKind::Release: {
        if (!opt_.respect_atomics && e.lock >= 1000) return;
        const int id = identity(e.region, e.thread);
        locks_[e.lock] = clocks_[id];
        clocks_[id].bump(id);
        note_region_thread(e);
        return;
      }
      case EventKind::Barrier: {
        if (!opt_.respect_barriers) return;
        pending_barrier_.push_back(identity(e.region, e.thread));
        note_region_thread(e);
        return;
      }
      case EventKind::Read:
      case EventKind::Write: {
        note_region_thread(e);
        const int id = identity(e.region, e.thread);
        const VectorClock& now = clocks_[id];
        ShadowCell* cell = &shadow_[cell_of(e.addr)];
        if (cell->var.empty()) cell->var = e.var;

        // A race exists when a prior conflicting access is not ordered
        // before the current one.
        for (const auto& [other, when] : cell->writes.c) {
          if (other == id) continue;
          if (when > now.get(other)) {
            report(e.var, e.addr, other, id,
                   "unordered write-" + to_string(e.kind));
            break;
          }
        }
        if (e.kind == EventKind::Write) {
          for (const auto& [other, when] : cell->reads.c) {
            if (other == id) continue;
            if (when > now.get(other)) {
              report(e.var, e.addr, other, id, "unordered read-write");
              break;
            }
          }
          cell->writes.c[id] = now.get(id);
        } else {
          cell->reads.c[id] = now.get(id);
        }
        return;
      }
    }
  }

  void note_region_thread(const Event& e) {
    if (e.region >= 0) {
      region_threads_[e.region].insert(identity(e.region, e.thread));
    }
  }

  void flush_barriers() {
    if (pending_barrier_.empty()) return;
    // All arrivals recorded since the last flush synchronize with each
    // other (the interpreter emits the whole team's arrivals contiguously).
    VectorClock joined;
    for (const int id : pending_barrier_) joined.join(clocks_[id]);
    for (const int id : pending_barrier_) {
      clocks_[id] = joined;
      clocks_[id].bump(id);
    }
    pending_barrier_.clear();
  }

  HbOptions opt_;
  std::map<std::pair<int, int>, int> ids_;
  std::unordered_map<int, VectorClock> clocks_;
  std::unordered_map<std::uint64_t, VectorClock> locks_;
  std::unordered_map<int, VectorClock> fork_snapshot_;
  std::unordered_map<int, std::set<int>> region_threads_;
  std::unordered_map<std::uint64_t, ShadowCell> shadow_;
  std::vector<int> pending_barrier_;
  std::set<std::string> reported_vars_;
  std::vector<RaceReport> reports_;
};

}  // namespace

std::vector<RaceReport> analyze_trace(const Trace& trace,
                                      const HbOptions& options) {
  HbEngine engine(options);
  return engine.run(trace);
}

}  // namespace hpcgpt::race

#include "hpcgpt/race/interp.hpp"

#include <algorithm>
#include <unordered_map>

#include "hpcgpt/support/error.hpp"

namespace hpcgpt::race {

using minilang::Clauses;
using minilang::Expr;
using minilang::Program;
using minilang::Stmt;
using minilang::VarDecl;

namespace {

constexpr std::uint64_t kCriticalLock = 0;
constexpr std::uint64_t kReductionLock = 1;
constexpr std::uint64_t kAtomicLockBase = 1000;

/// Storage layout: every declared variable gets a contiguous range in a
/// flat heap; addr = base + index.
struct VarSlot {
  std::uint64_t base = 0;
  bool is_array = false;
  std::int64_t size = 1;
};

struct ThreadCtx {
  int tid = 0;
  int region = -1;
  int phase = 0;
  std::int64_t iteration = -1;
  std::unordered_map<std::string, std::int64_t> locals;
};

class Machine {
 public:
  Machine(const Program& program, const ExecOptions& options)
      : prog_(program), opts_(options), rng_(options.seed) {
    std::uint64_t next = 16;  // small offset so addr 0 is never used
    for (const VarDecl& d : program.decls) {
      VarSlot slot;
      slot.base = next;
      slot.is_array = d.is_array;
      slot.size = d.is_array ? d.size : 1;
      require(slot.size > 0, "interp: non-positive array size for " + d.name);
      slots_[d.name] = slot;
      next += static_cast<std::uint64_t>(slot.size);
      for (std::int64_t i = 0; i < slot.size; ++i) {
        heap_[slot.base + static_cast<std::uint64_t>(i)] = d.init;
      }
    }
  }

  ExecResult run() {
    ThreadCtx master;
    for (const Stmt& s : prog_.body) exec_serial(s, master);

    ExecResult result;
    result.trace = std::move(trace_);
    for (const auto& [name, slot] : slots_) {
      if (slot.is_array) {
        std::vector<std::int64_t> values(static_cast<std::size_t>(slot.size));
        for (std::int64_t i = 0; i < slot.size; ++i) {
          values[static_cast<std::size_t>(i)] =
              heap_[slot.base + static_cast<std::uint64_t>(i)];
        }
        result.arrays[name] = std::move(values);
      } else {
        result.scalars[name] = heap_[slot.base];
      }
    }
    return result;
  }

 private:
  // ------------------------------------------------------------ memory

  std::uint64_t resolve_addr(const std::string& name, std::int64_t index,
                             bool is_array) {
    // Runs on every simulated access: the messages are built only when a
    // check fails.
    const auto it = slots_.find(name);
    if (it == slots_.end()) {
      throw InvalidArgument("interp: undeclared variable " + name);
    }
    const VarSlot& slot = it->second;
    if (slot.is_array != is_array) {
      throw InvalidArgument("interp: scalar/array mismatch for " + name);
    }
    if (index < 0 || index >= slot.size) {
      throw InvalidArgument("interp: index out of bounds for " + name + "[" +
                            std::to_string(index) + "]");
    }
    return slot.base + static_cast<std::uint64_t>(index);
  }

  std::int64_t load_shared(const std::string& name, std::int64_t index,
                           bool is_array, ThreadCtx& ctx, bool emit) {
    const std::uint64_t addr = resolve_addr(name, index, is_array);
    if (emit) record(EventKind::Read, ctx, addr, name);
    return heap_[addr];
  }

  void store_shared(const std::string& name, std::int64_t index,
                    bool is_array, std::int64_t value, ThreadCtx& ctx,
                    bool emit) {
    const std::uint64_t addr = resolve_addr(name, index, is_array);
    if (emit) record(EventKind::Write, ctx, addr, name);
    heap_[addr] = value;
  }

  void record(EventKind kind, const ThreadCtx& ctx, std::uint64_t addr,
              const std::string& var, std::uint64_t lock = 0) {
    Event e;
    e.kind = kind;
    e.thread = ctx.tid;
    e.addr = addr;
    e.lock = lock;
    e.region = ctx.region;
    e.phase = ctx.phase;
    e.iteration = ctx.iteration;
    e.var = var;
    trace_.push_back(std::move(e));
  }

  // ------------------------------------------------------------ eval

  std::int64_t eval(const Expr& e, ThreadCtx& ctx, bool emit = true) {
    switch (e.kind) {
      case Expr::Kind::IntLit:
        return e.value;
      case Expr::Kind::ThreadId:
        return ctx.tid;
      case Expr::Kind::ScalarRef: {
        const auto local = ctx.locals.find(e.name);
        if (local != ctx.locals.end()) return local->second;
        return load_shared(e.name, 0, /*is_array=*/false, ctx, emit);
      }
      case Expr::Kind::ArrayRef: {
        const std::int64_t index = eval(*e.index, ctx, emit);
        return load_shared(e.name, index, /*is_array=*/true, ctx, emit);
      }
      case Expr::Kind::BinOp: {
        const std::int64_t l = eval(*e.lhs, ctx, emit);
        const std::int64_t r = eval(*e.rhs, ctx, emit);
        switch (e.op) {
          case '+': return l + r;
          case '-': return l - r;
          case '*': return l * r;
          case '/':
            require(r != 0, "interp: division by zero");
            return l / r;
          case '%':
            require(r != 0, "interp: modulo by zero");
            return ((l % r) + r) % r;
          case '<': return l < r ? 1 : 0;
          case '>': return l > r ? 1 : 0;
          case 'q': return l == r ? 1 : 0;
          case 'n': return l != r ? 1 : 0;
          default:
            throw InvalidArgument(std::string("interp: bad operator ") +
                                  e.op);
        }
      }
    }
    throw InvalidArgument("interp: bad expression kind");
  }

  void do_assign(const Stmt& s, ThreadCtx& ctx, bool emit = true) {
    const std::int64_t value = eval(*s.value, ctx, emit);
    const Expr& target = *s.target;
    if (target.kind == Expr::Kind::ScalarRef) {
      const auto local = ctx.locals.find(target.name);
      if (local != ctx.locals.end()) {
        local->second = value;
        return;
      }
      store_shared(target.name, 0, false, value, ctx, emit);
      return;
    }
    require(target.kind == Expr::Kind::ArrayRef,
            "interp: assignment target must be variable or array element");
    const std::int64_t index = eval(*target.index, ctx, emit);
    store_shared(target.name, index, true, value, ctx, emit);
  }

  void do_atomic(const Stmt& s, ThreadCtx& ctx) {
    // Resolve target address without tracing the subscript reads twice.
    const Expr& target = *s.target;
    std::uint64_t addr;
    if (target.kind == Expr::Kind::ScalarRef &&
        ctx.locals.count(target.name) == 0) {
      addr = resolve_addr(target.name, 0, false);
    } else if (target.kind == Expr::Kind::ArrayRef) {
      addr = resolve_addr(target.name, eval(*target.index, ctx, false), true);
    } else {
      // Atomic on a thread-local is a plain assignment.
      do_assign(s, ctx);
      return;
    }
    const std::uint64_t lock = kAtomicLockBase + addr;
    record(EventKind::Acquire, ctx, 0, target.name, lock);
    do_assign(s, ctx);
    record(EventKind::Release, ctx, 0, target.name, lock);
  }

  // -------------------------------------------------- serial execution

  void exec_serial(const Stmt& s, ThreadCtx& ctx) {
    switch (s.kind) {
      case Stmt::Kind::Assign:
        do_assign(s, ctx);
        return;
      case Stmt::Kind::Atomic:
        do_atomic(s, ctx);
        return;
      case Stmt::Kind::SeqFor: {
        const std::int64_t lo = eval(*s.lo, ctx);
        const std::int64_t hi = eval(*s.hi, ctx);
        const bool shadows = ctx.locals.count(s.loop_var) > 0;
        for (std::int64_t i = lo; i < hi; ++i) {
          ctx.locals[s.loop_var] = i;
          for (const Stmt& inner : s.body) exec_serial(inner, ctx);
        }
        if (!shadows) ctx.locals.erase(s.loop_var);
        return;
      }
      case Stmt::Kind::Critical:
        record(EventKind::Acquire, ctx, 0, "", kCriticalLock);
        for (const Stmt& inner : s.body) exec_serial(inner, ctx);
        record(EventKind::Release, ctx, 0, "", kCriticalLock);
        return;
      case Stmt::Kind::Barrier:
        // Barrier outside a parallel region is a no-op.
        return;
      case Stmt::Kind::Master:
      case Stmt::Kind::Single:
        if (ctx.tid == 0 || ctx.region < 0) {
          for (const Stmt& inner : s.body) exec_serial(inner, ctx);
        }
        return;
      case Stmt::Kind::If:
        if (eval(*s.cond, ctx) != 0) {
          for (const Stmt& inner : s.body) exec_serial(inner, ctx);
        }
        return;
      case Stmt::Kind::ParallelFor:
        exec_parallel_for(s, ctx);
        return;
      case Stmt::Kind::ParallelRegion:
        exec_parallel_region(s, ctx);
        return;
    }
  }

  // -------------------------------------------------- team management

  std::size_t team_size(const Clauses& clauses) const {
    const std::size_t t =
        clauses.num_threads > 0 ? clauses.num_threads : opts_.num_threads;
    return std::max<std::size_t>(1, t);
  }

  ThreadCtx make_worker(int tid, int region, const Clauses& clauses,
                        const ThreadCtx& parent) {
    ThreadCtx ctx;
    ctx.tid = tid;
    ctx.region = region;
    for (const std::string& v : clauses.priv) ctx.locals[v] = 0;
    for (const std::string& v : clauses.firstprivate) {
      const auto parent_local = parent.locals.find(v);
      if (parent_local != parent.locals.end()) {
        ctx.locals[v] = parent_local->second;
      } else {
        // firstprivate copies the shared value at region entry; the copy
        // itself is made by the master before the fork, so it is ordered
        // with everything and generates no per-thread events.
        const auto it = slots_.find(v);
        require(it != slots_.end(), "interp: undeclared firstprivate " + v);
        ctx.locals[v] = heap_[it->second.base];
      }
    }
    for (const minilang::Reduction& r : clauses.reductions) {
      ctx.locals[r.var] = (r.op == '*') ? 1 : 0;
    }
    return ctx;
  }

  void combine_reductions(const Clauses& clauses,
                          std::vector<ThreadCtx>& team, ThreadCtx& parent) {
    for (const minilang::Reduction& r : clauses.reductions) {
      for (ThreadCtx& worker : team) {
        record(EventKind::Acquire, worker, 0, r.var, kReductionLock);
        const std::int64_t partial = worker.locals.at(r.var);
        const std::int64_t current =
            load_shared(r.var, 0, false, worker, true);
        const std::int64_t merged =
            (r.op == '*') ? current * partial : current + partial;
        store_shared(r.var, 0, false, merged, worker, true);
        record(EventKind::Release, worker, 0, r.var, kReductionLock);
      }
    }
    (void)parent;
  }

  // ----------------------------------------------------- parallel for

  /// One schedulable unit: a statement to execute, or a lock transition
  /// produced by flattening critical sections.
  struct Op {
    enum class Kind { Stmt, Acquire, Release } kind = Kind::Stmt;
    const Stmt* stmt = nullptr;
  };

  static void flatten(const std::vector<Stmt>& body, std::vector<Op>& out) {
    for (const Stmt& s : body) {
      if (s.kind == Stmt::Kind::Critical) {
        out.push_back({Op::Kind::Acquire, &s});
        flatten(s.body, out);
        out.push_back({Op::Kind::Release, &s});
      } else {
        out.push_back({Op::Kind::Stmt, &s});
      }
    }
  }

  /// Executes one op for `ctx`; returns false when the op would block on
  /// the critical lock (caller reschedules).
  bool step(const Op& op, ThreadCtx& ctx) {
    switch (op.kind) {
      case Op::Kind::Acquire:
        if (critical_holder_ != -1 && critical_holder_ != ctx.tid) {
          return false;
        }
        critical_holder_ = ctx.tid;
        record(EventKind::Acquire, ctx, 0, "", kCriticalLock);
        return true;
      case Op::Kind::Release:
        critical_holder_ = -1;
        record(EventKind::Release, ctx, 0, "", kCriticalLock);
        return true;
      case Op::Kind::Stmt:
        exec_op_stmt(*op.stmt, ctx);
        return true;
    }
    return true;
  }

  void exec_op_stmt(const Stmt& s, ThreadCtx& ctx) {
    switch (s.kind) {
      case Stmt::Kind::Assign:
        do_assign(s, ctx);
        return;
      case Stmt::Kind::Atomic:
        do_atomic(s, ctx);
        return;
      case Stmt::Kind::SeqFor:
        // A nested sequential loop runs as one indivisible op.
        exec_serial(s, ctx);
        return;
      case Stmt::Kind::Master:
        if (ctx.tid == 0) {
          for (const Stmt& inner : s.body) exec_serial(inner, ctx);
        }
        return;
      case Stmt::Kind::Single:
        // The interpreter designates thread 0 as the executing thread
        // (deterministic; OpenMP leaves the choice unspecified).
        if (ctx.tid == 0) {
          for (const Stmt& inner : s.body) exec_serial(inner, ctx);
        }
        return;
      case Stmt::Kind::If:
        if (eval(*s.cond, ctx) != 0) {
          for (const Stmt& inner : s.body) exec_serial(inner, ctx);
        }
        return;
      default:
        throw Unsupported("interp: construct not allowed inside a "
                          "parallel body at this nesting");
    }
  }

  void exec_parallel_for(const Stmt& s, ThreadCtx& parent) {
    const std::int64_t lo = eval(*s.lo, parent);
    const std::int64_t hi = eval(*s.hi, parent);
    const std::size_t threads = team_size(s.clauses);
    const int region = next_region_++;
    record(EventKind::Fork, parent, 0, "", 0);
    trace_.back().region = region;

    // Static chunking, like `schedule(static)`.
    const std::int64_t total = std::max<std::int64_t>(0, hi - lo);
    const std::int64_t chunk =
        (total + static_cast<std::int64_t>(threads) - 1) /
        std::max<std::int64_t>(1, static_cast<std::int64_t>(threads));

    std::vector<ThreadCtx> team;
    std::vector<std::int64_t> next_iter(threads), end_iter(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      team.push_back(make_worker(static_cast<int>(t), region, s.clauses,
                                 parent));
      next_iter[t] = lo + static_cast<std::int64_t>(t) * chunk;
      end_iter[t] = std::min<std::int64_t>(hi, next_iter[t] + chunk);
    }

    std::vector<Op> ops;
    flatten(s.body, ops);

    // Per-thread cursor: which op of the current iteration is next.
    std::vector<std::size_t> op_cursor(threads, 0);
    const auto thread_done = [&](std::size_t t) {
      return next_iter[t] >= end_iter[t];
    };
    const auto start_iteration = [&](std::size_t t) {
      team[t].iteration = next_iter[t];
      team[t].locals[s.loop_var] = next_iter[t];
      op_cursor[t] = 0;
    };
    for (std::size_t t = 0; t < threads; ++t) {
      if (!thread_done(t)) start_iteration(t);
    }

    // Seeded statement-granular scheduler with lock blocking.
    std::vector<std::size_t> runnable;
    for (;;) {
      runnable.clear();
      for (std::size_t t = 0; t < threads; ++t) {
        if (!thread_done(t)) runnable.push_back(t);
      }
      if (runnable.empty()) break;
      bool progressed = false;
      // Try random threads until one makes progress (a thread waiting on
      // the critical lock simply is not picked successfully).
      for (std::size_t attempt = 0; attempt < runnable.size() * 2 + 2;
           ++attempt) {
        const std::size_t t = runnable[static_cast<std::size_t>(
            rng_.next_below(runnable.size()))];
        if (ops.empty()) {
          // Empty body: consume the iteration.
          ++next_iter[t];
          if (!thread_done(t)) start_iteration(t);
          progressed = true;
          break;
        }
        if (step(ops[op_cursor[t]], team[t])) {
          ++op_cursor[t];
          if (op_cursor[t] == ops.size()) {
            ++next_iter[t];
            if (!thread_done(t)) start_iteration(t);
          }
          progressed = true;
          break;
        }
      }
      // Deadlock cannot occur with a single critical lock, but guard the
      // loop anyway: fall back to running the lock holder.
      if (!progressed) {
        for (const std::size_t t : runnable) {
          if (critical_holder_ == static_cast<int>(t)) {
            while (!step(ops[op_cursor[t]], team[t])) {}
            ++op_cursor[t];
            if (op_cursor[t] == ops.size()) {
              ++next_iter[t];
              if (!thread_done(t)) start_iteration(t);
            }
            break;
          }
        }
      }
    }

    combine_reductions(s.clauses, team, parent);
    record(EventKind::Join, parent, 0, "", 0);
    trace_.back().region = region;
  }

  // -------------------------------------------------- parallel region

  void exec_parallel_region(const Stmt& s, ThreadCtx& parent) {
    const std::size_t threads = team_size(s.clauses);
    const int region = next_region_++;
    record(EventKind::Fork, parent, 0, "", 0);
    trace_.back().region = region;

    std::vector<ThreadCtx> team;
    for (std::size_t t = 0; t < threads; ++t) {
      team.push_back(make_worker(static_cast<int>(t), region, s.clauses,
                                 parent));
    }

    // Split the region body into barrier-delimited segments; a `single`
    // construct also ends a segment (it carries an implicit barrier).
    std::vector<std::vector<const Stmt*>> segments(1);
    std::vector<bool> segment_has_barrier{false};
    for (const Stmt& inner : s.body) {
      if (inner.kind == Stmt::Kind::Barrier) {
        segment_has_barrier.back() = true;
        segments.emplace_back();
        segment_has_barrier.push_back(false);
        continue;
      }
      segments.back().push_back(&inner);
      if (inner.kind == Stmt::Kind::Single) {
        segment_has_barrier.back() = true;
        segments.emplace_back();
        segment_has_barrier.push_back(false);
      }
    }

    for (std::size_t seg = 0; seg < segments.size(); ++seg) {
      // Run each thread's copy of the segment in a seeded random order,
      // statement-granular interleave.
      std::vector<Op> ops;
      flatten_ptrs(segments[seg], ops);
      std::vector<std::size_t> cursor(threads, 0);
      std::vector<std::size_t> live;
      for (;;) {
        live.clear();
        for (std::size_t t = 0; t < threads; ++t) {
          if (cursor[t] < ops.size()) live.push_back(t);
        }
        if (live.empty()) break;
        bool progressed = false;
        for (std::size_t attempt = 0; attempt < live.size() * 2 + 2;
             ++attempt) {
          const std::size_t t = live[static_cast<std::size_t>(
              rng_.next_below(live.size()))];
          if (step(ops[cursor[t]], team[t])) {
            ++cursor[t];
            progressed = true;
            break;
          }
        }
        if (!progressed) {
          for (const std::size_t t : live) {
            if (critical_holder_ == static_cast<int>(t)) {
              while (!step(ops[cursor[t]], team[t])) {}
              ++cursor[t];
              break;
            }
          }
        }
      }
      if (segment_has_barrier[seg]) {
        for (std::size_t t = 0; t < threads; ++t) {
          record(EventKind::Barrier, team[t], 0, "", 0);
          ++team[t].phase;
        }
      }
    }

    combine_reductions(s.clauses, team, parent);
    record(EventKind::Join, parent, 0, "", 0);
    trace_.back().region = region;
  }

  static void flatten_ptrs(const std::vector<const Stmt*>& body,
                           std::vector<Op>& out) {
    for (const Stmt* s : body) {
      if (s->kind == Stmt::Kind::Critical) {
        out.push_back({Op::Kind::Acquire, s});
        flatten(s->body, out);
        out.push_back({Op::Kind::Release, s});
      } else {
        out.push_back({Op::Kind::Stmt, s});
      }
    }
  }

  const Program& prog_;
  ExecOptions opts_;
  Rng rng_;
  Trace trace_;
  std::unordered_map<std::string, VarSlot> slots_;
  std::unordered_map<std::uint64_t, std::int64_t> heap_;
  int next_region_ = 0;
  int critical_holder_ = -1;
};

}  // namespace

ExecResult execute(const minilang::Program& program,
                   const ExecOptions& options) {
  Machine machine(program, options);
  return machine.run();
}

std::string to_string(EventKind kind) {
  switch (kind) {
    case EventKind::Read: return "read";
    case EventKind::Write: return "write";
    case EventKind::Acquire: return "acquire";
    case EventKind::Release: return "release";
    case EventKind::Fork: return "fork";
    case EventKind::Join: return "join";
    case EventKind::Barrier: return "barrier";
  }
  return "?";
}

}  // namespace hpcgpt::race

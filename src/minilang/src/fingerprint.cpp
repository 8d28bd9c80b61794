#include "hpcgpt/minilang/fingerprint.hpp"

#include <algorithm>
#include <vector>

#include "hpcgpt/minilang/parse.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/support/hash.hpp"

namespace hpcgpt::minilang {

namespace {

// Every node is tagged with its kind before its payload, and optional
// children hash a sentinel when absent, so distinct shapes can never
// collide by field reordering.

void hash_expr(Fnv1aHasher& h, const Expr* e) {
  if (e == nullptr) {
    h.u8(0xff);
    return;
  }
  h.u8(static_cast<std::uint8_t>(e->kind));
  switch (e->kind) {
    case Expr::Kind::IntLit:
      h.i64(e->value);
      break;
    case Expr::Kind::ScalarRef:
      h.str(e->name);
      break;
    case Expr::Kind::ArrayRef:
      h.str(e->name);
      hash_expr(h, e->index.get());
      break;
    case Expr::Kind::ThreadId:
      break;
    case Expr::Kind::BinOp:
      h.u8(static_cast<std::uint8_t>(e->op));
      hash_expr(h, e->lhs.get());
      hash_expr(h, e->rhs.get());
      break;
  }
}

void hash_clauses(Fnv1aHasher& h, const Clauses& c) {
  h.u64(c.priv.size());
  for (const std::string& v : c.priv) h.str(v);
  h.u64(c.firstprivate.size());
  for (const std::string& v : c.firstprivate) h.str(v);
  h.u64(c.shared.size());
  for (const std::string& v : c.shared) h.str(v);
  h.u64(c.reductions.size());
  for (const Reduction& r : c.reductions) {
    h.u8(static_cast<std::uint8_t>(r.op));
    h.str(r.var);
  }
  h.u8(c.simd ? 1 : 0);
  h.u8(c.target ? 1 : 0);
  h.u64(c.num_threads);
}

void hash_stmt(Fnv1aHasher& h, const Stmt& s) {
  h.u8(static_cast<std::uint8_t>(s.kind));
  hash_expr(h, s.target.get());
  hash_expr(h, s.value.get());
  hash_expr(h, s.cond.get());
  h.str(s.loop_var);
  hash_expr(h, s.lo.get());
  hash_expr(h, s.hi.get());
  hash_clauses(h, s.clauses);
  h.u64(s.body.size());
  for (const Stmt& inner : s.body) hash_stmt(h, inner);
}

}  // namespace

std::uint64_t fingerprint(const Expr& expr) {
  Fnv1aHasher h;
  hash_expr(h, &expr);
  return h.value();
}

std::uint64_t fingerprint(const Stmt& stmt) {
  Fnv1aHasher h;
  hash_stmt(h, stmt);
  return h.value();
}

std::uint64_t fingerprint(const Program& program) {
  Fnv1aHasher h;
  // Program::name intentionally not hashed (see header). Declarations are
  // hashed in name order: declaration order carries no semantics, and the
  // two renderers emit auxiliary loop-variable declarations in different
  // positions.
  std::vector<const VarDecl*> decls;
  decls.reserve(program.decls.size());
  for (const VarDecl& d : program.decls) decls.push_back(&d);
  std::sort(decls.begin(), decls.end(),
            [](const VarDecl* a, const VarDecl* b) { return a->name < b->name; });
  h.u64(decls.size());
  for (const VarDecl* d : decls) {
    h.str(d->name);
    h.u8(d->is_array ? 1 : 0);
    h.i64(d->size);
    h.i64(d->init);
  }
  h.u64(program.body.size());
  for (const Stmt& s : program.body) hash_stmt(h, s);
  return h.value();
}

std::uint64_t canonical_fingerprint(const Program& program) {
  // Normal form: C render → parse. The C renderer materializes declaration
  // initializers as explicit init loops and the parser is a fixed point
  // over that surface (see the round-trip sweep tests), so a hand-built
  // AST, its C rendering and its Fortran rendering — which keeps
  // initializers on the declarations — all land on one representative.
  return fingerprint(parse_c(render(program, Flavor::C)));
}

}  // namespace hpcgpt::minilang

#include "hpcgpt/minilang/parse.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "hpcgpt/support/error.hpp"

namespace hpcgpt::minilang {

namespace {

// One front end for both surfaces: a lexer, an expression grammar, an
// OpenMP directive parser and a keyword table shared by C and Fortran,
// under two thin statement layers. The surface decides only the
// spellings that differ (subscripts, `!=`/`/=`, `%`/`mod`, loops, `if`
// blocks, statement terminators and directive sentinels).

// --------------------------------------------------------------- keywords

/// Reserved in both surfaces, so a name that parses in one surface renders
/// to the other and parses back. `fortran` marks the words that only
/// Fortran source uses, the ones surface_of() looks for.
struct Keyword {
  std::string_view word;
  bool fortran;
};

constexpr Keyword kKeywords[] = {
    {"int", false},     {"main", false},     {"return", false},
    {"for", false},     {"if", false},       {"omp_get_thread_num", false},
    {"program", true},  {"integer", true},   {"use", true},
    {"implicit", true}, {"do", true},        {"end", true},
    {"then", true},     {"mod", true},
};

const Keyword* keyword(std::string_view word) {
  for (const Keyword& k : kKeywords) {
    if (k.word == word) return &k;
  }
  return nullptr;
}

// ------------------------------------------------------------------ lexer

/// A directive sentinel (`#pragma omp` or `!$omp`) is one Directive token;
/// the directive's body follows as ordinary tokens up to an Eol token at
/// the end of its line. An `#include` line is one Include token.
struct Token {
  enum class Kind : std::uint8_t {
    Ident, Number, Punct, Directive, Include, Eol, End
  };
  Kind kind = Kind::End;
  /// Identifiers: a keyword (reserved in both surfaces) / a Fortran one.
  bool reserved = false;
  bool fortran = false;
  int line = 1;
  std::string_view text;
  std::int64_t number = 0;
};

struct Lexed {
  std::vector<Token> tokens;
  /// A `!` comment outside any directive: Fortran's only comment form.
  bool bang_comment = false;
};

[[noreturn]] void fail_at(int line, const std::string& why) {
  throw ParseError("minilang: line " + std::to_string(line) + ": " + why);
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {
    out_.tokens.reserve(src.size() / 4 + 2);
  }

  Lexed run() {
    for (;;) {
      skip_trivia();
      const std::size_t start = pos_;
      if (pos_ >= src_.size()) {
        if (in_directive_) push(Token::Kind::Eol, start);
        push(Token::Kind::End, start);
        return std::move(out_);
      }
      const char c = src_[pos_];
      const char next = at(pos_ + 1);
      if (c == '\n') {  // skip_trivia stops here only inside a directive
        push(Token::Kind::Eol, start);
        in_directive_ = false;
        ++pos_;
        ++line_;
      } else if (c == '#' && !in_directive_) {
        hash_line();
      } else if (c == '!' && next == '$') {  // trivia leaves `!$omp`, `!=`
        pos_ += 5;
        push(Token::Kind::Directive, start);
        in_directive_ = true;
      } else if (ident_start(c)) {
        while (pos_ < src_.size() && ident_char(src_[pos_])) ++pos_;
        Token& t = push(Token::Kind::Ident, start);
        if (const Keyword* k = keyword(t.text)) {
          t.reserved = true;
          t.fortran = k->fortran;
        }
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        number();
      } else {
        // Two-character operators: ++ == != /= ::
        const bool pair = (c == '+' && next == '+') ||
                          (c == ':' && next == ':') ||
                          (next == '=' && (c == '=' || c == '!' || c == '/'));
        pos_ += pair ? 2 : 1;
        push(Token::Kind::Punct, start);
      }
    }
  }

 private:
  bool starts(std::string_view s) const {
    return src_.substr(pos_, s.size()) == s;
  }

  char at(std::size_t i) const { return i < src_.size() ? src_[i] : '\0'; }

  std::size_t end_of_line() const {
    const std::size_t eol = src_.find('\n', pos_);
    return eol == std::string_view::npos ? src_.size() : eol;
  }

  Token& push(Token::Kind kind, std::size_t start, std::int64_t number = 0) {
    Token& t = out_.tokens.emplace_back();
    t.kind = kind;
    t.line = line_;
    t.text = src_.substr(start, pos_ - start);
    t.number = number;
    return t;
  }

  /// Whitespace and comments: `//` and `!` run to the end of the line
  /// (left for a directive's Eol), `/* */` may span lines. A `!` that
  /// starts `!$omp` or `!=` is a token, not a comment.
  void skip_trivia() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      const char next = at(pos_ + 1);
      if (c == '\n') {
        if (in_directive_) return;
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && next == '/') {
        pos_ = end_of_line();
      } else if (c == '/' && next == '*') {
        const std::size_t close = src_.find("*/", pos_ + 2);
        if (close == std::string_view::npos) {
          fail_at(line_, "unterminated block comment");
        }
        line_ += static_cast<int>(
            std::count(src_.begin() + static_cast<std::ptrdiff_t>(pos_),
                       src_.begin() + static_cast<std::ptrdiff_t>(close),
                       '\n'));
        pos_ = close + 2;
      } else if (c == '!' && next != '=' && !starts("!$omp")) {
        out_.bang_comment |= !in_directive_;
        pos_ = end_of_line();
      } else {
        return;
      }
    }
  }

  /// Consumes blanks and then the word `w`, if it comes next.
  bool word(std::string_view w) {
    while (pos_ < src_.size() && (src_[pos_] == ' ' || src_[pos_] == '\t')) {
      ++pos_;
    }
    if (!starts(w) || ident_char(at(pos_ + w.size()))) return false;
    pos_ += w.size();
    return true;
  }

  /// `#pragma omp` opens a directive and `#include` is one token to the
  /// end of its line; any other `#` is punctuation, which no rule takes.
  void hash_line() {
    const std::size_t start = pos_++;
    if (word("pragma") && word("omp")) {
      push(Token::Kind::Directive, start);
      in_directive_ = true;
      return;
    }
    pos_ = start + 1;
    if (word("include")) {
      pos_ = end_of_line();
      push(Token::Kind::Include, start);
      return;
    }
    pos_ = start + 1;
    push(Token::Kind::Punct, start);
  }

  /// Decimal literal, range-checked into int64_t.
  void number() {
    const std::size_t start = pos_;
    std::int64_t v = 0;
    while (pos_ < src_.size() &&
           std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
      const int digit = src_[pos_] - '0';
      if (v > (std::numeric_limits<std::int64_t>::max() - digit) / 10) {
        fail_at(line_, "integer literal out of range");
      }
      v = v * 10 + digit;
      ++pos_;
    }
    push(Token::Kind::Number, start, v);
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool in_directive_ = false;
  Lexed out_;
};

// ------------------------------------------------------------- directives

/// Construct words of an OpenMP directive, as bits.
enum Word : unsigned {
  kParallel = 1u << 0,
  kLoop = 1u << 1,  // `for` (C) or `do` (Fortran)
  kSimd = 1u << 2,
  kTarget = 1u << 3,
  kTeams = 1u << 4,
  kDistribute = 1u << 5,
  kCritical = 1u << 6,
  kAtomic = 1u << 7,
  kBarrier = 1u << 8,
  kMaster = 1u << 9,
  kSingle = 1u << 10,
};

constexpr std::pair<std::string_view, unsigned> kWords[] = {
    {"parallel", kParallel}, {"for", kLoop},         {"do", kLoop},
    {"simd", kSimd},         {"target", kTarget},    {"teams", kTeams},
    {"distribute", kDistribute}, {"critical", kCritical},
    {"atomic", kAtomic},     {"barrier", kBarrier},  {"master", kMaster},
    {"single", kSingle},
};

constexpr unsigned kLoopWords =
    kParallel | kLoop | kSimd | kTarget | kTeams | kDistribute;

struct Directive {
  bool end = false;  ///< `!$omp end <words>`
  unsigned words = 0;
  Clauses clauses;
};

// ----------------------------------------------------------------- parser

class Parser {
 public:
  Parser(const Lexed& lexed, Flavor surface)
      : toks_(lexed.tokens), c_(surface == Flavor::C) {}

  Program parse() {
    Program p = c_ ? c_program() : fortran_program();
    if (peek().kind != Token::Kind::End) fail("unexpected trailing input");
    return p;
  }

 private:
  using Kind = Token::Kind;

  // ---- token access

  const Token& peek(std::size_t ahead = 0) const {
    return toks_[std::min(pos_ + ahead, toks_.size() - 1)];
  }

  /// Matches an identifier or punctuation token by its spelling.
  bool is(std::string_view text, std::size_t ahead = 0) const {
    const Token& t = peek(ahead);
    return (t.kind == Kind::Ident || t.kind == Kind::Punct) && t.text == text;
  }

  bool accept(std::string_view text) {
    if (!is(text)) return false;
    ++pos_;
    return true;
  }

  void expect(std::string_view text) {
    if (!accept(text)) fail("expected '" + std::string(text) + "'");
  }

  [[noreturn]] void fail(const std::string& why) const {
    const Token& t = peek();
    std::string where = " near '" + std::string(t.text) + "'";
    if (t.kind == Kind::End) where = " at end of input";
    if (t.kind == Kind::Eol) where = " at end of directive";
    fail_at(t.line, why + where);
  }

  /// A variable, loop-variable or declaration name: never a keyword.
  std::string expect_name() {
    const Token& t = peek();
    if (t.kind != Kind::Ident) fail("expected identifier");
    if (t.reserved) fail("reserved word used as a name");
    ++pos_;
    return std::string(t.text);
  }

  std::int64_t expect_int(bool signed_ok) {
    const bool negative = signed_ok && accept("-");
    if (peek().kind != Kind::Number) fail("expected integer literal");
    const std::int64_t v = toks_[pos_++].number;
    return negative ? -v : v;
  }

  // ---- nesting bound
  //
  // Statement nesting (stmts_) plus open sub-expressions (open_) bound the
  // parser's recursion; statement nesting plus the height of every built
  // expression node bounds the AST walks that follow (render, fingerprint,
  // analysis, the interpreter). A rendering of a parsed program stays
  // within both, since it parenthesizes only existing nodes.

  void check_nesting(int depth) const {
    if (depth > kMaxNesting) {
      fail("nesting deeper than " + std::to_string(kMaxNesting));
    }
  }

  /// Records in height_ the height of a node over children at most
  /// `child_height` high.
  void grow(int child_height) {
    height_ = child_height + 1;
    check_nesting(stmts_ + height_);
  }

  ExprPtr node(char op, ExprPtr lhs, int lhs_height, ExprPtr rhs,
               int rhs_height) {
    grow(std::max(lhs_height, rhs_height));
    return bin_op(op, std::move(lhs), std::move(rhs));
  }

  // ---- expressions: comparison, then + -, then * / %, then primary

  /// Consumes the first spelling in `ops` that comes next and returns its
  /// AST operator; 0 when none does.
  char accept_op(
      std::initializer_list<std::pair<std::string_view, char>> ops) {
    for (const auto& [spelling, op] : ops) {
      if (accept(spelling)) return op;
    }
    return 0;
  }

  ExprPtr expr() {
    ExprPtr left = sum();
    const char op = accept_op(
        {{"<", '<'}, {">", '>'}, {"==", 'q'}, {c_ ? "!=" : "/=", 'n'}});
    if (op == 0) return left;
    const int lh = height_;
    ExprPtr right = sum();
    return node(op, std::move(left), lh, std::move(right), height_);
  }

  ExprPtr sum() {
    ExprPtr left = term();
    while (const char op = accept_op({{"+", '+'}, {"-", '-'}})) {
      const int lh = height_;
      ExprPtr right = term();
      left = node(op, std::move(left), lh, std::move(right), height_);
    }
    return left;
  }

  ExprPtr term() {
    ExprPtr left = primary();
    // Fortran spells `%` as mod(a, b), a primary.
    while (const char op =
               accept_op({{"*", '*'}, {"/", '/'}, {c_ ? "%" : "", '%'}})) {
      const int lh = height_;
      ExprPtr right = primary();
      left = node(op, std::move(left), lh, std::move(right), height_);
    }
    return left;
  }

  ExprPtr primary() {
    check_nesting(stmts_ + ++open_);
    ExprPtr e;
    if (accept("(")) {
      e = expr();
      expect(")");
    } else if (accept("-")) {
      ExprPtr operand = primary();
      e = node('-', int_lit(0), 1, std::move(operand), height_);
    } else if (peek().kind == Kind::Number) {
      e = int_lit(toks_[pos_++].number);
      height_ = 1;
    } else if (accept("omp_get_thread_num")) {
      expect("(");
      expect(")");
      e = thread_id();
      height_ = 1;
    } else if (!c_ && accept("mod")) {
      expect("(");
      ExprPtr a = expr();
      const int ah = height_;
      expect(",");
      ExprPtr b = expr();
      expect(")");
      e = node('%', std::move(a), ah, std::move(b), height_);
    } else {
      std::string name = expect_name();
      if (accept(c_ ? "[" : "(")) {
        ExprPtr index = expr();
        expect(c_ ? "]" : ")");
        grow(height_);
        e = array_ref(std::move(name), std::move(index));
      } else {
        e = scalar_ref(std::move(name));
        height_ = 1;
      }
    }
    --open_;
    return e;
  }

  // ---- directives

  Directive directive() {
    const Token& sentinel = toks_[pos_++];
    if ((sentinel.text[0] == '#') != c_) {
      fail("directive sentinel of the other surface");
    }
    Directive d;
    d.end = accept("end");
    // Construct words lead, clauses follow.
    for (;; ++pos_) {
      const auto word =
          std::find_if(std::begin(kWords), std::end(kWords),
                       [&](const auto& w) { return is(w.first); });
      if (word == std::end(kWords)) break;
      d.words |= word->second;
    }
    if (d.words == 0) fail("unsupported OpenMP construct");
    while (peek().kind != Kind::Eol) {
      if (d.end) fail("unexpected clause on an end directive");
      if (!accept(",")) clause(d.clauses);
    }
    ++pos_;
    return d;
  }

  /// One `name(args)` clause; unknown clauses are skipped whole.
  void clause(Clauses& c) {
    if (peek().kind != Kind::Ident) fail("expected clause");
    const std::string_view name = toks_[pos_++].text;
    const auto names = [&](std::vector<std::string>& out) {
      expect("(");
      do {
        out.push_back(expect_name());
      } while (accept(","));
      expect(")");
    };
    if (name == "private") {
      names(c.priv);
    } else if (name == "firstprivate") {
      names(c.firstprivate);
    } else if (name == "shared") {
      names(c.shared);
    } else if (name == "reduction") {
      expect("(");
      // The operator keeps its first character (`max` reads as 'm').
      const Token& op = peek();
      if ((op.kind != Kind::Ident && op.kind != Kind::Punct) ||
          op.text[0] == ':' || op.text[0] == '!' || is(")") || is(",") ||
          is("(")) {
        fail("expected reduction operator");
      }
      while (!accept(":")) {
        if (peek().kind == Kind::Eol || is(")")) fail("expected ':'");
        ++pos_;
      }
      c.reductions.push_back({op.text[0], expect_name()});
      expect(")");
    } else if (name == "num_threads") {
      expect("(");
      c.num_threads = static_cast<std::size_t>(expect_int(false));
      expect(")");
    } else if (accept("(")) {
      for (int depth = 1; depth > 0; ++pos_) {
        if (peek().kind == Kind::Eol) fail("unterminated clause");
        depth += is("(") ? 1 : is(")") ? -1 : 0;
      }
    }
  }

  /// True when the next tokens are `!$omp end ...` (Fortran only).
  bool at_end_directive() const {
    return peek().kind == Kind::Directive && is("end", 1);
  }

  /// The body of a critical/master/single/parallel construct.
  std::vector<Stmt> construct_body(unsigned words) {
    if (c_) return block();
    std::vector<Stmt> body;
    while (!at_end_directive()) body.push_back(stmt());
    if (directive().words != words) fail("mismatched end directive");
    return body;
  }

  Stmt directive_stmt() {
    Directive d = directive();
    if (d.end) fail("unexpected end directive");
    switch (d.words) {
      case kCritical:
        return critical(construct_body(kCritical));
      case kMaster:
        return master(construct_body(kMaster));
      case kSingle:
        return single(construct_body(kSingle));
      case kBarrier:
        return barrier();
      case kAtomic: {
        Stmt a = assignment();
        a.kind = Stmt::Kind::Atomic;
        return a;
      }
      case kParallel:
        return parallel_region(construct_body(kParallel),
                               std::move(d.clauses));
      default:
        break;
    }
    // A loop, which may be simd or target but not both: the renderers
    // spell one of the two flags.
    if ((d.words & ~kLoopWords) != 0 ||
        (d.words & (kLoop | kDistribute)) == 0 ||
        (d.words & (kSimd | kTarget)) == (kSimd | kTarget)) {
      fail("unsupported OpenMP construct");
    }
    d.clauses.simd = (d.words & kSimd) != 0;
    d.clauses.target = (d.words & kTarget) != 0;
    Stmt loop_stmt = loop(std::move(d.clauses), /*parallel=*/true);
    // Fortran: an optional `!$omp end <same words>` closes the loop.
    if (!c_ && at_end_directive()) {
      const std::size_t save = pos_;
      if (directive().words != d.words) pos_ = save;
    }
    return loop_stmt;
  }

  // ---- statements

  Stmt stmt() {
    check_nesting(++stmts_ + open_);
    Stmt s = peek().kind == Kind::Directive ? directive_stmt()
             : is(c_ ? "for" : "do")        ? loop(Clauses{}, false)
             : is("if")                     ? if_block()
                                            : assignment();
    --stmts_;
    return s;
  }

  /// C: a braced block or one statement.
  std::vector<Stmt> block() {
    std::vector<Stmt> body;
    if (accept("{")) {
      while (!accept("}")) body.push_back(stmt());
    } else {
      body.push_back(stmt());
    }
    return body;
  }

  /// Fortran: statements up to `end <what>`.
  std::vector<Stmt> until_end(std::string_view what) {
    std::vector<Stmt> body;
    while (!(is("end") && is(what, 1))) body.push_back(stmt());
    pos_ += 2;
    return body;
  }

  Stmt assignment() {
    ExprPtr target = primary();
    if (target->kind != Expr::Kind::ScalarRef &&
        target->kind != Expr::Kind::ArrayRef) {
      fail("assignment target must be a variable or array element");
    }
    expect("=");
    ExprPtr value = expr();
    if (c_) expect(";");
    return assign(std::move(target), std::move(value));
  }

  Stmt if_block() {
    expect("if");
    ExprPtr cond = expr();
    if (c_) return if_stmt(std::move(cond), block());
    expect("then");
    return if_stmt(std::move(cond), until_end("if"));
  }

  /// C `for (v = lo; v < hi; v++)` or Fortran `do v = lo + 1, hi`, whose
  /// bounds map back to the half-open [lo, hi).
  Stmt loop(Clauses clauses, bool parallel) {
    std::string var;
    ExprPtr lo, hi;
    std::vector<Stmt> body;
    if (c_) {
      expect("for");
      expect("(");
      var = expect_name();
      expect("=");
      lo = expr();
      expect(";");
      if (expect_name() != var) fail("loop variable mismatch");
      expect("<");
      hi = expr();
      expect(";");
      if (expect_name() != var) fail("loop variable mismatch");
      expect("++");
      expect(")");
      body = block();
    } else {
      expect("do");
      var = expect_name();
      expect("=");
      // The renderer's `+ 1` adds one level that the AST drops again.
      --stmts_;
      ExprPtr first = expr();
      ++stmts_;
      if (first->kind == Expr::Kind::BinOp && first->op == '+' &&
          first->rhs->kind == Expr::Kind::IntLit && first->rhs->value == 1) {
        lo = std::move(first->lhs);
        grow(height_ - 2);
      } else {
        lo = node('-', std::move(first), height_, int_lit(1), 1);
      }
      expect(",");
      hi = expr();
      body = until_end("do");
    }
    if (parallel) {
      return parallel_for(std::move(var), std::move(lo), std::move(hi),
                          std::move(body), std::move(clauses));
    }
    return seq_for(std::move(var), std::move(lo), std::move(hi),
                   std::move(body));
  }

  // ---- program units

  /// `int` declaration tail: `name[size]`, `name = init` or (locals)
  /// `name, name = init, ...`.
  void c_decl(Program& p, bool locals) {
    do {
      VarDecl d;
      d.name = expect_name();
      if (accept("[")) {
        d.is_array = true;
        d.size = expect_int(true);
        expect("]");
      } else if (accept("=")) {
        d.init = expect_int(true);
      }
      p.decls.push_back(std::move(d));
    } while (locals && accept(","));
    expect(";");
  }

  Program c_program() {
    Program p;
    p.name = "parsed_snippet";
    while (peek().kind == Kind::Include) ++pos_;
    while (accept("int")) {
      if (!accept("main")) {
        c_decl(p, /*locals=*/false);
        continue;
      }
      expect("(");
      expect(")");
      expect("{");
      while (!accept("}")) {
        if (accept("int")) {
          c_decl(p, /*locals=*/true);
        } else if (accept("return")) {
          expect_int(true);
          expect(";");
        } else {
          p.body.push_back(stmt());
        }
      }
      return p;
    }
    // A bare snippet (Task-2 instructions embed statements only).
    while (peek().kind != Kind::End) p.body.push_back(stmt());
    return p;
  }

  /// `integer :: a(100) = 5, x = 0, i`.
  void fortran_decls(Program& p) {
    do {
      VarDecl d;
      d.name = expect_name();
      if (accept("(")) {
        d.is_array = true;
        d.size = expect_int(true);
        expect(")");
      }
      if (accept("=")) d.init = expect_int(true);
      p.decls.push_back(std::move(d));
    } while (accept(","));
  }

  Program fortran_program() {
    Program p;
    p.name = "parsed_fortran";
    for (;;) {
      if (accept("program")) {
        p.name = expect_name();
      } else if (accept("use") || accept("implicit")) {
        if (peek().kind != Kind::Ident) fail("expected identifier");
        ++pos_;
      } else if (is("integer") && is("::", 1)) {
        pos_ += 2;
        fortran_decls(p);
      } else {
        break;
      }
    }
    while (peek().kind != Kind::End && !(is("end") && is("program", 1))) {
      p.body.push_back(stmt());
    }
    if (accept("end")) ++pos_;  // `end program`
    return p;
  }

  const std::vector<Token>& toks_;
  std::size_t pos_ = 0;
  bool c_;
  int stmts_ = 0;
  int open_ = 0;
  int height_ = 0;
};

Lexed lex(std::string_view source) { return Lexer(source).run(); }

Flavor surface_of(const Lexed& lexed) {
  if (lexed.bang_comment) return Flavor::Fortran;
  bool in_directive = false;
  for (const Token& t : lexed.tokens) {
    if (t.kind == Token::Kind::Directive) {
      if (t.text[0] == '!') return Flavor::Fortran;
      in_directive = true;
    } else if (t.kind == Token::Kind::Eol) {
      in_directive = false;
    } else if (t.fortran && !in_directive) {
      return Flavor::Fortran;
    }
  }
  return Flavor::C;
}

}  // namespace

Program parse_c(std::string_view source) {
  return Parser(lex(source), Flavor::C).parse();
}

Program parse_f(std::string_view source) {
  return Parser(lex(source), Flavor::Fortran).parse();
}

Flavor surface_of(std::string_view source) { return surface_of(lex(source)); }

Program parse_any(std::string_view source) {
  const Lexed lexed = lex(source);
  return Parser(lexed, surface_of(lexed)).parse();
}

}  // namespace hpcgpt::minilang

#pragma once

#include <string>
#include <string_view>

#include "hpcgpt/minilang/ast.hpp"
#include "hpcgpt/minilang/render.hpp"

namespace hpcgpt::minilang {

/// One front end reads both surfaces: a shared lexer (whitespace, `//`,
/// `/* */` and `!` comments; `#pragma omp` and `!$omp` directives), one
/// expression grammar, one OpenMP directive and clause parser and one
/// keyword table, under a C and a Fortran statement layer. Every parse
/// either returns a Program or throws ParseError.
///
/// Statement nesting plus expression depth is bounded by kMaxNesting —
/// far above anything the generators emit — so the recursive
/// walks over parsed ASTs (render, fingerprint, analysis, interpreter)
/// stay shallow. Deeper input is a ParseError, as are integer literals
/// outside int64_t and keywords of either surface used as names (so a
/// program that parses in one surface renders to the other and parses
/// back).
inline constexpr int kMaxNesting = 256;

/// Parses C-flavoured mini-language source (the subset produced by
/// render(..., Flavor::C)) back into a Program.
///
/// This is the entry point used when a *code snippet* is handed to the
/// system as text — the detectors and the interpreter work on the AST, so
/// textual snippets (like the ones embedded in Task-2 instructions,
/// Table 1) are parsed first. Throws ParseError on input outside the
/// subset.
Program parse_c(std::string_view source);

/// Parses Fortran-flavoured mini-language source (the subset produced by
/// render(..., Flavor::Fortran)): free-form Fortran with `!$omp`
/// sentinels, `integer ::` declarations, do/end do loops and block
/// if/then. Loop bounds are mapped back to the AST's half-open C
/// convention (the renderer emits `do v = lo + 1, hi`).
Program parse_f(std::string_view source);

/// The surface of `source`, read from its tokens (comments skipped):
/// Fortran when they hold a `!$omp` directive, a Fortran-only keyword
/// (`program`, `integer`, `use`, `implicit`, `do`, `end`, `then`, `mod`)
/// outside a directive, or a `!` comment; C otherwise.
Flavor surface_of(std::string_view source);

/// Parses `source` in the surface surface_of() picks.
Program parse_any(std::string_view source);

}  // namespace hpcgpt::minilang

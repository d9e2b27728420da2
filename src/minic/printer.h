// MiniC pretty printer.
//
// Emits parseable MiniC source from a Program; Print(Parse(x)) is a fixpoint
// modulo whitespace, which the round-trip property test exploits.
#pragma once

#include <string>

#include "minic/ast.h"

namespace asteria::minic {

// Renders the whole program.
std::string Print(const Program& program);

// Renders a single expression (mainly for diagnostics).
std::string PrintExpr(const Program& program, ExprId id);

}  // namespace asteria::minic

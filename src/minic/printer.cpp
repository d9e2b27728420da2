#include "minic/printer.h"

#include <sstream>

namespace asteria::minic {

namespace {

class PrinterImpl {
 public:
  explicit PrinterImpl(const Program& program) : program_(program) {}

  std::string Function(const minic::Function& fn) {
    out_.str("");
    out_ << "int " << fn.name << "(";
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      if (i) out_ << ", ";
      out_ << "int " << fn.params[i].name;
      if (fn.params[i].is_array) out_ << "[]";
    }
    out_ << ") ";
    Stmt(fn.body, 0);
    out_ << "\n";
    return out_.str();
  }

  std::string Expression(ExprId id) {
    out_.str("");
    Expr(id);
    return out_.str();
  }

 private:
  void Indent(int depth) {
    for (int i = 0; i < depth; ++i) out_ << "  ";
  }

  void Expr(ExprId id) {
    const minic::Expr& e = program_.expr(id);
    switch (e.kind) {
      case ExprKind::kNum:
        if (e.num < 0) {
          // Negative literals only arise from constant folding; keep them
          // re-parseable as unary minus applied to a positive literal.
          out_ << "(-" << -(e.num + 1) << " - 1)";
        } else {
          out_ << e.num;
        }
        break;
      case ExprKind::kStr:
        out_ << '"';
        for (char ch : e.name) {
          if (ch == '"' || ch == '\\') out_ << '\\';
          if (ch == '\n') { out_ << "\\n"; continue; }
          out_ << ch;
        }
        out_ << '"';
        break;
      case ExprKind::kVar:
        out_ << e.name;
        break;
      case ExprKind::kIndex:
        Expr(e.lhs);
        out_ << '[';
        Expr(e.rhs);
        out_ << ']';
        break;
      case ExprKind::kCall:
        out_ << e.name << '(';
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          if (i) out_ << ", ";
          Expr(e.args[i]);
        }
        out_ << ')';
        break;
      case ExprKind::kUnary:
        if (e.un_op == UnOp::kPostInc || e.un_op == UnOp::kPostDec) {
          Expr(e.lhs);
          out_ << UnOpSpelling(e.un_op);
        } else {
          out_ << UnOpSpelling(e.un_op) << '(';
          Expr(e.lhs);
          out_ << ')';
        }
        break;
      case ExprKind::kBinary:
        out_ << '(';
        Expr(e.lhs);
        out_ << ' ' << BinOpSpelling(e.bin_op) << ' ';
        Expr(e.rhs);
        out_ << ')';
        break;
      case ExprKind::kAssign:
        Expr(e.lhs);
        out_ << ' ' << AssignOpSpelling(e.assign_op) << ' ';
        Expr(e.rhs);
        break;
    }
  }

  void Stmt(StmtId id, int depth) {
    const minic::Stmt& s = program_.stmt(id);
    switch (s.kind) {
      case StmtKind::kBlock:
        out_ << "{\n";
        for (StmtId child : s.stmts) {
          Indent(depth + 1);
          Stmt(child, depth + 1);
          out_ << "\n";
        }
        Indent(depth);
        out_ << "}";
        break;
      case StmtKind::kExpr:
        Expr(s.expr);
        out_ << ';';
        break;
      case StmtKind::kDecl:
        out_ << "int " << s.name;
        if (s.array_size > 0) out_ << '[' << s.array_size << ']';
        if (s.init != kNoId) {
          out_ << " = ";
          Expr(s.init);
        }
        out_ << ';';
        break;
      case StmtKind::kIf:
        out_ << "if (";
        Expr(s.expr);
        out_ << ") ";
        Stmt(s.body, depth);
        if (s.else_body != kNoId) {
          out_ << " else ";
          Stmt(s.else_body, depth);
        }
        break;
      case StmtKind::kWhile:
        out_ << "while (";
        Expr(s.expr);
        out_ << ") ";
        Stmt(s.body, depth);
        break;
      case StmtKind::kFor:
        out_ << "for (";
        if (s.expr2 != kNoId) Expr(s.expr2);
        out_ << "; ";
        if (s.expr != kNoId) Expr(s.expr);
        out_ << "; ";
        if (s.expr3 != kNoId) Expr(s.expr3);
        out_ << ") ";
        Stmt(s.body, depth);
        break;
      case StmtKind::kSwitch:
        out_ << "switch (";
        Expr(s.expr);
        out_ << ") {\n";
        for (const SwitchCase& arm : s.cases) {
          Indent(depth + 1);
          if (arm.is_default) {
            out_ << "default:\n";
          } else {
            out_ << "case " << arm.match_value << ":\n";
          }
          for (StmtId child : arm.body) {
            Indent(depth + 2);
            Stmt(child, depth + 2);
            out_ << "\n";
          }
        }
        Indent(depth);
        out_ << "}";
        break;
      case StmtKind::kReturn:
        out_ << "return";
        if (s.expr != kNoId) {
          out_ << ' ';
          Expr(s.expr);
        }
        out_ << ';';
        break;
      case StmtKind::kBreak:
        out_ << "break;";
        break;
      case StmtKind::kContinue:
        out_ << "continue;";
        break;
      case StmtKind::kGoto:
        out_ << "goto " << s.name << ';';
        break;
      case StmtKind::kLabel:
        out_ << s.name << ": ";
        Stmt(s.body, depth);
        break;
    }
  }

  const Program& program_;
  std::ostringstream out_;
};

}  // namespace

std::string Print(const Program& program) {
  std::string out;
  PrinterImpl printer(program);
  for (const Function& fn : program.functions()) {
    out += printer.Function(fn);
    out += "\n";
  }
  return out;
}

std::string PrintExpr(const Program& program, ExprId id) {
  return PrinterImpl(program).Expression(id);
}

}  // namespace asteria::minic

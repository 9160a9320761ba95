//===- ast/Ast.cpp - C abstract syntax tree --------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "ast/Ast.h"

using namespace cundef;

namespace cundef {

/// The underlying BinaryOp performed by a compound assignment.
BinaryOp compoundOpOf(AssignOp Op) {
  switch (Op) {
  case AssignOp::MulAssign: return BinaryOp::Mul;
  case AssignOp::DivAssign: return BinaryOp::Div;
  case AssignOp::RemAssign: return BinaryOp::Rem;
  case AssignOp::AddAssign: return BinaryOp::Add;
  case AssignOp::SubAssign: return BinaryOp::Sub;
  case AssignOp::ShlAssign: return BinaryOp::Shl;
  case AssignOp::ShrAssign: return BinaryOp::Shr;
  case AssignOp::AndAssign: return BinaryOp::BitAnd;
  case AssignOp::XorAssign: return BinaryOp::BitXor;
  case AssignOp::OrAssign:  return BinaryOp::BitOr;
  case AssignOp::Assign:    break;
  }
  assert(false && "plain assignment has no compound operator");
  return BinaryOp::Add;
}

} // namespace cundef

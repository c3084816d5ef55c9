// Bit-vector expression DAG with hash-consing and smart-constructor
// simplification. This is the term language shared by the symbolic executor,
// subsumption tester and planner — the role Z3 expressions play in the paper.
//
// Widths are 1..64 bits; width-1 expressions double as booleans. Every
// constructor simplifies locally (constant folding, identities, canonical
// operand order for commutative ops), so structurally different but trivially
// equal terms intern to the same node. Deep equivalence goes through the
// bit-blasting solver.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "support/common.hpp"

namespace gp {
class Governor;
}

namespace gp::solver {

enum class Op : u8 {
  Const,   // cval
  Var,     // named free variable
  Add, Mul, And, Or, Xor,        // binary, commutative
  Shl, LShr, AShr,               // binary (count masked by width-1)
  Not, Neg,                      // unary
  Eq, Ult, Slt,                  // binary -> width 1
  Ite,                           // (cond w1, then, else)
  ZExt, SExt,                    // unary, widening
  Extract,                       // (x, lo in aux) -> narrower
  Concat,                        // (hi, lo) -> wider
};

using ExprRef = u32;
constexpr ExprRef kNoExpr = 0xffffffff;

struct Node {
  Op op = Op::Const;
  u8 width = 64;    // result width in bits
  u8 aux = 0;       // Extract: low bit index
  u32 a = kNoExpr;  // operands
  u32 b = kNoExpr;
  u32 c = kNoExpr;
  u64 cval = 0;     // Const: value (truncated to width); Var: variable id
};

/// Owns all expression nodes. Not thread-safe; one Context per analysis.
class Context {
 public:
  Context();

  // -- leaves -----------------------------------------------------------
  ExprRef constant(u64 value, u8 width);
  ExprRef var(const std::string& name, u8 width);
  ExprRef t() { return true_; }   // width-1 constant 1
  ExprRef f() { return false_; }  // width-1 constant 0

  // -- arithmetic / bitwise ---------------------------------------------
  ExprRef add(ExprRef a, ExprRef b);
  ExprRef sub(ExprRef a, ExprRef b);  // normalized to add(a, neg(b))
  ExprRef mul(ExprRef a, ExprRef b);
  ExprRef band(ExprRef a, ExprRef b);
  ExprRef bor(ExprRef a, ExprRef b);
  ExprRef bxor(ExprRef a, ExprRef b);
  ExprRef bnot(ExprRef a);
  ExprRef neg(ExprRef a);
  ExprRef shl(ExprRef a, ExprRef count);
  ExprRef lshr(ExprRef a, ExprRef count);
  ExprRef ashr(ExprRef a, ExprRef count);

  // -- predicates (width 1) ----------------------------------------------
  ExprRef eq(ExprRef a, ExprRef b);
  ExprRef ne(ExprRef a, ExprRef b) { return bnot(eq(a, b)); }
  ExprRef ult(ExprRef a, ExprRef b);
  ExprRef slt(ExprRef a, ExprRef b);
  ExprRef ule(ExprRef a, ExprRef b) { return bnot(ult(b, a)); }
  ExprRef sle(ExprRef a, ExprRef b) { return bnot(slt(b, a)); }

  // -- structure -----------------------------------------------------------
  ExprRef ite(ExprRef cond, ExprRef then_e, ExprRef else_e);
  ExprRef zext(ExprRef a, u8 width);
  ExprRef sext(ExprRef a, u8 width);
  ExprRef extract(ExprRef a, u8 lo, u8 width);
  ExprRef concat(ExprRef hi, ExprRef lo);

  // -- inspection -----------------------------------------------------------
  const Node& node(ExprRef e) const { return nodes_[e]; }
  u8 width(ExprRef e) const { return nodes_[e].width; }
  bool is_const(ExprRef e) const { return nodes_[e].op == Op::Const; }
  bool is_const(ExprRef e, u64 v) const {
    return is_const(e) && nodes_[e].cval == v;
  }
  u64 const_val(ExprRef e) const {
    GP_CHECK(is_const(e), "const_val of non-constant");
    return nodes_[e].cval;
  }
  bool is_var(ExprRef e) const { return nodes_[e].op == Op::Var; }
  const std::string& var_name(ExprRef e) const {
    GP_CHECK(is_var(e), "var_name of non-variable");
    return var_names_[nodes_[e].cval];
  }
  size_t num_nodes() const { return nodes_.size(); }

  /// Replace every occurrence of variable `v` with `value` (rebuilds through
  /// smart constructors, so the result re-simplifies).
  ExprRef substitute(ExprRef e, ExprRef v, ExprRef value);
  /// Apply many substitutions at once (var ref -> replacement).
  ExprRef substitute(ExprRef e,
                     const std::unordered_map<ExprRef, ExprRef>& map);

  /// Evaluate under a full assignment of variables (var ref -> value).
  /// Unassigned variables evaluate as 0.
  u64 eval(ExprRef e, const std::unordered_map<ExprRef, u64>& env) const;

  /// Collect the free variables of e (deduplicated, stable order).
  std::vector<ExprRef> variables(ExprRef e) const;
  /// Number of distinct DAG nodes reachable from e (a size/cost metric the
  /// planner's heuristics use).
  size_t dag_size(ExprRef e) const;

  std::string to_string(ExprRef e) const;

  /// Deep copy. The clone owns identical nodes under identical refs, so
  /// expressions built in `this` remain valid (read-only) in the clone; new
  /// terms interned afterwards diverge. This is the cheap way to hand a
  /// worker thread a private interner over an existing pool of expressions
  /// (the subsumption stage's per-worker scratch contexts). The governor
  /// attachment is copied too: lanes cloned from a governed context share
  /// its (atomic) node budget.
  Context clone() const { return *this; }

  /// Attach a resource governor (nullptr detaches). Fresh node interning
  /// then consumes the governor's expr-node budget; exhaustion throws
  /// ResourceExhausted for the nearest stage boundary to convert to a
  /// Status. The governor must outlive the context.
  void set_governor(Governor* g) { governor_ = g; }
  Governor* governor() const { return governor_; }

 private:
  ExprRef intern(Node n);
  ExprRef binary(Op op, ExprRef a, ExprRef b);
  /// The slot of slots_ holding n's ref, or the empty slot where it belongs.
  size_t find_slot(const Node& n, u64 hash) const;
  void grow_slots();

  Governor* governor_ = nullptr;
  std::vector<Node> nodes_;
  // Hash-cons table over nodes_: linear probing in a power-of-two table
  // kept at most half full. A slot is (high 32 bits of the node hash << 32)
  // | (ref + 1); 0 marks an empty slot.
  std::vector<u64> slots_ = std::vector<u64>(256);
  std::vector<std::string> var_names_;
  std::unordered_map<std::string, ExprRef> vars_by_name_;
  ExprRef true_ = kNoExpr, false_ = kNoExpr;
};

/// Rebuilds expressions from one Context inside another: variables map by
/// name, constants by value, everything else re-runs the destination's
/// smart constructors (so imported terms re-canonicalize and intern like
/// natively built ones). This is how worker-local extraction results are
/// remapped into the main analysis context. One Importer per (src, dst)
/// pair; the memo makes repeated imports of a shared sub-DAG O(1).
class Importer {
 public:
  Importer(const Context& src, Context& dst) : src_(src), dst_(dst) {}

  /// Translate `e` (owned by src) into dst. kNoExpr passes through.
  ExprRef import(ExprRef e);

 private:
  const Context& src_;
  Context& dst_;
  std::unordered_map<ExprRef, ExprRef> memo_;
};

}  // namespace gp::solver

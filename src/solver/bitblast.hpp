// Tseitin bit-blaster: lowers bit-vector expressions onto the CDCL SAT core.
// Adders are ripple-carry, variable shifts barrel shifters, multipliers
// column (partial-product) compressors whose gates depend only on the
// operand bits, so a*b and b*a, and a product and its truncation, share
// gates. Gate outputs are cached so shared DAG nodes encode once.
#pragma once

#include <unordered_map>
#include <vector>

#include "solver/expr.hpp"
#include "solver/sat.hpp"

namespace gp::solver {

class BitBlaster {
 public:
  explicit BitBlaster(Context& ctx) : ctx_(ctx) {
    // Reserve a literal that is constant true.
    const u32 v = sat_.new_var();
    true_lit_ = Lit::pos(v);
    sat_.add_clause({true_lit_});
  }

  /// Assert that width-1 expression e is true.
  void assert_true(ExprRef e);

  SatResult solve(i64 conflict_budget = -1,
                  const Governor* governor = nullptr) {
    return sat_.solve(conflict_budget, governor);
  }

  /// After Sat: concrete value of any expression under the model.
  u64 model_value(ExprRef e);

  u32 num_vars() const { return sat_.num_vars(); }
  size_t num_clauses() const { return sat_.num_clauses(); }
  u64 num_conflicts() const { return sat_.num_conflicts(); }

 private:
  using Bits = std::vector<Lit>;

  Lit false_lit() const { return ~true_lit_; }
  Lit lit_const(bool b) const { return b ? true_lit_ : false_lit(); }
  bool is_const_lit(Lit l, bool* out) const;

  Lit mk_and(Lit a, Lit b);
  Lit mk_or(Lit a, Lit b);
  Lit mk_xor(Lit a, Lit b);
  Lit mk_mux(Lit sel, Lit t, Lit f);  // sel ? t : f
  Lit mk_big_and(const std::vector<Lit>& ls);

  Bits blast(ExprRef e);
  Bits add_bits(const Bits& a, const Bits& b, Lit carry_in);
  Bits mul_bits(const Bits& a, const Bits& b);
  Lit ult_bits(const Bits& a, const Bits& b);

  // Gate cache: key (op << 62 | a.code << 31 | b.code) -> output literal,
  // linear probing over a power-of-two table kept at most half full. Key 0
  // marks an empty slot (op is never 0).
  struct GateSlot {
    u64 key = 0;
    Lit out;
  };
  /// The slot holding `key`, or the empty slot where it belongs.
  GateSlot& gate_slot(u64 key);
  /// Fill the empty slot gate_slot(key) returned.
  void add_gate(GateSlot& slot, u64 key, Lit out);

  Context& ctx_;
  Sat sat_;
  Lit true_lit_{0};
  std::unordered_map<ExprRef, Bits> cache_;
  std::vector<GateSlot> gates_ = std::vector<GateSlot>(1024);
  size_t num_gates_ = 0;
};

}  // namespace gp::solver

// Small CDCL SAT solver: two-watched-literal propagation, 1-UIP clause
// learning, VSIDS-style activity, geometric restarts. This is the decision
// core underneath the bit-blaster (the role Z3's SAT engine plays for the
// paper's constraint queries).
//
// Decisions come from a binary max-heap over variable activity (highest
// activity, then lowest index), the same total order a linear scan over all
// variables would pick from, so models and conflict counts do not depend on
// the data structure. Clause literals live in one arena.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "support/common.hpp"
#include "support/governor.hpp"

namespace gp::solver {

/// Literal: variable index v with sign. Encoded as 2*v (positive) or 2*v+1
/// (negated), matching the watch-list layout.
struct Lit {
  u32 code = 0;
  static Lit pos(u32 v) { return {v << 1}; }
  static Lit neg(u32 v) { return {(v << 1) | 1}; }
  Lit operator~() const { return {code ^ 1}; }
  u32 var() const { return code >> 1; }
  bool sign() const { return code & 1; }  // true = negated
  bool operator==(const Lit&) const = default;
};

enum class SatResult { Sat, Unsat, Unknown };

class Sat {
 public:
  u32 new_var();
  u32 num_vars() const { return static_cast<u32>(assign_.size()); }

  /// Add a clause (disjunction). An empty clause makes the instance
  /// trivially UNSAT. Returns false if the formula is already known UNSAT.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Solve. `conflict_budget` < 0 means unlimited. When a governor is
  /// given, the propagation/decision loop polls its deadline and cancel
  /// token (every kGovernorStride iterations) and returns Unknown once it
  /// should stop — the watchdog that keeps a pathological query from
  /// out-living the pipeline's wall-clock budget.
  SatResult solve(i64 conflict_budget = -1, const Governor* governor = nullptr);

  /// After Sat: the value assigned to var v.
  bool model_value(u32 v) const {
    GP_CHECK(v < assign_.size(), "model_value out of range");
    return assign_[v] == 1;
  }

  u64 num_conflicts() const { return conflicts_; }
  size_t num_clauses() const { return clauses_.size(); }

 private:
  static constexpr u32 kNoReason = 0xffffffff;
  static constexpr u32 kNotInHeap = 0xffffffff;

  /// A clause is lits_[start, start + size); the first two are watched.
  struct Clause {
    u32 start;
    u32 size;
  };
  struct Watch {
    u32 clause;
    Lit blocker;
  };

  // assign_: 0 = false, 1 = true, 2 = unassigned.
  i8 value(Lit l) const {
    const i8 a = assign_[l.var()];
    if (a == 2) return 2;
    return static_cast<i8>(a ^ static_cast<i8>(l.sign()));
  }
  Lit* lits(u32 clause) { return lits_.data() + clauses_[clause].start; }
  /// Store a clause of >= 2 literals and watch its first two.
  u32 attach(std::span<const Lit> lits);
  void enqueue(Lit l, u32 reason);
  u32 propagate();  // returns conflicting clause index or kNoReason
  void analyze(u32 confl, std::vector<Lit>& learnt, u32& backtrack_level);
  void backtrack(u32 level);
  Lit decide();
  void bump(u32 v);
  void decay();

  // Decision heap: heap_[0] is the variable decide() would pick. Every
  // unassigned variable is in the heap; assigned ones leave it lazily.
  bool before(u32 a, u32 b) const {
    return activity_[a] > activity_[b] ||
           (activity_[a] == activity_[b] && a < b);
  }
  void heap_insert(u32 v);
  void sift_up(u32 pos);
  void sift_down(u32 pos);

  std::vector<Clause> clauses_;
  std::vector<Lit> lits_;
  std::vector<Lit> scratch_;  // add_clause's filter buffer
  std::vector<Lit> learnt_;   // analyze()'s output, reused per conflict
  std::vector<std::vector<Watch>> watches_;  // indexed by Lit.code
  std::vector<i8> assign_;
  std::vector<u32> level_;
  std::vector<u32> reason_;
  std::vector<Lit> trail_;
  std::vector<u32> trail_lim_;
  size_t qhead_ = 0;
  std::vector<double> activity_;
  double activity_inc_ = 1.0;
  std::vector<u32> heap_;
  std::vector<u32> heap_pos_;  // index into heap_, or kNotInHeap
  std::vector<u8> seen_;
  std::vector<u8> polarity_;  // phase saving
  u64 conflicts_ = 0;
  bool unsat_ = false;
};

}  // namespace gp::solver

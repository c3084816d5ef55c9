#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "solver/solver.hpp"
#include "support/rng.hpp"

namespace gp::solver {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  Context ctx;
  ExprRef c(u64 v, u8 w = 64) { return ctx.constant(v, w); }
};

TEST_F(ExprTest, HashConsing) {
  ExprRef x = ctx.var("x", 64);
  ExprRef a = ctx.add(x, c(5));
  ExprRef b = ctx.add(x, c(5));
  EXPECT_EQ(a, b);
  // Commutative canonicalization: x+y == y+x.
  ExprRef y = ctx.var("y", 64);
  EXPECT_EQ(ctx.add(x, y), ctx.add(y, x));
  EXPECT_EQ(ctx.bxor(x, y), ctx.bxor(y, x));
}

TEST_F(ExprTest, ConstantFolding) {
  EXPECT_EQ(ctx.add(c(2), c(3)), c(5));
  EXPECT_EQ(ctx.mul(c(7), c(6)), c(42));
  EXPECT_EQ(ctx.sub(c(2), c(3)), c(~u64{0}));
  EXPECT_EQ(ctx.band(c(0xff), c(0x0f)), c(0x0f));
  EXPECT_EQ(ctx.shl(c(1), c(8)), c(256));
  EXPECT_EQ(ctx.lshr(c(0x8000000000000000ULL), c(63)), c(1));
  EXPECT_EQ(ctx.ashr(c(0x8000000000000000ULL), c(63)), c(~u64{0}));
  EXPECT_EQ(ctx.eq(c(4), c(4)), ctx.t());
  EXPECT_EQ(ctx.eq(c(4), c(5)), ctx.f());
  EXPECT_EQ(ctx.ult(c(3), c(4)), ctx.t());
  EXPECT_EQ(ctx.slt(c(~u64{0}), c(0)), ctx.t());  // -1 < 0 signed
  EXPECT_EQ(ctx.ult(c(~u64{0}), c(0)), ctx.f());
}

TEST_F(ExprTest, NarrowWidthFolding) {
  EXPECT_EQ(ctx.add(c(0xff, 8), c(1, 8)), c(0, 8));
  EXPECT_EQ(ctx.slt(c(0x80, 8), c(0, 8)), ctx.t());  // -128 < 0 in 8 bits
  EXPECT_EQ(ctx.sext(c(0x80, 8), 64), c(0xffffffffffffff80ULL));
  EXPECT_EQ(ctx.zext(c(0x80, 8), 64), c(0x80));
  EXPECT_EQ(ctx.extract(c(0xabcd, 16), 8, 8), c(0xab, 8));
  EXPECT_EQ(ctx.concat(c(0xab, 8), c(0xcd, 8)), c(0xabcd, 16));
}

TEST_F(ExprTest, Identities) {
  ExprRef x = ctx.var("x", 64);
  EXPECT_EQ(ctx.add(x, c(0)), x);
  EXPECT_EQ(ctx.mul(x, c(1)), x);
  EXPECT_EQ(ctx.mul(x, c(0)), c(0));
  EXPECT_EQ(ctx.band(x, c(0)), c(0));
  EXPECT_EQ(ctx.band(x, c(~u64{0})), x);
  EXPECT_EQ(ctx.bor(x, c(0)), x);
  EXPECT_EQ(ctx.bxor(x, x), c(0));
  EXPECT_EQ(ctx.bxor(x, c(0)), x);
  EXPECT_EQ(ctx.sub(x, x), c(0));
  EXPECT_EQ(ctx.bnot(ctx.bnot(x)), x);
  EXPECT_EQ(ctx.neg(ctx.neg(x)), x);
  EXPECT_EQ(ctx.eq(x, x), ctx.t());
  EXPECT_EQ(ctx.shl(x, c(0)), x);
}

TEST_F(ExprTest, CanonicalFormConstantsOnRight) {
  // Regression tests for the (base + offset) normal form the memory model
  // depends on: constants must always end up on the right, including when
  // the constant arrives on the left or nested inside.
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  // 8 + (x + c) collapses to x + (c + 8).
  EXPECT_EQ(ctx.add(c(8), ctx.add(x, c(0x10))), ctx.add(x, c(0x18)));
  // Repeated +8 chains stay flat (the rsp-advance pattern).
  ExprRef rsp = x;
  for (int i = 0; i < 16; ++i) rsp = ctx.add(c(8), rsp);
  EXPECT_EQ(rsp, ctx.add(x, c(128)));
  // Inner constants float outward across non-constant additions.
  EXPECT_EQ(ctx.add(ctx.add(x, c(8)), y), ctx.add(ctx.add(x, y), c(8)));
  EXPECT_EQ(ctx.add(x, ctx.add(y, c(8))), ctx.add(ctx.add(x, y), c(8)));
  // Commutative interning never leaves a constant on the left.
  const auto& n = ctx.node(ctx.add(x, c(5)));
  EXPECT_TRUE(ctx.is_const(n.b));
  const auto& m = ctx.node(ctx.mul(x, c(5)));
  EXPECT_TRUE(ctx.is_const(m.b));
}

TEST_F(ExprTest, SubstituteMapForm) {
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  ExprRef e = ctx.add(ctx.mul(x, y), ctx.bxor(x, y));
  std::unordered_map<ExprRef, ExprRef> map{{x, c(6)}, {y, c(7)}};
  EXPECT_EQ(ctx.substitute(e, map), c(42 + (6 ^ 7)));
}

TEST_F(ExprTest, DagSizeCountsSharedNodesOnce) {
  ExprRef x = ctx.var("x", 64);
  ExprRef shared = ctx.add(x, c(1));
  ExprRef e = ctx.mul(shared, shared);
  // Nodes reachable: mul, add, x, const — x/const are leaves excluded from
  // cost but counted as visited; sharing must not double-count.
  EXPECT_LE(ctx.dag_size(e), 4u);
  EXPECT_GE(ctx.dag_size(e), 2u);
}

TEST_F(ExprTest, ConstantChainsAccumulate) {
  ExprRef x = ctx.var("x", 64);
  ExprRef e = ctx.add(ctx.add(x, c(8)), c(8));
  EXPECT_EQ(e, ctx.add(x, c(16)));
  // (x + 8) == 24  simplifies to  x == 16.
  EXPECT_EQ(ctx.eq(ctx.add(x, c(8)), c(24)), ctx.eq(x, c(16)));
}

TEST_F(ExprTest, IteSimplification) {
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  ExprRef p = ctx.var("p", 1);
  EXPECT_EQ(ctx.ite(ctx.t(), x, y), x);
  EXPECT_EQ(ctx.ite(ctx.f(), x, y), y);
  EXPECT_EQ(ctx.ite(p, x, x), x);
  EXPECT_EQ(ctx.ite(p, ctx.t(), ctx.f()), p);
}

TEST_F(ExprTest, SubstituteRebuildsAndSimplifies) {
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  ExprRef e = ctx.add(ctx.mul(x, c(2)), y);
  ExprRef r = ctx.substitute(e, x, c(10));
  r = ctx.substitute(r, y, c(22));
  EXPECT_EQ(r, c(42));
}

TEST_F(ExprTest, Variables) {
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  ExprRef e = ctx.add(ctx.mul(x, y), ctx.bxor(x, c(3)));
  auto vars = ctx.variables(e);
  EXPECT_EQ(vars.size(), 2u);
}

TEST_F(ExprTest, EvalMatchesSemantics) {
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  std::unordered_map<ExprRef, u64> env{{x, 7}, {y, 3}};
  EXPECT_EQ(ctx.eval(ctx.add(x, y), env), 10u);
  EXPECT_EQ(ctx.eval(ctx.shl(x, y), env), 56u);
  EXPECT_EQ(ctx.eval(ctx.slt(ctx.neg(x), y), env), 1u);
}

// ---------------------------------------------------------------------------
// SAT core
// ---------------------------------------------------------------------------

TEST(SatCore, TrivialSatAndUnsat) {
  Sat s;
  const u32 a = s.new_var(), b = s.new_var();
  s.add_clause({Lit::pos(a), Lit::pos(b)});
  s.add_clause({Lit::neg(a)});
  EXPECT_EQ(s.solve(), SatResult::Sat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));

  Sat u;
  const u32 x = u.new_var();
  u.add_clause({Lit::pos(x)});
  EXPECT_FALSE(u.add_clause({Lit::neg(x)}));
  EXPECT_EQ(u.solve(), SatResult::Unsat);
}

TEST(SatCore, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: classic small UNSAT requiring real search.
  Sat s;
  const int P = 4, H = 3;
  u32 v[4][3];
  for (int p = 0; p < P; ++p)
    for (int h = 0; h < H; ++h) v[p][h] = s.new_var();
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(Lit::pos(v[p][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < H; ++h)
    for (int p1 = 0; p1 < P; ++p1)
      for (int p2 = p1 + 1; p2 < P; ++p2)
        s.add_clause({Lit::neg(v[p1][h]), Lit::neg(v[p2][h])});
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

/// Random 3-SAT cross-checked against brute force over <=14 variables.
TEST(SatCore, RandomAgainstBruteForce) {
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    const int nvars = 3 + static_cast<int>(rng.below(12));
    const int nclauses = 1 + static_cast<int>(rng.below(60));
    std::vector<std::vector<int>> clauses(nclauses);
    for (auto& cl : clauses) {
      const int len = 1 + static_cast<int>(rng.below(3));
      for (int k = 0; k < len; ++k) {
        const int var = static_cast<int>(rng.below(nvars));
        cl.push_back(rng.chance(0.5) ? var + 1 : -(var + 1));
      }
    }
    // Brute force.
    bool brute_sat = false;
    for (u32 m = 0; m < (1u << nvars) && !brute_sat; ++m) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool any = false;
        for (const int l : cl) {
          const int var = std::abs(l) - 1;
          const bool val = (m >> var) & 1;
          if ((l > 0) == val) {
            any = true;
            break;
          }
        }
        if (!any) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    // CDCL.
    Sat s;
    for (int v = 0; v < nvars; ++v) s.new_var();
    bool consistent = true;
    for (const auto& cl : clauses) {
      std::vector<Lit> lits;
      for (const int l : cl) {
        const u32 var = static_cast<u32>(std::abs(l) - 1);
        lits.push_back(l > 0 ? Lit::pos(var) : Lit::neg(var));
      }
      consistent = s.add_clause(std::move(lits)) && consistent;
    }
    const bool cdcl_sat = consistent && s.solve() == SatResult::Sat;
    EXPECT_EQ(cdcl_sat, brute_sat) << "iter " << iter;
    // If SAT, the model must actually satisfy every clause.
    if (cdcl_sat) {
      for (const auto& cl : clauses) {
        bool any = false;
        for (const int l : cl) {
          const u32 var = static_cast<u32>(std::abs(l) - 1);
          if ((l > 0) == s.model_value(var)) any = true;
        }
        EXPECT_TRUE(any);
      }
    }
  }
}

// Decision-order pins. The conflict counts and models below were recorded
// with the original decide(), a linear scan for the highest-activity
// unassigned variable (lowest index on ties). Every model the bit-blaster
// hands the planner depends on that order, so any change to decisions,
// activity bookkeeping or clause layout has to reproduce these exactly.
struct Cnf {
  u32 vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

Cnf pigeonhole(u32 pigeons, u32 holes) {
  Cnf f;
  f.vars = pigeons * holes;
  auto v = [holes](u32 p, u32 h) { return p * holes + h; };
  for (u32 p = 0; p < pigeons; ++p) {
    std::vector<Lit> c;
    for (u32 h = 0; h < holes; ++h) c.push_back(Lit::pos(v(p, h)));
    f.clauses.push_back(c);
  }
  for (u32 h = 0; h < holes; ++h)
    for (u32 p1 = 0; p1 < pigeons; ++p1)
      for (u32 p2 = p1 + 1; p2 < pigeons; ++p2)
        f.clauses.push_back({Lit::neg(v(p1, h)), Lit::neg(v(p2, h))});
  return f;
}

/// Uniform random 3-SAT: three distinct variables per clause.
Cnf random_3sat(u64 seed, u32 vars, u32 clauses) {
  Rng rng(seed);
  Cnf f;
  f.vars = vars;
  for (u32 i = 0; i < clauses; ++i) {
    std::vector<Lit> c;
    while (c.size() < 3) {
      const u32 v = static_cast<u32>(rng.below(vars));
      bool dup = false;
      for (const Lit l : c) dup = dup || l.var() == v;
      if (!dup) c.push_back(rng.chance(0.5) ? Lit::pos(v) : Lit::neg(v));
    }
    f.clauses.push_back(c);
  }
  return f;
}

struct SatRun {
  SatResult result = SatResult::Unknown;
  u64 conflicts = 0;
  std::string model;  // '0'/'1' per variable when Sat
};

SatRun run_cnf(const Cnf& f) {
  Sat s;
  for (u32 v = 0; v < f.vars; ++v) s.new_var();
  for (const auto& c : f.clauses) s.add_clause(c);
  SatRun r;
  r.result = s.solve();
  r.conflicts = s.num_conflicts();
  if (r.result == SatResult::Sat)
    for (u32 v = 0; v < f.vars; ++v) r.model += s.model_value(v) ? '1' : '0';
  return r;
}

TEST(SatCore, DecisionOrderPinnedPigeonhole7Into6) {
  const SatRun r = run_cnf(pigeonhole(7, 6));
  EXPECT_EQ(r.result, SatResult::Unsat);
  EXPECT_EQ(r.conflicts, 822u);
}

TEST(SatCore, DecisionOrderPinnedRandomSat) {
  const Cnf f = random_3sat(0x5eed01, 200, 800);
  const SatRun r = run_cnf(f);
  ASSERT_EQ(r.result, SatResult::Sat);
  // Past ~4,490 conflicts the activities are rescaled by 1e-100.
  EXPECT_EQ(r.conflicts, 10553u);
  EXPECT_EQ(r.model,
            "0111011101100010110100001101000000011010100000000110111001111001"
            "0011111111010001010100000110011010001000101100011010111101001111"
            "0000011001101000001001101101111111001011100101010010111010110100"
            "01110000");
  for (const auto& c : f.clauses) {
    bool any = false;
    for (const Lit l : c) any = any || (r.model[l.var()] == '1') != l.sign();
    EXPECT_TRUE(any);
  }
}

TEST(SatCore, DecisionOrderPinnedRandomUnsat) {
  const SatRun r = run_cnf(random_3sat(0x5eed02, 180, 820));
  EXPECT_EQ(r.result, SatResult::Unsat);
  EXPECT_EQ(r.conflicts, 5235u);
}

// ---------------------------------------------------------------------------
// Bit-blasting solver
// ---------------------------------------------------------------------------

class SolverTest : public ::testing::Test {
 protected:
  Context ctx;
  Solver solver{ctx};
  ExprRef c(u64 v, u8 w = 64) { return ctx.constant(v, w); }
};

TEST_F(SolverTest, SimpleEquationModel) {
  ExprRef x = ctx.var("x", 64);
  // x + 5 == 12
  auto m = solver.check_sat({ctx.eq(ctx.add(x, c(5)), c(12))});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ((*m)[x], 7u);
}

TEST_F(SolverTest, UnsatContradiction) {
  ExprRef x = ctx.var("x", 64);
  EXPECT_FALSE(
      solver.check_sat({ctx.eq(x, c(1)), ctx.eq(x, c(2))}).has_value());
}

TEST_F(SolverTest, XorDecomposition) {
  // The paper's instruction-substitution identity:
  // a ^ b == (~a & b) | (a & ~b), proven valid over all 64-bit values.
  ExprRef a = ctx.var("a", 64);
  ExprRef b = ctx.var("b", 64);
  ExprRef lhs = ctx.bxor(a, b);
  ExprRef rhs = ctx.bor(ctx.band(ctx.bnot(a), b), ctx.band(a, ctx.bnot(b)));
  EXPECT_TRUE(solver.prove_equal(lhs, rhs));
}

TEST_F(SolverTest, AddDecomposition) {
  // a + b == (a ^ b) + 2*(a & b)
  ExprRef a = ctx.var("a", 64);
  ExprRef b = ctx.var("b", 64);
  ExprRef rhs =
      ctx.add(ctx.bxor(a, b), ctx.mul(c(2), ctx.band(a, b)));
  EXPECT_TRUE(solver.prove_equal(ctx.add(a, b), rhs));
}

TEST_F(SolverTest, NotEqualCatchesDifference) {
  ExprRef a = ctx.var("a", 64);
  EXPECT_FALSE(solver.prove_equal(ctx.add(a, c(1)), ctx.add(a, c(2))));
  EXPECT_FALSE(solver.prove_equal(ctx.mul(a, c(2)), ctx.shl(a, c(2))));
  EXPECT_TRUE(solver.prove_equal(ctx.mul(a, c(2)), ctx.shl(a, c(1))));
}

TEST_F(SolverTest, OpaquePredicateAlwaysTrue) {
  // x*x + x is even: the bogus-control-flow opaque predicate.
  ExprRef x = ctx.var("x", 64);
  ExprRef e = ctx.band(ctx.add(ctx.mul(x, x), x), c(1));
  EXPECT_TRUE(solver.prove_equal(e, c(0)));
}

TEST_F(SolverTest, Implication) {
  ExprRef x = ctx.var("x", 64);
  ExprRef stronger = ctx.eq(x, c(5));
  ExprRef weaker = ctx.ult(x, c(10));
  EXPECT_TRUE(solver.prove_implies(stronger, weaker));
  EXPECT_FALSE(solver.prove_implies(weaker, stronger));
  EXPECT_TRUE(solver.prove_implies(ctx.f(), stronger));
  EXPECT_TRUE(solver.prove_implies(stronger, ctx.t()));
}

TEST_F(SolverTest, SignedComparisons) {
  ExprRef x = ctx.var("x", 64);
  // x < 0 signed AND x > 10 unsigned is satisfiable (negative values are
  // huge unsigned).
  auto m = solver.check_sat({ctx.slt(x, c(0)), ctx.ult(c(10), x)});
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(static_cast<i64>((*m)[x]) < 0);
}

TEST_F(SolverTest, ShiftSemantics) {
  ExprRef x = ctx.var("x", 8);
  // (x << 1) == 0x54  ->  x == 0x2a or 0xaa (top bit shifted out).
  auto m = solver.check_sat({ctx.eq(ctx.shl(x, c(1, 8)), c(0x54, 8))});
  ASSERT_TRUE(m.has_value());
  const u64 v = (*m)[x];
  EXPECT_EQ((v << 1) & 0xff, 0x54u);
}

TEST_F(SolverTest, IteBlasting) {
  ExprRef x = ctx.var("x", 64);
  ExprRef cond = ctx.ult(x, c(100));
  ExprRef e = ctx.ite(cond, c(1), c(2));
  auto m = solver.check_sat({ctx.eq(e, c(2))});
  ASSERT_TRUE(m.has_value());
  EXPECT_GE((*m)[x], 100u);
}

TEST_F(SolverTest, MemoCacheHits) {
  ExprRef x = ctx.var("x", 64);
  ExprRef q = ctx.eq(x, c(3));
  EXPECT_TRUE(solver.is_sat({q}));
  const u64 before = solver.cache_hits();
  EXPECT_TRUE(solver.is_sat({q}));
  EXPECT_GT(solver.cache_hits(), before);
}

TEST_F(SolverTest, MemoKeysOnTheExactConstraintSet) {
  ExprRef x = ctx.var("x", 64);
  ExprRef a = ctx.ult(x, c(10));
  ExprRef b = ctx.ult(c(5), x);
  // Order and repetition do not matter: {a,b} and {b,a,a} share one entry.
  EXPECT_EQ(solver.check({a, b}), SatResult::Sat);
  EXPECT_EQ(solver.check({b, a, a}), SatResult::Sat);
  EXPECT_EQ(solver.cache_hits(), 1u);
  // Distinct sets never share one: each first query misses the memo, and
  // each repeat hits its own entry and gets its own answer back.
  std::vector<std::vector<ExprRef>> sets;
  for (u64 k = 0; k < 40; ++k) {
    sets.push_back({ctx.eq(x, c(k))});
    sets.push_back({ctx.eq(x, c(k)), ctx.eq(x, c(k + 1))});
  }
  for (const auto& s : sets) (void)solver.check(s);
  EXPECT_EQ(solver.cache_hits(), 1u);
  for (const auto& s : sets)
    EXPECT_EQ(solver.check(s),
              s.size() == 1 ? SatResult::Sat : SatResult::Unsat);
  EXPECT_EQ(solver.cache_hits(), 1u + sets.size());
}

/// Property: for random expression trees, solver-found models actually
/// evaluate to satisfy the constraint (model soundness), and prove_equal
/// agrees with randomized evaluation (no false equivalences on sampled
/// points).
TEST_F(SolverTest, RandomExpressionModelSoundness) {
  Rng rng(77);
  ExprRef x = ctx.var("x", 16);
  ExprRef y = ctx.var("y", 16);
  for (int iter = 0; iter < 60; ++iter) {
    // Build a random small expression over x, y.
    std::vector<ExprRef> pool{x, y, c(rng.below(1 << 16), 16)};
    for (int d = 0; d < 6; ++d) {
      ExprRef a = pool[rng.below(pool.size())];
      ExprRef b = pool[rng.below(pool.size())];
      switch (rng.below(6)) {
        case 0: pool.push_back(ctx.add(a, b)); break;
        case 1: pool.push_back(ctx.bxor(a, b)); break;
        case 2: pool.push_back(ctx.band(a, b)); break;
        case 3: pool.push_back(ctx.bor(a, b)); break;
        case 4: pool.push_back(ctx.bnot(a)); break;
        case 5: pool.push_back(ctx.mul(a, b)); break;
      }
    }
    ExprRef e = pool.back();
    const u64 target = rng.below(1 << 16);
    auto m = solver.check_sat({ctx.eq(e, c(target, 16))});
    if (m.has_value()) {
      std::unordered_map<ExprRef, u64> env(m->begin(), m->end());
      EXPECT_EQ(ctx.eval(e, env), target) << ctx.to_string(e);
    } else {
      // Sample a few points to gain confidence it really is UNSAT.
      for (int s = 0; s < 16; ++s) {
        std::unordered_map<ExprRef, u64> env{{x, rng.below(1 << 16)},
                                             {y, rng.below(1 << 16)}};
        EXPECT_NE(ctx.eval(e, env), target) << ctx.to_string(e);
      }
    }
  }
}

/// Property: smart-constructor simplification is semantics-preserving.
/// Compare ctx.eval of randomly built exprs against a shadow interpreter
/// that applies the operations directly.
TEST_F(SolverTest, SimplifierPreservesSemantics) {
  Rng rng(99);
  for (int iter = 0; iter < 300; ++iter) {
    ExprRef x = ctx.var("x", 64);
    ExprRef y = ctx.var("y", 64);
    const u64 xv = rng.next(), yv = rng.next();
    std::unordered_map<ExprRef, u64> env{{x, xv}, {y, yv}};

    struct Item {
      ExprRef e;
      u64 v;
    };
    std::vector<Item> pool{{x, xv}, {y, yv}};
    const u64 k = rng.next();
    pool.push_back({c(k), k});
    for (int d = 0; d < 8; ++d) {
      const Item a = pool[rng.below(pool.size())];
      const Item b = pool[rng.below(pool.size())];
      Item out{0, 0};
      switch (rng.below(9)) {
        case 0: out = {ctx.add(a.e, b.e), a.v + b.v}; break;
        case 1: out = {ctx.sub(a.e, b.e), a.v - b.v}; break;
        case 2: out = {ctx.mul(a.e, b.e), a.v * b.v}; break;
        case 3: out = {ctx.band(a.e, b.e), a.v & b.v}; break;
        case 4: out = {ctx.bor(a.e, b.e), a.v | b.v}; break;
        case 5: out = {ctx.bxor(a.e, b.e), a.v ^ b.v}; break;
        case 6: out = {ctx.bnot(a.e), ~a.v}; break;
        case 7: out = {ctx.shl(a.e, c(rng.below(64))), 0}; break;
        case 8: out = {ctx.lshr(a.e, c(rng.below(64))), 0}; break;
      }
      // Recompute shifts from the expression itself (count was fresh).
      out.v = ctx.eval(out.e, env);
      pool.push_back(out);
      EXPECT_EQ(ctx.eval(out.e, env), out.v);
    }
  }
}

// ---------------------------------------------------------------------------
// Multiplier encoding
// ---------------------------------------------------------------------------

/// The subsumption miter
///   ((b * a) >>s 8) & 0x3f == (zext64(a[31:0] * b[31:0]) >>s 8) & 0x3f
/// in a fresh context. Commutative operands are ordered by ref, so interning
/// b[31:0] before a[31:0] gives the 32-bit product the opposite orientation
/// of the 64-bit one. Returns whether the query was proven under the
/// subsumption stage's 50,000-conflict cap; `unknowns` gets the UNKNOWN
/// count.
bool prove_truncated_product_miter(bool low_a_first, u64* unknowns) {
  Context ctx;
  const ExprRef a = ctx.var("rax0", 64);
  const ExprRef b = ctx.var("rcx0", 64);
  ExprRef lo_a, lo_b;
  if (low_a_first) {
    lo_a = ctx.extract(a, 0, 32);
    lo_b = ctx.extract(b, 0, 32);
  } else {
    lo_b = ctx.extract(b, 0, 32);
    lo_a = ctx.extract(a, 0, 32);
  }
  const auto field = [&](ExprRef v) {
    return ctx.band(ctx.ashr(v, ctx.constant(8, 64)),
                    ctx.constant(0x3f, 64));
  };
  const ExprRef wide = field(ctx.mul(b, a));
  const ExprRef narrow = field(ctx.zext(ctx.mul(lo_a, lo_b), 64));
  Solver solver(ctx, /*conflict_budget=*/50'000);
  const bool proven = solver.prove_equal(wide, narrow);
  *unknowns = solver.unknowns();
  return proven;
}

TEST(BitBlast, MultiplierIsOrientationFree) {
  for (const bool low_a_first : {true, false}) {
    u64 unknowns = 1;
    EXPECT_TRUE(prove_truncated_product_miter(low_a_first, &unknowns))
        << "low_a_first=" << low_a_first;
    EXPECT_EQ(unknowns, 0u) << "low_a_first=" << low_a_first;
  }
}

TEST_F(SolverTest, MultiplierModelsMatchTruncatedProducts) {
  Rng rng(15);
  for (const u8 w : {1, 8, 32, 64}) {
    const u64 mask = w == 64 ? ~u64{0} : (u64{1} << w) - 1;
    const std::string tag = std::to_string(w);
    const ExprRef x = ctx.var("x" + tag, w);
    const ExprRef y = ctx.var("y" + tag, w);
    const ExprRef p = ctx.var("p" + tag, w);
    const ExprRef product = ctx.eq(p, ctx.mul(x, y));
    std::vector<std::pair<u64, u64>> cases{{0, 0}, {1, mask}, {mask, mask}};
    for (int i = 0; i < 8; ++i)
      cases.emplace_back(rng.next() & mask, rng.next() & mask);
    for (const auto& [c1, c2] : cases) {
      const auto m = solver.check_sat(
          {ctx.eq(x, c(c1, w)), ctx.eq(y, c(c2, w)), product});
      ASSERT_TRUE(m.has_value()) << "w=" << tag << " " << c1 << "*" << c2;
      EXPECT_EQ(m->at(p), (c1 * c2) & mask)
          << "w=" << tag << " " << c1 << "*" << c2;
    }
  }
}

TEST(BitBlast, MultiplierIdentitiesAtWidth16) {
  // x*y == y*x, with the two products built in opposite operand order: the
  // 32-bit X*Y keeps (X, Y) while the 16-bit product of the low halves,
  // whose Y half is interned first, is ordered (Y[15:0], X[15:0]). The
  // 16-bit product is also the truncated 32-bit one, so one query checks
  // both. The cap turns an encoding that needs search here into a failure,
  // not a hang.
  Context ctx;
  Solver solver(ctx, /*conflict_budget=*/50'000);
  const ExprRef big_x = ctx.var("X", 32);
  const ExprRef big_y = ctx.var("Y", 32);
  const ExprRef y = ctx.extract(big_y, 0, 16);
  const ExprRef x = ctx.extract(big_x, 0, 16);
  ASSERT_EQ(ctx.node(ctx.mul(x, y)).a, y);
  EXPECT_TRUE(solver.prove_equal(ctx.extract(ctx.mul(big_x, big_y), 0, 16),
                                 ctx.mul(x, y)));
  const ExprRef eight = ctx.constant(8, 16);
  EXPECT_TRUE(solver.prove_equal(ctx.mul(x, eight),
                                 ctx.shl(x, ctx.constant(3, 16))));
  EXPECT_FALSE(solver.prove_equal(ctx.mul(x, eight),
                                  ctx.shl(x, ctx.constant(4, 16))));
  EXPECT_EQ(solver.unknowns(), 0u);
}

}  // namespace
}  // namespace gp::solver

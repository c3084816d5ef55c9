#include "solver/bitblast.hpp"

#include <algorithm>

namespace gp::solver {

bool BitBlaster::is_const_lit(Lit l, bool* out) const {
  if (l == true_lit_) {
    *out = true;
    return true;
  }
  if (l == false_lit()) {
    *out = false;
    return true;
  }
  return false;
}

BitBlaster::GateSlot& BitBlaster::gate_slot(u64 key) {
  const size_t mask = gates_.size() - 1;
  u64 h = key * 0x9e3779b97f4a7c15ULL;
  for (size_t i = (h ^ (h >> 32)) & mask;; i = (i + 1) & mask)
    if (gates_[i].key == key || gates_[i].key == 0) return gates_[i];
}

void BitBlaster::add_gate(GateSlot& slot, u64 key, Lit out) {
  slot = {key, out};
  if (++num_gates_ * 2 <= gates_.size()) return;
  std::vector<GateSlot> old(gates_.size() * 2);
  old.swap(gates_);
  for (const GateSlot& g : old)
    if (g.key != 0) gate_slot(g.key) = g;
}

Lit BitBlaster::mk_and(Lit a, Lit b) {
  bool ca, cb;
  if (is_const_lit(a, &ca)) return ca ? b : false_lit();
  if (is_const_lit(b, &cb)) return cb ? a : false_lit();
  if (a == b) return a;
  if (a == ~b) return false_lit();
  if (a.code > b.code) std::swap(a, b);
  const u64 key = (u64{1} << 62) | (u64{a.code} << 31) | b.code;
  GateSlot& slot = gate_slot(key);
  if (slot.key == key) return slot.out;
  const Lit o = Lit::pos(sat_.new_var());
  sat_.add_clause({~o, a});
  sat_.add_clause({~o, b});
  sat_.add_clause({o, ~a, ~b});
  add_gate(slot, key, o);
  return o;
}

Lit BitBlaster::mk_or(Lit a, Lit b) { return ~mk_and(~a, ~b); }

Lit BitBlaster::mk_xor(Lit a, Lit b) {
  bool ca, cb;
  if (is_const_lit(a, &ca)) return ca ? ~b : b;
  if (is_const_lit(b, &cb)) return cb ? ~a : a;
  if (a == b) return false_lit();
  if (a == ~b) return true_lit_;
  if (a.code > b.code) std::swap(a, b);
  const u64 key = (u64{2} << 62) | (u64{a.code} << 31) | b.code;
  GateSlot& slot = gate_slot(key);
  if (slot.key == key) return slot.out;
  const Lit o = Lit::pos(sat_.new_var());
  sat_.add_clause({~o, a, b});
  sat_.add_clause({~o, ~a, ~b});
  sat_.add_clause({o, ~a, b});
  sat_.add_clause({o, a, ~b});
  add_gate(slot, key, o);
  return o;
}

Lit BitBlaster::mk_mux(Lit sel, Lit t, Lit f) {
  bool c;
  if (is_const_lit(sel, &c)) return c ? t : f;
  if (t == f) return t;
  return mk_or(mk_and(sel, t), mk_and(~sel, f));
}

Lit BitBlaster::mk_big_and(const std::vector<Lit>& ls) {
  Lit acc = true_lit_;
  for (const Lit l : ls) acc = mk_and(acc, l);
  return acc;
}

BitBlaster::Bits BitBlaster::add_bits(const Bits& a, const Bits& b,
                                      Lit carry_in) {
  GP_CHECK(a.size() == b.size(), "adder width mismatch");
  Bits sum(a.size(), false_lit());
  Lit carry = carry_in;
  for (size_t i = 0; i < a.size(); ++i) {
    const Lit axb = mk_xor(a[i], b[i]);
    sum[i] = mk_xor(axb, carry);
    carry = mk_or(mk_and(a[i], b[i]), mk_and(carry, axb));
  }
  return sum;
}

BitBlaster::Bits BitBlaster::mul_bits(const Bits& a, const Bits& b) {
  GP_CHECK(a.size() == b.size(), "multiplier width mismatch");
  const size_t w = a.size();
  // Column k holds every partial product a[i] & b[j] with i + j == k, plus
  // the carries out of column k - 1. Each column is reduced in Lit::code
  // order, so the gates depend only on the operand bits (never on which
  // operand is a) and the low k columns are exactly those of the k-bit
  // product of the low k bits.
  std::vector<Bits> cols(w);
  const auto put = [&](size_t k, Lit l) {
    if (l != false_lit()) cols[k].push_back(l);
  };
  for (size_t i = 0; i < w; ++i)
    for (size_t j = 0; i + j < w; ++j) put(i + j, mk_and(a[i], b[j]));
  Bits out(w, false_lit());
  for (size_t k = 0; k < w; ++k) {
    Bits& col = cols[k];
    std::sort(col.begin(), col.end(),
              [](Lit x, Lit y) { return x.code < y.code; });
    // Queue reduction: the next three literals go through a full adder
    // whose sum joins the back of this column and whose carry goes to the
    // next one. A last pair gets a constant-false third input, which the
    // gate constructors fold into a half adder.
    for (size_t h = 0; h + 1 < col.size(); h += 3) {
      const Lit x = col[h], y = col[h + 1];
      const Lit z = h + 2 < col.size() ? col[h + 2] : false_lit();
      const Lit xy = mk_xor(x, y);
      col.push_back(mk_xor(xy, z));
      if (k + 1 < w) put(k + 1, mk_or(mk_and(x, y), mk_and(xy, z)));
    }
    if (!col.empty()) out[k] = col.back();
  }
  return out;
}

Lit BitBlaster::ult_bits(const Bits& a, const Bits& b) {
  // a < b unsigned: iterate from MSB; at the first differing bit, a's bit is
  // 0 and b's is 1.
  Lit lt = false_lit();
  Lit eq_so_far = true_lit_;
  for (size_t i = a.size(); i-- > 0;) {
    lt = mk_or(lt, mk_and(eq_so_far, mk_and(~a[i], b[i])));
    eq_so_far = mk_and(eq_so_far, ~mk_xor(a[i], b[i]));
  }
  return lt;
}

BitBlaster::Bits BitBlaster::blast(ExprRef e) {
  auto hit = cache_.find(e);
  if (hit != cache_.end()) return hit->second;

  const Node& n = ctx_.node(e);
  const u8 w = n.width;
  Bits out(w, false_lit());

  switch (n.op) {
    case Op::Const:
      for (u8 i = 0; i < w; ++i) out[i] = lit_const((n.cval >> i) & 1);
      break;
    case Op::Var:
      for (u8 i = 0; i < w; ++i) out[i] = Lit::pos(sat_.new_var());
      break;
    case Op::Add:
      out = add_bits(blast(n.a), blast(n.b), false_lit());
      break;
    case Op::Neg: {
      Bits a = blast(n.a);
      for (auto& l : a) l = ~l;
      out = add_bits(a, Bits(w, false_lit()), true_lit_);
      break;
    }
    case Op::Mul:
      out = mul_bits(blast(n.a), blast(n.b));
      break;
    case Op::And: {
      const Bits a = blast(n.a), b = blast(n.b);
      for (u8 i = 0; i < w; ++i) out[i] = mk_and(a[i], b[i]);
      break;
    }
    case Op::Or: {
      const Bits a = blast(n.a), b = blast(n.b);
      for (u8 i = 0; i < w; ++i) out[i] = mk_or(a[i], b[i]);
      break;
    }
    case Op::Xor: {
      const Bits a = blast(n.a), b = blast(n.b);
      for (u8 i = 0; i < w; ++i) out[i] = mk_xor(a[i], b[i]);
      break;
    }
    case Op::Not: {
      const Bits a = blast(n.a);
      for (u8 i = 0; i < w; ++i) out[i] = ~a[i];
      break;
    }
    case Op::Shl:
    case Op::LShr:
    case Op::AShr: {
      Bits val = blast(n.a);
      const Bits cnt = blast(n.b);
      // Barrel shifter over the log2(w) used count bits (count masked by
      // width-1, matching Context::eval and x86 semantics).
      unsigned stages = 0;
      while ((1u << stages) < w) ++stages;
      const Lit sign = n.op == Op::AShr ? val[w - 1] : false_lit();
      for (unsigned s = 0; s < stages; ++s) {
        const u32 shift = 1u << s;
        const Lit sel = s < cnt.size() ? cnt[s] : false_lit();
        Bits next(w, false_lit());
        for (u8 i = 0; i < w; ++i) {
          Lit shifted;
          if (n.op == Op::Shl) {
            shifted = i >= shift ? val[i - shift] : false_lit();
          } else {
            shifted = i + shift < w ? val[i + shift] : sign;
          }
          next[i] = mk_mux(sel, shifted, val[i]);
        }
        val = next;
      }
      out = val;
      break;
    }
    case Op::Eq: {
      const Bits a = blast(n.a), b = blast(n.b);
      std::vector<Lit> eqs(a.size());
      for (size_t i = 0; i < a.size(); ++i) eqs[i] = ~mk_xor(a[i], b[i]);
      out[0] = mk_big_and(eqs);
      break;
    }
    case Op::Ult:
      out[0] = ult_bits(blast(n.a), blast(n.b));
      break;
    case Op::Slt: {
      const Bits a = blast(n.a), b = blast(n.b);
      const Lit sa = a.back(), sb = b.back();
      const Lit u = ult_bits(a, b);
      // Different signs: a<b iff a negative. Same signs: unsigned compare.
      out[0] = mk_mux(mk_xor(sa, sb), sa, u);
      break;
    }
    case Op::Ite: {
      const Lit sel = blast(n.a)[0];
      const Bits t = blast(n.b), f = blast(n.c);
      for (u8 i = 0; i < w; ++i) out[i] = mk_mux(sel, t[i], f[i]);
      break;
    }
    case Op::ZExt: {
      const Bits a = blast(n.a);
      for (size_t i = 0; i < a.size(); ++i) out[i] = a[i];
      break;
    }
    case Op::SExt: {
      const Bits a = blast(n.a);
      for (u8 i = 0; i < w; ++i)
        out[i] = i < a.size() ? a[i] : a.back();
      break;
    }
    case Op::Extract: {
      const Bits a = blast(n.a);
      for (u8 i = 0; i < w; ++i) out[i] = a[n.aux + i];
      break;
    }
    case Op::Concat: {
      const Bits hi = blast(n.a), lo = blast(n.b);
      for (size_t i = 0; i < lo.size(); ++i) out[i] = lo[i];
      for (size_t i = 0; i < hi.size(); ++i) out[lo.size() + i] = hi[i];
      break;
    }
  }

  cache_.emplace(e, out);
  return out;
}

void BitBlaster::assert_true(ExprRef e) {
  GP_CHECK(ctx_.width(e) == 1, "assert_true needs a width-1 expression");
  const Bits b = blast(e);
  sat_.add_clause({b[0]});
}

u64 BitBlaster::model_value(ExprRef e) {
  const Bits b = blast(e);
  u64 v = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    bool c;
    bool bit;
    if (is_const_lit(b[i], &c)) {
      bit = c;
    } else {
      bit = sat_.model_value(b[i].var()) != b[i].sign();
    }
    if (bit) v |= u64{1} << i;
  }
  return v;
}

}  // namespace gp::solver

// Subsumption through a pipeline Session on a real corpus pool: the winnow's
// outcome must not depend on how many threads ran it.
#include <gtest/gtest.h>

#include <cstdlib>

#include "codegen/codegen.hpp"
#include "core/campaign.hpp"
#include "corpus/corpus.hpp"
#include "minic/minic.hpp"
#include "obfuscate/obfuscate.hpp"

namespace gp::core {
namespace {

/// Subsume the unobfuscated hash_table pool (the census job, obfuscation
/// seed 7) in a fresh Session with GP_THREADS=`threads`.
subsume::Stats subsume_hash_table(int threads) {
  auto prog = minic::compile_source(corpus::by_name("hash_table").source);
  obf::obfuscate(prog, profile_by_name("none", 7));
  PipelineOptions popts;
  popts.store_dir = "";  // a pinned checkpoint would hide the winnow
  setenv("GP_THREADS", std::to_string(threads).c_str(), 1);
  Session session(Engine::shared(), codegen::compile(prog), popts);
  const Status s = session.subsume();
  unsetenv("GP_THREADS");
  EXPECT_TRUE(s.ok()) << s.to_string();
  return session.subsume_stats();
}

// At 4 threads this pool's canonical order gives two 64-bit products and
// their 32-bit truncations opposite operand orders. With a multiplier
// encoding that depended on operand order, those two pair checks ran to
// the 50,000-conflict cap and ended UNKNOWN.
TEST(SubsumeSession, HashTableWinnowIsThreadIndependent) {
  for (const int threads : {1, 4}) {
    const subsume::Stats st = subsume_hash_table(threads);
    EXPECT_EQ(st.solver_unknown, 0u) << "threads=" << threads;
    EXPECT_EQ(st.input, 605u) << "threads=" << threads;
    EXPECT_EQ(st.removed, 176u) << "threads=" << threads;
    EXPECT_EQ(st.kept, 429u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace gp::core

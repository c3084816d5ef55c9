// perfbench_driver: runs one benchmark workload in this process and writes
// the raw measurements as one JSON document. run.py owns the arithmetic
// (medians, percentiles, self times, shares); this file only drives the
// library through its public API and records what happened.
//
//   perfbench_driver --workload <name> --seed <n> --obf-seed <n>
//                    --seconds <s> --traced <0|1> --out <file>
//
// Every flag is required; run.py passes them all.
//
// A pass runs every job of the workload once, one session at a time (see
// kLanes). Untraced passes go through core::Campaign::run, exactly what
// `gp_pipeline --campaign` runs. Traced passes drive the same jobs and
// options through the calls that can be timed from outside (compile,
// Session::extract/subsume/find_chains) and record spans around them; the
// program's own GP_TRACE spans are switched on for those passes only.
// After every pass each returned chain is re-validated in a fresh emulator
// with two register seeds. One-session untraced passes also time a fixed
// reference kernel around every job (see reference_kernel_seconds).
//
// The thread count is whatever GP_THREADS says; run.py pins it per
// workload before starting this process.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "codegen/codegen.hpp"
#include "core/campaign.hpp"
#include "corpus/corpus.hpp"
#include "minic/minic.hpp"
#include "obfuscate/obfuscate.hpp"
#include "payload/payload.hpp"
#include "payload/serialize.hpp"
#include "support/config.hpp"
#include "support/metrics.hpp"
#include "support/serial.hpp"
#include "support/str.hpp"
#include "support/trace.hpp"

using namespace gp;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- workloads

// Sessions in flight at once. Measured passes run one session at a time:
// with four concurrent sessions the campaign wall of identical inputs
// ranged from 8.2 s to 15.5 s over ten passes, because ThreadPool::run
// lets a thread waiting on its nested run execute a queued campaign lane
// (the whole rest of that lane's jobs) before returning to its own job.
// Stage parallelism inside a session still uses GP_THREADS workers.
constexpr int kLanes = 1;
// Traced runs add one pass with this many concurrent sessions: its results
// must match the one-session passes (determinism), and it measures how the
// pool shares lanes.
constexpr int kConcurrentLanes = 4;
// Set-up repetitions before the first pass and after every pass; setup_s
// is the median of all of them. Spreading them over the run keeps one slow
// stretch of a shared host from deciding the figure.
constexpr int kSetupReps = 7;
// Events each thread's trace ring holds (about 6 MB per thread). Every
// traced pass starts from empty rings and must fit in them: a wrapped ring
// loses its oldest spans, which would skew every figure derived from
// program spans, so run.py fails the check of a pass that dropped any. A
// traced census pass, the most span-heavy, records about 1,100 events on
// its busiest thread.
constexpr u32 kTraceRingEvents = 1u << 16;

core::Job make_job(const std::string& program, const std::string& profile,
                   u64 obf_seed, std::vector<payload::Goal> goals) {
  core::Job job;
  job.program = program;
  job.source = corpus::by_name(program).source;
  job.obfuscation = profile;
  job.obf = core::profile_by_name(profile, obf_seed);
  job.goals = std::move(goals);
  return job;
}

std::vector<core::Job> make_workload(const std::string& name, u64 obf_seed) {
  std::vector<core::Job> jobs;
  if (name == "plan-llvm-obf") {
    // execve, the case study's goal, loads concretization and the solver;
    // mmap is unreachable in most of these images, so it loads the
    // reachability precheck. mprotect is left out to keep a pass near 14 s:
    // a run then holds two to four passes, and each job's mean latency
    // spans the run instead of one moment of it.
    const std::vector<payload::Goal> goals = {payload::Goal::execve(),
                                              payload::Goal::mmap()};
    for (const auto& p : corpus::benchmark())
      jobs.push_back(make_job(p.name, "llvm-obf", obf_seed, goals));
    jobs.push_back(
        make_job(corpus::netperf().name, "llvm-obf", obf_seed, goals));
  } else if (name == "census") {
    for (const auto& p : corpus::benchmark())
      for (const char* profile : {"none", "tigress"})
        jobs.push_back(make_job(p.name, profile, obf_seed, {}));
  } else {
    throw Error("unknown workload '" + name +
                "' (valid: plan-llvm-obf, census)");
  }
  return jobs;
}

// ------------------------------------------------------------------- output

class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    out_ += "\"" + json_escape(k) + "\":";
    fresh_ = true;
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    out_ += "\"" + json_escape(v) + "\"";
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out_ += buf;
    return *this;
  }
  Json& num(u64 v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& num(int v) { return num(static_cast<u64>(std::max(v, 0))); }
  Json& open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty() && out_.back() != ':') out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// -------------------------------------------------------------------- spans

/// One benchmark-side span. Times are seconds on the pass clock.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  // index into the pass's span list
  int job = -1;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point t0) : t0_(t0) {}
  /// Open a span; returns its index for close() and for children.
  int open(const std::string& name, int parent, int job) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now(), 0, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int idx) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(idx)].end = t;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return seconds_between(t0_, Clock::now()); }
  Clock::time_point t0_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// --------------------------------------------------------------------- jobs

u64 chain_digest(const std::vector<std::string>& goal_names,
                 const std::vector<std::vector<payload::Chain>>& chains) {
  // Same construction as core::Campaign's result digest.
  serial::Writer digest;
  for (size_t g = 0; g < goal_names.size(); ++g) {
    digest.put_str(goal_names[g]);
    for (const auto& rec : payload::encode_chains(chains[g]))
      serial::put_record(digest, rec);
  }
  return serial::fnv1a(digest.bytes());
}

image::Image compile_job(const core::Job& job, SpanLog* log, int parent,
                         int job_index) {
  auto timed = [&](const char* name, auto&& fn) {
    const int s = log ? log->open(name, parent, job_index) : -1;
    auto result = fn();
    if (log) log->close(s);
    return result;
  };
  cfg::Program prog = timed("minic.compile_source",
                            [&] { return minic::compile_source(job.source); });
  timed("obf.obfuscate", [&] {
    obf::obfuscate(prog, job.obf);
    return 0;
  });
  codegen::Options copts;
  copts.opt = codegen::opt_level_from_int(Config::from_env().opt_level);
  return timed("codegen.compile",
               [&] { return codegen::compile(prog, copts); });
}

/// One pass over every job. Times (job start/end, spans) are seconds since
/// the pass started, compile phase included.
struct Pass {
  bool traced = false;
  int lanes = kLanes;
  std::vector<core::JobResult> jobs;  // job order
  std::vector<u32> revalidate_failures;
  std::vector<u64> sessions;  // traced passes: each job's session id
  std::vector<Span> spans;    // traced passes
  std::vector<trace::Event> program_spans;  // traced passes, rebased
  u64 trace_dropped = 0;
  metrics::Snapshot before, after;
  // One-session untraced passes: the reference kernel's seconds before the
  // first job, then after each job.
  std::vector<double> reference;
};

/// A fixed single-threaded computation, timed before the first job of a
/// one-session pass, after every job, and around every batch of set-up
/// repetitions. The shared host this benchmark runs on changes speed by
/// tens of percent for tens of seconds at a time; the kernel's time around
/// a job measures the host's speed during that job, so run.py can rescale
/// job latencies to one nominal speed. Random read-modify-writes over
/// 4 MiB, like the solver's clause and watch lists, are hit by the same
/// contention the program is.
double reference_kernel_seconds() {
  static std::vector<u64> table(u64{1} << 19);
  const auto t0 = Clock::now();
  u64 x = 1;
  for (int i = 0; i < 8'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[(x >> 40) & (table.size() - 1)] += x;
  }
  const double seconds = seconds_between(t0, Clock::now());
  static volatile u64 sink;
  sink = x + table[x & (table.size() - 1)];
  return seconds;
}

Pass run_untraced(const std::vector<core::Job>& jobs, int lanes) {
  Pass pass;
  pass.lanes = lanes;
  core::Campaign::Options copts;
  copts.concurrency = lanes;
  // With one session the hook runs after each job in job order, outside
  // the job's own latency.
  if (lanes == 1) {
    pass.reference.push_back(reference_kernel_seconds());
    copts.on_job = [&](const core::Job&, core::Session&, core::JobResult&) {
      pass.reference.push_back(reference_kernel_seconds());
    };
  }
  core::Campaign campaign(core::Engine::shared(), copts);
  pass.before = metrics::registry().snapshot();
  pass.jobs = campaign.run(jobs).results;
  pass.after = metrics::registry().snapshot();
  return pass;
}

Pass run_traced(const std::vector<core::Job>& jobs) {
  Pass pass;
  pass.traced = true;
  core::Engine& engine = core::Engine::shared();
  const auto t0 = Clock::now();
  SpanLog log(t0);
  trace::reset();
  trace::set_enabled(true);
  pass.before = metrics::registry().snapshot();

  const size_t n = jobs.size();
  std::vector<image::Image> images(n);
  for (size_t i = 0; i < n; ++i) {
    const int c = log.open("compile", -1, static_cast<int>(i));
    images[i] = compile_job(jobs[i], &log, c, static_cast<int>(i));
    log.close(c);
  }

  // The options core::Campaign::run would hand each session.
  core::PipelineOptions popts;
  popts.governor = popts.governor.split_across(kLanes);

  pass.jobs.resize(n);
  pass.sessions.resize(n);
  engine.pool().run(
      n,
      [&](int /*lane*/, u64 i) {
        const core::Job& job = jobs[i];
        core::JobResult& r = pass.jobs[i];
        const int ji = static_cast<int>(i);
        r.program = job.program;
        r.obfuscation = job.obfuscation;
        r.code_bytes = images[i].code().size();
        const auto j0 = Clock::now();
        const int js = log.open("job", -1, ji);
        {
          core::Session session(engine, std::move(images[i]), popts);
          pass.sessions[i] = session.id();
          int s = log.open("session.extract", js, ji);
          (void)session.extract();
          log.close(s);
          s = log.open("session.subsume", js, ji);
          (void)session.subsume();
          log.close(s);
          for (const auto& goal : job.goals) {
            s = log.open("session.find_chains", js, ji);
            auto chains = session.find_chains(goal);
            log.close(s);
            r.goal_names.push_back(goal.name);
            r.chains_per_goal.push_back(static_cast<int>(chains.size()));
            r.chains.push_back(std::move(chains));
          }
          r.stages = session.report();
          r.extract_stats = session.extract_stats();
          r.subsume_stats = session.subsume_stats();
          r.planner_stats = session.planner_stats();
          r.status = r.stages.worst_status();
        }
        log.close(js);
        r.result_digest = chain_digest(r.goal_names, r.chains);
        const auto j1 = Clock::now();
        r.seconds = seconds_between(j0, j1);
        r.start_seconds = seconds_between(t0, j0);
        r.end_seconds = seconds_between(t0, j1);
      },
      kLanes);

  pass.after = metrics::registry().snapshot();
  trace::set_enabled(false);
  pass.program_spans = trace::snapshot();
  pass.trace_dropped = trace::dropped();
  // Program spans are in steady-clock microseconds; rebase them to the
  // pass clock.
  const u64 base_us = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          t0.time_since_epoch())
          .count());
  for (auto& e : pass.program_spans) e.ts_us -= std::min(e.ts_us, base_us);
  pass.spans = log.spans();
  return pass;
}

/// Re-run every returned chain through payload::validate with two register
/// seeds of the benchmark's own choosing, against an image the benchmark
/// compiled itself. Adds "payload.validate" spans when `log` is set.
void revalidate(Pass& pass, const std::vector<core::Job>& jobs,
                const std::vector<image::Image>& images, u64 seed,
                SpanLog* log) {
  const u64 stack_base = payload::ConcretizeOptions{}.stack_base;
  const u64 reg_seeds[2] = {0x5eed0000ULL + 2 * seed,
                            0x5eed0000ULL + 2 * seed + 1};
  pass.revalidate_failures.assign(pass.jobs.size(), 0);
  for (size_t i = 0; i < pass.jobs.size(); ++i) {
    const core::JobResult& r = pass.jobs[i];
    for (size_t g = 0; g < r.chains.size(); ++g) {
      const payload::Goal& goal = jobs[i].goals[g];
      for (const auto& chain : r.chains[g]) {
        const int s =
            log ? log->open("payload.validate", -1, static_cast<int>(i)) : -1;
        bool ok = chain.goal_name == goal.name &&
                  r.code_bytes == images[i].code().size();
        for (const u64 rs : reg_seeds)
          ok = ok && payload::validate(images[i], chain, goal, stack_base, rs);
        if (log) log->close(s);
        if (!ok) ++pass.revalidate_failures[i];
      }
    }
  }
}

u64 peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10);
  return 0;
}

void write_counters(Json& j, const metrics::Snapshot& a,
                    const metrics::Snapshot& b) {
  j.open('{');
  for (const auto& [name, v] : b.counters) {
    const auto it = a.counters.find(name);
    j.key(name).num(v - (it == a.counters.end() ? 0 : it->second));
  }
  j.close('}');
}

/// The campaign's chain digest plus both pool sizes, so a census job (no
/// goals, hence an empty chain digest) still fingerprints its result.
std::string job_digest_hex(const core::JobResult& r) {
  serial::Writer w;
  w.put_u64(r.result_digest);
  w.put_u64(r.stages.pool_raw);
  w.put_u64(r.stages.pool_minimized);
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(serial::fnv1a(w.bytes())));
  return hex;
}

void write_pass(Json& j, const Pass& p) {
  j.open('{');
  j.key("traced").num(p.traced ? 1 : 0);
  j.key("lanes").num(p.lanes);
  j.key("counters");
  write_counters(j, p.before, p.after);
  j.key("reference_s").open('[');
  for (const double r : p.reference) j.num(r);
  j.close(']');
  j.key("jobs").open('[');
  for (size_t i = 0; i < p.jobs.size(); ++i) {
    const core::JobResult& r = p.jobs[i];
    const auto& x = r.extract_stats;
    const auto& sub = r.subsume_stats;
    const auto& plan = r.planner_stats;
    j.open('{');
    j.key("program").str(r.program);
    j.key("obfuscation").str(r.obfuscation);
    j.key("status").str(status_code_name(r.status.code()));
    j.key("seconds").num(r.seconds);
    j.key("start").num(r.start_seconds);
    j.key("end").num(r.end_seconds);
    j.key("code_bytes").num(static_cast<u64>(r.code_bytes));
    j.key("digest").str(job_digest_hex(r));
    j.key("chains").num(r.total_chains());
    j.key("revalidate_failures").num(
        static_cast<u64>(p.revalidate_failures[i]));
    j.key("session").num(p.traced ? p.sessions[i] : 0);
    j.key("pool_raw").num(r.stages.pool_raw);
    j.key("pool_minimized").num(r.stages.pool_minimized);
    j.key("offsets_scanned").num(x.offsets_scanned);
    j.key("offsets_skipped").num(x.offsets_skipped);
    j.key("extract_gadgets").num(x.gadgets);
    j.key("subsume_input").num(sub.input);
    j.key("subsume_removed").num(sub.removed);
    j.key("subsume_pair_tests").num(sub.solver_checks);
    j.key("subsume_structural_hits").num(sub.structural_hits);
    j.key("subsume_budget_exhausted").num(sub.budget_exhausted ? 1 : 0);
    j.key("plan_expansions").num(plan.expansions);
    j.key("plan_dead_ends").num(plan.dead_ends);
    j.key("plan_concretize_calls").num(plan.concretize_calls);
    j.key("plan_validated").num(plan.validated);
    j.key("plan_index_hits").num(plan.index_hits);
    j.key("plan_nogood_hits").num(plan.nogood_hits);
    j.key("plan_unreachable_goals").num(plan.unreachable_goals);
    j.key("plan_failure_budget_cuts").num(plan.failure_budget_cuts);
    j.key("plan_deadline_cuts").num(plan.deadline_cuts);
    j.key("plan_precheck_s").num(plan.precheck_seconds);
    j.close('}');
  }
  j.close(']');
  if (p.traced) {
    j.key("spans").open('[');
    for (const Span& s : p.spans) {
      j.open('{');
      j.key("name").str(s.name);
      j.key("start").num(s.start);
      j.key("end").num(s.end);
      j.key("parent").num(static_cast<double>(s.parent));
      j.key("job").num(static_cast<double>(s.job));
      j.close('}');
    }
    j.close(']');
    j.key("program_spans").open('[');
    for (const trace::Event& e : p.program_spans) {
      j.open('{');
      j.key("name").str(e.name);
      j.key("cat").str(e.cat);
      j.key("start").num(static_cast<double>(e.ts_us) * 1e-6);
      j.key("end").num(static_cast<double>(e.ts_us + e.dur_us) * 1e-6);
      j.key("session").num(e.session);
      j.key("tid").num(static_cast<u64>(e.tid));
      j.close('}');
    }
    j.close(']');
    j.key("trace_dropped").num(p.trace_dropped);
  }
  j.close('}');
}

struct Args {
  std::string workload;
  u64 seed = 0;
  u64 obf_seed = 0;
  double seconds = 0;
  bool traced = false;
  std::string out;
};

const char* const kFlags[] = {"--workload", "--seed",   "--obf-seed",
                              "--seconds",  "--traced", "--out"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload W "
               "--seed N --obf-seed N --seconds S --traced 0|1 "
               "--out FILE\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  std::map<std::string, std::string> v;
  for (int i = 1; i < argc; i += 2) {
    const std::string k = argv[i];
    if (std::find(std::begin(kFlags), std::end(kFlags), k) == std::end(kFlags))
      usage(("unknown argument " + k).c_str());
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    v[k] = argv[i + 1];
  }
  for (const char* k : kFlags)
    if (v.count(k) == 0) usage((std::string(k) + " is required").c_str());
  Args a;
  a.workload = v["--workload"];
  a.seed = std::strtoull(v["--seed"].c_str(), nullptr, 10);
  a.obf_seed = std::strtoull(v["--obf-seed"].c_str(), nullptr, 10);
  a.seconds = std::atof(v["--seconds"].c_str());
  a.traced = std::atoi(v["--traced"].c_str()) != 0;
  a.out = v["--out"];
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  metrics::set_enabled(true);
  trace::set_enabled(false);
  trace::set_ring_capacity(kTraceRingEvents);

  std::vector<core::Job> jobs;
  try {
    jobs = make_workload(args.workload, args.obf_seed);
  } catch (const Error& e) {
    usage(e.what());
  }

  // Set-up: engine start plus compiling every job image, repeated; the
  // latest repetition's images are the ones re-validation runs against.
  // Each batch of repetitions sits between two runs of the reference
  // kernel, whose mean is recorded beside every repetition.
  std::vector<double> setup, setup_reference;
  std::vector<image::Image> images;
  auto set_up = [&] {
    const double before = reference_kernel_seconds();
    std::vector<double> batch;
    for (int r = 0; r < kSetupReps; ++r) {
      const auto s0 = Clock::now();
      core::Engine engine(Config::from_env());
      (void)core::Engine::shared().pool();
      images.clear();
      for (const auto& job : jobs)
        images.push_back(compile_job(job, nullptr, -1, -1));
      batch.push_back(seconds_between(s0, Clock::now()));
    }
    const double around = (before + reference_kernel_seconds()) / 2;
    setup.insert(setup.end(), batch.begin(), batch.end());
    setup_reference.insert(setup_reference.end(), batch.size(), around);
  };
  set_up();

  // Passes until the measuring time is spent: at least one, and another
  // only if it is expected to finish in time. Traced runs cycle through an
  // untraced pass, a traced pass (so the tracing overhead is measured under
  // the same conditions) and a concurrent-sessions pass, at least once.
  std::vector<Pass> passes;
  std::vector<double> pass_seconds;
  const auto m0 = Clock::now();
  const size_t min_passes = args.traced ? 3 : 1;
  for (int i = 0;; ++i) {
    const double elapsed = seconds_between(m0, Clock::now());
    if (passes.size() >= min_passes) {
      std::vector<double> sorted = pass_seconds;
      std::sort(sorted.begin(), sorted.end());
      if (elapsed + sorted[sorted.size() / 2] > args.seconds) break;
    }
    const int kind = args.traced ? i % 3 : 0;
    const bool traced = kind == 1;
    const auto p0 = Clock::now();
    Pass p = traced ? run_traced(jobs)
                    : run_untraced(jobs, kind == 2 ? kConcurrentLanes : kLanes);
    pass_seconds.push_back(seconds_between(p0, Clock::now()));
    SpanLog vlog(p0);
    revalidate(p, jobs, images, args.seed, traced ? &vlog : nullptr);
    p.spans.insert(p.spans.end(), vlog.spans().begin(), vlog.spans().end());
    passes.push_back(std::move(p));
    set_up();
  }

  Json j;
  j.open('{');
  j.key("workload").str(args.workload);
  j.key("seed").num(args.seed);
  j.key("obf_seed").num(args.obf_seed);
  j.key("threads").num(Config::from_env().threads);
  j.key("lanes").num(kLanes);
  j.key("nproc").num(static_cast<int>(std::thread::hardware_concurrency()));
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
  j.key("measure_s").num(seconds_between(m0, Clock::now()));
  j.key("setup_s").open('[');
  for (const double s : setup) j.num(s);
  j.close(']');
  j.key("setup_reference_s").open('[');
  for (const double s : setup_reference) j.num(s);
  j.close(']');
  j.key("passes").open('[');
  for (const Pass& p : passes) write_pass(j, p);
  j.close(']');
  j.key("peak_rss_kb").num(peak_rss_kb());
  j.close('}');

  const std::string& text = j.text();
  const Status st = serial::write_file_atomic(
      args.out, std::vector<u8>(text.begin(), text.end()));
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", args.out.c_str(),
                 st.to_string().c_str());
    return 1;
  }
  return 0;
}

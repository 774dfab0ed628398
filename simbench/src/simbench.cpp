#include "simbench.hpp"

#include <sys/time.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <memory>

#include "protocols/policy_engine.hpp"
#include "protocols/system_factory.hpp"
#include "sim/engine.hpp"
#include "workloads/workload.hpp"

namespace simbench {

using namespace dsm;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Log-linear latency histogram: exact below 64 ns, then 32 sub-buckets
// per power of two (at most ~3% quantile error). O(1) per sample.
class Histogram {
 public:
  void record(std::uint64_t ns) { ++bins_[index(ns)]; }

  // Lower bound of the bin holding the q-quantile sample.
  double quantile(double q) const {
    std::uint64_t total = 0;
    for (std::uint64_t c : bins_) total += c;
    if (total == 0) return 0.0;
    const auto rank = std::uint64_t(q * double(total - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBins; ++i) {
      seen += bins_[i];
      if (seen > rank) return double(lower_bound(i));
    }
    return double(lower_bound(kBins - 1));
  }

 private:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kLinear = 64;
  static constexpr std::size_t kBins = kLinear + (64 - 6) * (1u << kSubBits);

  static std::size_t index(std::uint64_t v) {
    if (v < kLinear) return std::size_t(v);
    const unsigned octave = 63u - unsigned(std::countl_zero(v));  // >= 6
    const std::uint64_t sub =
        (v >> (octave - kSubBits)) & ((1u << kSubBits) - 1);
    return kLinear + (octave - 6) * (1u << kSubBits) + sub;
  }
  static std::uint64_t lower_bound(std::size_t i) {
    if (i < kLinear) return i;
    const std::size_t j = i - kLinear;
    const unsigned octave = unsigned(j >> kSubBits) + 6;
    const std::uint64_t sub = j & ((1u << kSubBits) - 1);
    return (std::uint64_t(1) << octave) | (sub << (octave - kSubBits));
  }

  std::array<std::uint64_t, kBins> bins_{};
};

// MemorySystem decorator: times every access and assigns it to the
// deepest layer it reached, judged from O(1) reads of public counters
// before and after the call — the accessing node's L1-miss and sent-
// message counts, and the global page-op counters. Reading only the
// accessing node keeps the probe cost independent of machine width.
class AccessTracer final : public MemorySystem {
 public:
  AccessTracer(MemorySystem& inner, const Stats& stats)
      : inner_(inner), stats_(stats) {}

  Cycle access(const MemAccess& a) override {
    const NodeStats& ns = stats_.node[a.node];
    const std::uint64_t misses = ns.l1_misses.total();
    const std::uint64_t msgs = ns.traffic.total_msgs();
    const std::uint64_t ops = page_ops(ns);
    const Clock::time_point t0 = Clock::now();
    const Cycle done = inner_.access(a);
    const Clock::time_point t1 = Clock::now();
    const Bucket b = page_ops(ns) != ops                ? kPageOp
                     : ns.traffic.total_msgs() != msgs  ? kRemote
                     : ns.l1_misses.total() != misses   ? kNodeLocal
                                                        : kL1Hit;
    const auto ns_taken = std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    calls_[b]++;
    ns_sum_[b] += ns_taken;
    hist_[b].record(ns_taken);
    return done;
  }
  void parallel_begin(Cycle now) override { inner_.parallel_begin(now); }
  void parallel_end(Cycle now) override { inner_.parallel_end(now); }

  BucketSummary summary(Bucket b) const {
    return BucketSummary{calls_[b], double(ns_sum_[b]) * 1e-9,
                         hist_[b].quantile(0.50), hist_[b].quantile(0.99)};
  }

 private:
  // Page operations ordered by any policy, emergency re-homes, and
  // replica collapses forced by this node's writes.
  std::uint64_t page_ops(const NodeStats& ns) const {
    std::uint64_t n = stats_.faults.rehomes + ns.replica_collapses;
    for (const PolicyCounters& p : stats_.policy)
      n += p.migrations + p.replications + p.relocations;
    return n;
  }

  MemorySystem& inner_;
  const Stats& stats_;
  std::array<std::uint64_t, kBuckets> calls_{};
  std::array<std::uint64_t, kBuckets> ns_sum_{};
  std::array<Histogram, kBuckets> hist_{};
};

// Progress probe: a wall-clock interval timer interrupts Engine::run
// every kPeriodUs, and its handler records the host time and the number
// of shared references so far, read from the Stats counters the engine
// bumps inline on every access. The simulation never sees the probe.
// After the run the samples give the host times at which the run
// crossed each of kCheckpoints equal shares of its references, so every
// rep of a cell splits into the same slices of identical simulated work.
class ProgressProbe {
 public:
  static constexpr long kPeriodUs = 500;
  // Room for runs of over four minutes; untouched pages cost no memory.
  static constexpr std::size_t kCapacity = std::size_t(1) << 19;

  explicit ProgressProbe(const Stats& stats)
      : samples_(new Sample[kCapacity]) {
    g_ = {samples_.get(), 0, &stats.shared_reads, &stats.shared_writes};
  }
  ~ProgressProbe() { disarm(); }

  void start() {
    tick(0);
    struct sigaction sa {};
    sa.sa_handler = tick;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGALRM, &sa, &old_action_);
    const itimerval period{{0, kPeriodUs}, {0, kPeriodUs}};
    setitimer(ITIMER_REAL, &period, nullptr);
    armed_ = true;
  }

  void stop() {
    disarm();
    tick(0);
  }

  // Seconds from start() to the crossing of k/kCheckpoints of the
  // references, k = 1..kCheckpoints, interpolated between samples.
  std::vector<double> checkpoints() const {
    const Sample* s = g_.samples;
    const std::size_t n = g_.n;
    std::vector<double> out;
    const double total = double(s[n - 1].refs - s[0].refs);
    std::size_t i = 1;
    for (int k = 1; k <= kCheckpoints; ++k) {
      const double target = double(s[0].refs) + total * k / kCheckpoints;
      while (i < n - 1 && double(s[i].refs) < target) ++i;
      const double r0 = double(s[i - 1].refs), r1 = double(s[i].refs);
      const double f = r1 > r0 ? (target - r0) / (r1 - r0) : 1.0;
      const double ns = double(s[i - 1].ns - s[0].ns) +
                        f * double(s[i].ns - s[i - 1].ns);
      out.push_back(ns * 1e-9);
    }
    return out;
  }

 private:
  struct Sample {
    std::int64_t ns;
    std::uint64_t refs;
  };
  struct Shared {
    Sample* samples;
    volatile std::size_t n;
    const volatile std::uint64_t* reads;
    const volatile std::uint64_t* writes;
  };
  static inline Shared g_{};

  static void tick(int) {
    const int saved = errno;
    if (g_.n < kCapacity) {
      timespec ts;
      clock_gettime(CLOCK_MONOTONIC, &ts);
      g_.samples[g_.n] = {std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec,
                          *g_.reads + *g_.writes};
      g_.n = g_.n + 1;
    }
    errno = saved;
  }

  void disarm() {
    if (!armed_) return;
    const itimerval off{};
    setitimer(ITIMER_REAL, &off, nullptr);
    sigaction(SIGALRM, &old_action_, nullptr);
    armed_ = false;
  }

  std::unique_ptr<Sample[]> samples_;
  struct sigaction old_action_ {};
  bool armed_ = false;
};

// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (unsigned char c : s) add(c);
  }
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// %.17g keeps every digit of a measured double.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

constexpr const char* kBucketNames[kBuckets] = {
    "mem.l1_hit", "dsm.node_local", "dsm.remote", "dsm.page_op"};

}  // namespace

std::vector<Cell> cells(std::uint64_t seed, Scale scale) {
  std::vector<Cell> out;
  auto add = [&](const std::string& name, const std::string& app,
                 SystemKind kind) -> Cell& {
    Cell c;
    c.name = name;
    c.app = app;
    c.scale = scale;
    c.system = SystemConfig::base(kind);
    c.system.faults.seed = seed;  // inert unless the fault layer is on
    out.push_back(c);
    return out.back();
  };
  // Miss path: all-to-all permutation writes, no decision policy.
  add("radix-ccnuma", "radix", SystemKind::kCcNuma);
  // L1 and engine path: read-only, replications fire.
  add("raytrace-migrep", "raytrace", SystemKind::kCcNumaMigRep);
  // Node-local service: block cache, S-COMA page cache, relocations.
  add("ocean-rnuma", "ocean", SystemKind::kRNuma);
  // Mesh routing with link contention, 64-wide sharer sets, the fault
  // layer and crash recovery (re-homing, directory rebuilds).
  Cell& chaos = add("radix-mesh64-chaos", "radix", SystemKind::kCcNuma);
  chaos.system.nodes = 64;
  chaos.system.cpus_per_node = 1;
  chaos.system.fabric = FabricKind::kMesh2d;
  chaos.system.faults.drop_pct = 1.0;
  chaos.system.faults.dup_pct = 0.5;
  chaos.system.faults.delay_pct = 1.0;
  // One crash window, early enough that recovery finishes without a
  // forced (hard-error) transaction: node 5 is down for cycles
  // [20M, 60M) of a ~270M-cycle run.
  chaos.system.faults.node_downs.push_back({5, 20'000'000, 60'000'000});
  return out;
}

RepResult run_rep(const Cell& cell, bool traced) {
  RepResult r;
  r.traced = traced;
  r.stats = Stats(cell.system.nodes);
  const Clock::time_point rep_start = Clock::now();
  auto span = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    r.spans.push_back(
        {name, seconds_between(rep_start, a), seconds_between(rep_start, b)});
    return seconds_between(a, b);
  };

  // The same steps, in the same order, as harness/runner.cpp::run_one.
  Clock::time_point t0 = Clock::now();
  auto system = make_system(cell.system, &r.stats);
  Clock::time_point t1 = Clock::now();
  r.setup_system_s = span("make_system", t0, t1);

  std::unique_ptr<AccessTracer> tracer;
  if (traced) tracer = std::make_unique<AccessTracer>(*system, r.stats);
  MemorySystem* mem =
      traced ? static_cast<MemorySystem*>(tracer.get()) : system.get();
  t0 = Clock::now();
  Engine engine(cell.system, mem, &r.stats);
  t1 = Clock::now();
  r.setup_system_s += span("engine", t0, t1);

  t0 = Clock::now();
  SharedSpace space;
  auto workload = make_workload(cell.app, cell.scale);
  const std::uint32_t nthreads = cell.system.total_cpus();
  workload->setup(engine, space, nthreads);
  std::vector<WorkerCtx> ctxs(nthreads);
  for (std::uint32_t t = 0; t < nthreads; ++t) {
    ctxs[t].cpu = &engine.cpu(t);
    ctxs[t].tid = t;
    ctxs[t].nthreads = nthreads;
    ctxs[t].rng.reseed(cell.system.seed + t);
    engine.spawn(t, workload->body(ctxs[t]));
  }
  mem->parallel_begin(0);
  t1 = Clock::now();
  r.setup_workload_s = span("workload", t0, t1);
  r.setup_s = r.setup_system_s + r.setup_workload_s;

  ProgressProbe probe(r.stats);
  t0 = Clock::now();
  probe.start();
  engine.run();
  probe.stop();
  t1 = Clock::now();
  r.run_s = span("run", t0, t1);
  r.checkpoints_s = probe.checkpoints();
  mem->parallel_end(engine.finish_time());

  t0 = Clock::now();
  workload->verify();
  system->check_coherence();
  t1 = Clock::now();
  span("check", t0, t1);

  r.cycles = engine.finish_time();
  r.stats.execution_cycles = r.cycles;
  r.stats.total_cycles = r.cycles;
  r.policy_events = system->policy_engine().events_dispatched();
  if (traced) {
    for (int b = 0; b < kBuckets; ++b) {
      r.buckets[b] = tracer->summary(Bucket(b));
      r.access_s += r.buckets[b].host_s;
    }
  }
  return r;
}

// Host-speed probe: the fastest of three dependent walks of 60k steps
// through a 32 MiB ring in scrambled order, about 9 ms each on the 4-vCPU
// Xeon VM the benchmark was tuned on. run.py scales refs_per_s by it
// (see README.md).
void calibrate(RepResult& r) {
  // slot i -> (5 i + 1) mod 2^23 is a full-period LCG: one ring through
  // every slot, in an order no stride prefetcher follows.
  constexpr std::uint32_t kSlots = 1u << 23;
  std::vector<std::uint32_t> ring(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) ring[i] = (5 * i + 1) & (kSlots - 1);
  std::uint32_t at = 0;
  for (int t = 0; t < 3; ++t) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint32_t i = 0; i < 60'000; ++i) {
      at = ring[at];
      asm volatile("" : "+r"(at));  // one dependent load per step
    }
    const double s = seconds_between(t0, Clock::now());
    if (t == 0 || s < r.cal_mem_s) r.cal_mem_s = s;
  }
}

std::uint64_t digest(const Stats& s, Cycle cycles) {
  Fnv f;
  f.add(cycles);
  f.add(s.execution_cycles);
  f.add(s.shared_reads);
  f.add(s.shared_writes);
  f.add(s.barriers);
  f.add(s.lock_acquires);
  for (const NodeStats& n : s.node) {
    for (std::uint64_t v : n.remote_misses.by_class) f.add(v);
    for (std::uint64_t v : n.l1_misses.by_class) f.add(v);
    for (std::uint64_t v : n.traffic.bytes) f.add(v);
    for (std::uint64_t v : n.traffic.msgs) f.add(v);
    for (std::uint64_t v :
         {n.local_mem_accesses, n.bc_hits, n.pc_hits, n.page_migrations,
          n.page_replications, n.page_relocations, n.page_cache_evictions,
          n.replica_collapses, n.soft_traps, n.tlb_shootdowns,
          n.blocks_flushed, n.blocks_copied, n.link_bytes, n.link_busy,
          std::uint64_t(n.link_max_queue_depth)})
      f.add(v);
  }
  for (const PolicyCounters& p : s.policy) {
    f.add(p.name);
    for (std::uint64_t v :
         {p.events, p.migrations, p.replications, p.relocations, p.suppressed})
      f.add(v);
  }
  const FaultStats& x = s.faults;
  for (std::uint64_t v :
       {x.drops_injected, x.dups_injected, x.delays_injected, x.retries,
        x.nacks, x.reroutes, x.aborted_page_ops, x.hard_errors, x.crash_drops,
        x.rehomes, x.dir_rebuilds, x.data_losses})
    f.add(v);
  for (std::uint64_t v :
       {std::uint64_t(s.dir.nodes), s.dir.entries, s.dir.shared_entries,
        s.dir.coarse_entries, s.dir.sharers_measured, s.dir.sharer_bits_used,
        s.dir.sharer_bits_full_map})
    f.add(v);
  return f.h;
}

std::string rep_json(const Cell& cell, std::uint64_t seed, const RepResult& r,
                     double peak_rss_mb) {
  const Stats& s = r.stats;
  const TrafficBreakdown tr = s.traffic_total();
  const MissBreakdown rm = s.remote_misses_total();
  MissBreakdown l1;
  std::uint64_t bc_hits = 0, pc_hits = 0;
  for (const NodeStats& n : s.node) {
    l1 += n.l1_misses;
    bc_hits += n.bc_hits;
    pc_hits += n.pc_hits;
  }
  std::uint64_t mig = 0, rep = 0, rel = 0, sup = 0;
  for (const PolicyCounters& p : s.policy) {
    mig += p.migrations;
    rep += p.replications;
    rel += p.relocations;
    sup += p.suppressed;
  }
  static const char* kClass[] = {"data", "control", "page_op", "recovery"};

  std::string j = "{";
  auto field = [&](const std::string& k, const std::string& v) {
    if (j.size() > 1) j += ",";
    j += quoted(k) + ":" + v;
  };
  auto count = [&](const std::string& k, std::uint64_t v) {
    field(k, std::to_string(v));
  };
  field("workload", quoted(cell.name));
  count("seed", seed);
  field("traced", r.traced ? "true" : "false");
  field("build", "{\"compiler\":" + quoted(SIMBENCH_COMPILER) +
                     ",\"flags\":" + quoted(SIMBENCH_CXX_FLAGS) +
                     ",\"build_type\":" + quoted(SIMBENCH_BUILD_TYPE) + "}");
  field("digest", quoted(hex64(digest(s, r.cycles))));
  count("sim_cycles", r.cycles);
  count("refs", r.refs());
  field("setup_system_s", num(r.setup_system_s));
  field("setup_workload_s", num(r.setup_workload_s));
  field("setup_s", num(r.setup_s));
  field("run_s", num(r.run_s));
  field("peak_rss_mb", num(peak_rss_mb));
  field("cal_mem_s", num(r.cal_mem_s));
  std::string cps = "[";
  for (double t : r.checkpoints_s) cps += (cps.size() > 1 ? "," : "") + num(t);
  field("checkpoints_s", cps + "]");

  std::string spans = "[";
  spans += "{\"name\":\"rep\",\"parent\":null,\"start_s\":0,\"end_s\":" +
           num(r.spans.empty() ? 0.0 : r.spans.back().end_s) + "}";
  for (const Span& sp : r.spans)
    spans += ",{\"name\":" + quoted(sp.name) +
             ",\"parent\":\"rep\",\"start_s\":" + num(sp.start_s) +
             ",\"end_s\":" + num(sp.end_s) + "}";
  field("spans", spans + "]");

  // Deterministic counts: the paper's outputs and the layers' work.
  std::string c = "{";
  auto cnt = [&](const std::string& k, const std::string& v) {
    if (c.size() > 1) c += ",";
    c += quoted(k) + ":" + v;
  };
  const std::uint64_t refs = r.refs();
  cnt("mem.l1_miss_ratio", num(refs ? double(l1.total()) / double(refs) : 0));
  cnt("dsm.bc_hits", std::to_string(bc_hits));
  cnt("dsm.pc_hits", std::to_string(pc_hits));
  static const char* kMiss[] = {"cold", "coherence", "capacity"};
  for (int k = 0; k < int(MissClass::kCount); ++k)
    cnt(std::string("dsm.remote_misses.") + kMiss[k],
        std::to_string(rm.by_class[k]));
  for (int k = 0; k < int(TrafficClass::kCount); ++k) {
    cnt(std::string("net.msgs.") + kClass[k], std::to_string(tr.msgs[k]));
    cnt(std::string("net.bytes.") + kClass[k], std::to_string(tr.bytes[k]));
  }
  cnt("net.link_busy_cycles", std::to_string(s.link_busy_total()));
  cnt("net.link_max_queue_depth", std::to_string(s.link_max_queue_depth()));
  cnt("protocols.events", std::to_string(r.policy_events));
  cnt("protocols.migrations", std::to_string(mig));
  cnt("protocols.replications", std::to_string(rep));
  cnt("protocols.relocations", std::to_string(rel));
  cnt("protocols.suppressed", std::to_string(sup));
  const FaultStats& x = s.faults;
  cnt("net.fault.drops", std::to_string(x.drops_injected));
  cnt("net.fault.dups", std::to_string(x.dups_injected));
  cnt("net.fault.delays", std::to_string(x.delays_injected));
  cnt("net.fault.crash_drops", std::to_string(x.crash_drops));
  cnt("dsm.recovery.retries", std::to_string(x.retries));
  cnt("dsm.recovery.nacks", std::to_string(x.nacks));
  cnt("dsm.recovery.hard_errors", std::to_string(x.hard_errors));
  cnt("dsm.recovery.rehomes", std::to_string(x.rehomes));
  cnt("dsm.recovery.dir_rebuilds", std::to_string(x.dir_rebuilds));
  cnt("dsm.recovery.data_losses", std::to_string(x.data_losses));
  const std::uint64_t msgs = tr.total_msgs();
  cnt("dsm.recovery.retries_per_kmsg",
      num(msgs ? 1000.0 * double(x.retries) / double(msgs) : 0));
  cnt("dsm.dir.entries", std::to_string(s.dir.entries));
  field("counts", c + "}");

  if (r.traced) {
    std::string a = "{";
    for (int b = 0; b < kBuckets; ++b) {
      const BucketSummary& bs = r.buckets[b];
      if (b) a += ",";
      a += quoted(kBucketNames[b]) +
           ":{\"calls\":" + std::to_string(bs.calls) +
           ",\"host_s\":" + num(bs.host_s) + ",\"ns_p50\":" + num(bs.ns_p50) +
           ",\"ns_p99\":" + num(bs.ns_p99) + "}";
    }
    field("access", a + "}");
    field("access_s", num(r.access_s));
  }
  return j + "}";
}

}  // namespace simbench

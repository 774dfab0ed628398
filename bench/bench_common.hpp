// Shared scaffolding for the per-table/per-figure bench binaries.
//
// Every command-line flag is one entry of kFlags below: its name,
// operand hint, help line, group and setter. Each binary's parse() call
// names the groups and entries it honours; any other argument exits 2,
// and `--help` lists that binary's entries. Sweeps run their
// independent simulation configs on `--jobs N` pool workers; per-run
// results are bit-identical at every job count, only wall-clock changes.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "harness/parallel.hpp"
#include "harness/runner.hpp"
#include "net/message.hpp"

namespace dsm::bench {

struct Flag;

struct Options {
  Scale scale = Scale::kDefault;
  std::vector<std::string> apps = paper_apps();
  // Sweep-harness workers; --jobs 0 resolves to one per hardware thread
  // at parse time, so this is the count the throughput was measured at.
  unsigned jobs = ThreadPool::hardware_jobs();
  std::string json_path;  // --json FILE: machine-readable per-run records
  bool table_only = false;                 // bench_table2_apps
  std::vector<std::uint32_t> ks = {1, 4, 16};  // bench_policy_adaptive
  // Every flag given, with its operand, in argument order.
  std::vector<std::pair<const Flag*, std::string>> args;

  bool given(std::string_view flag) const;
  // Replay the given system flags onto one run's config. Call it after
  // the bench sets its own base config and before its swept parameter.
  void apply(SystemConfig& sc) const;
  // paper_spec() at the selected scale, system flags applied.
  RunSpec spec(SystemKind kind, const std::string& app) const {
    RunSpec s = paper_spec(kind, app, scale);
    apply(s.system);
    return s;
  }
};

// Thrown by a value checker; parse() reports it against the flag, with
// the flag's operand hint when `expected` is empty.
struct BadValue {
  std::string expected;
};

// Groups a binary can take whole; parse() also takes entries by name.
enum FlagGroup : unsigned {
  kRunFlags = 1,     // --paper, --tiny, --apps, --jobs
  kConfigFlags = 2,  // machine shape, fabric, policy engine
  kFaultFlags = 4,   // --fault-*
  kSweepFlags = kRunFlags | kConfigFlags | kFaultFlags,
};

// One command-line flag. Exactly one setter is set: a harness flag
// fills Options while parsing; a system flag writes the SystemConfig
// field it names and is replayed by Options::apply().
struct Flag {
  const char* name;
  const char* value;  // operand hint; nullptr for a switch
  const char* help;
  unsigned group;     // FlagGroup bit; 0 = taken by name only
  void (*set_options)(Options&, const char*);
  void (*set_system)(SystemConfig&, const char*);
  // Shapes the seeded fault plan, so means nothing without --fault-seed.
  bool seeded = false;
};

// "" and "a," yield an empty element, which every list flag rejects.
inline std::vector<std::string> split_list(const char* arg) {
  std::vector<std::string> out;
  const std::string list = arg;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    out.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

// Digits only: strtoull negates a leading '-' and saturates on overflow.
inline std::uint64_t parse_uint(const char* arg, std::uint64_t lo,
                                std::uint64_t hi, const char* expected) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*arg)) || *end != '\0' ||
      errno == ERANGE || v < lo || v > hi)
    throw BadValue{expected};
  return v;
}

inline double parse_pct(const char* arg) {
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || !(v >= 0.0 && v <= 100.0))  // NaN too
    throw BadValue{"0..100"};
  return v;
}

template <typename T>
T parse_name(const char* arg,
             std::initializer_list<std::pair<const char*, T>> names) {
  for (const auto& [name, v] : names)
    if (std::strcmp(arg, name) == 0) return v;
  throw BadValue{};
}

// --fault-link-down a:b@cycle+N — the directed link from node a toward
// adjacent node b goes down at `cycle` for N cycles.
inline FaultConfig::NodeLinkDown parse_link_down(const char* arg) {
  const BadValue bad{"a:b@cycle+N"};
  FaultConfig::NodeLinkDown nd;
  char* p = nullptr;
  nd.a = std::uint32_t(std::strtoul(arg, &p, 10));
  if (p == arg || *p != ':') throw bad;
  const char* q = p + 1;
  nd.b = std::uint32_t(std::strtoul(q, &p, 10));
  if (p == q || *p != '@') throw bad;
  q = p + 1;
  nd.down = Cycle(std::strtoull(q, &p, 10));
  if (p == q || *p != '+') throw bad;
  q = p + 1;
  nd.len = Cycle(std::strtoull(q, &p, 10));
  if (p == q || *p != '\0' || nd.len == 0 || nd.a == nd.b) throw bad;
  return nd;
}

// --fault-node-down n@cycle[+N] — node n crashes at `cycle`; with +N it
// recovers N cycles later, without it the crash is permanent.
inline FaultConfig::NodeDown parse_node_down(const char* arg) {
  const BadValue bad{"n@cycle[+N]"};
  FaultConfig::NodeDown nd;
  char* p = nullptr;
  nd.node = std::uint32_t(std::strtoul(arg, &p, 10));
  if (p == arg || *p != '@') throw bad;
  const char* q = p + 1;
  nd.down = Cycle(std::strtoull(q, &p, 10));
  if (p == q) throw bad;
  if (*p == '+') {
    q = p + 1;
    const Cycle len = Cycle(std::strtoull(q, &p, 10));
    if (p == q || *p != '\0' || len == 0) throw bad;
    nd.up = nd.down + len;
  } else if (*p != '\0') {
    throw bad;
  }
  return nd;
}

// --fault-kinds data,ack,... — seeded perturbations apply only to the
// listed message kinds.
inline std::uint32_t parse_kinds(const char* arg) {
  static constexpr const char* kNames[] = {
      "gets", "getx", "upgrade", "inval",   "ack",    "data",
      "writeback", "hint", "pagebulk", "nack", "rebuild"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                std::size_t(MsgKind::kCount));
  std::uint32_t mask = 0;
  for (const std::string& name : split_list(arg)) {
    const auto* k = std::find(std::begin(kNames), std::end(kNames), name);
    if (k == std::end(kNames))
      throw BadValue{
          "a comma list of gets|getx|upgrade|inval|ack|data|writeback|"
          "hint|pagebulk|nack|rebuild"};
    mask |= 1u << (k - std::begin(kNames));
  }
  return mask;
}

// --apps a,b,... — a non-empty list of catalog workloads.
inline std::vector<std::string> parse_apps(const char* arg) {
  std::vector<std::string> apps = split_list(arg);
  const auto& known = all_workloads();
  for (const std::string& app : apps) {
    if (std::find(known.begin(), known.end(), app) != known.end()) continue;
    std::string expected = "a comma list of";
    for (const std::string& k : known)
      expected += (&k == &known.front() ? " " : "|") + k;
    throw BadValue{expected};
  }
  return apps;
}

// Table order is replay order (see Options::apply).
inline const Flag kFlags[] = {
    {"--paper", nullptr, "the paper's Table-2 input sizes (slow)", kRunFlags,
     [](Options& o, const char*) { o.scale = Scale::kPaper; }, nullptr},
    {"--tiny", nullptr, "smoke-test input sizes (seconds)", kRunFlags,
     [](Options& o, const char*) { o.scale = Scale::kTiny; }, nullptr},
    {"--apps", "a,b,...", "workloads to run (default: the seven SPLASH-2 apps)",
     kRunFlags, [](Options& o, const char* a) { o.apps = parse_apps(a); },
     nullptr},
    {"--jobs", "N", "sweep worker threads (0, the default: one per hardware "
     "thread)", kRunFlags,
     [](Options& o, const char* a) {
       o.jobs = unsigned(parse_uint(
           a, 0, 4096, "a worker count; 0 = one per hardware thread"));
       if (o.jobs == 0) o.jobs = ThreadPool::hardware_jobs();
     },
     nullptr},
    {"--json", "FILE", "write the results as JSON records", 0,
     [](Options& o, const char* a) { o.json_path = a; }, nullptr},
    {"--table-only", nullptr, "print the input table, skip the sweep", 0,
     [](Options& o, const char*) { o.table_only = true; }, nullptr},
    {"--ks", "k,k,...", "adaptive competitive constants (default 1,4,16)", 0,
     [](Options& o, const char* a) {
       o.ks.clear();
       for (const std::string& k : split_list(a))
         o.ks.push_back(std::uint32_t(parse_uint(
             k.c_str(), 1, 1u << 20,
             "a comma list of positive competitive constants, e.g. 1,4,16")));
     },
     nullptr},
    {"--nodes", "N", "machine size in nodes", kConfigFlags, nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.nodes = std::uint32_t(
           parse_uint(a, 1, 1u << 16, "a node count (1..65536)"));
     }},
    {"--cpus-per-node", "N", "CPUs per node", kConfigFlags, nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.cpus_per_node =
           std::uint32_t(parse_uint(a, 1, 1u << 10, "a per-node cpu count"));
     }},
    {"--dir-scheme", "full|limited|coarse|auto",
     "directory sharer sets (auto: full map up to 64 nodes)", kConfigFlags,
     nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.dir_scheme = parse_name<DirScheme>(
           a,
           {{"full", DirScheme::kFullMap}, {"full-map", DirScheme::kFullMap},
            {"limited", DirScheme::kLimitedPtr},
            {"limited-ptr", DirScheme::kLimitedPtr},
            {"coarse", DirScheme::kCoarse},
            {"coarse-vector", DirScheme::kCoarse},
            {"auto", DirScheme::kAuto}});
     }},
    {"--fabric", "mesh|torus|ni", "interconnect backend", kConfigFlags,
     nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.fabric = parse_name<FabricKind>(
           a,
           {{"mesh", FabricKind::kMesh2d}, {"mesh-2d", FabricKind::kMesh2d},
            {"torus", FabricKind::kTorus2d},
            {"torus-2d", FabricKind::kTorus2d},
            {"ni", FabricKind::kNiConstant},
            {"ni-constant", FabricKind::kNiConstant}});
     }},
    {"--link-bw", "N", "mesh/torus link bytes/cycle (0: no link contention)",
     kConfigFlags, nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.timing.mesh_link_bytes_per_cycle = std::uint32_t(
           parse_uint(a, 0, ~std::uint32_t(0),
                      "bytes/cycle; 0 disables link contention"));
     }},
    {"--policy", "default|none|migrep|rnuma|adaptive",
     "page-op decision engine (default: the system's own)", kConfigFlags,
     nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.policy = parse_name<PolicyKind>(
           a,
           {{"default", PolicyKind::kDefault}, {"none", PolicyKind::kNone},
            {"migrep", PolicyKind::kMigRep}, {"rnuma", PolicyKind::kRNuma},
            {"adaptive", PolicyKind::kAdaptive}});
     }},
    {"--adaptive-k", "N", "adaptive engine's competitive constant",
     kConfigFlags, nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.timing.adaptive_k = std::uint32_t(
           parse_uint(a, 1, 1u << 20, "a positive competitive constant"));
     }},
    // Before the rates: its 1% default drop rate yields to
    // --fault-drop-pct wherever that appears on the command line.
    {"--fault-seed", "N", "enable seeded faults (drop rate defaults to 1%)",
     kFaultFlags, nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.faults.seed = parse_uint(a, 0, ~std::uint64_t(0), "a seed");
       sc.faults.drop_pct = 1.0;
     }},
    {"--fault-drop-pct", "P", "% of messages dropped", kFaultFlags, nullptr,
     [](SystemConfig& sc, const char* a) { sc.faults.drop_pct = parse_pct(a); },
     true},
    {"--fault-dup-pct", "P", "% of messages duplicated", kFaultFlags, nullptr,
     [](SystemConfig& sc, const char* a) { sc.faults.dup_pct = parse_pct(a); },
     true},
    {"--fault-delay-pct", "P", "% of messages delayed", kFaultFlags, nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.faults.delay_pct = parse_pct(a);
     },
     true},
    {"--fault-delay-cycles", "C", "extra wire cycles of a delayed message",
     kFaultFlags, nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.faults.delay_cycles =
           Cycle(parse_uint(a, 1, ~std::uint64_t(0), "extra cycles > 0"));
     },
     true},
    {"--fault-link-downs", "K", "random directed link outages", kFaultFlags,
     nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.faults.rand_link_downs =
           std::uint32_t(parse_uint(a, 0, 1u << 16, "an outage count"));
     },
     true},
    {"--fault-link-down", "a:b@cycle+N",
     "link a->b down for N cycles (repeatable; needs no seed)", kFaultFlags,
     nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.faults.node_link_downs.push_back(parse_link_down(a));
     }},
    {"--fault-node-downs", "K", "random node crash windows", kFaultFlags,
     nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.faults.rand_node_downs =
           std::uint32_t(parse_uint(a, 0, 1u << 16, "a crash count"));
     },
     true},
    {"--fault-node-down", "n@cycle[+N]",
     "node n crashes, for good without +N (repeatable; needs no seed)",
     kFaultFlags, nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.faults.node_downs.push_back(parse_node_down(a));
     }},
    {"--fault-kinds", "k,k,...", "message kinds seeded faults may hit",
     kFaultFlags, nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.faults.fault_kinds = parse_kinds(a);
     },
     true},
    {"--fault-retry-base", "C", "recovery timeout base, cycles", kFaultFlags,
     nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.timing.fault_retry_base =
           Cycle(parse_uint(a, 1, ~std::uint64_t(0), "cycles > 0"));
     }},
    {"--fault-retry-max", "A", "recovery retry budget", kFaultFlags, nullptr,
     [](SystemConfig& sc, const char* a) {
       sc.timing.fault_retry_max_attempts =
           std::uint32_t(parse_uint(a, 1, 64, "1..64 attempts"));
     }},
};

inline bool Options::given(std::string_view flag) const {
  return std::any_of(args.begin(), args.end(),
                     [&](const auto& a) { return a.first->name == flag; });
}

inline void Options::apply(SystemConfig& sc) const {
  for (const Flag& f : kFlags)
    for (const auto& [g, value] : args)
      if (g == &f && f.set_system != nullptr) f.set_system(sc, value.c_str());
}

// Parse argv against the entries in `groups` plus those in `names`.
// Anything else exits 2 naming it, so a misspelt, retired or foreign
// flag cannot silently run a different experiment than the command
// line asks for; a bad operand exits 2 naming what was expected.
inline Options parse(int argc, char** argv, unsigned groups,
                     std::initializer_list<std::string_view> names = {}) {
  const auto takes = [&](const Flag& f) {
    return (f.group & groups) != 0 ||
           std::find(names.begin(), names.end(), f.name) != names.end();
  };
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      std::printf("usage: %s%s\n", argv[0],
                  groups != 0 || names.size() != 0 ? " [flag...]" : "");
      for (const Flag& f : kFlags)
        if (takes(f))
          std::printf("  %s%s%s\n      %s\n", f.name, f.value ? " " : "",
                      f.value ? f.value : "", f.help);
      std::exit(0);
    }
    const Flag* f = nullptr;
    for (const Flag& e : kFlags)
      if (std::strcmp(arg, e.name) == 0 && takes(e)) f = &e;
    if (f == nullptr) {
      std::fprintf(stderr, "unknown flag '%s' (see --help)\n", arg);
      std::exit(2);
    }
    const char* value = "";
    if (f->value != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", f->name);
        std::exit(2);
      }
      value = argv[++i];
    }
    try {
      if (f->set_options != nullptr) {
        f->set_options(o, value);
      } else {
        SystemConfig checked;  // system flags are checked now, applied later
        f->set_system(checked, value);
      }
    } catch (const BadValue& e) {
      std::fprintf(stderr, "bad %s '%s' (expected %s)\n", f->name, value,
                   e.expected.empty() ? f->value : e.expected.c_str());
      std::exit(2);
    }
    o.args.emplace_back(f, value);
  }
  for (const auto& [f, value] : o.args) {
    if (f->seeded && !o.given("--fault-seed")) {
      std::fprintf(stderr, "%s needs --fault-seed\n", f->name);
      std::exit(2);
    }
  }
  return o;
}

inline const char* scale_name(Scale s) {
  switch (s) {
    case Scale::kPaper: return "paper (Table 2)";
    case Scale::kTiny: return "tiny (smoke)";
    default: return "default (reduced)";
  }
}

// Run `systems` x the selected apps, normalize each app's row against a
// perfect CC-NUMA run of the same app, and return series keyed like the
// paper's figures (values = normalized execution time). The system flags
// apply to every run, baselines included.
struct NormalizedGrid {
  std::vector<std::string> apps;
  std::vector<Series> series;        // one per system
  std::vector<RunResult> results;    // row-major: system-major order
  std::vector<RunResult> baselines;  // per app
};

inline NormalizedGrid run_normalized(
    const std::vector<std::pair<std::string, RunSpec>>& systems,
    const Options& opt) {
  const std::vector<std::string>& apps = opt.apps;
  std::vector<RunSpec> specs;
  for (const auto& app : apps)
    specs.push_back(opt.spec(SystemKind::kPerfectCcNuma, app));
  for (const auto& [name, proto] : systems) {
    for (const auto& app : apps) {
      RunSpec s = proto;
      s.workload = app;
      s.scale = opt.scale;
      opt.apply(s.system);
      specs.push_back(s);
    }
  }
  auto results = run_matrix(specs, opt.jobs);

  NormalizedGrid grid;
  grid.apps = apps;
  grid.baselines.assign(results.begin(), results.begin() + apps.size());
  for (std::size_t sys = 0; sys < systems.size(); ++sys) {
    Series s;
    s.name = systems[sys].first;
    for (std::size_t a = 0; a < apps.size(); ++a) {
      const RunResult& r = results[apps.size() * (sys + 1) + a];
      s.values.push_back(r.normalized_to(grid.baselines[a]));
      grid.results.push_back(r);
    }
    grid.series.push_back(std::move(s));
  }
  return grid;
}

// One reporter column: a system/policy name plus an explicit list of
// that column's per-app results — rows[a] pairs with apps[a]. Replaces
// the old base-pointer + stride convention, which made every caller
// encode its result-matrix layout into an offset formula.
struct ResultColumn {
  std::string name;
  std::vector<const RunResult*> rows;  // one per app, app order
};

// Build a column by picking explicit indices out of a result matrix.
inline ResultColumn column_of(const std::string& name,
                              const std::vector<RunResult>& results,
                              const std::vector<std::size_t>& indices) {
  ResultColumn c{name, {}};
  for (std::size_t i : indices) c.rows.push_back(&results.at(i));
  return c;
}

// Table-4-style per-node interconnect traffic cell:
// data / coherence-control / page-op / recovery kilobytes (recovery =
// retransmissions, NACKs, and directory-rebuild census traffic; always
// 0 with the fault layer off).
inline std::string traffic_cell(const RunResult& r) {
  char buf[96];
  std::snprintf(
      buf, sizeof buf, "%.0f/%.0f/%.0f/%.0f",
      r.stats.traffic_bytes_per_node(TrafficClass::kData) / 1024.0,
      r.stats.traffic_bytes_per_node(TrafficClass::kControl) / 1024.0,
      r.stats.traffic_bytes_per_node(TrafficClass::kPageOp) / 1024.0,
      r.stats.traffic_bytes_per_node(TrafficClass::kRecovery) / 1024.0);
  return buf;
}

// Render a traffic table: one row per app, one column per system.
inline void print_traffic_table(const std::vector<std::string>& apps,
                                const std::vector<ResultColumn>& columns) {
  std::vector<std::string> header = {"app"};
  for (const auto& c : columns) header.push_back(c.name);
  Table t(header);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    auto& row = t.add_row();
    row.cell(apps[a]);
    for (const auto& c : columns) row.cell(traffic_cell(*c.rows.at(a)));
  }
  std::printf(
      "per-node interconnect traffic, data/control/page-op/recovery "
      "KB:\n%s\n",
      t.to_string().c_str());
}

// Link-contention cell: peak FIFO depth on any mesh/torus link plus the
// per-node link-occupancy kilobytes (each traversal counted).
inline std::string link_cell(const RunResult& r) {
  char buf[64];
  const double kb_per_node =
      r.stats.node.empty()
          ? 0.0
          : double(r.stats.link_bytes_total()) / 1024.0 /
                double(r.stats.node.size());
  std::snprintf(buf, sizeof buf, "q=%u %.0fKB", r.stats.link_max_queue_depth(),
                kb_per_node);
  return buf;
}

// Render the link-contention table (same shape as print_traffic_table);
// meaningful only for runs on a routed fabric (mesh/torus).
inline void print_link_table(const std::vector<std::string>& apps,
                             const std::vector<ResultColumn>& columns) {
  std::vector<std::string> header = {"app"};
  for (const auto& c : columns) header.push_back(c.name);
  Table t(header);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    auto& row = t.add_row();
    row.cell(apps[a]);
    for (const auto& c : columns) row.cell(link_cell(*c.rows.at(a)));
  }
  std::printf(
      "link-level contention, peak queue depth / per-node link-occupancy "
      "KB:\n%s\n",
      t.to_string().c_str());
}

// Emit the per-app x per-system traffic split as a flat JSON array so
// CI can archive the bytes-per-class trajectory as a workflow artifact.
// `jobs` is the sweep's worker count: wall_seconds/events_per_sec are
// measured with that many concurrent runs, so the throughput fields
// are only comparable between records with equal jobs.
inline void write_traffic_json(const std::string& path, const char* bench,
                               const std::vector<std::string>& apps,
                               const std::vector<ResultColumn>& columns,
                               unsigned jobs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "[\n");
  bool first = true;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    for (const auto& c : columns) {
      const RunResult& r = *c.rows.at(a);
      // Attached engines in order ("migrep+rnuma" for composed lists).
      std::string policy_names;
      for (const auto& p : r.stats.policy) {
        if (!policy_names.empty()) policy_names += '+';
        policy_names += p.name;
      }
      if (policy_names.empty()) policy_names = "none";
      std::fprintf(
          f,
          "%s  {\"bench\": \"%s\", \"app\": \"%s\", \"system\": \"%s\",\n"
          "   \"fabric\": \"%s\", \"policy\": \"%s\", \"cycles\": %llu,\n"
          "   \"data_bytes_per_node\": %.1f, \"control_bytes_per_node\": "
          "%.1f, \"pageop_bytes_per_node\": %.1f, "
          "\"recovery_bytes_per_node\": %.1f,\n"
          "   \"migrations\": %llu, \"replications\": %llu, "
          "\"relocations\": %llu,\n"
          "   \"link_bytes_total\": %llu, \"link_max_queue_depth\": %u,\n"
          "   \"drops_injected\": %llu, \"dups_injected\": %llu, "
          "\"delays_injected\": %llu,\n"
          "   \"retries\": %llu, \"nacks\": %llu, \"reroutes\": %llu, "
          "\"aborted_page_ops\": %llu, \"hard_errors\": %llu,\n"
          "   \"crash_drops\": %llu, \"rehomes\": %llu, "
          "\"dir_rebuilds\": %llu, \"data_losses\": %llu,\n"
          "   \"fault_drop_pct\": %.3f, \"fault_dup_pct\": %.3f, "
          "\"fault_delay_pct\": %.3f, \"fault_delay_cycles\": %llu, "
          "\"fault_link_downs\": %zu, \"fault_node_downs\": %zu,\n"
          "   \"sim_refs\": %llu, \"wall_seconds\": %.4f, "
          "\"events_per_sec\": %.0f, \"jobs\": %u}",
          first ? "" : ",\n", bench, apps[a].c_str(), c.name.c_str(),
          to_string(r.spec.system.fabric), policy_names.c_str(),
          static_cast<unsigned long long>(r.cycles),
          r.stats.traffic_bytes_per_node(TrafficClass::kData),
          r.stats.traffic_bytes_per_node(TrafficClass::kControl),
          r.stats.traffic_bytes_per_node(TrafficClass::kPageOp),
          r.stats.traffic_bytes_per_node(TrafficClass::kRecovery),
          static_cast<unsigned long long>(r.stats.page_migrations_total()),
          static_cast<unsigned long long>(r.stats.page_replications_total()),
          static_cast<unsigned long long>(r.stats.page_relocations_total()),
          static_cast<unsigned long long>(r.stats.link_bytes_total()),
          r.stats.link_max_queue_depth(),
          static_cast<unsigned long long>(r.stats.faults.drops_injected),
          static_cast<unsigned long long>(r.stats.faults.dups_injected),
          static_cast<unsigned long long>(r.stats.faults.delays_injected),
          static_cast<unsigned long long>(r.stats.faults.retries),
          static_cast<unsigned long long>(r.stats.faults.nacks),
          static_cast<unsigned long long>(r.stats.faults.reroutes),
          static_cast<unsigned long long>(r.stats.faults.aborted_page_ops),
          static_cast<unsigned long long>(r.stats.faults.hard_errors),
          static_cast<unsigned long long>(r.stats.faults.crash_drops),
          static_cast<unsigned long long>(r.stats.faults.rehomes),
          static_cast<unsigned long long>(r.stats.faults.dir_rebuilds),
          static_cast<unsigned long long>(r.stats.faults.data_losses),
          r.spec.system.faults.drop_pct, r.spec.system.faults.dup_pct,
          r.spec.system.faults.delay_pct,
          static_cast<unsigned long long>(r.spec.system.faults.delay_cycles),
          r.spec.system.faults.link_downs.size() +
              r.spec.system.faults.node_link_downs.size() +
              r.spec.system.faults.rand_link_downs,
          r.spec.system.faults.node_downs.size() +
              r.spec.system.faults.rand_node_downs,
          static_cast<unsigned long long>(r.sim_refs()), r.wall_seconds,
          r.events_per_sec(), jobs);
      first = false;
    }
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// Wall-clock timer for a whole sweep (what --jobs improves).
class SweepTimer {
 public:
  SweepTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Print the sweep's host-side throughput: per-run simulator speed
// aggregated over the matrix, plus the end-to-end wall-clock the
// --jobs parallelism reduces.
inline void print_throughput_summary(const std::vector<RunResult>& results,
                                     double sweep_wall_seconds,
                                     unsigned jobs) {
  std::uint64_t refs = 0;
  double run_seconds = 0;
  for (const auto& r : results) {
    refs += r.sim_refs();
    run_seconds += r.wall_seconds;
  }
  std::printf(
      "sweep throughput: %zu runs, %.2fM simulated refs, "
      "%.0f refs/s/run avg, wall %.2fs (jobs=%u, cpu %.2fs)\n",
      results.size(), double(refs) / 1e6,
      run_seconds > 0 ? double(refs) / run_seconds : 0.0, sweep_wall_seconds,
      jobs, run_seconds);
}

inline void print_geomean_row(const NormalizedGrid& grid) {
  std::printf("geometric means:\n");
  for (const auto& s : grid.series) {
    double logsum = 0;
    for (double v : s.values) logsum += std::log(v);
    std::printf("  %-18s %.3f\n", s.name.c_str(),
                std::exp(logsum / double(s.values.size())));
  }
}

}  // namespace dsm::bench

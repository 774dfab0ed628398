// Scale-out directory sweep: 8 -> 1024 nodes under the three sharer-set
// schemes (common/node_set.hpp).
//
// A fixed synthetic sharing pattern runs at every (nodes, fabric,
// scheme) cell: each page, homed round-robin, is read by a small
// region-spread sharer group (1/2/4/13 readers, the 13 overflowing the
// 4-slot pointer array), invalidated by a home write, then re-read so
// the directory census sees live sharer sets. The logical access
// schedule is identical across schemes, which isolates the two numbers
// this sweep exists to report:
//
//   directory memory   bits the live sharer reps actually occupy vs the
//                      entries x nodes full-map extrapolation — limited
//                      and coarse grow with *measured sharers*, not
//                      machine width;
//   coarse overshoot   the conservative multicast invalidates every
//                      node a set region covers, and those extra
//                      inval/ack messages are charged as real control
//                      traffic (data bytes stay byte-identical across
//                      schemes — overshoot never moves block payloads).
//
// Flags (--help lists them): --nodes/--fabric/--dir-scheme pin one axis
// value instead of sweeping it; --link-bw and the --fault-* set shape
// every cell; --json FILE emits one record per cell for CI archival.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "protocols/system_factory.hpp"

using namespace dsm;
using namespace dsm::bench;

namespace {

constexpr Addr kHeapBase = 0x100000;
constexpr unsigned kPagesPerHome = 2;

// Readers per page: the common small-sharer cases plus one group wide
// enough to overflow the 4-slot pointer array into the coarse vector.
constexpr unsigned kSharerPattern[] = {1, 2, 4, 13};

struct CellResult {
  std::uint32_t nodes = 0;
  FabricKind fabric = FabricKind::kNiConstant;
  DirScheme scheme = DirScheme::kAuto;
  Stats stats;
  DirUsage dir;
  Cycle cycles = 0;
  double wall_seconds = 0;

  explicit CellResult(std::uint32_t n) : stats(n) {}
};

Addr page_addr(unsigned p) { return kHeapBase + Addr(p) * kPageBytes; }

// Readers of page p: spread across the machine so distinct coarse
// regions are touched (worst case for the conservative multicast).
std::vector<NodeId> readers_of(unsigned p, std::uint32_t nodes, NodeId home) {
  const unsigned want =
      std::min<unsigned>(kSharerPattern[p % 4], nodes - 1);
  const std::uint32_t stride = std::max<std::uint32_t>(1, nodes / 16);
  std::vector<NodeId> out;
  for (std::uint32_t k = 0; out.size() < want; ++k) {
    const NodeId n = NodeId((home + 1 + k * stride) % nodes);
    if (n != home && std::find(out.begin(), out.end(), n) == out.end())
      out.push_back(n);
  }
  return out;
}

void print_hot_links(DsmSystem& sys, std::uint32_t nodes, FabricKind fabric,
                     DirScheme scheme);

CellResult run_cell(const SystemConfig& base, std::uint32_t nodes,
                    FabricKind fabric, DirScheme scheme,
                    bool dump_links) {
  SystemConfig cfg = base;
  cfg.nodes = nodes;
  cfg.fabric = fabric;
  cfg.dir_scheme = scheme;

  CellResult out(nodes);
  out.nodes = nodes;
  out.fabric = fabric;
  out.scheme = scheme;

  const auto t0 = std::chrono::steady_clock::now();
  auto sys = make_system(cfg, &out.stats);

  const unsigned pages = kPagesPerHome * nodes;
  Cycle t = 0;

  // First touch: the home writes block 0, binding the page and taking
  // the block exclusive.
  for (unsigned p = 0; p < pages; ++p) {
    const NodeId h = NodeId(p % nodes);
    t = sys->access({h, h, page_addr(p), true, t}) + 8;
  }

  // Build the sharer sets, then invalidate them with a home write —
  // the fan-out walks the set's members (exact or conservative), so
  // this round is where coarse overshoot shows up as control bytes.
  for (unsigned p = 0; p < pages; ++p) {
    const NodeId h = NodeId(p % nodes);
    for (NodeId r : readers_of(p, nodes, h))
      t = sys->access({r, r, page_addr(p), false, t}) + 8;
    t = sys->access({h, h, page_addr(p), true, t}) + 8;
  }

  // Rebuild the sets so the end-of-run census measures live sharers
  // (the write round left every entry exclusive at the home).
  for (unsigned p = 0; p < pages; ++p) {
    const NodeId h = NodeId(p % nodes);
    for (NodeId r : readers_of(p, nodes, h))
      t = sys->access({r, r, page_addr(p), false, t}) + 8;
  }

  sys->check_coherence();
  out.dir = sys->directory().usage();
  out.cycles = t;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (dump_links) print_hot_links(*sys, nodes, fabric, scheme);
  return out;
}

// Top directed links by bytes carried — the per-link heat summary for
// routed cells (the aggregate maxQ/KB columns live in the main table).
void print_hot_links(DsmSystem& sys, std::uint32_t nodes, FabricKind fabric,
                     DirScheme scheme) {
  const auto* mesh = dynamic_cast<const MeshFabric*>(&sys.fabric());
  if (mesh == nullptr) return;
  struct Row {
    std::uint32_t router;
    LinkDir dir;
    const MeshLink* l;
  };
  std::vector<Row> rows;
  for (std::uint32_t rt = 0; rt < mesh->routers(); ++rt)
    for (std::uint32_t d = 0; d < std::uint32_t(LinkDir::kCount); ++d)
      if (mesh->out_link(rt, LinkDir(d)).msgs > 0)
        rows.push_back({rt, LinkDir(d), &mesh->out_link(rt, LinkDir(d))});
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.l->bytes > b.l->bytes; });
  Table lt({"link", "msgs", "KB", "maxQ"});
  for (std::size_t i = 0; i < rows.size() && i < 6; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "%u->%s", rows[i].router,
                  to_string(rows[i].dir));
    lt.add_row()
        .cell(std::string(name))
        .cell(rows[i].l->msgs)
        .cell(double(rows[i].l->bytes) / 1024.0, 1)
        .cell(std::uint64_t(rows[i].l->max_queue_depth));
  }
  std::printf("hottest links, %u nodes / %s / %s:\n%s\n", nodes,
              to_string(fabric), to_string(scheme), lt.to_string().c_str());
}

// Cells run one at a time, hence "jobs": 1.
void write_json(const std::string& path, const std::vector<CellResult>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    const TrafficBreakdown t = c.stats.traffic_total();
    std::fprintf(
        f,
        "%s  {\"bench\": \"scaleout\", \"nodes\": %u, \"fabric\": \"%s\", "
        "\"scheme\": \"%s\",\n"
        "   \"cycles\": %llu, \"data_bytes\": %llu, \"control_bytes\": %llu, "
        "\"pageop_bytes\": %llu,\n"
        "   \"control_msgs\": %llu, \"link_bytes_total\": %llu, "
        "\"link_max_queue_depth\": %u,\n"
        "   \"dir_entries\": %llu, \"dir_shared_entries\": %llu, "
        "\"dir_coarse_entries\": %llu,\n"
        "   \"dir_sharers_measured\": %llu, \"dir_sharer_bits_used\": %llu, "
        "\"dir_sharer_bits_full_map\": %llu,\n"
        "   \"wall_seconds\": %.4f, \"jobs\": 1}",
        i == 0 ? "" : ",\n", c.nodes, to_string(c.fabric),
        to_string(c.scheme), static_cast<unsigned long long>(c.cycles),
        static_cast<unsigned long long>(t.bytes_of(TrafficClass::kData)),
        static_cast<unsigned long long>(t.bytes_of(TrafficClass::kControl)),
        static_cast<unsigned long long>(t.bytes_of(TrafficClass::kPageOp)),
        static_cast<unsigned long long>(t.msgs_of(TrafficClass::kControl)),
        static_cast<unsigned long long>(c.stats.link_bytes_total()),
        c.stats.link_max_queue_depth(),
        static_cast<unsigned long long>(c.dir.entries),
        static_cast<unsigned long long>(c.dir.shared_entries),
        static_cast<unsigned long long>(c.dir.coarse_entries),
        static_cast<unsigned long long>(c.dir.sharers_measured),
        static_cast<unsigned long long>(c.dir.sharer_bits_used),
        static_cast<unsigned long long>(c.dir.sharer_bits_full_map),
        c.wall_seconds);
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt =
      parse(argc, argv, kFaultFlags,
            {"--nodes", "--fabric", "--link-bw", "--dir-scheme", "--json"});
  // One CPU per node (the pattern names each node's CPU by the node id)
  // and no decision policy: page migration/replication would perturb
  // the fixed sharing pattern and hide the scheme-only traffic delta.
  SystemConfig base = SystemConfig::base(SystemKind::kCcNuma);
  base.cpus_per_node = 1;
  base.policy = PolicyKind::kNone;
  opt.apply(base);

  std::vector<std::uint32_t> node_counts = {8, 64, 256, 1024};
  if (opt.given("--nodes")) node_counts = {base.nodes};
  std::vector<FabricKind> fabrics = {FabricKind::kNiConstant,
                                     FabricKind::kMesh2d,
                                     FabricKind::kTorus2d};
  if (opt.given("--fabric")) fabrics = {base.fabric};
  const bool scheme_pinned = base.dir_scheme != DirScheme::kAuto;

  std::printf(
      "=== Scale-out directory sweep: %u pages/home, readers "
      "{1,2,4,13} ===\n\n",
      kPagesPerHome);

  std::vector<CellResult> cells;
  Table t({"nodes", "fabric", "scheme", "data KB", "ctl KB", "ctl msgs",
           "entries", "sharers", "bits/entry", "full-map b/e", "dir KB",
           "full KB", "link KB", "maxQ"});
  for (std::uint32_t nodes : node_counts) {
    for (FabricKind fabric : fabrics) {
      std::vector<DirScheme> schemes;
      if (scheme_pinned) {
        schemes = {base.dir_scheme};
      } else {
        if (nodes <= 64) schemes.push_back(DirScheme::kFullMap);
        schemes.push_back(DirScheme::kLimitedPtr);
        schemes.push_back(DirScheme::kCoarse);
      }
      for (DirScheme scheme : schemes) {
        if (scheme == DirScheme::kFullMap && nodes > 64) {
          std::fprintf(stderr,
                       "--dir-scheme full is limited to 64 nodes "
                       "(inline bit-vector)\n");
          return 2;
        }
        const bool dump =
            fabric != FabricKind::kNiConstant &&
            nodes == node_counts.back() && scheme == schemes.back();
        CellResult c = run_cell(base, nodes, fabric, scheme, dump);
        const TrafficBreakdown tr = c.stats.traffic_total();
        t.add_row()
            .cell(std::uint64_t(c.nodes))
            .cell(to_string(c.fabric))
            .cell(to_string(c.scheme))
            .cell(double(tr.bytes_of(TrafficClass::kData)) / 1024.0, 1)
            .cell(double(tr.bytes_of(TrafficClass::kControl)) / 1024.0, 1)
            .cell(tr.msgs_of(TrafficClass::kControl))
            .cell(c.dir.entries)
            .cell(c.dir.sharers_measured)
            .cell(c.dir.bits_per_entry(), 1)
            .cell(double(c.nodes), 0)
            .cell(double(c.dir.sharer_bits_used) / 8.0 / 1024.0, 2)
            .cell(double(c.dir.sharer_bits_full_map) / 8.0 / 1024.0, 2)
            .cell(double(c.stats.link_bytes_total()) / 1024.0, 1)
            .cell(std::uint64_t(c.stats.link_max_queue_depth()));
        cells.push_back(std::move(c));
      }
    }
  }
  std::printf("%s\n", t.to_string().c_str());

  // Invariants the sweep exists to demonstrate. Violations fail the run
  // (and CI with it).
  bool ok = true;
  for (const CellResult& c : cells) {
    // Full map pays machine width for every live entry.
    if (c.scheme == DirScheme::kFullMap &&
        c.dir.sharer_bits_used != c.dir.entries * c.nodes) {
      std::printf("FAIL: full-map bits != entries x nodes at %u nodes\n",
                  c.nodes);
      ok = false;
    }
    // Wide machines: compact schemes stay strictly below the full-map
    // extrapolation — directory memory tracks sharers, not node count.
    if (c.nodes > 64 && c.scheme != DirScheme::kFullMap &&
        c.dir.sharer_bits_used >= c.dir.sharer_bits_full_map) {
      std::printf("FAIL: %s bits >= full-map extrapolation at %u nodes\n",
                  to_string(c.scheme), c.nodes);
      ok = false;
    }
  }
  // Within a (nodes, fabric) pair: data bytes are scheme-invariant
  // (overshoot moves control messages, never payloads), and once
  // regions span multiple nodes the coarse scheme's conservative
  // multicast must show up as strictly more control traffic.
  for (const CellResult& a : cells) {
    for (const CellResult& b : cells) {
      if (a.nodes != b.nodes || a.fabric != b.fabric) continue;
      const TrafficBreakdown ta = a.stats.traffic_total();
      const TrafficBreakdown tb = b.stats.traffic_total();
      if (ta.bytes_of(TrafficClass::kData) !=
          tb.bytes_of(TrafficClass::kData)) {
        std::printf("FAIL: data bytes differ across schemes at %u/%s\n",
                    a.nodes, to_string(a.fabric));
        ok = false;
      }
      if (a.scheme == DirScheme::kCoarse &&
          b.scheme == DirScheme::kLimitedPtr &&
          NodeSetLayout::make(a.nodes, DirScheme::kCoarse).region_shift > 0 &&
          ta.bytes_of(TrafficClass::kControl) <=
              tb.bytes_of(TrafficClass::kControl)) {
        std::printf(
            "FAIL: coarse overshoot invisible in control bytes at %u/%s\n",
            a.nodes, to_string(a.fabric));
        ok = false;
      }
    }
  }
  std::printf(
      "directory memory tracks measured sharers; coarse overshoot charged "
      "as control traffic: %s\n",
      ok ? "yes" : "NO — BUG");

  if (!opt.json_path.empty())
    write_json(opt.json_path, cells);
  return ok ? 0 : 1;
}

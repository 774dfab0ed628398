// Self-test: tracing must not change the simulation. For every benchmark
// workload at Scale::kTiny, a traced rep (AccessTracer plus spans), an
// untraced rep and harness run_one() of the same spec must produce the
// same digest, and the untraced rep's progress checkpoints must rise to
// the end of its run. Exits non-zero on any mismatch.
//
//   ctest --test-dir .bench_build/simbench
#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "harness/runner.hpp"
#include "simbench.hpp"

int main() {
  int failures = 0;
  // An arbitrary seed that the timed runs do not use by default.
  for (const simbench::Cell& cell : simbench::cells(977, dsm::Scale::kTiny)) {
    dsm::RunSpec spec;
    spec.system = cell.system;
    spec.workload = cell.app;
    spec.scale = cell.scale;
    const dsm::RunResult ref = dsm::run_one(spec);
    const std::uint64_t want = simbench::digest(ref.stats, ref.cycles);

    const simbench::RepResult traced = simbench::run_rep(cell, true);
    const simbench::RepResult plain = simbench::run_rep(cell, false);
    const std::uint64_t got_traced = simbench::digest(traced.stats, traced.cycles);
    const std::uint64_t got_plain = simbench::digest(plain.stats, plain.cycles);

    std::uint64_t traced_calls = 0;
    for (const simbench::BucketSummary& b : traced.buckets) traced_calls += b.calls;
    const std::vector<double>& cps = plain.checkpoints_s;
    const bool cps_ok = cps.size() == std::size_t(simbench::kCheckpoints) &&
                        std::is_sorted(cps.begin(), cps.end()) &&
                        cps.front() >= 0.0 && cps.back() <= plain.run_s;
    const bool ok = got_traced == want && got_plain == want && cps_ok &&
                    traced_calls == traced.refs() && traced.refs() > 0;
    std::printf("%-20s run_one %016" PRIx64 "  traced %016" PRIx64
                "  untraced %016" PRIx64 "  accesses %" PRIu64 "/%" PRIu64
                "  %s\n",
                cell.name.c_str(), want, got_traced, got_plain, traced_calls,
                traced.refs(), ok ? "ok" : "MISMATCH");
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

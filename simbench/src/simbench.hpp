// Outside-in benchmark of the DSM simulator.
//
// One repetition ("rep") replays harness/runner.cpp::run_one step by
// step through the simulator's public API — make_system, a serial
// Engine, make_workload + Workload::setup + spawn, Engine::run, then
// Workload::verify and DsmSystem::check_coherence — and records a span
// around each step. A traced rep additionally hands the Engine an
// AccessTracer in front of the DsmSystem: sim/memory_if.hpp is the
// engine's only door into mem/, dsm/, net/ and protocols/, so the
// tracer sees, times and classifies every access.
//
// Only stable API is used: SystemConfig, make_system, Engine,
// make_workload, Stats, DsmSystem::{check_coherence, policy_engine} and
// PolicyEngine::events_dispatched (plus run_one in the self-test).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "workloads/catalog.hpp"

namespace simbench {

// One benchmark workload: an (app, system, machine) cell run serially.
struct Cell {
  std::string name;
  std::string app;
  dsm::Scale scale = dsm::Scale::kDefault;
  dsm::SystemConfig system{};
};

// The benchmark's workloads, in a fixed order. `seed` feeds
// FaultConfig::seed; the SPLASH inputs use seeds hard-coded in
// src/workloads, so only the faulted cell depends on it.
std::vector<Cell> cells(std::uint64_t seed, dsm::Scale scale);

// Access buckets: the deepest layer an access reached.
enum Bucket : std::uint8_t { kL1Hit = 0, kNodeLocal, kRemote, kPageOp, kBuckets };

struct BucketSummary {
  std::uint64_t calls = 0;
  double host_s = 0.0;
  double ns_p50 = 0.0;
  double ns_p99 = 0.0;
};

struct Span {
  std::string name;
  double start_s = 0.0;  // relative to the rep's start
  double end_s = 0.0;
};

// Engine::run is cut into this many slices of equal reference count
// (see RepResult::checkpoints_s).
constexpr int kCheckpoints = 1024;

struct RepResult {
  // Host time (seconds).
  double setup_system_s = 0.0;   // make_system + Engine construction
  double setup_workload_s = 0.0; // make_workload .. parallel_begin
  double setup_s = 0.0;          // make_system .. first engine step
  double run_s = 0.0;            // Engine::run
  double cal_mem_s = 0.0;        // host-speed probe (see calibrate)
  // Host seconds from the start of Engine::run until k/kCheckpoints of
  // the references were made, k = 1..kCheckpoints. Every rep of a cell
  // does the same simulated work between two checkpoints.
  std::vector<double> checkpoints_s;
  std::vector<Span> spans;       // every step, children of the rep span

  // Simulated results.
  dsm::Stats stats{0};
  dsm::Cycle cycles = 0;
  std::uint64_t policy_events = 0;  // PolicyEngine::events_dispatched

  // Traced reps only.
  bool traced = false;
  std::array<BucketSummary, kBuckets> buckets{};
  double access_s = 0.0;  // sum of bucket host time

  std::uint64_t refs() const {
    return stats.shared_reads + stats.shared_writes;
  }
};

// Run one rep of `cell`. Aborts (DSM_ASSERT) if the workload's verify()
// or the coherence checker fails.
RepResult run_rep(const Cell& cell, bool traced);

// Time the host-speed probe into r.cal_mem_s. Call after the rep's peak
// RSS is read: the probe's 32 MiB ring would raise it.
void calibrate(RepResult& r);

// 64-bit digest of everything the simulation produced: cycles, per-node
// traffic bytes and messages by class, miss classes, hits, page-op and
// policy counters, the fault/recovery ledger and the directory census.
std::uint64_t digest(const dsm::Stats& stats, dsm::Cycle cycles);

// One JSON object describing a rep (and the build that produced it).
std::string rep_json(const Cell& cell, std::uint64_t seed,
                     const RepResult& r, double peak_rss_mb);

}  // namespace simbench

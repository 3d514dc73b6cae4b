//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end benchmark's measuring process. One invocation runs one
/// named workload for a fixed host-time budget: it generates the
/// workload's graphs from a seed, then repeats passes over the workload's
/// operations. One operation is one (kernel, dataset, policy)
/// configuration executed with baseline::runExperiment's call sequence,
/// restated here so every call into the library can be timed on its own.
///
/// Output is JSON lines on stdout, read by run.py, which does the metric
/// math and the output checks:
///
///   provenance  build and host description
///   reference   apps::reference* checksum per (kernel, dataset)
///   expected    serial-engine outputs from baseline::runExperiment
///               (only with --reference)
///   pass        one pass: its set-up / wall split and, per operation,
///               the simulated outputs and the layer counters
///   end         peak RSS and the span file (with --trace 1)
///
/// With --trace 1 passes alternate untraced and traced. A traced pass
/// holds spans in memory around each library call and additionally runs
/// a shadow of each (kernel, dataset) pair — one plain tracked iteration
/// and one untracked iteration on fresh runtimes — which give the
/// tracking and profiler overheads. The spans are written out at exit.
///
//===----------------------------------------------------------------------===//

#include "apps/Kernel.h"
#include "apps/Kernels.h"
#include "apps/Reference.h"
#include "baseline/Experiment.h"
#include "graph/Datasets.h"
#include "graph/Generators.h"
#include "obs/DecisionLog.h"
#include "obs/Export.h"
#include "obs/Telemetry.h"
#include "obs/TimeSeries.h"
#include "obs/Trace.h"
#include "sim/MachineConfig.h"
#include "support/BuildInfo.h"
#include "support/Statistics.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace atmem;
using baseline::Policy;
using Clock = std::chrono::steady_clock;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Workload {
  const char *Name;
  bool Mcdram;
  uint32_t SimThreads;
  std::vector<std::string> Kernels;
  std::vector<Policy> Policies;
  uint32_t MeasuredIterations;
  bool OptimizeEachIteration;
  bool MeasureTlb;
  /// Decision log, time series and health log written per operation.
  bool Sinks;
};

const std::vector<Workload> &workloads() {
  static const std::vector<Workload> All = {
      {"fig05-serial", false, 1, {"bfs", "sssp"},
       {Policy::AllSlow, Policy::Atmem, Policy::AllFast}, 1, false, false,
       false},
      {"fig05-simthreads2", false, 2, {"bfs", "sssp"},
       {Policy::AllSlow, Policy::Atmem, Policy::AllFast}, 1, false, false,
       false},
      {"mcdram-epochs", true, 1, {"pr", "cc"},
       {Policy::Atmem, Policy::AtmemMbind}, 2, true, true, true},
  };
  return All;
}

const std::vector<std::string> &datasetNames() {
  static const std::vector<std::string> Names = {"pokec", "rmat24"};
  return Names;
}

//===----------------------------------------------------------------------===//
// Seeded graphs
//===----------------------------------------------------------------------===//

/// graph::makeDataset's parameters for the two datasets the workloads use.
/// Seed 0 gives makeDataset's own generator seeds, i.e. the figure graphs.
struct GraphSpec {
  const char *Name;
  double Vertices;
  double AvgDegree;
  bool IsRmat;
  double Gamma;
  uint64_t Seed;
};

const GraphSpec Specs[] = {
    {"pokec", 1.6e6, 19.1, false, 2.6, 0xA01},
    {"rmat24", 16.8e6, 16.0, true, 0.0, 0xA02},
};

graph::CsrGraph buildGraph(const std::string &Name, uint64_t Seed) {
  const GraphSpec *Spec = nullptr;
  for (const GraphSpec &S : Specs)
    if (Name == S.Name)
      Spec = &S;
  if (!Spec) {
    std::fprintf(stderr, "perfbench: no graph spec for '%s'\n", Name.c_str());
    std::exit(2);
  }
  uint64_t GenSeed = Spec->Seed + Seed * 0x9E3779B97F4A7C15ull;
  double Divisor = graph::DefaultScaleDivisor;
  auto Vertices = static_cast<uint32_t>(Spec->Vertices / Divisor);
  if (Vertices < 1024)
    Vertices = 1024;
  if (Spec->IsRmat) {
    graph::RmatParams Params;
    Params.Scale = static_cast<uint32_t>(std::lround(std::log2(Vertices)));
    if (Params.Scale < 10)
      Params.Scale = 10;
    Params.EdgeFactor = Spec->AvgDegree;
    Params.Seed = GenSeed;
    return graph::generateRmat(Params);
  }
  graph::PowerLawParams Params;
  Params.NumVertices = Vertices;
  Params.AverageDegree = Spec->AvgDegree;
  Params.Gamma = Spec->Gamma;
  Params.Seed = GenSeed;
  return graph::generatePowerLaw(Params);
}

bool sameGraph(const graph::CsrGraph &A, const graph::CsrGraph &B) {
  return A.numVertices() == B.numVertices() &&
         A.rowOffsets() == B.rowOffsets() && A.cols() == B.cols() &&
         A.weights() == B.weights();
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Disabled, it records nothing and costs a
/// branch per span.
class SpanLog {
public:
  struct Span {
    const char *Name;
    int64_t Parent;
    uint64_t Op;
    uint32_t Pass;
    int64_t StartNs;
    int64_t EndNs;
  };

  bool Enabled = false;

  int64_t open(const char *Name, uint64_t Op, uint32_t Pass) {
    if (!Enabled)
      return -1;
    Spans.push_back({Name, Stack.empty() ? -1 : Stack.back(), Op, Pass,
                     nowNs(), 0});
    Stack.push_back(static_cast<int64_t>(Spans.size() - 1));
    return Stack.back();
  }

  void close(int64_t Id) {
    if (Id < 0)
      return;
    Spans[Id].EndNs = nowNs();
    Stack.pop_back();
  }

  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"fields\": [\"name\", \"parent\", \"op\", \"pass\", "
                    "\"start_ns\", \"end_ns\"], \"spans\": [\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F, "[\"%s\", %lld, %llu, %u, %lld, %lld]%s\n", S.Name,
                   static_cast<long long>(S.Parent),
                   static_cast<unsigned long long>(S.Op), S.Pass,
                   static_cast<long long>(S.StartNs),
                   static_cast<long long>(S.EndNs),
                   I + 1 == Spans.size() ? "" : ",");
    }
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  static int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> Spans;
  std::vector<int64_t> Stack;
};

/// RAII span.
class Scope {
public:
  Scope(SpanLog &Log, const char *Name, uint64_t Op, uint32_t Pass)
      : Log(Log), Id(Log.open(Name, Op, Pass)) {}
  ~Scope() { Log.close(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog &Log;
  int64_t Id;
};

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

//===----------------------------------------------------------------------===//
// Operations
//===----------------------------------------------------------------------===//

struct OpSpec {
  std::string Kernel;
  size_t Dataset;
  Policy PolicyKind;
};

/// Simulated outputs (checked bit-for-bit) plus host-side counters.
struct OpRecord {
  baseline::RunResult Result;
  uint64_t RegisteredBytes = 0;
  sim::AccessStats Access;
  uint64_t DrainedMisses = 0;
  uint64_t Samples = 0;
  uint64_t MissesSeen = 0;
  std::vector<mem::MigrationResult> Epochs;
  uint64_t SkippedChunks = 0;
  uint64_t TlbHits = 0;
  uint64_t ArtifactBytes = 0;
  int ArtifactOk = -1; ///< -1: no artifact; 0: invalid; 1: valid.
  std::string ArtifactError;
  uint32_t ProfiledIterations = 0;
  /// Largest per-vertex distance from the reference result (PageRank).
  double ReferenceDiff = 0.0;
  uint64_t Id = 0;
  double SetupSec = 0.0;
  double WallSec = 0.0;
};

/// The plain reference result of one (kernel, dataset) pair.
struct Reference {
  uint64_t Checksum = 0;
  /// PageRank's rank vector: float sums in another order than the
  /// kernel's, so ranks are compared within a tolerance, not by checksum.
  std::vector<float> Ranks;
};

struct Paths {
  std::string Decisions, TimeSeries, Health;
};

/// baseline::runExperiment's runtime configuration for the policies the
/// workloads use (Experiment.cpp keeps its own copy file-local).
core::RuntimeConfig runtimeConfig(const Workload &W, Policy P,
                                  const obs::TelemetryConfig &Telemetry) {
  core::RuntimeConfig Config;
  Config.Machine = W.Mcdram
                       ? sim::mcdramDramTestbed(1.0 / graph::DefaultScaleDivisor)
                       : sim::nvmDramTestbed(1.0 / graph::DefaultScaleDivisor);
  Config.SimThreads = W.SimThreads;
  Config.Telemetry = Telemetry;
  switch (P) {
  case Policy::AllSlow:
  case Policy::Atmem:
    break;
  case Policy::AllFast:
    Config.Placement = mem::InitialPlacement::Fast;
    break;
  case Policy::AtmemMbind:
    Config.Mechanism = core::MigrationMechanism::Mbind;
    break;
  default:
    std::fprintf(stderr, "perfbench: policy %s is not used by any workload\n",
                 baseline::policyName(P));
    std::exit(2);
  }
  return Config;
}

obs::TelemetryConfig telemetryFor(const Workload &W, const Paths &Out) {
  obs::TelemetryConfig T;
  if (!W.Sinks)
    return T;
  T.DecisionLogPath = Out.Decisions;
  T.TimeSeriesPath = Out.TimeSeries;
  T.HealthLogPath = Out.Health;
  return T;
}

uint64_t fileBytes(const std::string &Path) {
  std::error_code Ec;
  uint64_t Size = std::filesystem::file_size(Path, Ec);
  return Ec ? 0 : Size;
}

/// Runs one operation with runExperiment's call sequence, timing each
/// library call. Set-up (runtime construction plus Kernel::setup) is kept
/// apart from the rest, as the benchmark's setup_s / wall_s split.
OpRecord runOp(const Workload &W, const OpSpec &Spec,
               const graph::CsrGraph &G, const Reference &Ref,
               const Paths &Out, SpanLog &Log, uint64_t OpId, uint32_t Pass) {
  OpRecord Rec;
  Rec.Id = OpId;
  obs::TelemetryConfig Telemetry = telemetryFor(W, Out);
  bool UsesAtmem = baseline::policyUsesAtmem(Spec.PolicyKind);
  baseline::RunResult &R = Rec.Result;
  Scope OpSpan(Log, "op", OpId, Pass);

  auto SetupStart = Clock::now();
  std::unique_ptr<core::Runtime> Rt;
  std::unique_ptr<apps::Kernel> Kernel;
  {
    Scope S(Log, "core.setup", OpId, Pass);
    Rt = std::make_unique<core::Runtime>(
        runtimeConfig(W, Spec.PolicyKind, Telemetry));
    Kernel = apps::makeKernel(Spec.Kernel);
    Kernel->setup(*Rt, G);
  }
  Rec.SetupSec = secondsSince(SetupStart);
  Rec.RegisteredBytes = Rt->registry().totalMappedBytes();

  auto WallStart = Clock::now();
  // One tracked iteration: body, then the drain / merge in endIteration.
  auto Iterate = [&] {
    Rt->beginIteration();
    {
      Scope S(Log, "core.body", OpId, Pass);
      Kernel->runIteration();
    }
    double Sec;
    {
      Scope S(Log, "core.end_iteration", OpId, Pass);
      Sec = Rt->endIteration();
    }
    const sim::AccessStats &Stats = Rt->iterationStats();
    Rec.Access += Stats;
    if (Kernel->runsParallel())
      Rec.DrainedMisses += Stats.totalMisses();
    return Sec;
  };
  auto EndProfile = [&] {
    Rt->profilingStop();
    ++Rec.ProfiledIterations;
    Rec.Samples += Rt->profiler().sampleCount();
    Rec.MissesSeen += Rt->profiler().missesSeen();
  };
  auto Optimize = [&] {
    mem::MigrationResult M;
    {
      Scope S(Log, "core.optimize", OpId, Pass);
      M = Rt->optimize();
    }
    Rec.Epochs.push_back(M);
    Rec.SkippedChunks += Rt->skippedChunks().size();
    return M;
  };

  if (UsesAtmem)
    Rt->profilingStart();
  R.FirstIterSec = Iterate();
  if (UsesAtmem) {
    EndProfile();
    R.ProfilingOverheadSec = Rt->profilingOverheadSeconds();
    R.FirstIterSec += R.ProfilingOverheadSec;
    R.Migration = Optimize();
  }
  R.FastDataRatio = Rt->fastDataRatio();

  sim::Tlb ReplayTlb = Rt->machine().makeTlb();
  if (W.MeasureTlb)
    Rt->setReplayTlb(&ReplayTlb);
  uint32_t Iterations = std::max<uint32_t>(W.MeasuredIterations, 1);
  bool Reoptimize = W.OptimizeEachIteration && UsesAtmem;
  for (uint32_t I = 0; I < Iterations; ++I) {
    if (Reoptimize)
      Rt->profilingStart();
    R.IterStats.add(Iterate());
    if (Reoptimize) {
      EndProfile();
      R.Migration += Optimize();
    }
  }
  R.MeasuredIterSec = R.IterStats.mean();
  if (W.MeasureTlb) {
    Rt->setReplayTlb(nullptr);
    R.TlbMisses = ReplayTlb.misses();
    Rec.TlbHits = ReplayTlb.hits();
  }
  {
    Scope S(Log, "apps.checksum", OpId, Pass);
    R.Checksum = Kernel->checksum();
  }
  Rec.WallSec = secondsSince(WallStart);
  if (!Ref.Ranks.empty()) {
    // The benchmark's own check, outside wall_s.
    Scope S(Log, "bench.reference", OpId, Pass);
    const auto &Ranks =
        static_cast<const apps::PageRankKernel &>(*Kernel).ranks();
    for (size_t V = 0; V < Ref.Ranks.size(); ++V)
      Rec.ReferenceDiff =
          std::max(Rec.ReferenceDiff,
                   std::fabs(static_cast<double>(Ranks.raw()[V]) -
                             static_cast<double>(Ref.Ranks[V])));
  }
  WallStart = Clock::now();
  {
    Scope S(Log, "core.teardown", OpId, Pass);
    Kernel.reset();
    Rt.reset();
  }
  if (W.Sinks) {
    Scope S(Log, "obs.export", OpId, Pass);
    if (!obs::exportIfConfigured(Telemetry)) {
      Rec.ArtifactOk = 0;
      Rec.ArtifactError = "export failed";
    }
  }
  Rec.WallSec += secondsSince(WallStart);

  if (W.Sinks) {
    // The benchmark's own check, outside wall_s: the decision log must
    // decode, validate and hold one epoch per optimize() call.
    Scope S(Log, "bench.validate", OpId, Pass);
    Rec.ArtifactBytes = fileBytes(Out.Decisions) + fileBytes(Out.TimeSeries) +
                        fileBytes(Out.Health);
    obs::DecisionArtifact Artifact;
    obs::DecisionLogStats Stats;
    std::string Error;
    bool Valid = obs::readDecisionLog(Out.Decisions, Artifact, &Error) &&
                 obs::validateDecisionLog(Artifact, &Error, &Stats);
    if (Valid && Stats.Epochs != Rec.Epochs.size()) {
      Valid = false;
      Error = "decision log holds " + std::to_string(Stats.Epochs) +
              " epochs, expected " + std::to_string(Rec.Epochs.size());
    }
    if (Rec.ArtifactOk != 0) {
      Rec.ArtifactOk = Valid ? 1 : 0;
      Rec.ArtifactError = Error;
    }
    // Every operation starts with empty process-wide sinks.
    obs::TimeSeries::instance().clear();
    obs::Tracer::instance().clear();
  }
  return Rec;
}

/// Shadow of one (kernel, dataset) pair in a traced pass, on fresh
/// all-slow runtimes so the operations' outputs are untouched: the
/// operation's iterations once more, tracked but never profiled (TLB
/// replay as in the measured iterations), and the first iteration with
/// tracking off.
void runShadow(const Workload &W, const std::string &KernelName,
               const graph::CsrGraph &G, SpanLog &Log, uint64_t OpId,
               uint32_t Pass) {
  Scope Shadow(Log, "bench.shadow", OpId, Pass);
  bool SeriesOn = obs::TimeSeries::instance().enabled();
  obs::TimeSeries::instance().setEnabled(false);
  {
    core::Runtime Rt(runtimeConfig(W, Policy::AllSlow, {}));
    std::unique_ptr<apps::Kernel> Kernel = apps::makeKernel(KernelName);
    Kernel->setup(Rt, G);
    sim::Tlb ReplayTlb = Rt.machine().makeTlb();
    for (uint32_t I = 0; I <= W.MeasuredIterations; ++I) {
      if (I == 1 && W.MeasureTlb)
        Rt.setReplayTlb(&ReplayTlb);
      Rt.beginIteration();
      {
        Scope S(Log, "core.plain_body", OpId, Pass);
        Kernel->runIteration();
      }
      Rt.endIteration();
    }
    Rt.setReplayTlb(nullptr);
  }
  {
    core::Runtime Rt(runtimeConfig(W, Policy::AllSlow, {}));
    std::unique_ptr<apps::Kernel> Kernel = apps::makeKernel(KernelName);
    Kernel->setup(Rt, G);
    Rt.setTrackingEnabled(false);
    Rt.beginIteration();
    {
      Scope S(Log, "apps.untracked", OpId, Pass);
      Kernel->runIteration();
    }
    Rt.endIteration();
  }
  obs::TimeSeries::instance().setEnabled(SeriesOn);
  obs::TimeSeries::instance().clear();
}

//===----------------------------------------------------------------------===//
// Reference results
//===----------------------------------------------------------------------===//

/// The plain reference result, with the kernel's checksum formula
/// applied to it.
Reference makeReference(const std::string &Kernel, const graph::CsrGraph &G,
                        uint32_t Iterations) {
  Reference Ref;
  uint64_t &Sum = Ref.Checksum;
  if (Kernel == "bfs") {
    for (int32_t Level : apps::referenceBfs(G, G.maxDegreeVertex()))
      Sum += Level >= 0 ? static_cast<uint64_t>(Level) + 1 : 0;
  } else if (Kernel == "sssp") {
    for (uint32_t D : apps::referenceSssp(G, G.maxDegreeVertex()))
      Sum += D == ~0u ? 0 : D + 1;
  } else if (Kernel == "pr") {
    Ref.Ranks = apps::referencePageRank(G, Iterations);
    for (float Rank : Ref.Ranks)
      Sum += static_cast<uint64_t>(
          std::lround(static_cast<double>(Rank) * 1e7));
  } else if (Kernel == "cc") {
    for (uint32_t Label : apps::referenceCc(G))
      Sum += Label;
  } else {
    std::fprintf(stderr, "perfbench: no reference for kernel '%s'\n",
                 Kernel.c_str());
    std::exit(2);
  }
  return Ref;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void printMigration(const mem::MigrationResult &M) {
  std::printf("{\"bytes\": %llu, \"ptes\": %llu, \"huge_split\": %llu, "
              "\"ranges\": %llu, \"sim_s\": %.17g}",
              static_cast<unsigned long long>(M.BytesMoved),
              static_cast<unsigned long long>(M.PtesTouched),
              static_cast<unsigned long long>(M.HugePagesSplit),
              static_cast<unsigned long long>(M.Ranges), M.SimSeconds);
}

void printOutputs(const baseline::RunResult &R) {
  std::printf("\"first_iter_sec\": %.17g, \"measured_iter_sec\": %.17g, "
              "\"fast_data_ratio\": %.17g, \"tlb_misses\": %llu, "
              "\"checksum\": %llu, \"migration\": ",
              R.FirstIterSec, R.MeasuredIterSec, R.FastDataRatio,
              static_cast<unsigned long long>(R.TlbMisses),
              static_cast<unsigned long long>(R.Checksum));
  printMigration(R.Migration);
}

void printOpKey(const OpSpec &Spec) {
  std::printf("\"kernel\": \"%s\", \"dataset\": \"%s\", \"policy\": \"%s\"",
              Spec.Kernel.c_str(), datasetNames()[Spec.Dataset].c_str(),
              baseline::policyName(Spec.PolicyKind));
}

void printOpRecord(const OpSpec &Spec, const OpRecord &Rec) {
  std::printf("{\"op\": %llu, \"profiled_iterations\": %u, ",
              static_cast<unsigned long long>(Rec.Id), Rec.ProfiledIterations);
  printOpKey(Spec);
  std::printf(", ");
  printOutputs(Rec.Result);
  std::printf(", \"setup_s\": %.9f, \"wall_s\": %.9f, "
              "\"registered_bytes\": %llu, \"accesses\": %llu, "
              "\"llc_hits\": %llu, \"fast_misses\": %llu, "
              "\"slow_misses\": %llu, \"drained_misses\": %llu, "
              "\"samples\": %llu, \"misses_seen\": %llu, "
              "\"skipped_chunks\": %llu, \"tlb_hits\": %llu, "
              "\"artifact_bytes\": %llu, \"artifact_ok\": %d, "
              "\"reference_max_abs_diff\": %.9g, "
              "\"epochs\": [",
              Rec.SetupSec, Rec.WallSec,
              static_cast<unsigned long long>(Rec.RegisteredBytes),
              static_cast<unsigned long long>(Rec.Access.Accesses),
              static_cast<unsigned long long>(Rec.Access.LlcHits),
              static_cast<unsigned long long>(Rec.Access.TierMisses[0]),
              static_cast<unsigned long long>(Rec.Access.TierMisses[1]),
              static_cast<unsigned long long>(Rec.DrainedMisses),
              static_cast<unsigned long long>(Rec.Samples),
              static_cast<unsigned long long>(Rec.MissesSeen),
              static_cast<unsigned long long>(Rec.SkippedChunks),
              static_cast<unsigned long long>(Rec.TlbHits),
              static_cast<unsigned long long>(Rec.ArtifactBytes),
              Rec.ArtifactOk, Rec.ReferenceDiff);
  for (size_t I = 0; I < Rec.Epochs.size(); ++I) {
    printMigration(Rec.Epochs[I]);
    std::printf("%s", I + 1 == Rec.Epochs.size() ? "" : ", ");
  }
  // Error text comes from the library; keep it JSON-safe.
  std::string Error;
  for (char C : Rec.ArtifactError)
    Error += (C == '"' || C == '\\' || static_cast<unsigned char>(C) < 0x20)
                 ? '\''
                 : C;
  std::printf("], \"artifact_error\": \"%s\"}", Error.c_str());
}

//===----------------------------------------------------------------------===//
// Main
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  bool Reference = false;
  bool CheckGraphs = false;
  uint32_t MinPasses = 3;
  uint32_t MaxPasses = 1000;
  std::string OutDir = ".";
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload NAME --seed N "
               "--seconds S [--trace 0|1] [--reference] [--min-passes N] "
               "[--max-passes N] [--out DIR]\n"
               "       perfbench_harness --check-graphs\n",
               Msg);
  std::exit(2);
}

uint64_t parseUnsigned(const char *Text, const char *What) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno || !End || *End || *Text == '-' || *Text == '\0')
    usage((std::string("bad ") + What).c_str());
  return V;
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = parseUnsigned(Next(), "--seed");
    else if (A == "--seconds") {
      const char *T = Next();
      char *End = nullptr;
      O.Seconds = std::strtod(T, &End);
      if (!End || *End || !(O.Seconds >= 0.0) || O.Seconds > 3600.0)
        usage("bad --seconds");
    } else if (A == "--trace")
      O.Trace = parseUnsigned(Next(), "--trace") != 0;
    else if (A == "--reference")
      O.Reference = true;
    else if (A == "--check-graphs")
      O.CheckGraphs = true;
    else if (A == "--min-passes")
      O.MinPasses = static_cast<uint32_t>(parseUnsigned(Next(), A.c_str()));
    else if (A == "--max-passes")
      O.MaxPasses = static_cast<uint32_t>(parseUnsigned(Next(), A.c_str()));
    else if (A == "--out")
      O.OutDir = Next();
    else
      usage(("unknown option " + A).c_str());
  }
  return O;
}

/// Seed 0 must regenerate graph::makeDataset's figure graphs exactly.
int checkGraphs() {
  for (const std::string &Name : datasetNames()) {
    graph::Dataset Figure =
        graph::makeDataset(Name, graph::DefaultScaleDivisor);
    if (!sameGraph(buildGraph(Name, 0), Figure.Graph)) {
      std::printf("{\"type\": \"check_graphs\", \"ok\": false, "
                  "\"dataset\": \"%s\"}\n",
                  Name.c_str());
      return 1;
    }
  }
  std::printf("{\"type\": \"check_graphs\", \"ok\": true}\n");
  return 0;
}

void printProvenance(const Options &O, const Workload &W) {
  std::printf("{\"type\": \"provenance\", \"workload\": \"%s\", "
              "\"seed\": %llu, \"trace\": %d, \"git_sha\": \"%s\", "
              "\"compiler\": \"%s\", \"cpu_model\": \"%s\", "
              "\"hardware_threads\": %u, \"build_type\": \"%s\", "
              "\"sim_threads\": %u}\n",
              W.Name, static_cast<unsigned long long>(O.Seed), O.Trace ? 1 : 0,
              support::gitSha(), support::compilerId(),
              support::cpuModel().c_str(),
              std::max(1u, std::thread::hardware_concurrency()),
              PERFBENCH_BUILD_TYPE, W.SimThreads);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv);
  if (O.CheckGraphs)
    return checkGraphs();

  const Workload *W = nullptr;
  for (const Workload &Candidate : workloads())
    if (O.Workload == Candidate.Name)
      W = &Candidate;
  if (!W)
    usage(("unknown workload '" + O.Workload + "'").c_str());

  std::error_code Ec;
  std::filesystem::create_directories(O.OutDir, Ec);
  if (Ec)
    usage(("cannot create --out directory " + O.OutDir).c_str());
  Paths Out{O.OutDir + "/decisions.atdl", O.OutDir + "/timeseries.jsonl",
            O.OutDir + "/health.jsonl"};

  printProvenance(O, *W);

  std::vector<OpSpec> Ops;
  for (const std::string &K : W->Kernels)
    for (size_t D = 0; D < datasetNames().size(); ++D)
      for (Policy P : W->Policies)
        Ops.push_back({K, D, P});

  // Checks that need the graphs once: reference results and, on request,
  // the serial-engine expectations straight from runExperiment.
  std::vector<Reference> References; // Kernel-major, like Ops.
  {
    std::vector<graph::CsrGraph> Graphs;
    for (const std::string &Name : datasetNames())
      Graphs.push_back(buildGraph(Name, O.Seed));
    for (const std::string &K : W->Kernels)
      for (size_t D = 0; D < Graphs.size(); ++D) {
        References.push_back(
            makeReference(K, Graphs[D], 1 + W->MeasuredIterations));
        std::printf("{\"type\": \"reference\", \"kernel\": \"%s\", "
                    "\"dataset\": \"%s\", \"checksum\": %llu, "
                    "\"tolerance\": %s}\n",
                    K.c_str(), datasetNames()[D].c_str(),
                    static_cast<unsigned long long>(
                        References.back().Checksum),
                    References.back().Ranks.empty() ? "null" : "1e-06");
      }
    if (O.Reference) {
      for (const OpSpec &Spec : Ops) {
        baseline::RunConfig Config;
        Config.KernelName = Spec.Kernel;
        Config.Graph = &Graphs[Spec.Dataset];
        Config.Machine = runtimeConfig(*W, Spec.PolicyKind, {}).Machine;
        Config.PolicyKind = Spec.PolicyKind;
        Config.MeasuredIterations = W->MeasuredIterations;
        Config.MeasureTlb = W->MeasureTlb;
        Config.OptimizeEachIteration = W->OptimizeEachIteration;
        Config.SimThreads = 1; // The serial engine is the reference.
        baseline::RunResult R = baseline::runExperiment(Config);
        std::printf("{\"type\": \"expected\", ");
        printOpKey(Spec);
        std::printf(", ");
        printOutputs(R);
        std::printf("}\n");
      }
    }
    std::fflush(stdout);
  }

  SpanLog Log;
  auto RunStart = Clock::now();
  uint64_t NextOpId = 1;
  for (uint32_t Pass = 0; Pass < O.MaxPasses; ++Pass) {
    // With tracing, odd passes are traced and even ones are the untraced
    // comparison; the minimum counts passes of each kind.
    uint32_t Done = O.Trace ? Pass / 2 : Pass;
    if (Done >= O.MinPasses && secondsSince(RunStart) >= O.Seconds &&
        (!O.Trace || Pass % 2 == 0))
      break;
    Log.Enabled = O.Trace && Pass % 2 == 1;
    double BuildSec = 0.0;
    uint64_t Edges = 0;
    std::vector<OpRecord> Records;
    std::string Shadows;
    {
      Scope PassSpan(Log, "pass", 0, Pass);
      auto BuildStart = Clock::now();
      std::vector<graph::CsrGraph> Graphs;
      {
        Scope S(Log, "graph.build", 0, Pass);
        for (const std::string &Name : datasetNames()) {
          Graphs.push_back(buildGraph(Name, O.Seed));
          Edges += Graphs.back().numEdges();
        }
      }
      BuildSec = secondsSince(BuildStart);

      for (size_t I = 0; I < Ops.size(); ++I)
        Records.push_back(runOp(*W, Ops[I], Graphs[Ops[I].Dataset],
                                References[I / W->Policies.size()], Out, Log,
                                NextOpId++, Pass));
      if (Log.Enabled)
        for (const std::string &K : W->Kernels)
          for (size_t D = 0; D < Graphs.size(); ++D) {
            uint64_t Id = NextOpId++;
            runShadow(*W, K, Graphs[D], Log, Id, Pass);
            Shadows += (Shadows.empty() ? "" : ", ") +
                       std::string("{\"op\": ") + std::to_string(Id) +
                       ", \"kernel\": \"" + K + "\", \"dataset\": \"" +
                       datasetNames()[D] + "\"}";
          }
    }

    double SetupSec = BuildSec, WallSec = 0.0;
    for (const OpRecord &Rec : Records) {
      SetupSec += Rec.SetupSec;
      WallSec += Rec.WallSec;
    }
    std::printf("{\"type\": \"pass\", \"pass\": %u, \"traced\": %s, "
                "\"graph_build_s\": %.9f, \"edges\": %llu, "
                "\"setup_s\": %.9f, \"wall_s\": %.9f, \"ops\": [",
                Pass, Log.Enabled ? "true" : "false", BuildSec,
                static_cast<unsigned long long>(Edges), SetupSec, WallSec);
    for (size_t I = 0; I < Records.size(); ++I) {
      printOpRecord(Ops[I], Records[I]);
      std::printf("%s", I + 1 == Records.size() ? "" : ", ");
    }
    std::printf("], \"shadows\": [%s]}\n", Shadows.c_str());
    std::fflush(stdout);
  }

  std::string SpanPath;
  if (O.Trace) {
    SpanPath = O.OutDir + "/spans.json";
    if (!Log.write(SpanPath)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", SpanPath.c_str());
      return 1;
    }
  }
  std::printf("{\"type\": \"end\", \"peak_rss_bytes\": %llu, "
              "\"spans\": \"%s\"}\n",
              static_cast<unsigned long long>(support::peakRssBytes()),
              SpanPath.c_str());
  return 0;
}

// Crash-consistency proof for the write-ahead journal: for every scheduler
// (sync bracket, async bracket, batch BO) with fault injection off and on,
// a journaled run is snapshot-killed after *every* journal record, resumed
// with a freshly built identical configuration, and the resumed run must be
// bit-identical to the uninterrupted one — same RunResultDigest, same final
// journal byte stream. Torn tails, fingerprint mismatches, configuration
// divergence, and the store-recovery path are covered alongside.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocator/fidelity_weights.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/hyper_tune.h"
#include "src/core/run_recovery.h"
#include "src/core/tuner.h"
#include "src/obs/observability.h"
#include "src/optimizer/bo_sampler.h"
#include "src/optimizer/random_sampler.h"
#include "src/problems/counting_ones.h"
#include "src/runtime/journal.h"
#include "src/runtime/scheduler_contract.h"
#include "src/runtime/simulated_cluster.h"
#include "src/runtime/store_io.h"
#include "src/scheduler/async_bracket_scheduler.h"
#include "src/scheduler/batch_bo_scheduler.h"
#include "src/scheduler/sync_bracket_scheduler.h"

namespace hypertune {
namespace {

enum class Sched { kSync, kAsync, kBatchBo, kAsyncBo, kLearnedBo };

const char* SchedName(Sched which) {
  switch (which) {
    case Sched::kSync:
      return "sync";
    case Sched::kAsync:
      return "async";
    case Sched::kBatchBo:
      return "batch_bo";
    case Sched::kAsyncBo:
      return "async_bo";
    case Sched::kLearnedBo:
      return "learned_bo";
  }
  return "?";
}

/// One run's worth of freshly constructed tuning state. The problem owns
/// the configuration space the sampler and schedulers point into, so
/// everything lives together and a new RunSetup is a bit-exact clean slate.
struct RunSetup {
  CountingOnes problem;
  std::unique_ptr<MeasurementStore> store;
  std::unique_ptr<Sampler> sampler;
  std::unique_ptr<FidelityWeights> weights;  // kLearnedBo only
  std::unique_ptr<SchedulerInterface> scheduler;
};

ResourceLadder TestLadder() {
  ResourceLadder ladder;
  ladder.eta = 3.0;
  ladder.num_levels = 3;
  ladder.max_resource = 729.0;
  return ladder;
}

std::unique_ptr<RunSetup> MakeSetup(Sched which, uint64_t sampler_seed = 17) {
  auto setup = std::make_unique<RunSetup>();
  const int levels = which == Sched::kBatchBo ? 1 : 3;
  setup->store = std::make_unique<MeasurementStore>(levels);
  if (which == Sched::kAsyncBo || which == Sched::kLearnedBo) {
    // Model-based sampler: its RNG snapshots and its surrogate cache refits
    // from the restored store, so BO-backed schedulers checkpoint too.
    BoSamplerOptions bo;
    bo.seed = sampler_seed;
    setup->sampler = std::make_unique<BoSampler>(&setup->problem.space(),
                                                 setup->store.get(), bo);
  } else {
    setup->sampler = std::make_unique<RandomSampler>(
        &setup->problem.space(), setup->store.get(), sampler_seed);
  }
  switch (which) {
    case Sched::kSync: {
      BracketSchedulerOptions options;
      options.ladder = TestLadder();
      options.selector.policy = BracketPolicy::kRoundRobin;
      setup->scheduler = std::make_unique<SyncBracketScheduler>(
          &setup->problem.space(), setup->store.get(), setup->sampler.get(),
          nullptr, options);
      break;
    }
    case Sched::kAsync:
    case Sched::kAsyncBo: {
      BracketSchedulerOptions options;
      options.ladder = TestLadder();
      options.selector.policy = BracketPolicy::kRoundRobin;
      options.delayed_promotion = true;
      setup->scheduler = std::make_unique<AsyncBracketScheduler>(
          &setup->problem.space(), setup->store.get(), setup->sampler.get(),
          nullptr, options);
      break;
    }
    case Sched::kLearnedBo: {
      // The facade's "Hyper-Tune w/o MFES" shape: learned bracket selection
      // backed by FidelityWeights, whose refresh-lagged theta cache must
      // travel inside checkpoints for the fast path to stay bit-exact.
      FidelityWeightsOptions weight_options;
      weight_options.seed = sampler_seed + 0xF1DEULL;
      setup->weights = std::make_unique<FidelityWeights>(
          &setup->problem.space(), weight_options);
      BracketSchedulerOptions options;
      options.ladder = TestLadder();
      options.selector.policy = BracketPolicy::kLearned;
      options.selector.seed = sampler_seed + 0x5E1ECULL;
      options.delayed_promotion = true;
      setup->scheduler = std::make_unique<AsyncBracketScheduler>(
          &setup->problem.space(), setup->store.get(), setup->sampler.get(),
          setup->weights.get(), options);
      break;
    }
    case Sched::kBatchBo: {
      BatchBoSchedulerOptions options;
      options.synchronous = true;
      options.batch_size = 4;
      options.resource = 729.0;
      options.level = 1;
      setup->scheduler = std::make_unique<BatchBoScheduler>(
          setup->store.get(), setup->sampler.get(), options);
      break;
    }
  }
  return setup;
}

ClusterOptions MatrixCluster(bool with_faults) {
  ClusterOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 2500.0;
  options.seed = 42;
  options.straggler_sigma = with_faults ? 0.8 : 0.4;
  if (with_faults) {
    options.faults.crash_probability = 0.05;
    options.faults.timeout_seconds = 2000.0;
    options.faults.max_retries = 2;
    options.faults.retry_backoff_seconds = 5.0;
    options.faults.retry_jitter = 0.25;
    options.worker_faults.mttf_seconds = 800.0;
    options.worker_faults.mttr_seconds = 150.0;
    options.worker_faults.permanent_death_probability = 0.1;
    options.worker_faults.quarantine_failures = 2;
    options.worker_faults.quarantine_seconds = 100.0;
    options.speculation.speculation_factor = 1.3;
    options.speculation.min_samples = 3;
  }
  return options;
}

/// A short checkpoint interval so the matrix also kills and resumes across
/// kCheckpoint records (default 64 would rarely fire in these short runs).
JournalOptions TestJournalOptions() {
  JournalOptions options;
  options.checkpoint_interval = 8;
  return options;
}

struct JournaledRun {
  RunResult result;
  uint64_t digest = 0;
  std::string journal_bytes;
};

JournaledRun RunToCompletion(Sched which, const ClusterOptions& options,
                             JournalOptions journal_options =
                                 TestJournalOptions()) {
  std::unique_ptr<RunSetup> setup = MakeSetup(which);
  std::unique_ptr<RunJournal> journal = RunJournal::CreateInMemory(
      ClusterFingerprint(options), journal_options);
  ClusterOptions journaled = options;
  journaled.journal = journal.get();
  SimulatedCluster cluster(journaled);
  JournaledRun run;
  run.result = cluster.Run(setup->scheduler.get(), setup->problem);
  EXPECT_TRUE(journal->ok()) << journal->status().ToString();
  run.digest = RunResultDigest(run.result);
  run.journal_bytes = journal->bytes();
  return run;
}

/// Byte offset of the end of record `k` (1-based count of whole records).
std::vector<size_t> RecordBoundaries(const std::string& journal_bytes) {
  RecordScan scan = ScanRecords(journal_bytes);
  EXPECT_TRUE(scan.tail.ok());
  std::vector<size_t> ends;
  size_t offset = 0;
  for (const std::string& record : scan.records) {
    offset += 8 + record.size();
    ends.push_back(offset);
  }
  return ends;
}

/// FNV-1a digest of a journal's bytes.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// The uninterrupted journal of each matrix leg, pinned. A resumed run is
/// compared with an uninterrupted run of the same build, so without these
/// a reordered or re-encoded record would go unnoticed.
uint64_t PinnedJournalDigest(Sched which, bool with_faults) {
  switch (which) {
    case Sched::kSync:
      return with_faults ? 12376663745276305059ULL : 8156825358656452862ULL;
    case Sched::kAsync:
      return with_faults ? 17985828634847714074ULL : 3823490973866004545ULL;
    case Sched::kBatchBo:
      return with_faults ? 10944510902378845517ULL : 15876918000412123528ULL;
    case Sched::kAsyncBo:
    case Sched::kLearnedBo:
      break;
  }
  return 0;
}

/// FNV-1a digest of a journal's event stream: every record but the run
/// header, each one framed, with a checkpoint reduced to its clock and
/// completion count. It pins what the journal records and when it
/// checkpoints, but not the header or the snapshot bytes.
uint64_t EventStreamDigest(const std::string& journal_bytes) {
  RecordScan scan = ScanRecords(journal_bytes);
  EXPECT_TRUE(scan.tail.ok());
  std::string stream;
  for (const std::string& record : scan.records) {
    JournalRecord type;
    EXPECT_TRUE(JournalRecordTypeOf(record, &type).ok());
    if (type == JournalRecord::kRunHeader) continue;
    if (type != JournalRecord::kCheckpoint) {
      AppendRecord(record, &stream);
      continue;
    }
    CheckpointRecord checkpoint;
    EXPECT_TRUE(DecodeCheckpointRecord(record, &checkpoint).ok());
    WireEncoder event;
    event.PutU8(static_cast<uint8_t>(JournalRecord::kCheckpoint));
    event.PutF64(checkpoint.now);
    event.PutI64(checkpoint.completions);
    AppendRecord(event.Release(), &stream);
  }
  return Fnv1a(stream);
}

/// The event stream of each matrix leg, pinned. Unlike the full-byte
/// digests above, these hold across changes to the snapshot encoding and
/// the header.
uint64_t PinnedEventStreamDigest(Sched which, bool with_faults) {
  switch (which) {
    case Sched::kSync:
      return with_faults ? 2170233761856394201ULL : 9637702260155526330ULL;
    case Sched::kAsync:
      return with_faults ? 5170448133529114471ULL : 11412306363699163898ULL;
    case Sched::kBatchBo:
      return with_faults ? 3605509860712071270ULL : 8655236786389974365ULL;
    case Sched::kAsyncBo:
    case Sched::kLearnedBo:
      break;
  }
  return 0;
}

TEST(JournalRecoveryTest, CrashPointMatrix) {
  for (Sched which : {Sched::kSync, Sched::kAsync, Sched::kBatchBo}) {
    for (bool with_faults : {false, true}) {
      SCOPED_TRACE(std::string(SchedName(which)) +
                   (with_faults ? "+faults" : ""));
      const ClusterOptions options = MatrixCluster(with_faults);
      const JournaledRun golden = RunToCompletion(which, options);
      ASSERT_FALSE(golden.result.history.trials().empty());
      if (with_faults) {
        // The matrix is only meaningful if the fault half actually
        // exercised the fault record types.
        EXPECT_GT(golden.result.failed_attempts, 0);
        EXPECT_GT(golden.result.worker_deaths, 0);
      }

      EXPECT_EQ(Fnv1a(golden.journal_bytes),
                PinnedJournalDigest(which, with_faults));
      EXPECT_EQ(EventStreamDigest(golden.journal_bytes),
                PinnedEventStreamDigest(which, with_faults));

      const std::vector<size_t> ends = RecordBoundaries(golden.journal_bytes);
      ASSERT_GT(ends.size(), 2u);
      // Kill after every journal record — from "header only" (a crash
      // before any work) through "complete journal" (a crash after the
      // run finished) — and resume each prefix to completion.
      for (size_t k = 1; k <= ends.size(); ++k) {
        const std::string prefix = golden.journal_bytes.substr(0, ends[k - 1]);
        std::unique_ptr<RunSetup> setup = MakeSetup(which);
        std::string final_journal;
        Result<RunResult> resumed = ResumeRunFromBytes(
            prefix, options, setup->scheduler.get(), setup->problem,
            TestJournalOptions(), &final_journal);
        ASSERT_TRUE(resumed.ok())
            << "kill after record " << k << ": " << resumed.status().ToString();
        EXPECT_EQ(RunResultDigest(*resumed), golden.digest)
            << "kill after record " << k;
        EXPECT_EQ(final_journal, golden.journal_bytes)
            << "kill after record " << k;
      }
    }
  }
}

/// Loaded-record indexes (and byte extents) of every kCheckpoint record.
struct CheckpointSite {
  size_t record_index = 0;  // index into ScanRecords().records
  size_t begin = 0;         // byte offset of the record's frame
  size_t end = 0;           // one past the frame's last byte
};

std::vector<CheckpointSite> CheckpointSites(const std::string& journal_bytes) {
  RecordScan scan = ScanRecords(journal_bytes);
  std::vector<CheckpointSite> sites;
  size_t offset = 0;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    const size_t frame = 8 + scan.records[i].size();
    JournalRecord type;
    if (JournalRecordTypeOf(scan.records[i], &type).ok() &&
        type == JournalRecord::kCheckpoint) {
      sites.push_back({i, offset, offset + frame});
    }
    offset += frame;
  }
  return sites;
}

/// True when a kCheckpoint record restores on a freshly built scheduler:
/// exactly the full images, since a delta applies only on top of the state
/// it extends.
bool IsFullImage(Sched which, const std::string& record) {
  CheckpointRecord rec;
  EXPECT_TRUE(DecodeCheckpointRecord(record, &rec).ok());
  std::unique_ptr<RunSetup> fresh = MakeSetup(which);
  WireDecoder dec(rec.snapshot);
  return fresh->scheduler->Restore(&dec).ok();
}

/// Whether each checkpoint of a journal is a full image.
std::vector<bool> FullImageFlags(Sched which,
                                 const std::string& journal_bytes) {
  RecordScan scan = ScanRecords(journal_bytes);
  std::vector<bool> full;
  for (const CheckpointSite& site : CheckpointSites(journal_bytes)) {
    full.push_back(IsFullImage(which, scan.records[site.record_index]));
  }
  return full;
}

/// Checkpoints every 2 completions, so short async runs write several full
/// images and chains of deltas between them.
JournalOptions ChainJournalOptions() {
  JournalOptions options = TestJournalOptions();
  options.checkpoint_interval = 2;
  return options;
}

TEST(JournalRecoveryTest, CheckpointFastPathMatchesFullReplayAtEveryCrashPoint) {
  // The acceptance matrix for the fast path: kill the driver after every
  // journal record and resume twice — once forced onto full replay, once
  // with the checkpoint fast path armed — and both must reproduce the
  // golden digest and the golden journal bytes. The fast path must also
  // actually engage (checkpoint restores > 0) once prefixes contain
  // checkpoints, or this test would pass vacuously. kAsyncBo runs the
  // matrix with a model-based sampler, so Restore also rebuilds a
  // surrogate-backed sampler mid-trajectory; kLearnedBo adds learned
  // bracket selection, so the FidelityWeights theta cache rides along too.
  for (Sched which : {Sched::kSync, Sched::kAsync, Sched::kBatchBo,
                      Sched::kAsyncBo, Sched::kLearnedBo}) {
    for (bool with_faults : {false, true}) {
      SCOPED_TRACE(std::string(SchedName(which)) +
                   (with_faults ? "+faults" : ""));
      const ClusterOptions options = MatrixCluster(with_faults);
      // Checkpoint every 2 completions so even the shortest configuration
      // (batch BO under faults) puts checkpoints in most kill prefixes.
      const JournalOptions journal_options = ChainJournalOptions();
      const JournaledRun golden =
          RunToCompletion(which, options, journal_options);
      const std::vector<size_t> ends = RecordBoundaries(golden.journal_bytes);
      ASSERT_GT(ends.size(), 2u);
      ASSERT_FALSE(CheckpointSites(golden.journal_bytes).empty())
          << "golden run wrote no checkpoints; shrink checkpoint_interval";
      const bool async = which == Sched::kAsync || which == Sched::kAsyncBo ||
                         which == Sched::kLearnedBo;
      if (async) {
        // The async scheduler writes deltas; without two full images and a
        // chain of two deltas the matrix would not exercise chain restores.
        int full_images = 0;
        int chain = 0;
        int longest_chain = 0;
        for (bool full : FullImageFlags(which, golden.journal_bytes)) {
          chain = full ? 0 : chain + 1;
          full_images += full ? 1 : 0;
          longest_chain = std::max(longest_chain, chain);
        }
        EXPECT_GE(full_images, 2);
        EXPECT_GE(longest_chain, 2);
      }

      int64_t engagements = 0;
      int64_t deltas_applied = 0;
      for (size_t k = 1; k <= ends.size(); ++k) {
        const std::string prefix = golden.journal_bytes.substr(0, ends[k - 1]);

        // Without a store, resume takes full replay.
        std::unique_ptr<RunSetup> slow_setup = MakeSetup(which);
        std::string slow_journal;
        Result<RunResult> replayed = ResumeRunFromBytes(
            prefix, options, slow_setup->scheduler.get(), slow_setup->problem,
            journal_options, &slow_journal);
        ASSERT_TRUE(replayed.ok())
            << "kill after record " << k << ": "
            << replayed.status().ToString();

        Observability sink;
        ClusterOptions observed = options;
        observed.obs.sink = &sink;
        std::unique_ptr<RunSetup> fast_setup = MakeSetup(which);
        ResumeOptions fast;
        fast.store = fast_setup->store.get();
        std::string fast_journal;
        Result<RunResult> resumed = ResumeRunFromBytes(
            prefix, observed, fast_setup->scheduler.get(),
            fast_setup->problem, journal_options, &fast_journal, fast);
        ASSERT_TRUE(resumed.ok())
            << "kill after record " << k << ": " << resumed.status().ToString();

        EXPECT_EQ(RunResultDigest(*replayed), golden.digest)
            << "full replay, kill after record " << k;
        EXPECT_EQ(RunResultDigest(*resumed), golden.digest)
            << "fast path, kill after record " << k;
        EXPECT_EQ(slow_journal, golden.journal_bytes)
            << "full replay, kill after record " << k;
        EXPECT_EQ(fast_journal, golden.journal_bytes)
            << "fast path, kill after record " << k;
        MetricsSnapshot metrics = sink.metrics.Snapshot();
        engagements += metrics.counters["journal.checkpoint_restored"];
        deltas_applied += metrics.counters["journal.checkpoint_deltas_applied"];
      }
      EXPECT_GT(engagements, 0);
      if (async) {
        EXPECT_GT(deltas_applied, 0);
      }
    }
  }
}

TEST(JournalRecoveryTest, FastPathFallsBackAcrossTornCheckpoint) {
  // Kill the driver mid-checkpoint-write: the journal ends with a partial
  // kCheckpoint frame. The CRC scan drops the torn record, and the fast
  // path restores the *previous* checkpoint instead — the resumed run is
  // still bit-identical to the uninterrupted one.
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden = RunToCompletion(Sched::kSync, options);
  const std::vector<CheckpointSite> sites =
      CheckpointSites(golden.journal_bytes);
  ASSERT_GE(sites.size(), 2u)
      << "need two checkpoints to prove the fallback; shrink the interval";
  const CheckpointSite& last = sites.back();
  // A clean prefix plus part of the final checkpoint's frame (header and a
  // slice of the snapshot — the write the crash interrupted).
  const std::string torn =
      golden.journal_bytes.substr(0, last.begin + (last.end - last.begin) / 2);

  Observability sink;
  ClusterOptions observed = options;
  observed.obs.sink = &sink;
  std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync);
  ResumeOptions resume;
  resume.store = setup->store.get();
  std::string final_journal;
  Result<RunResult> resumed =
      ResumeRunFromBytes(torn, observed, setup->scheduler.get(),
                         setup->problem, TestJournalOptions(), &final_journal,
                         resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(RunResultDigest(*resumed), golden.digest);
  EXPECT_EQ(final_journal, golden.journal_bytes);
  MetricsSnapshot metrics = sink.metrics.Snapshot();
  EXPECT_EQ(metrics.counters["journal.checkpoint_restored"], 1);
  EXPECT_EQ(metrics.counters["journal.torn_tail_records"], 1);
}

/// Rewrites the checkpoint at `site` so its embedded snapshot is the empty
/// string: the frame stays CRC-valid, but Restore() underflows immediately.
std::string CorruptCheckpointSnapshot(const std::string& journal_bytes,
                                      const CheckpointSite& site) {
  RecordScan scan = ScanRecords(journal_bytes);
  CheckpointRecord rec;
  EXPECT_TRUE(
      DecodeCheckpointRecord(scan.records[site.record_index], &rec).ok());
  WireEncoder payload;
  payload.PutU8(static_cast<uint8_t>(JournalRecord::kCheckpoint));
  payload.PutF64(rec.now);
  payload.PutI64(rec.completions);
  payload.PutString("");
  std::string corrupt = journal_bytes.substr(0, site.begin);
  AppendRecord(payload.Release(), &corrupt);
  corrupt.append(journal_bytes.substr(site.end));
  return corrupt;
}

TEST(JournalRecoveryTest, FastPathEchoesCorruptPrefixCheckpointVerbatim) {
  // A CRC-valid checkpoint whose snapshot rotted sits *before* the newest
  // (healthy) one. The fast path never decodes prefix checkpoints — it
  // echoes their stored bytes back through the verify compare — so resume
  // succeeds bit-identically. Full replay regenerates the true snapshot at
  // that record and rightly reports divergence: the fast path strictly
  // extends the set of journals that remain resumable.
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden = RunToCompletion(Sched::kSync, options);
  const std::vector<CheckpointSite> sites =
      CheckpointSites(golden.journal_bytes);
  ASSERT_GE(sites.size(), 2u)
      << "need two checkpoints; shrink the checkpoint interval";
  const std::string corrupt =
      CorruptCheckpointSnapshot(golden.journal_bytes, sites[sites.size() - 2]);

  {
    Observability sink;
    ClusterOptions observed = options;
    observed.obs.sink = &sink;
    std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync);
    ResumeOptions resume;
    resume.store = setup->store.get();
    std::string final_journal;
    Result<RunResult> resumed = ResumeRunFromBytes(
        corrupt, observed, setup->scheduler.get(), setup->problem,
        TestJournalOptions(), &final_journal, resume);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(RunResultDigest(*resumed), golden.digest);
    EXPECT_EQ(final_journal, corrupt);  // the echo preserves the stream as-is
    MetricsSnapshot metrics = sink.metrics.Snapshot();
    EXPECT_EQ(metrics.counters["journal.checkpoint_restored"], 1);
  }
  {
    std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync);
    Result<RunResult> replayed = ResumeRunFromBytes(
        corrupt, options, setup->scheduler.get(), setup->problem,
        TestJournalOptions());
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.status().code(), StatusCode::kDataLoss);
  }
}

TEST(JournalRecoveryTest, FastPathWalksBackPastCorruptNewestCheckpoint) {
  // When the *newest* checkpoint is the corrupt one, PlanFastPath's
  // Restore() attempt fails and it walks back to the previous checkpoint
  // (observable: the fast path still engages). The corrupt record now lies
  // in the live suffix, where nothing can regenerate its bytes — so resume
  // reports DataLoss at exactly that record. Divergence detection is
  // undiminished by the fast path.
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden = RunToCompletion(Sched::kSync, options);
  const std::vector<CheckpointSite> sites =
      CheckpointSites(golden.journal_bytes);
  ASSERT_GE(sites.size(), 2u);
  const std::string corrupt =
      CorruptCheckpointSnapshot(golden.journal_bytes, sites.back());

  Observability sink;
  ClusterOptions observed = options;
  observed.obs.sink = &sink;
  std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync);
  ResumeOptions resume;
  resume.store = setup->store.get();
  Result<RunResult> resumed = ResumeRunFromBytes(
      corrupt, observed, setup->scheduler.get(), setup->problem,
      TestJournalOptions(), nullptr, resume);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(resumed.status().message().find("diverged"), std::string::npos);
  MetricsSnapshot metrics = sink.metrics.Snapshot();
  EXPECT_EQ(metrics.counters["journal.checkpoint_restored"], 1);
}

/// A fast-path resume of `journal` on a fresh kAsync setup, with metrics.
struct FastResume {
  Result<RunResult> result = Status::Internal("unset");
  std::string final_journal;
  MetricsSnapshot metrics;
};

FastResume ResumeAsyncOnFastPath(const std::string& journal,
                                 const ClusterOptions& options) {
  Observability sink;
  ClusterOptions observed = options;
  observed.obs.sink = &sink;
  std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kAsync);
  ResumeOptions resume;
  resume.store = setup->store.get();
  FastResume out;
  out.result = ResumeRunFromBytes(journal, observed, setup->scheduler.get(),
                                  setup->problem, ChainJournalOptions(),
                                  &out.final_journal, resume);
  out.metrics = sink.metrics.Snapshot();
  return out;
}

/// Index into CheckpointSites() of the newest full image.
size_t NewestFullImage(const std::vector<bool>& full) {
  size_t newest = full.size();
  for (size_t i = 0; i < full.size(); ++i) {
    if (full[i]) newest = i;
  }
  return newest;
}

TEST(JournalRecoveryTest, FastPathResumesFromTheDeltaBeforeATornNewestDelta) {
  // The driver died while writing a delta. The CRC scan drops it, and the
  // chain ends at the delta before it.
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden =
      RunToCompletion(Sched::kAsync, options, ChainJournalOptions());
  const std::vector<CheckpointSite> sites =
      CheckpointSites(golden.journal_bytes);
  const std::vector<bool> full =
      FullImageFlags(Sched::kAsync, golden.journal_bytes);
  ASSERT_GE(sites.size(), 3u);
  ASSERT_FALSE(full[full.size() - 1]);
  ASSERT_FALSE(full[full.size() - 2]) << "the predecessor must be a delta too";
  const CheckpointSite& last = sites.back();
  const std::string torn =
      golden.journal_bytes.substr(0, last.begin + (last.end - last.begin) / 2);

  FastResume resumed = ResumeAsyncOnFastPath(torn, options);
  ASSERT_TRUE(resumed.result.ok()) << resumed.result.status().ToString();
  EXPECT_EQ(RunResultDigest(*resumed.result), golden.digest);
  EXPECT_EQ(resumed.final_journal, golden.journal_bytes);
  EXPECT_EQ(resumed.metrics.counters["journal.torn_tail_records"], 1);
  EXPECT_EQ(resumed.metrics.counters["journal.checkpoint_restored"], 1);
  const size_t newest_full = NewestFullImage(full);
  EXPECT_EQ(resumed.metrics.counters["journal.checkpoint_deltas_applied"],
            static_cast<int64_t>(sites.size() - 2 - newest_full));
  EXPECT_EQ(resumed.metrics.counters["journal.replayed_suffix_records"],
            static_cast<int64_t>(last.record_index -
                                 sites[sites.size() - 2].record_index - 1));
}

TEST(JournalRecoveryTest, FastPathFailsAtACorruptDeltaInTheNewestChain) {
  // A CRC-valid delta that does not restore, inside the newest chain: the
  // chain ends before it, and the run regenerates the true delta at that
  // record, so the resume fails there, as full replay does.
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden =
      RunToCompletion(Sched::kAsync, options, ChainJournalOptions());
  const std::vector<CheckpointSite> sites =
      CheckpointSites(golden.journal_bytes);
  const size_t newest_full =
      NewestFullImage(FullImageFlags(Sched::kAsync, golden.journal_bytes));
  ASSERT_LT(newest_full + 3, sites.size())
      << "need a chain of three deltas after the newest full image";
  const CheckpointSite& bad = sites[newest_full + 2];
  const std::string corrupt =
      CorruptCheckpointSnapshot(golden.journal_bytes, bad);
  const std::string where =
      "diverged at record " + std::to_string(bad.record_index) + " ";

  FastResume resumed = ResumeAsyncOnFastPath(corrupt, options);
  ASSERT_FALSE(resumed.result.ok());
  EXPECT_EQ(resumed.result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(resumed.result.status().message().find(where), std::string::npos)
      << resumed.result.status().ToString();
  EXPECT_EQ(resumed.metrics.counters["journal.checkpoint_restored"], 1);
  EXPECT_EQ(resumed.metrics.counters["journal.checkpoint_deltas_applied"], 1);

  std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kAsync);
  Result<RunResult> replayed = ResumeRunFromBytes(
      corrupt, options, setup->scheduler.get(), setup->problem,
      ChainJournalOptions());
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(replayed.status().message().find(where), std::string::npos)
      << replayed.status().ToString();
}

TEST(JournalRecoveryTest, FastPathEchoesCorruptCheckpointBeforeNewestFullImage) {
  // The chain restored starts at the newest full image, so a rotten
  // checkpoint before it is never decoded, only echoed.
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden =
      RunToCompletion(Sched::kAsync, options, ChainJournalOptions());
  const std::vector<CheckpointSite> sites =
      CheckpointSites(golden.journal_bytes);
  const size_t newest_full =
      NewestFullImage(FullImageFlags(Sched::kAsync, golden.journal_bytes));
  ASSERT_GT(newest_full, 0u);
  ASSERT_LT(newest_full, sites.size());
  const std::string corrupt =
      CorruptCheckpointSnapshot(golden.journal_bytes, sites[newest_full - 1]);

  FastResume resumed = ResumeAsyncOnFastPath(corrupt, options);
  ASSERT_TRUE(resumed.result.ok()) << resumed.result.status().ToString();
  EXPECT_EQ(RunResultDigest(*resumed.result), golden.digest);
  EXPECT_EQ(resumed.final_journal, corrupt);
  EXPECT_EQ(resumed.metrics.counters["journal.checkpoint_restored"], 1);
}

TEST(JournalRecoveryTest, FsyncPolicyCountsBarriersAndSurvivesTruncation) {
  // Each policy issues its documented number of fsync barriers, and a crash
  // that tears the on-disk tail still resumes bit-identically under every
  // policy (the CRC scan truncates whatever suffix the page cache lost).
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden = RunToCompletion(Sched::kSync, options);

  for (FsyncPolicy policy :
       {FsyncPolicy::kNone, FsyncPolicy::kOnCheckpoint,
        FsyncPolicy::kEveryRecord}) {
    SCOPED_TRACE(static_cast<int>(policy));
    JournalOptions journal_options = TestJournalOptions();
    journal_options.fsync_policy = policy;
    const std::string path = testing::TempDir() + "/journal_fsync_" +
                             std::to_string(static_cast<int>(policy)) +
                             ".journal";

    std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync);
    Result<std::unique_ptr<RunJournal>> created = RunJournal::Create(
        path, ClusterFingerprint(options), journal_options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    RunJournal* journal = created->get();
    ClusterOptions journaled = options;
    journaled.journal = journal;
    SimulatedCluster cluster(journaled);
    RunResult result = cluster.Run(setup->scheduler.get(), setup->problem);
    ASSERT_TRUE(journal->ok()) << journal->status().ToString();
    EXPECT_EQ(RunResultDigest(result), golden.digest);

    switch (policy) {
      case FsyncPolicy::kNone:
        EXPECT_EQ(journal->fsyncs(), 0);
        break;
      case FsyncPolicy::kOnCheckpoint:
        // One barrier per checkpoint plus one for the kRunEnd seal.
        ASSERT_GT(journal->checkpoints_emitted(), 0);
        EXPECT_EQ(journal->fsyncs(), journal->checkpoints_emitted() + 1);
        break;
      case FsyncPolicy::kEveryRecord:
        EXPECT_EQ(journal->fsyncs(), journal->records_appended());
        break;
    }
    created->reset();  // close the file

    // Crash: the tail the OS never persisted is gone and the last write is
    // torn. Resume must truncate and re-execute to the same digest.
    const std::vector<size_t> ends = RecordBoundaries(golden.journal_bytes);
    ASSERT_GT(ends.size(), 4u);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(golden.journal_bytes.data(),
                static_cast<std::streamsize>(ends[ends.size() / 2] + 3));
    }
    std::unique_ptr<RunSetup> resumed_setup = MakeSetup(Sched::kSync);
    Result<RunResult> resumed =
        ResumeRun(path, options, resumed_setup->scheduler.get(),
                  resumed_setup->problem, journal_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(RunResultDigest(*resumed), golden.digest);
    std::remove(path.c_str());
  }
}

TEST(JournalRecoveryTest, JournalingIsInvisibleToTheRun) {
  // Journal-on and journal-off runs of the same configuration must be
  // bit-identical: the hooks consume no randomness and perturb no decision.
  for (bool with_faults : {false, true}) {
    const ClusterOptions options = MatrixCluster(with_faults);
    const JournaledRun journaled = RunToCompletion(Sched::kSync, options);
    std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync);
    SimulatedCluster cluster(options);
    RunResult bare = cluster.Run(setup->scheduler.get(), setup->problem);
    EXPECT_EQ(RunResultDigest(bare), journaled.digest);
  }
}

TEST(JournalRecoveryTest, TornTailIsDroppedCountedAndRecovered) {
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden = RunToCompletion(Sched::kSync, options);
  const std::vector<size_t> ends = RecordBoundaries(golden.journal_bytes);
  ASSERT_GT(ends.size(), 3u);
  // Tear the journal mid-record: a clean prefix plus 5 bytes of the next
  // frame, as if the driver died inside a write.
  const size_t clean = ends[ends.size() - 3];
  std::string torn = golden.journal_bytes.substr(0, clean + 5);

  Observability sink;
  ObservabilityOptions obs;
  obs.sink = &sink;
  Result<std::unique_ptr<RunJournal>> reopened = RunJournal::ResumeFromBytes(
      torn, ClusterFingerprint(options), obs, TestJournalOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->records_dropped(), 1);
  EXPECT_EQ((*reopened)->bytes_dropped(), 5);
  MetricsSnapshot metrics = sink.metrics.Snapshot();
  EXPECT_EQ(metrics.counters["journal.torn_tail_records"], 1);
  EXPECT_EQ(metrics.counters["journal.torn_tail_bytes"], 5);
  bool saw_torn_tail_event = false;
  for (const TraceEvent& event : sink.trace.Snapshot()) {
    if (event.kind == TraceKind::kJournalTornTail) saw_torn_tail_event = true;
  }
  EXPECT_TRUE(saw_torn_tail_event);

  // The resumed run still reproduces the uninterrupted one exactly: the
  // torn suffix — and only the torn suffix — was lost, and re-execution
  // regenerates it.
  std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync);
  std::string final_journal;
  Result<RunResult> resumed =
      ResumeRunFromBytes(torn, options, setup->scheduler.get(),
                         setup->problem, TestJournalOptions(), &final_journal);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(RunResultDigest(*resumed), golden.digest);
  EXPECT_EQ(final_journal, golden.journal_bytes);
}

TEST(JournalRecoveryTest, CorruptedLastRecordIsDroppedByCrc) {
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden = RunToCompletion(Sched::kSync, options);
  // Flip one payload bit inside the final record; the CRC must reject it
  // and recovery must treat it exactly like a torn tail.
  std::string corrupt = golden.journal_bytes;
  corrupt[corrupt.size() - 1] = static_cast<char>(corrupt.back() ^ 0x10);
  std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync);
  std::string final_journal;
  Result<RunResult> resumed = ResumeRunFromBytes(
      corrupt, options, setup->scheduler.get(), setup->problem,
      TestJournalOptions(), &final_journal);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(RunResultDigest(*resumed), golden.digest);
  EXPECT_EQ(final_journal, golden.journal_bytes);
}

TEST(JournalRecoveryTest, FingerprintMismatchIsRejected) {
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden = RunToCompletion(Sched::kSync, options);
  ClusterOptions other = options;
  other.seed = 43;
  std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync);
  Result<RunResult> resumed =
      ResumeRunFromBytes(golden.journal_bytes, other, setup->scheduler.get(),
                         setup->problem, TestJournalOptions());
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(JournalRecoveryTest, SchedulerDivergenceIsDataLoss) {
  // The cluster fingerprint cannot see inside the scheduler, so resuming
  // with a differently seeded sampler passes the header check — and must
  // then be caught by replay verification at the first diverging record.
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden = RunToCompletion(Sched::kSync, options);
  std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync, /*sampler_seed=*/18);
  Result<RunResult> resumed =
      ResumeRunFromBytes(golden.journal_bytes, options, setup->scheduler.get(),
                         setup->problem, TestJournalOptions());
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(resumed.status().message().find("diverged"), std::string::npos);
}

TEST(JournalRecoveryTest, MalformedJournalsAreRejectedCleanly) {
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync);
  {
    // Empty stream: nothing to resume from.
    Result<RunResult> resumed =
        ResumeRunFromBytes("", options, setup->scheduler.get(),
                           setup->problem, TestJournalOptions());
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
  }
  {
    // First record is not a run header.
    std::string stream;
    WireEncoder enc;
    enc.PutU8(static_cast<uint8_t>(JournalRecord::kAbandon));
    enc.PutF64(0.0);
    enc.PutI64(1);
    enc.PutI32(1);
    AppendRecord(enc.Release(), &stream);
    Result<std::unique_ptr<RunJournal>> journal = RunJournal::ResumeFromBytes(
        stream, ClusterFingerprint(options), {}, TestJournalOptions());
    ASSERT_FALSE(journal.ok());
    EXPECT_EQ(journal.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // A header from a future journal format version.
    std::string stream;
    WireEncoder enc;
    enc.PutU8(static_cast<uint8_t>(JournalRecord::kRunHeader));
    enc.PutU32(kJournalFormatVersion + 1);
    enc.PutU64(ClusterFingerprint(options));
    AppendRecord(enc.Release(), &stream);
    Result<std::unique_ptr<RunJournal>> journal = RunJournal::ResumeFromBytes(
        stream, ClusterFingerprint(options), {}, TestJournalOptions());
    ASSERT_FALSE(journal.ok());
    EXPECT_EQ(journal.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(journal.status().message().find("newer wire format"),
              std::string::npos);
  }
  for (uint32_t version : {1u, 2u, 3u, 4u}) {
    // An older header: version 1 checkpoints predate deltas, version 2 ones
    // encode full images apart from deltas, version 3 ones write Rng state
    // as text, and version 4 async ones carry an in-flight section.
    std::string stream;
    WireEncoder enc;
    enc.PutU8(static_cast<uint8_t>(JournalRecord::kRunHeader));
    enc.PutU32(version);
    enc.PutU64(ClusterFingerprint(options));
    AppendRecord(enc.Release(), &stream);
    Result<RunResult> resumed =
        ResumeRunFromBytes(stream, options, setup->scheduler.get(),
                           setup->problem, TestJournalOptions());
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
    const std::string& message = resumed.status().message();
    EXPECT_NE(message.find("version " + std::to_string(version) + " "),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("version " + std::to_string(kJournalFormatVersion)),
              std::string::npos)
        << message;
  }
}

TEST(JournalRecoveryTest, SchedulerSnapshotsRoundTripByteExactly) {
  // Snapshot → Restore into a fresh scheduler → Snapshot must reproduce
  // the exact bytes, and both schedulers must then mint the same next job.
  for (Sched which : {Sched::kSync, Sched::kAsync, Sched::kBatchBo}) {
    SCOPED_TRACE(SchedName(which));
    const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
    std::unique_ptr<RunSetup> original = MakeSetup(which);
    SimulatedCluster cluster(options);
    (void)cluster.Run(original->scheduler.get(), original->problem);

    WireEncoder snapshot;
    ASSERT_TRUE(original->scheduler->Snapshot(&snapshot).ok());

    std::unique_ptr<RunSetup> restored = MakeSetup(which);
    // The measurement store is persisted separately (store_io); mirror it
    // by hand so sampler-visible state matches the snapshot's premise.
    for (int level = 1; level <= original->store->num_levels(); ++level) {
      for (const Measurement& m : original->store->group(level)) {
        restored->store->Add(level, m.config, m.objective);
      }
    }
    WireDecoder dec(snapshot.bytes());
    ASSERT_TRUE(restored->scheduler->Restore(&dec).ok());
    ASSERT_TRUE(dec.AtEnd());

    WireEncoder again;
    ASSERT_TRUE(restored->scheduler->Snapshot(&again).ok());
    EXPECT_EQ(snapshot.bytes(), again.bytes());

    std::optional<Job> next_original = original->scheduler->NextJob();
    std::optional<Job> next_restored = restored->scheduler->NextJob();
    ASSERT_EQ(next_original.has_value(), next_restored.has_value());
    if (next_original.has_value()) {
      EXPECT_EQ(next_original->job_id, next_restored->job_id);
      EXPECT_EQ(next_original->level, next_restored->level);
      ASSERT_EQ(next_original->config.size(), next_restored->config.size());
      for (size_t d = 0; d < next_original->config.size(); ++d) {
        EXPECT_EQ(next_original->config[d], next_restored->config[d]);
      }
    }
  }
}

std::string FullImage(const SchedulerInterface& scheduler) {
  WireEncoder enc;
  EXPECT_TRUE(scheduler.Snapshot(&enc).ok());
  return enc.Release();
}

/// An async scheduler's full image mid-run, and its delta against that
/// image after `steps` more jobs were issued and completed.
struct FullAndDelta {
  std::unique_ptr<RunSetup> original;
  std::string full;
  std::string delta;
};

/// A `which` setup after a run cut at `max_trials`.
std::unique_ptr<RunSetup> ShortRun(Sched which, int64_t max_trials) {
  std::unique_ptr<RunSetup> setup = MakeSetup(which);
  ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  options.max_trials = max_trials;
  SimulatedCluster cluster(options);
  (void)cluster.Run(setup->scheduler.get(), setup->problem);
  return setup;
}

FullAndDelta MakeFullAndDelta(int steps) {
  FullAndDelta out;
  out.original = ShortRun(Sched::kAsync, /*max_trials=*/30);
  SchedulerInterface* scheduler = out.original->scheduler.get();
  out.full = FullImage(*scheduler);
  for (int i = 0; i < steps; ++i) {
    std::optional<Job> job = scheduler->NextJob();
    EXPECT_TRUE(job.has_value());
    if (!job.has_value()) break;
    EvalResult result;
    result.objective =
        out.original->problem.Evaluate(job->config, job->resource, 7).objective;
    scheduler->OnJobComplete(*job, result);
  }
  WireEncoder delta;
  delta.set_snapshot_base(&out.full);
  EXPECT_TRUE(scheduler->Snapshot(&delta).ok());
  out.delta = delta.Release();
  return out;
}

TEST(JournalRecoveryTest, FullImagePlusDeltaRestoresTheSameScheduler) {
  FullAndDelta images = MakeFullAndDelta(/*steps=*/40);
  const RunSetup& original = *images.original;
  // A delta does not restore on a fresh scheduler.
  WireDecoder on_fresh(images.delta);
  EXPECT_EQ(MakeSetup(Sched::kAsync)->scheduler->Restore(&on_fresh).code(),
            StatusCode::kFailedPrecondition);

  std::unique_ptr<RunSetup> restored = MakeSetup(Sched::kAsync);
  for (int level = 1; level <= original.store->num_levels(); ++level) {
    for (const Measurement& m : original.store->group(level)) {
      restored->store->Add(level, m.config, m.objective);
    }
    for (const Configuration& config : original.store->PendingConfigs(level)) {
      restored->store->AddPending(config, level);
    }
  }
  WireDecoder full(images.full);
  ASSERT_TRUE(restored->scheduler->Restore(&full).ok());
  WireDecoder delta(images.delta);
  ASSERT_TRUE(restored->scheduler->Restore(&delta).ok());
  EXPECT_TRUE(delta.AtEnd());
  // The delta extends the full image's state only once.
  WireDecoder again(images.delta);
  EXPECT_EQ(restored->scheduler->Restore(&again).code(),
            StatusCode::kFailedPrecondition);

  EXPECT_EQ(FullImage(*restored->scheduler), FullImage(*original.scheduler));
  std::optional<Job> next_original = original.scheduler->NextJob();
  std::optional<Job> next_restored = restored->scheduler->NextJob();
  ASSERT_TRUE(next_original.has_value() && next_restored.has_value());
  EXPECT_EQ(next_original->job_id, next_restored->job_id);
  EXPECT_EQ(next_original->level, next_restored->level);
  EXPECT_EQ(next_original->bracket, next_restored->bracket);
  ASSERT_EQ(next_original->config.size(), next_restored->config.size());
  for (size_t d = 0; d < next_original->config.size(); ++d) {
    EXPECT_EQ(next_original->config[d], next_restored->config[d]);
  }
}

/// Length of a snapshot's scheduler-owned bytes: everything before the
/// selector's state (the sampler's, for batch BO), which starts with the
/// first length-prefixed string that restores as Rng state.
size_t OwnedPrefix(const std::string& snapshot) {
  for (size_t at = 0; at < snapshot.size(); ++at) {
    WireDecoder dec(snapshot.data() + at, snapshot.size() - at);
    std::string state;
    Rng rng(0);
    if (dec.GetString(&state).ok() && rng.DeserializeState(state).ok()) {
      return at;
    }
  }
  ADD_FAILURE() << "no Rng state in the snapshot";
  return 0;
}

/// Restores every truncation and every single-bit flip of the first
/// `fuzzed` bytes of `input` onto a `which` scheduler in the state `base`
/// restores to on a fresh setup (a fresh one, when `base` is empty).
/// Nothing may crash (CI runs this under ASan+UBSan), a rejected input must
/// leave the scheduler's full image exactly as it was, and an accepted one
/// must pass CheckInvariants(); the slot then starts over from a fresh
/// setup. Nine restores per fuzzed byte add up to tens of thousands, so the
/// cases run on the shared pool with one scheduler per slot.
void FuzzRestore(Sched which, const std::string& base,
                 const std::string& input, size_t fuzzed) {
  struct Slot {
    std::unique_ptr<RunSetup> setup;
    int64_t rejected = 0;
    int64_t accepted = 0;
    std::vector<std::string> errors;
  };
  auto reset = [&](Slot* slot) {
    slot->setup = MakeSetup(which);
    WireDecoder dec(base);
    return base.empty() || slot->setup->scheduler->Restore(&dec).ok();
  };
  ThreadPool& pool = ThreadPool::Shared();
  std::vector<Slot> slots(pool.num_slots());
  for (Slot& slot : slots) ASSERT_TRUE(reset(&slot));
  const std::string image = FullImage(*slots[0].setup->scheduler);

  // Items [0, n) truncate the input to that many bytes; item n + b flips
  // each bit of byte b in turn.
  pool.ParallelFor(2 * fuzzed, [&](size_t s, size_t item) {
    Slot& slot = slots[s];
    // Returns whether the bytes were accepted.
    auto apply = [&](const char* data, size_t size, const std::string& what) {
      WireDecoder dec(data, size);
      if (slot.setup->scheduler->Restore(&dec).ok()) {
        ++slot.accepted;
        slot.setup->scheduler->CheckInvariants();
        if (!reset(&slot)) slot.errors.push_back(what + ": reset");
        return true;
      }
      ++slot.rejected;
      WireEncoder after;
      if (!slot.setup->scheduler->Snapshot(&after).ok() ||
          after.bytes() != image) {
        slot.errors.push_back(what + ": rejected, but the state changed");
      }
      return false;
    };
    if (item < fuzzed) {
      // Every truncation cuts off the end of the sampler's state, which
      // ends the input.
      const std::string what = "truncated to " + std::to_string(item);
      if (apply(input.data(), item, what)) {
        slot.errors.push_back(what + ": accepted");
      }
      return;
    }
    const size_t byte = item - fuzzed;
    std::string flipped = input;
    for (int bit = 0; bit < 8; ++bit) {
      flipped[byte] = static_cast<char>(input[byte] ^ (1 << bit));
      apply(flipped.data(), flipped.size(),
            "bit " + std::to_string(8 * byte + static_cast<size_t>(bit)));
    }
  });

  int64_t rejected = 0;
  int64_t accepted = 0;
  for (const Slot& slot : slots) {
    rejected += slot.rejected;
    accepted += slot.accepted;
    for (const std::string& error : slot.errors) ADD_FAILURE() << error;
  }
  EXPECT_GT(rejected, static_cast<int64_t>(fuzzed));
  EXPECT_GT(accepted, 0);
}

TEST(JournalRecoveryTest, CorruptDeltasAreRejectedWithoutSideEffects) {
  // One decoder serves every entry: a delta onto its base, and a full
  // image (async, sync, batch BO) onto a fresh scheduler. The delta is
  // fuzzed whole; the full images up to their selector and sampler state,
  // the Rng states the delta already covers.
  const FullAndDelta images = MakeFullAndDelta(/*steps=*/12);
  {
    SCOPED_TRACE("async delta");
    FuzzRestore(Sched::kAsync, images.full, images.delta,
                images.delta.size());
  }
  {
    SCOPED_TRACE("async full image");
    FuzzRestore(Sched::kAsync, "", images.full, OwnedPrefix(images.full));
  }
  {
    // Twelve trials complete bracket 1's first two rungs; the promotion to
    // its top rung waits in the sync queue.
    SCOPED_TRACE("sync image");
    const std::string image =
        FullImage(*ShortRun(Sched::kSync, /*max_trials=*/12)->scheduler);
    FuzzRestore(Sched::kSync, "", image, OwnedPrefix(image));
  }
  {
    SCOPED_TRACE("batch BO image");
    const std::string image =
        FullImage(*ShortRun(Sched::kBatchBo, /*max_trials=*/10)->scheduler);
    FuzzRestore(Sched::kBatchBo, "", image, OwnedPrefix(image));
  }
}

TEST(JournalRecoveryTest, ContractCheckerRefusesRestoreButForwardsSnapshot) {
  std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync);
  SchedulerContractChecker checker(setup->scheduler.get(), {});
  WireEncoder enc;
  EXPECT_TRUE(checker.Snapshot(&enc).ok());  // forwards to the wrapped one
  WireDecoder dec(enc.bytes());
  EXPECT_EQ(checker.Restore(&dec).code(), StatusCode::kFailedPrecondition);
}

TEST(JournalRecoveryTest, RecoverStoreFromJournalRebuildsMeasurements) {
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden = RunToCompletion(Sched::kSync, options);
  Result<std::unique_ptr<RunJournal>> journal = RunJournal::ResumeFromBytes(
      golden.journal_bytes, ClusterFingerprint(options), {},
      TestJournalOptions());
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  MeasurementStore store(3);
  ASSERT_TRUE(RecoverStoreFromJournal(**journal, &store).ok());
  size_t recovered = 0;
  for (int level = 1; level <= store.num_levels(); ++level) {
    recovered += store.group(level).size();
  }
  EXPECT_EQ(recovered, golden.result.history.trials().size());

  // A one-level store cannot hold level-3 completions.
  MeasurementStore shallow(1);
  EXPECT_EQ(RecoverStoreFromJournal(**journal, &shallow).code(),
            StatusCode::kInvalidArgument);
}

TEST(JournalRecoveryTest, FileBackedResumeTruncatesTornTailAndAppends) {
  const ClusterOptions options = MatrixCluster(/*with_faults=*/false);
  const JournaledRun golden = RunToCompletion(Sched::kSync, options);
  const std::vector<size_t> ends = RecordBoundaries(golden.journal_bytes);
  ASSERT_GT(ends.size(), 4u);

  const std::string path =
      testing::TempDir() + "/journal_recovery_torn.journal";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const size_t clean = ends[ends.size() / 2];
    out.write(golden.journal_bytes.data(),
              static_cast<std::streamsize>(clean));
    out.write("\x01\x02\x03", 3);  // the write the crash interrupted
  }

  std::unique_ptr<RunSetup> setup = MakeSetup(Sched::kSync);
  Result<RunResult> resumed = ResumeRun(path, options, setup->scheduler.get(),
                                        setup->problem, TestJournalOptions());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(RunResultDigest(*resumed), golden.digest);

  // The file was truncated past the torn bytes and extended to the full
  // journal, so a second crash-and-resume starts from a clean log.
  std::ifstream in(path, std::ios::binary);
  std::string on_disk((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, golden.journal_bytes);
  std::remove(path.c_str());

  // With the file gone, a resume fails at open and names the path.
  std::unique_ptr<RunSetup> fresh = MakeSetup(Sched::kSync);
  Result<RunResult> missing =
      ResumeRun(path, options, fresh->scheduler.get(), fresh->problem,
                TestJournalOptions());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find(path), std::string::npos)
      << missing.status().ToString();
}

TEST(JournalRecoveryTest, FailedFileWriteLatchesInternal) {
  // /dev/full fails every write with ENOSPC, starting with the header's.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Result<std::unique_ptr<RunJournal>> journal =
      RunJournal::Create("/dev/full", /*fingerprint=*/1, TestJournalOptions());
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kInternal);
  EXPECT_NE(journal.status().message().find("write to disk failed"),
            std::string::npos)
      << journal.status().message();
}

TEST(JournalRecoveryTest, HyperTuneFacadeWritesAndResumesJournal) {
  CountingOnes problem;
  HyperTuneOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 400.0;
  options.max_brackets = 3;
  options.seed = 7;
  options.journal_path = testing::TempDir() + "/hyper_tune_run.journal";

  TuningOutcome full = HyperTune::Optimize(problem, options);
  ASSERT_FALSE(full.run.history.trials().empty());
  const uint64_t full_digest = RunResultDigest(full.run);

  // Kill the run partway: keep a journal prefix, then resume.
  std::string journal_bytes;
  {
    std::ifstream in(options.journal_path, std::ios::binary);
    journal_bytes.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
  }
  const std::vector<size_t> ends = RecordBoundaries(journal_bytes);
  ASSERT_GT(ends.size(), 4u);
  {
    std::ofstream out(options.journal_path,
                      std::ios::binary | std::ios::trunc);
    out.write(journal_bytes.data(),
              static_cast<std::streamsize>(ends[ends.size() / 2]));
  }

  Result<TuningOutcome> resumed = HyperTune::Resume(problem, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(RunResultDigest(resumed->run), full_digest);
  EXPECT_EQ(resumed->best_objective, full.best_objective);
  std::remove(options.journal_path.c_str());

  HyperTuneOptions no_path = options;
  no_path.journal_path.clear();
  EXPECT_EQ(HyperTune::Resume(problem, no_path).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hypertune

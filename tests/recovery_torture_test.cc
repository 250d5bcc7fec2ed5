// Recovery torture test: randomized kill-points against the durable
// store. Each iteration forks a child that serves a deterministic update
// stream through UpdateService (small segments, aggressive auto-
// checkpointing) with one crash failpoint armed at a random hit count;
// the child dies mid-write, mid-rename, mid-compaction... wherever the
// die roll lands. The parent then recovers from whatever the child left
// on disk and asserts the recovered database is *identical* to a
// lockstep in-memory oracle — fact (ii) of the constant-complement
// framework says replaying the accepted prefix must reproduce the state
// bit for bit, no matter where the power went out.
//
// A second section runs the same discipline against the SHARDED write
// path (ShardedService, one data directory per shard); recovery must
// recompose per-shard oracle states. Both sections kill the child inside
// the commit path itself (before the append, before and after the cohort
// fsync).
//
// Environment knobs:
//   RELVIEW_TORTURE_ITERS  iterations (default 25; CI runs 200)
//   RELVIEW_TORTURE_DIR    base directory for the per-iteration stores
//                          (default: the test temp dir). A failing
//                          iteration's journal+checkpoint directory is
//                          kept and its path printed, so it can be
//                          uploaded as a CI artifact and replayed.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "service/update_service.h"
#include "shard/router.h"
#include "shard/sharded_service.h"
#include "util/failpoint.h"
#include "view/translator.h"

namespace relview {
namespace {

Tuple Row(std::initializer_list<uint32_t> consts) {
  std::vector<Value> vals;
  for (uint32_t c : consts) vals.push_back(Value::Const(c));
  return Tuple(std::move(vals));
}

/// A fresh Emp-Dept-Mgr translator bound to the canonical instance.
ViewTranslator MakeTranslator() {
  Universe u = Universe::Parse("Emp Dept Mgr").value();
  DependencySet sigma;
  sigma.fds = *FDSet::Parse(u, "Emp -> Dept; Dept -> Mgr");
  auto vt = ViewTranslator::Create(u, sigma, u.SetOf("Emp Dept"),
                                   u.SetOf("Dept Mgr"));
  EXPECT_TRUE(vt.ok()) << vt.status().ToString();
  Relation db(vt->universe().All());
  db.AddRow(Row({1, 10, 100}));
  db.AddRow(Row({2, 10, 100}));
  db.AddRow(Row({3, 20, 200}));
  EXPECT_TRUE(vt->Bind(std::move(db)).ok());
  return std::move(*vt);
}

/// The deterministic update stream for one iteration: a seeded mix of
/// inserts of fresh employees and deletes of earlier ones. std::mt19937
/// is bit-reproducible across platforms, so the child, the oracle and a
/// postmortem rerun all see the same list. Some deletes are
/// untranslatable (last employee of a department) — both the child and
/// the oracle reject exactly those, which is part of the point.
std::vector<ViewUpdate> MakeWorkload(uint32_t seed, int n) {
  std::mt19937 rng(seed);
  std::vector<std::pair<uint32_t, uint32_t>> live = {{1, 10}, {2, 10},
                                                     {3, 20}};
  uint32_t next_emp = 1000;
  std::vector<ViewUpdate> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (live.size() > 4 && rng() % 3 == 0) {
      const size_t k = rng() % live.size();
      out.push_back(ViewUpdate::Delete(Row({live[k].first, live[k].second})));
      live.erase(live.begin() + static_cast<ptrdiff_t>(k));
    } else {
      const uint32_t dept = rng() % 2 ? 10 : 20;
      out.push_back(ViewUpdate::Insert(Row({next_emp, dept})));
      live.emplace_back(next_emp, dept);
      ++next_emp;
    }
  }
  return out;
}

/// Replays the workload through a fresh translator until exactly `target`
/// updates have been accepted; returns the database at that point. This
/// is the oracle the recovered store must match.
Relation OracleAfter(const std::vector<ViewUpdate>& workload,
                     uint64_t target, uint64_t* accepted_out) {
  ViewTranslator vt = MakeTranslator();
  uint64_t accepted = 0;
  for (const ViewUpdate& u : workload) {
    if (accepted == target) break;
    Status st = u.kind == UpdateKind::kInsert ? vt.Insert(u.t1)
                                              : vt.Delete(u.t1);
    if (st.ok()) ++accepted;
  }
  *accepted_out = accepted;
  return vt.database();
}

/// Every site a child may be killed at, plus one silent-corruption mode
/// ("checkpoint.flip" never crashes: the child finishes cleanly and
/// recovery must *detect* the damage and fall back).
struct KillPoint {
  const char* name;
  const char* action;
};
constexpr KillPoint kKillPoints[] = {
    {"commit.crash_before_append", "crash"},
    {"journal.crash_after_write", "crash"},
    {"commit.crash_before_sync", "crash"},
    {"commit.crash_after_sync", "crash"},
    {"checkpoint.crash_before_rename", "crash"},
    {"checkpoint.crash_after_rename", "crash"},
    {"compact.crash_mid_delete", "crash"},
    {"checkpoint.flip", "flip:2"},
};

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : fallback;
}

TEST(RecoveryTortureTest, RandomizedKillPointsRecoverToOracle) {
  const int iters = EnvInt("RELVIEW_TORTURE_ITERS", 25);
  const char* base_env = std::getenv("RELVIEW_TORTURE_DIR");
  const std::string base =
      base_env != nullptr && *base_env != '\0'
          ? std::string(base_env)
          : ::testing::TempDir() + "recovery_torture";
  std::filesystem::create_directories(base);
  constexpr int kUpdates = 60;

  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const std::string dir = base + "/iter_" + std::to_string(iter);
    std::filesystem::remove_all(dir);

    // The iteration index seeds everything: the workload, the kill site
    // and the hit count it fires on. Rerunning a failing iteration
    // reproduces its exact crash.
    std::mt19937 dice(0x7040u + static_cast<uint32_t>(iter));
    const std::vector<ViewUpdate> workload =
        MakeWorkload(static_cast<uint32_t>(iter), kUpdates);
    const KillPoint kp =
        kKillPoints[dice() % (sizeof(kKillPoints) / sizeof(kKillPoints[0]))];
    const uint32_t nth = 1 + dice() % 12;
    const std::string spec = std::string(kp.action) +
                             (std::string(kp.action) == "crash"
                                  ? "@" + std::to_string(nth)
                                  : "");

    StoreOptions store;
    store.dir = dir;
    store.rotate_records = 7;
    store.checkpoint_every = 5;
    store.keep_checkpoints = 2;

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // ---- child: serve until the armed failpoint kills us (or the
      // workload runs dry). Plain _exit codes, no gtest machinery.
      if (!Failpoints::Set(kp.name, spec).ok()) ::_exit(3);
      ViewTranslator vt = MakeTranslator();
      ServiceOptions opts;
      opts.store = store;
      auto service = UpdateService::Create(std::move(vt), opts);
      if (!service.ok()) ::_exit(5);
      for (const ViewUpdate& u : workload) {
        (void)(*service)->Apply(u);  // rejections are part of the stream
      }
      ::_exit(0);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus)) << "child did not exit normally";
    const int code = WEXITSTATUS(wstatus);
    ASSERT_TRUE(code == 0 || code == Failpoints::kCrashExitCode)
        << "child exited " << code << " (kill point " << kp.name << "@"
        << nth << ")";

    // ---- parent: recover from whatever is on disk.
    ViewTranslator vt = MakeTranslator();
    ServiceOptions opts;
    opts.store = store;
    auto service = UpdateService::Create(std::move(vt), opts);
    ASSERT_TRUE(service.ok())
        << "recovery failed after " << kp.name << "@" << nth << ": "
        << service.status().ToString() << "\nstore kept at " << dir;
    const RecoveryInfo& info = (*service)->store()->recovery();

    // Compaction soundness: the durable suffix past the checkpoint was
    // replayable — the store never reached past its newest checkpoint.
    EXPECT_GE(info.recovered_seq, (*service)->store()->last_checkpoint_seq());

    // The recovered database must equal the oracle at recovered_seq.
    uint64_t oracle_accepted = 0;
    const Relation oracle =
        OracleAfter(workload, info.recovered_seq, &oracle_accepted);
    ASSERT_EQ(oracle_accepted, info.recovered_seq)
        << "journal holds more accepted updates than the workload can "
        << "explain; store kept at " << dir;
    const ViewSnapshot snap = (*service)->Snapshot();
    ASSERT_TRUE(snap.database->SameAs(oracle))
        << "recovered state diverges from the oracle after " << kp.name
        << "@" << nth << " (recovered_seq " << info.recovered_seq
        << ", replayed " << info.replayed << ", ckpt "
        << info.checkpoint_seq << ")\nstore kept at " << dir;

    // The recovered service must be live: accept one more update and
    // advance the durable sequence number.
    const uint64_t before = (*service)->store()->seq();
    const uint32_t fresh_emp = 90000 + static_cast<uint32_t>(iter);
    ASSERT_TRUE((*service)->Apply(ViewUpdate::Insert(Row({fresh_emp, 10})))
                    .ok());
    EXPECT_EQ((*service)->store()->seq(), before + 1);

    if (!::testing::Test::HasFailure()) {
      std::filesystem::remove_all(dir);
    } else {
      std::fprintf(stderr,
                   "relview torture: iteration %d FAILED; artifacts kept "
                   "at %s\n",
                   iter, dir.c_str());
      break;
    }
  }
}

// ---------------------------------------------------------------------
// Sharded variant: the same randomized-kill discipline against a
// ShardedService — N data directories, one journal per shard, crash sites
// including the commit queue's own failpoints (unsynced append,
// before/after the cohort fsync). The recovered COMPOSITE state must
// match a per-shard lockstep oracle: the router is deterministic, so each
// shard's accepted prefix is exactly the shard-routed sub-stream replayed
// to that shard's recovered_seq.
// ---------------------------------------------------------------------

/// The canonical schema pieces shared by the sharded child and oracle.
struct ShardedFixture {
  Universe u;
  DependencySet sigma;
  AttrSet x;
  AttrSet y;
  Relation seed;

  ShardedFixture()
      : u(Universe::Parse("Emp Dept Mgr").value()),
        x(u.SetOf("Emp Dept")),
        y(u.SetOf("Dept Mgr")),
        seed(u.All()) {
    sigma.fds = *FDSet::Parse(u, "Emp -> Dept; Dept -> Mgr");
    seed.AddRow(Row({1, 10, 100}));
    seed.AddRow(Row({2, 10, 100}));
    seed.AddRow(Row({3, 20, 200}));
    seed.AddRow(Row({4, 30, 300}));
    seed.AddRow(Row({5, 30, 300}));
  }
};

/// Shard `shard`'s lockstep oracle: a translator over the router-selected
/// slice of the seed, replaying the shard-routed sub-stream until exactly
/// `target` updates have been accepted shard-locally.
Relation ShardOracleAfter(const ShardedFixture& f, const ShardRouter& router,
                          int shard, const std::vector<ViewUpdate>& workload,
                          uint64_t target, uint64_t* accepted_out) {
  auto vt = ViewTranslator::Create(f.u, f.sigma, f.x, f.y);
  EXPECT_TRUE(vt.ok());
  Relation db(f.u.All());
  for (const Tuple& row : f.seed.rows()) {
    if (router.ShardOfBase(row) == shard) db.AddRow(row);
  }
  EXPECT_TRUE(vt->Bind(std::move(db)).ok());
  uint64_t accepted = 0;
  for (const ViewUpdate& u : workload) {
    if (accepted == target) break;
    if (router.ShardOfView(u.t1) != shard) continue;
    Status st = u.kind == UpdateKind::kInsert ? vt->Insert(u.t1)
                                              : vt->Delete(u.t1);
    if (st.ok()) ++accepted;
  }
  *accepted_out = accepted;
  return vt->database();
}

/// Single-update translatable batches over the sharded seed: fresh
/// inserts into the seeded departments plus deletes of earlier inserts
/// (never a department's last member, so every shard-local verdict is
/// accept — the stream stays translatable end to end as the issue's
/// sharded torture spec requires).
std::vector<ViewUpdate> MakeShardedWorkload(uint32_t seed_val, int n) {
  std::mt19937 rng(seed_val);
  const uint32_t depts[] = {10, 20, 30};
  std::vector<std::pair<uint32_t, uint32_t>> inserted;
  uint32_t next_emp = 2000;
  std::vector<ViewUpdate> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (!inserted.empty() && rng() % 4 == 0) {
      const size_t k = rng() % inserted.size();
      out.push_back(
          ViewUpdate::Delete(Row({inserted[k].first, inserted[k].second})));
      inserted.erase(inserted.begin() + static_cast<ptrdiff_t>(k));
    } else {
      const uint32_t dept = depts[rng() % 3];
      out.push_back(ViewUpdate::Insert(Row({next_emp, dept})));
      inserted.emplace_back(next_emp, dept);
      ++next_emp;
    }
  }
  return out;
}

/// Kill sites for the sharded child: the commit queue's own failpoints
/// plus the shared journal/checkpoint sites underneath it.
constexpr KillPoint kShardedKillPoints[] = {
    {"commit.crash_before_append", "crash"},
    {"commit.crash_before_sync", "crash"},
    {"commit.crash_after_sync", "crash"},
    {"journal.crash_after_write", "crash"},
    {"checkpoint.crash_before_rename", "crash"},
};

TEST(RecoveryTortureTest, ShardedGroupCommitRecoversToPerShardOracles) {
  const int iters = EnvInt("RELVIEW_TORTURE_ITERS", 25);
  const char* base_env = std::getenv("RELVIEW_TORTURE_DIR");
  const std::string base =
      base_env != nullptr && *base_env != '\0'
          ? std::string(base_env) + "_sharded"
          : ::testing::TempDir() + "recovery_torture_sharded";
  std::filesystem::create_directories(base);
  constexpr int kUpdates = 60;
  constexpr int kShards = 3;

  ShardedFixture f;
  const ShardRouter router(f.u, f.x, f.y, kShards);
  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("sharded iteration " + std::to_string(iter));
    const std::string dir = base + "/iter_" + std::to_string(iter);
    std::filesystem::remove_all(dir);

    std::mt19937 dice(0x5a4du ^ static_cast<uint32_t>(iter));
    const std::vector<ViewUpdate> workload =
        MakeShardedWorkload(static_cast<uint32_t>(iter), kUpdates);
    const KillPoint kp = kShardedKillPoints[
        dice() % (sizeof(kShardedKillPoints) / sizeof(kShardedKillPoints[0]))];
    const uint32_t nth = 1 + dice() % 12;
    const std::string spec =
        std::string(kp.action) + "@" + std::to_string(nth);

    ShardedServiceOptions options;
    options.shards = kShards;
    options.store_root = dir;
    options.checkpoint_every = 5;
    options.rotate_records = 7;
    options.group_window_us = 100;

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // ---- child: apply single-update batches until the failpoint
      // kills us. Plain _exit codes, no gtest machinery.
      if (!Failpoints::Set(kp.name, spec).ok()) ::_exit(3);
      auto svc = ShardedService::Create(f.u, f.sigma, f.x, f.y, f.seed,
                                        options);
      if (!svc.ok()) ::_exit(5);
      for (const ViewUpdate& u : workload) {
        std::vector<ViewUpdate> batch{u};
        (void)(*svc)->ApplyBatch(batch);
      }
      ::_exit(0);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus)) << "child did not exit normally";
    const int code = WEXITSTATUS(wstatus);
    ASSERT_TRUE(code == 0 || code == Failpoints::kCrashExitCode)
        << "child exited " << code << " (kill point " << kp.name << "@"
        << nth << ")";

    // ---- parent: recover the composition from the N data directories.
    auto svc = ShardedService::Create(f.u, f.sigma, f.x, f.y, f.seed,
                                      options);
    ASSERT_TRUE(svc.ok())
        << "sharded recovery failed after " << kp.name << "@" << nth
        << ": " << svc.status().ToString() << "\nstores kept at " << dir;

    // Shard by shard: the recovered database equals the lockstep oracle
    // replayed to that shard's own recovered sequence number.
    for (int s = 0; s < (*svc)->shard_count(); ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      ASSERT_NE((*svc)->shard(s)->store(), nullptr);
      const RecoveryInfo& info = (*svc)->shard(s)->store()->recovery();
      uint64_t oracle_accepted = 0;
      const Relation oracle = ShardOracleAfter(
          f, router, s, workload, info.recovered_seq, &oracle_accepted);
      ASSERT_EQ(oracle_accepted, info.recovered_seq)
          << "shard journal holds more accepted updates than its "
          << "sub-stream can explain; stores kept at " << dir;
      const ViewSnapshot snap = (*svc)->shard(s)->Snapshot();
      ASSERT_TRUE(snap.database->SameAs(oracle))
          << "shard state diverges from its oracle after " << kp.name
          << "@" << nth << " (recovered_seq " << info.recovered_seq
          << ")\nstores kept at " << dir;
    }

    // Liveness: the recovered composition accepts a fresh batch and the
    // composite version advances.
    const uint64_t before = (*svc)->version();
    std::vector<ViewUpdate> fresh{ViewUpdate::Insert(
        Row({95000 + static_cast<uint32_t>(iter), 10}))};
    ASSERT_TRUE((*svc)->ApplyBatch(fresh).ok());
    EXPECT_EQ((*svc)->version(), before + 1);

    if (!::testing::Test::HasFailure()) {
      std::filesystem::remove_all(dir);
    } else {
      std::fprintf(stderr,
                   "relview sharded torture: iteration %d FAILED; "
                   "artifacts kept at %s\n",
                   iter, dir.c_str());
      break;
    }
  }
}

}  // namespace
}  // namespace relview

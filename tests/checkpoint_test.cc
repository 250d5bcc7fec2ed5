// Checkpoint and DurableStore tests: encode/write/read round trips,
// checksum and arity corruption detection, crash-atomicity of the
// tmp+rename protocol (fork'd children with crash failpoints armed), and
// the store-level invariants — rotation, checkpoint-bounded recovery,
// compaction never deleting a segment the checkpoint does not cover.

#include "service/checkpoint.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "service/recovery.h"
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

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "checkpoint_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
  }
  void TearDown() override {
    Failpoints::ClearAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  /// Applies `u` through the translator and journals it via the store —
  /// what UpdateService does under its writer mutex — then fsyncs it, as
  /// the commit leader would.
  static void ApplyAndAppend(ViewTranslator* vt, DurableStore* store,
                             const ViewUpdate& u) {
    Status st = u.kind == UpdateKind::kInsert ? vt->Insert(u.t1)
                : u.kind == UpdateKind::kDelete
                    ? vt->Delete(u.t1)
                    : vt->Replace(u.t1, u.t2);
    ASSERT_TRUE(st.ok()) << u.ToString() << ": " << st.ToString();
    ASSERT_TRUE(store->AppendUnsynced({u}).ok());
    ASSERT_TRUE(store->Sync().ok());
  }

  std::string dir_;
};

TEST_F(CheckpointTest, WriteReadRoundTrip) {
  ViewTranslator vt = MakeTranslator();
  const std::string path = Path("checkpoint-test.rvc");
  ASSERT_TRUE(WriteCheckpoint(path, vt.database(), 7).ok());
  auto back = ReadCheckpoint(path, vt.universe().All());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->seq, 7u);
  EXPECT_TRUE(back->database.SameAs(vt.database()));
}

TEST_F(CheckpointTest, ColumnarWriteReadRoundTrip) {
  ViewTranslator vt = MakeTranslator();
  const std::string path = Path("checkpoint-cols.rvc");
  ASSERT_TRUE(WriteCheckpoint(path, vt.database(), 9,
                              CheckpointFormat::kColumnar)
                  .ok());
  // Readers auto-detect the format from the magic: no format argument.
  auto back = ReadCheckpoint(path, vt.universe().All());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->seq, 9u);
  EXPECT_TRUE(back->database.SameAs(vt.database()));
  // The stored body really is dictionary pages, not rows of raw ids.
  std::ifstream in(path);
  std::string header, body_magic;
  ASSERT_TRUE(std::getline(in, header));
  in >> body_magic;
  EXPECT_EQ(header.substr(0, 7), "rvckpt2");
  EXPECT_EQ(body_magic, "rvcols1");
}

TEST_F(CheckpointTest, ColumnarRoundTripPreservesNulls) {
  // Labeled nulls survive the dictionary pages: the page stores the raw
  // tagged id, so Null(k) decodes back as Null(k), not Const.
  Universe u = Universe::Parse("A B").value();
  Relation r(u.All());
  r.AddRow(Tuple({Value::Const(1), Value::Null(4)}));
  r.AddRow(Tuple({Value::Const(2), Value::Null(4)}));
  r.AddRow(Tuple({Value::Const(2), Value::Null(7)}));
  r.Normalize();
  const std::string path = Path("cols-nulls.rvc");
  ASSERT_TRUE(
      WriteCheckpoint(path, r, 1, CheckpointFormat::kColumnar).ok());
  auto back = ReadCheckpoint(path, u.All());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->database.SameAs(r));
}

TEST_F(CheckpointTest, ColumnarReadDetectsFlippedBit) {
  ViewTranslator vt = MakeTranslator();
  const std::string path = Path("cols-flipped.rvc");
  ASSERT_TRUE(Failpoints::Set("checkpoint.flip", "flip:2").ok());
  ASSERT_TRUE(WriteCheckpoint(path, vt.database(), 3,
                              CheckpointFormat::kColumnar)
                  .ok());
  Failpoints::ClearAll();
  auto back = ReadCheckpoint(path, vt.universe().All());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST_F(CheckpointTest, StoreRecoversMixedFormatCheckpoints) {
  // A store that toggles columnar_checkpoints mid-life keeps recovering:
  // the newest checkpoint (columnar) is loaded by auto-detection.
  ViewTranslator vt = MakeTranslator();
  StoreOptions opts;
  opts.dir = dir_;
  {
    auto store = DurableStore::Open(opts, &vt);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ApplyAndAppend(&vt, store->get(), ViewUpdate::Insert(Row({4, 10})));
    ASSERT_TRUE((*store)->WriteCheckpoint(vt.database()).ok());  // row fmt
    ApplyAndAppend(&vt, store->get(), ViewUpdate::Insert(Row({5, 10})));
  }
  opts.columnar_checkpoints = true;
  {
    ViewTranslator fresh = MakeTranslator();
    auto store = DurableStore::Open(opts, &fresh);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(fresh.database().SameAs(vt.database()));
    ApplyAndAppend(&fresh, store->get(), ViewUpdate::Insert(Row({6, 20})));
    auto seq = (*store)->WriteCheckpoint(fresh.database());  // columnar
    ASSERT_TRUE(seq.ok());
    vt = std::move(fresh);
  }
  {
    ViewTranslator fresh = MakeTranslator();
    auto store = DurableStore::Open(opts, &fresh);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE((*store)->recovery().used_checkpoint);
    EXPECT_TRUE(fresh.database().SameAs(vt.database()));
  }
}

TEST_F(CheckpointTest, RoundTripPreservesEmptyRelation) {
  Universe u = Universe::Parse("A B").value();
  Relation empty(u.All());
  const std::string path = Path("empty.rvc");
  ASSERT_TRUE(WriteCheckpoint(path, empty, 0).ok());
  auto back = ReadCheckpoint(path, u.All());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->database.size(), 0);
}

TEST_F(CheckpointTest, ReadDetectsFlippedBit) {
  ViewTranslator vt = MakeTranslator();
  const std::string path = Path("flipped.rvc");
  // The failpoint corrupts the outgoing bytes *after* the checksum was
  // computed — exactly the silent-disk-corruption scenario.
  ASSERT_TRUE(Failpoints::Set("checkpoint.flip", "flip:2").ok());
  ASSERT_TRUE(WriteCheckpoint(path, vt.database(), 3).ok());
  Failpoints::ClearAll();
  auto back = ReadCheckpoint(path, vt.universe().All());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST_F(CheckpointTest, ReadDetectsArityMismatch) {
  ViewTranslator vt = MakeTranslator();
  const std::string path = Path("arity.rvc");
  ASSERT_TRUE(WriteCheckpoint(path, vt.database(), 3).ok());
  Universe narrow = Universe::Parse("A B").value();
  auto back = ReadCheckpoint(path, narrow.All());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST_F(CheckpointTest, ReadOfMissingFileIsNotFound) {
  Universe u = Universe::Parse("A").value();
  auto back = ReadCheckpoint(Path("nope.rvc"), u.All());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, InjectedFsyncErrorLeavesNoCheckpoint) {
  ViewTranslator vt = MakeTranslator();
  const std::string path = Path("fsync.rvc");
  ASSERT_TRUE(Failpoints::Set("checkpoint.fsync", "error").ok());
  Status st = WriteCheckpoint(path, vt.database(), 3);
  ASSERT_FALSE(st.ok());
  // Neither the checkpoint nor its tmp survives a failed write.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// Forks a child that runs `body` with `failpoint` armed as "crash"; the
// child must die with Failpoints::kCrashExitCode. Returns after reaping.
template <typename Body>
void RunCrashChild(const std::string& failpoint, Body body) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm and run. The crash failpoint _exit()s inside Check, so
    // nothing below the body runs on the expected path.
    if (!Failpoints::Set(failpoint, "crash").ok()) ::_exit(3);
    body();
    ::_exit(4);  // the failpoint never fired: wrong path exercised
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), Failpoints::kCrashExitCode)
      << "child exited " << WEXITSTATUS(wstatus) << " instead of crashing at "
      << failpoint;
}

TEST_F(CheckpointTest, CrashBeforeRenamePublishesNothing) {
  ViewTranslator vt = MakeTranslator();
  const std::string path = Path("crash1.rvc");
  RunCrashChild("checkpoint.crash_before_rename",
                [&] { (void)WriteCheckpoint(path, vt.database(), 3); });
  // The kill landed between tmp-fsync and rename: the checkpoint name must
  // not exist; the orphan tmp is the recovery scanner's job to sweep.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(CheckpointTest, CrashAfterRenameLeavesValidCheckpoint) {
  ViewTranslator vt = MakeTranslator();
  const std::string path = Path("crash2.rvc");
  RunCrashChild("checkpoint.crash_after_rename",
                [&] { (void)WriteCheckpoint(path, vt.database(), 3); });
  auto back = ReadCheckpoint(path, vt.universe().All());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->seq, 3u);
  EXPECT_TRUE(back->database.SameAs(vt.database()));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(CheckpointTest, StoreOpensEmptyDirAsSeed) {
  ViewTranslator vt = MakeTranslator();
  StoreOptions opts;
  opts.dir = dir_;
  auto store = DurableStore::Open(opts, &vt);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE((*store)->recovery().used_checkpoint);
  EXPECT_EQ((*store)->recovery().replayed, 0u);
  EXPECT_EQ((*store)->seq(), 0u);
  EXPECT_EQ((*store)->segment_count(), 1);  // the fresh active segment
}

TEST_F(CheckpointTest, StoreRotatesSegmentsAndRecovers) {
  StoreOptions opts;
  opts.dir = dir_;
  opts.rotate_records = 3;
  ViewTranslator direct = MakeTranslator();
  {
    ViewTranslator vt = MakeTranslator();
    auto store = DurableStore::Open(opts, &vt);
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < 8; ++i) {
      const ViewUpdate u = ViewUpdate::Insert(Row({100 + i, 10}));
      ApplyAndAppend(&vt, store->get(), u);
      ASSERT_TRUE(direct.Insert(u.t1).ok());
    }
    EXPECT_EQ((*store)->seq(), 8u);
    EXPECT_EQ((*store)->segment_count(), 3);  // 3 + 3 + 2
  }
  // Reopen: full replay from the seed across all three segments.
  ViewTranslator vt = MakeTranslator();
  auto store = DurableStore::Open(opts, &vt);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE((*store)->recovery().used_checkpoint);
  EXPECT_EQ((*store)->recovery().replayed, 8u);
  EXPECT_EQ((*store)->recovery().recovered_seq, 8u);
  EXPECT_TRUE(vt.database().SameAs(direct.database()));
}

TEST_F(CheckpointTest, StoreCheckpointCompactsAndBoundsReplay) {
  StoreOptions opts;
  opts.dir = dir_;
  opts.rotate_records = 2;
  ViewTranslator direct = MakeTranslator();
  {
    ViewTranslator vt = MakeTranslator();
    auto store = DurableStore::Open(opts, &vt);
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < 5; ++i) {
      const ViewUpdate u = ViewUpdate::Insert(Row({100 + i, 20}));
      ApplyAndAppend(&vt, store->get(), u);
      ASSERT_TRUE(direct.Insert(u.t1).ok());
    }
    auto seq = (*store)->WriteCheckpoint(vt.database());
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(*seq, 5u);
    EXPECT_EQ((*store)->compaction_lag(), 0u);
    // Segments [0,2) and [2,4) are fully covered and must be gone; the
    // active segment [4,..) still holds record 4 and must survive.
    EXPECT_EQ((*store)->segments_compacted(), 2u);
    EXPECT_EQ((*store)->segment_count(), 1);
    EXPECT_FALSE(std::filesystem::exists(
        dir_ + "/journal-0000000000000000.log"));
    // Two more records after the checkpoint.
    for (uint32_t i = 5; i < 7; ++i) {
      const ViewUpdate u = ViewUpdate::Insert(Row({100 + i, 20}));
      ApplyAndAppend(&vt, store->get(), u);
      ASSERT_TRUE(direct.Insert(u.t1).ok());
    }
    EXPECT_EQ((*store)->compaction_lag(), 2u);
  }
  // Recovery: checkpoint at 5, replay only the 2-record suffix.
  ViewTranslator vt = MakeTranslator();
  auto store = DurableStore::Open(opts, &vt);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->recovery().used_checkpoint);
  EXPECT_EQ((*store)->recovery().checkpoint_seq, 5u);
  EXPECT_EQ((*store)->recovery().replayed, 2u);
  EXPECT_EQ((*store)->seq(), 7u);
  EXPECT_TRUE(vt.database().SameAs(direct.database()));
}

TEST_F(CheckpointTest, StoreSkipsCorruptCheckpointAndFallsBack) {
  StoreOptions opts;
  opts.dir = dir_;
  opts.rotate_records = 2;
  ViewTranslator direct = MakeTranslator();
  std::string newest_ckpt;
  {
    ViewTranslator vt = MakeTranslator();
    auto store = DurableStore::Open(opts, &vt);
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < 3; ++i) {
      const ViewUpdate u = ViewUpdate::Insert(Row({100 + i, 10}));
      ApplyAndAppend(&vt, store->get(), u);
      ASSERT_TRUE(direct.Insert(u.t1).ok());
    }
    ASSERT_TRUE((*store)->WriteCheckpoint(vt.database()).ok());  // seq 3
    const ViewUpdate u = ViewUpdate::Insert(Row({200, 20}));
    ApplyAndAppend(&vt, store->get(), u);
    ASSERT_TRUE(direct.Insert(u.t1).ok());
    auto seq = (*store)->WriteCheckpoint(vt.database());  // seq 4
    ASSERT_TRUE(seq.ok());
    char name[64];
    std::snprintf(name, sizeof(name), "checkpoint-%016llx.rvc",
                  static_cast<unsigned long long>(*seq));
    newest_ckpt = dir_ + "/" + name;
  }
  // Flip a bit in the newest checkpoint's body.
  {
    std::fstream f(newest_ckpt, std::ios::in | std::ios::out |
                                    std::ios::binary | std::ios::ate);
    ASSERT_TRUE(f.is_open());
    const std::streamoff size = f.tellg();
    f.seekp(size - 2);
    char c;
    f.seekg(size - 2);
    f.get(c);
    f.seekp(size - 2);
    f.put(static_cast<char>(c ^ 1));
  }
  // Recovery must warn, fall back to the seq-3 checkpoint, and replay the
  // journal suffix past it — landing on the same state regardless.
  ViewTranslator vt = MakeTranslator();
  auto store = DurableStore::Open(opts, &vt);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->recovery().used_checkpoint);
  EXPECT_EQ((*store)->recovery().checkpoint_seq, 3u);
  ASSERT_FALSE((*store)->recovery().warnings.empty());
  EXPECT_NE((*store)->recovery().warnings[0].find("skipping checkpoint"),
            std::string::npos);
  EXPECT_EQ((*store)->seq(), 4u);
  EXPECT_TRUE(vt.database().SameAs(direct.database()));
  // The known-corrupt file was unlinked: thinning must only ever count
  // usable checkpoints toward keep_checkpoints.
  EXPECT_FALSE(std::filesystem::exists(newest_ckpt));
}

TEST_F(CheckpointTest, CompactionPreservesFallbackToOlderCheckpoint) {
  // Segment compaction is bounded by the *oldest retained* checkpoint,
  // so when the newest checkpoint turns out corrupt, recovery can fall
  // back to an older retained one and still find the journal suffix
  // (older_seq, newest_seq] on disk — a longer replay, not a "journal
  // gap" outage.
  StoreOptions opts;
  opts.dir = dir_;
  opts.rotate_records = 2;
  opts.keep_checkpoints = 2;
  ViewTranslator direct = MakeTranslator();
  std::string newest_ckpt;
  {
    ViewTranslator vt = MakeTranslator();
    auto store = DurableStore::Open(opts, &vt);
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < 3; ++i) {
      const ViewUpdate u = ViewUpdate::Insert(Row({100 + i, 10}));
      ApplyAndAppend(&vt, store->get(), u);
      ASSERT_TRUE(direct.Insert(u.t1).ok());
    }
    ASSERT_TRUE((*store)->WriteCheckpoint(vt.database()).ok());  // seq 3
    for (uint32_t i = 3; i < 5; ++i) {
      const ViewUpdate u = ViewUpdate::Insert(Row({100 + i, 20}));
      ApplyAndAppend(&vt, store->get(), u);
      ASSERT_TRUE(direct.Insert(u.t1).ok());
    }
    auto seq = (*store)->WriteCheckpoint(vt.database());  // seq 5
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(*seq, 5u);
    char name[64];
    std::snprintf(name, sizeof(name), "checkpoint-%016llx.rvc",
                  static_cast<unsigned long long>(*seq));
    newest_ckpt = dir_ + "/" + name;
    // Records (3, 5] are not covered by the retained seq-3 checkpoint;
    // their segments must have survived the seq-5 compaction.
  }
  // Corrupt the newest checkpoint's body.
  {
    std::fstream f(newest_ckpt, std::ios::in | std::ios::out |
                                    std::ios::binary | std::ios::ate);
    ASSERT_TRUE(f.is_open());
    const std::streamoff size = f.tellg();
    char c;
    f.seekg(size - 2);
    f.get(c);
    f.seekp(size - 2);
    f.put(static_cast<char>(c ^ 1));
  }
  ViewTranslator vt = MakeTranslator();
  auto store = DurableStore::Open(opts, &vt);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->recovery().used_checkpoint);
  EXPECT_EQ((*store)->recovery().checkpoint_seq, 3u);
  EXPECT_EQ((*store)->recovery().replayed, 2u);  // records 3 and 4
  EXPECT_EQ((*store)->seq(), 5u);
  EXPECT_TRUE(vt.database().SameAs(direct.database()));
}

TEST_F(CheckpointTest, WriteCheckpointIsIdempotentAtFixedSeq) {
  // Two checkpoints with no intervening updates must not duplicate the
  // seq in the retained-checkpoint list (thinning would then erase two
  // entries for one on-disk file, shrinking the real fallback depth).
  StoreOptions opts;
  opts.dir = dir_;
  opts.keep_checkpoints = 2;
  ViewTranslator vt = MakeTranslator();
  auto store = DurableStore::Open(opts, &vt);
  ASSERT_TRUE(store.ok());
  ApplyAndAppend(&vt, store->get(), ViewUpdate::Insert(Row({100, 10})));
  auto first = (*store)->WriteCheckpoint(vt.database());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);
  auto second = (*store)->WriteCheckpoint(vt.database());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 1u);
  EXPECT_EQ((*store)->checkpoints_written(), 1u);
  // Advance and checkpoint twice more: thinning keeps the newest two
  // *distinct* checkpoints, so seq 1's file goes exactly when seq 3's
  // checkpoint lands.
  ApplyAndAppend(&vt, store->get(), ViewUpdate::Insert(Row({101, 10})));
  ASSERT_TRUE((*store)->WriteCheckpoint(vt.database()).ok());  // seq 2
  EXPECT_TRUE(std::filesystem::exists(
      dir_ + "/checkpoint-0000000000000001.rvc"));
  ApplyAndAppend(&vt, store->get(), ViewUpdate::Insert(Row({102, 10})));
  ASSERT_TRUE((*store)->WriteCheckpoint(vt.database()).ok());  // seq 3
  EXPECT_FALSE(std::filesystem::exists(
      dir_ + "/checkpoint-0000000000000001.rvc"));
  EXPECT_TRUE(std::filesystem::exists(
      dir_ + "/checkpoint-0000000000000002.rvc"));
  EXPECT_TRUE(std::filesystem::exists(
      dir_ + "/checkpoint-0000000000000003.rvc"));
}

TEST_F(CheckpointTest, StoreDetectsMidLogSegmentGap) {
  StoreOptions opts;
  opts.dir = dir_;
  opts.rotate_records = 2;
  {
    ViewTranslator vt = MakeTranslator();
    auto store = DurableStore::Open(opts, &vt);
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < 6; ++i) {
      ApplyAndAppend(&vt, store->get(),
                     ViewUpdate::Insert(Row({100 + i, 10})));
    }
  }
  // Delete the middle segment [2,4): an un-checkpointed hole.
  ASSERT_EQ(::unlink((dir_ + "/journal-0000000000000002.log").c_str()), 0);
  ViewTranslator vt = MakeTranslator();
  auto store = DurableStore::Open(opts, &vt);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
}

TEST_F(CheckpointTest, StoreDetectsMidLogTornSegment) {
  StoreOptions opts;
  opts.dir = dir_;
  opts.rotate_records = 2;
  {
    ViewTranslator vt = MakeTranslator();
    auto store = DurableStore::Open(opts, &vt);
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < 5; ++i) {
      ApplyAndAppend(&vt, store->get(),
                     ViewUpdate::Insert(Row({100 + i, 10})));
    }
  }
  // Tear the tail of a *middle* segment: unrepairable without dropping
  // records that later segments build on.
  const std::string middle = dir_ + "/journal-0000000000000002.log";
  const auto size = std::filesystem::file_size(middle);
  ASSERT_EQ(::truncate(middle.c_str(), static_cast<off_t>(size - 4)), 0);
  ViewTranslator vt = MakeTranslator();
  auto store = DurableStore::Open(opts, &vt);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
  EXPECT_NE(store.status().ToString().find("torn mid-log"),
            std::string::npos);
}

TEST_F(CheckpointTest, StoreRepairsTornTailOfFinalSegment) {
  StoreOptions opts;
  opts.dir = dir_;
  opts.rotate_records = 100;
  ViewTranslator direct = MakeTranslator();
  {
    ViewTranslator vt = MakeTranslator();
    auto store = DurableStore::Open(opts, &vt);
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < 3; ++i) {
      const ViewUpdate u = ViewUpdate::Insert(Row({100 + i, 10}));
      ApplyAndAppend(&vt, store->get(), u);
      if (i < 2) {
        ASSERT_TRUE(direct.Insert(u.t1).ok());
      }
    }
  }
  const std::string seg = dir_ + "/journal-0000000000000000.log";
  const auto size = std::filesystem::file_size(seg);
  ASSERT_EQ(::truncate(seg.c_str(), static_cast<off_t>(size - 4)), 0);
  ViewTranslator vt = MakeTranslator();
  auto store = DurableStore::Open(opts, &vt);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovery().replayed, 2u);  // record 2 torn away
  EXPECT_EQ((*store)->seq(), 2u);
  ASSERT_FALSE((*store)->recovery().warnings.empty());
  EXPECT_TRUE(vt.database().SameAs(direct.database()));
  // The store is appendable again, from the repaired boundary.
  ApplyAndAppend(&vt, store->get(), ViewUpdate::Insert(Row({300, 20})));
  EXPECT_EQ((*store)->seq(), 3u);
}

TEST_F(CheckpointTest, StoreSweepsStrayTmpFiles) {
  {
    std::ofstream tmp(dir_ + "/checkpoint-0000000000000005.rvc.tmp");
    tmp << "half-written garbage";
  }
  ViewTranslator vt = MakeTranslator();
  StoreOptions opts;
  opts.dir = dir_;
  auto store = DurableStore::Open(opts, &vt);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(std::filesystem::exists(
      dir_ + "/checkpoint-0000000000000005.rvc.tmp"));
  ASSERT_FALSE((*store)->recovery().warnings.empty());
}

TEST_F(CheckpointTest, StoreThinsOldCheckpoints) {
  StoreOptions opts;
  opts.dir = dir_;
  opts.keep_checkpoints = 1;
  ViewTranslator vt = MakeTranslator();
  auto store = DurableStore::Open(opts, &vt);
  ASSERT_TRUE(store.ok());
  ApplyAndAppend(&vt, store->get(), ViewUpdate::Insert(Row({100, 10})));
  ASSERT_TRUE((*store)->WriteCheckpoint(vt.database()).ok());  // seq 1
  ApplyAndAppend(&vt, store->get(), ViewUpdate::Insert(Row({101, 10})));
  ASSERT_TRUE((*store)->WriteCheckpoint(vt.database()).ok());  // seq 2
  EXPECT_FALSE(std::filesystem::exists(
      dir_ + "/checkpoint-0000000000000001.rvc"));
  EXPECT_TRUE(std::filesystem::exists(
      dir_ + "/checkpoint-0000000000000002.rvc"));
}

}  // namespace
}  // namespace relview

// Journal durability tests: encode/decode round trips, torn-tail
// truncation, append rollback and sync poisoning, and — through
// DurableStore::Open, the one replay path — replay equivalence (a
// replayed journal reproduces exactly the directly-updated database —
// fact (ii) in action) and divergence detection.

#include "service/journal.h"

#include <gtest/gtest.h>

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

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = ::testing::TempDir() + "journal_test_" + name + ".log";
    dir_ = ::testing::TempDir() + "journal_test_" + name + ".store";
    std::remove(path_.c_str());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    Failpoints::ClearAll();
    std::remove(path_.c_str());
    std::filesystem::remove_all(dir_);
  }

  /// Opens the durable store under dir_, recovering into `vt`.
  Result<std::unique_ptr<DurableStore>> OpenStore(ViewTranslator* vt) const {
    StoreOptions options;
    options.dir = dir_;
    return DurableStore::Open(options, vt);
  }

  std::string path_;  // a standalone journal file
  std::string dir_;   // a durable store directory
};

/// Appends `updates` as one batch and makes them durable.
Status AppendSynced(Journal* j, const std::vector<ViewUpdate>& updates) {
  RELVIEW_RETURN_IF_ERROR(j->AppendUnsynced(updates));
  return j->Sync();
}

TEST_F(JournalTest, PayloadRoundTrip) {
  const ViewUpdate updates[] = {
      ViewUpdate::Insert(Row({4, 10})),
      ViewUpdate::Delete(Row({2, 10})),
      ViewUpdate::Replace(Row({1, 10}), Row({1, 20})),
  };
  for (const ViewUpdate& u : updates) {
    Result<ViewUpdate> back = DecodeJournalPayload(EncodeJournalPayload(u));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(*back == u) << u.ToString();
  }
}

TEST_F(JournalTest, PayloadRoundTripPreservesNulls) {
  std::vector<Value> vals = {Value::Const(7), Value::Null(3)};
  const ViewUpdate u = ViewUpdate::Insert(Tuple(std::move(vals)));
  Result<ViewUpdate> back = DecodeJournalPayload(EncodeJournalPayload(u));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == u);
}

TEST_F(JournalTest, ReadOfMissingFileIsEmpty) {
  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->updates.empty());
  EXPECT_FALSE(r->truncated);
}

TEST_F(JournalTest, AppendThenReadRoundTrip) {
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendSynced(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
    ASSERT_TRUE(AppendSynced(&*j, {ViewUpdate::Delete(Row({4, 10})),
                                   ViewUpdate::Replace(Row({1, 10}),
                                                       Row({1, 20}))})
                    .ok());
  }
  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->updates.size(), 3u);
  EXPECT_FALSE(r->truncated);
  EXPECT_TRUE(r->updates[0] == ViewUpdate::Insert(Row({4, 10})));
  EXPECT_TRUE(r->updates[2] ==
              ViewUpdate::Replace(Row({1, 10}), Row({1, 20})));
}

TEST_F(JournalTest, ReplayEqualsDirectApplication) {
  // Drive one translator directly and journal the same updates; replaying
  // the journal on a fresh seed must land on the identical relation.
  ViewTranslator direct = MakeTranslator();
  const std::vector<ViewUpdate> updates = {
      ViewUpdate::Insert(Row({4, 10})),
      ViewUpdate::Insert(Row({5, 20})),
      ViewUpdate::Delete(Row({2, 10})),
      ViewUpdate::Replace(Row({4, 10}), Row({4, 20})),
  };
  ASSERT_TRUE(direct.Insert(updates[0].t1).ok());
  ASSERT_TRUE(direct.Insert(updates[1].t1).ok());
  ASSERT_TRUE(direct.Delete(updates[2].t1).ok());
  ASSERT_TRUE(direct.Replace(updates[3].t1, updates[3].t2).ok());

  {
    ViewTranslator seed = MakeTranslator();
    auto store = OpenStore(&seed);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->AppendUnsynced(updates).ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  ViewTranslator replayed = MakeTranslator();
  auto store = OpenStore(&replayed);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovery().replayed, 4u);
  EXPECT_TRUE(replayed.database().SameAs(direct.database()));
}

TEST_F(JournalTest, TruncatedLastRecordRecoversToLastCompleteRecord) {
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendSynced(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
    ASSERT_TRUE(AppendSynced(&*j, {ViewUpdate::Insert(Row({5, 20}))}).ok());
  }
  // Simulate a torn write: chop bytes off the final record.
  std::ifstream in(path_, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(all.data(), static_cast<std::streamsize>(all.size() - 5));
  out.close();

  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  EXPECT_FALSE(r->warning.empty());
  ASSERT_EQ(r->updates.size(), 1u);
  EXPECT_TRUE(r->updates[0] == ViewUpdate::Insert(Row({4, 10})));

  // The repair physically truncated the file: a second read is clean and a
  // fresh append after recovery extends from the record boundary.
  auto again = Journal::Read(path_);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->truncated);
  EXPECT_EQ(again->updates.size(), 1u);
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendSynced(&*j, {ViewUpdate::Delete(Row({4, 10}))}).ok());
  }
  auto final_read = Journal::Read(path_);
  ASSERT_TRUE(final_read.ok());
  EXPECT_FALSE(final_read->truncated);
  EXPECT_EQ(final_read->updates.size(), 2u);
}

TEST_F(JournalTest, CorruptChecksumIsDetected) {
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendSynced(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
  }
  std::ifstream in(path_, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  all[all.size() - 2] ^= 1;  // flip a payload bit, keep length
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out << all;
  out.close();

  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  EXPECT_TRUE(r->updates.empty());
}

TEST_F(JournalTest, ReplayOfInvalidUpdateReturnsInternal) {
  // Journal an update that the seed instance rejects (inserting Emp 1 into
  // Dept 20 moves an employee: untranslatable). The store appends what it
  // is given; replay on reopen must refuse with kInternal rather than
  // silently diverge.
  {
    ViewTranslator seed = MakeTranslator();
    auto store = OpenStore(&seed);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(
        (*store)->AppendUnsynced({ViewUpdate::Insert(Row({1, 20}))}).ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  ViewTranslator vt = MakeTranslator();
  auto store = OpenStore(&vt);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInternal);
}

TEST_F(JournalTest, OpenVerifiesFinalRecordChecksum) {
  // The fix for the reopen-after-repair hole: O_APPEND must never extend a
  // journal whose final record does not verify, or everything appended
  // after the bad record would be unreachable to replay.
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendSynced(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
    ASSERT_TRUE(AppendSynced(&*j, {ViewUpdate::Insert(Row({5, 20}))}).ok());
  }
  // Flip a payload bit of the *final* record, keeping it "complete"
  // (newline-terminated, correct length) — only the checksum can tell.
  std::ifstream in(path_, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  all[all.size() - 2] ^= 1;
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out << all;
  out.close();

  auto reopened = Journal::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);

  // Read(repair) truncates the bad record; Open then succeeds and appends
  // land on the repaired boundary.
  auto r = Journal::Read(path_, /*repair=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  auto again = Journal::Open(path_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(AppendSynced(&*again, {ViewUpdate::Delete(Row({4, 10}))}).ok());
  auto final_read = Journal::Read(path_);
  ASSERT_TRUE(final_read.ok());
  EXPECT_FALSE(final_read->truncated);
  EXPECT_EQ(final_read->updates.size(), 2u);
}

TEST_F(JournalTest, OpenRefusesTornTail) {
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendSynced(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
  }
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  out << "rv1 57 0123456789abcdef I 2 torn";  // no terminator
  out.close();

  auto reopened = Journal::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);

  auto r = Journal::Read(path_, /*repair=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  ASSERT_EQ(r->updates.size(), 1u);
  EXPECT_TRUE(Journal::Open(path_).ok());
}

TEST_F(JournalTest, FailedSyncPoisonsHandle) {
  // A failed fsync may have dropped the dirty pages, so neither a retry
  // nor a later append may pretend otherwise (fsyncgate): the handle
  // refuses both until the journal is reopened.
  auto j = Journal::Open(path_);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE(AppendSynced(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
  ASSERT_TRUE(j->AppendUnsynced({ViewUpdate::Insert(Row({5, 20}))}).ok());
  ASSERT_TRUE(Failpoints::Set("commit.fsync", "error").ok());
  Status st = j->Sync();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_GT(j->unsynced_bytes(), 0u);  // still exposed, never claimed
  Failpoints::ClearAll();
  EXPECT_EQ(j->Sync().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(j->AppendUnsynced({ViewUpdate::Insert(Row({6, 10}))}).code(),
            StatusCode::kFailedPrecondition);
  // The unsynced record's bytes are in the file: it may replay, which is
  // legal because no caller was acknowledged for it.
  auto again = Journal::Open(path_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(AppendSynced(&*again, {ViewUpdate::Insert(Row({6, 10}))}).ok());
  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->truncated);
  ASSERT_EQ(r->updates.size(), 3u);
}

TEST_F(JournalTest, FailpointShortWritePoisonsHandle) {
  // An injected short write models a crash mid-append: the torn tail
  // stays on disk for the repair path — so the live handle must poison
  // itself, or later batches would land after the tear and be silently
  // dropped at replay.
  auto j = Journal::Open(path_);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE(AppendSynced(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
  ASSERT_TRUE(Failpoints::Set("journal.write", "short:3").ok());
  ASSERT_FALSE(j->AppendUnsynced({ViewUpdate::Insert(Row({5, 20}))}).ok());
  Failpoints::ClearAll();
  Status st = j->AppendUnsynced({ViewUpdate::Insert(Row({6, 10}))});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // Repair + reopen restores service; nothing appended through the
  // poisoned handle is on disk.
  ASSERT_TRUE(Journal::Read(path_, /*repair=*/true).ok());
  auto again = Journal::Open(path_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(AppendSynced(&*again, {ViewUpdate::Insert(Row({6, 10}))}).ok());
  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->truncated);
  ASSERT_EQ(r->updates.size(), 2u);
  EXPECT_TRUE(r->updates[1] == ViewUpdate::Insert(Row({6, 10})));
}

TEST_F(JournalTest, OpenAcceptsFinalRecordLargerThanTailWindow) {
  // One valid record can outgrow the 1 MiB tail-verification window
  // (huge-arity tuples); Open must widen its window, not declare the
  // journal corrupt.
  std::vector<Value> vals;
  vals.reserve(150000);
  for (uint32_t i = 0; i < 150000; ++i) {
    vals.push_back(Value::Const(1000000u + i));
  }
  const ViewUpdate big = ViewUpdate::Insert(Tuple(std::move(vals)));
  ASSERT_GT(EncodeJournalPayload(big).size(), size_t{1} << 20);
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendSynced(&*j, {big}).ok());
  }
  auto reopened = Journal::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE(AppendSynced(&*reopened, {ViewUpdate::Insert(Row({5, 20}))}).ok());
  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->truncated);
  ASSERT_EQ(r->updates.size(), 2u);
  EXPECT_TRUE(r->updates[0] == big);
}

TEST_F(JournalTest, FailpointShortWriteOnLengthPrefixRepairsAndReplays) {
  // A short write that tears mid-header (3 bytes keeps only "rv1") leaves
  // a real torn tail on the store's segment; reopening the store must
  // repair it, replay exactly the records before it, and land on the
  // state of applying those records directly (fact (ii)).
  {
    ViewTranslator seed = MakeTranslator();
    auto store = OpenStore(&seed);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(
        (*store)->AppendUnsynced({ViewUpdate::Insert(Row({4, 10}))}).ok());
    ASSERT_TRUE((*store)->Sync().ok());
    ASSERT_TRUE(Failpoints::Set("journal.write", "short:3").ok());
    Status st = (*store)->AppendUnsynced({ViewUpdate::Insert(Row({5, 20}))});
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("short write"), std::string::npos);
    Failpoints::ClearAll();
  }
  ViewTranslator replayed = MakeTranslator();
  auto store = OpenStore(&replayed);  // repairs the tail, then replays
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const RecoveryInfo& info = (*store)->recovery();
  EXPECT_EQ(info.replayed, 1u);
  ASSERT_FALSE(info.warnings.empty());
  EXPECT_NE(info.warnings[0].find("truncating"), std::string::npos)
      << info.warnings[0];

  ViewTranslator direct = MakeTranslator();
  ASSERT_TRUE(direct.Insert(Row({4, 10})).ok());
  EXPECT_TRUE(replayed.database().SameAs(direct.database()));
  // Repaired: the store appends again at the record boundary.
  ASSERT_TRUE(
      (*store)->AppendUnsynced({ViewUpdate::Insert(Row({5, 20}))}).ok());
  ASSERT_TRUE((*store)->Sync().ok());
}

TEST_F(JournalTest, FailpointWriteErrorLeavesFileUntouched) {
  ASSERT_TRUE(Failpoints::Set("journal.write", "error").ok());
  auto j = Journal::Open(path_);
  ASSERT_TRUE(j.ok());
  Status st = j->AppendUnsynced({ViewUpdate::Insert(Row({4, 10}))});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("injected"), std::string::npos);
  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->updates.empty());  // the error fired before any byte
  EXPECT_FALSE(r->truncated);
}

TEST_F(JournalTest, ReplayRequiresBoundTranslator) {
  Universe u = Universe::Parse("A B").value();
  DependencySet sigma;
  sigma.fds = *FDSet::Parse(u, "A -> B");
  auto vt = ViewTranslator::Create(u, sigma, u.SetOf("A B"), u.SetOf("B"));
  ASSERT_TRUE(vt.ok());
  auto store = OpenStore(&*vt);  // replay needs the seed instance bound
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace relview

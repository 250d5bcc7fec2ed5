// Generator self-test: on tiny instances, every predicted verdict must
// match the from-scratch Theorem 3/8/9 procedures and the served
// UpdateService, and the oracle must reject a deliberately wrong
// prediction or a tampered end state.

#include <cstdio>

#include "bench.h"
#include "view/deletion.h"
#include "view/insertion.h"
#include "view/replacement.h"

namespace perfbench {
namespace {

using relview::Relation;
using relview::Result;
using relview::UpdateKind;
using relview::ViewUpdate;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("selftest FAIL: %s\n", what.c_str());
  }
}

/// Theorem 3/8/9 from scratch: checks `u` against pi_X(r) and, when
/// translatable, applies the unique translation to *r.
Result<bool> ScratchApply(const ChainSchema& s, const ViewUpdate& u,
                          Relation* r) {
  const relview::AttrSet all = s.universe.All();
  const Relation v = r->Project(s.x);
  switch (u.kind) {
    case UpdateKind::kInsert: {
      RELVIEW_ASSIGN_OR_RETURN(auto rep, relview::CheckInsertion(
                                             all, s.sigma.fds, s.x, s.y, v,
                                             u.t1));
      if (!rep.translatable()) return false;
      RELVIEW_ASSIGN_OR_RETURN(*r,
                               relview::ApplyInsertion(all, s.x, s.y, *r, u.t1));
      return true;
    }
    case UpdateKind::kDelete: {
      RELVIEW_ASSIGN_OR_RETURN(auto rep, relview::CheckDeletion(
                                             all, s.sigma.fds, s.x, s.y, v,
                                             u.t1));
      if (!rep.translatable()) return false;
      RELVIEW_ASSIGN_OR_RETURN(*r,
                               relview::ApplyDeletion(all, s.x, s.y, *r, u.t1));
      return true;
    }
    case UpdateKind::kReplace: {
      RELVIEW_ASSIGN_OR_RETURN(
          auto rep, relview::CheckReplacement(all, s.sigma.fds, s.x, s.y, v,
                                              u.t1, u.t2));
      if (!rep.translatable()) return false;
      RELVIEW_ASSIGN_OR_RETURN(
          *r, relview::ApplyReplacement(all, s.x, s.y, *r, u.t1, u.t2));
      return true;
    }
    case UpdateKind::kNumUpdateKinds:
      break;
  }
  return relview::Status::InvalidArgument("sentinel update kind");
}

struct Case {
  Shape shape;
  int clients;
  int batches;
};

void RunCase(const Case& c, uint64_t seed) {
  const ChainSchema schema = MakeChainSchema();
  const std::string name = std::to_string(c.shape.emps) + " rows, batch " +
                           std::to_string(c.shape.batch_size) + ", " +
                           std::to_string(c.clients) + " clients";

  // 1. Predictions against the from-scratch procedures.
  std::vector<Client> scratch_clients;
  for (int k = 0; k < c.clients; ++k) {
    scratch_clients.emplace_back(c.shape, k, c.clients, seed);
  }
  Relation r = SeedDatabase(c.shape);
  int rejected = 0;
  for (int b = 0; b < c.batches; ++b) {
    const PlannedBatch p =
        scratch_clients[static_cast<size_t>(b % c.clients)].Next();
    Relation staged = r;
    int failed = -1;
    for (size_t i = 0; i < p.updates.size() && failed < 0; ++i) {
      const Result<bool> ok = ScratchApply(schema, p.updates[i], &staged);
      Expect(ok.ok(), name + ": scratch procedure error on " +
                          p.updates[i].ToString());
      if (!ok.ok() || !*ok) failed = static_cast<int>(i);
    }
    Expect(failed == p.reject_at,
           name + ": batch " + std::to_string(b) + " predicted rejection at " +
               std::to_string(p.reject_at) + ", scratch says " +
               std::to_string(failed));
    if (failed < 0) r = staged;
    rejected += failed >= 0 ? 1 : 0;
  }
  Expect(rejected > 0, name + ": the stream carried no rejection");
  std::vector<const Client*> ptrs;
  for (const Client& k : scratch_clients) ptrs.push_back(&k);
  Expect(CheckEndState(r, c.shape, ptrs, schema).empty(),
         name + ": scratch end state: " +
             CheckEndState(r, c.shape, ptrs, schema));

  // 2. The same stream through the served path, judged by the oracle.
  std::vector<Client> served_clients;
  for (int k = 0; k < c.clients; ++k) {
    served_clients.emplace_back(c.shape, k, c.clients, seed);
  }
  auto vt = MakeSeededTranslator(schema, c.shape);
  Expect(vt.ok(), name + ": translator");
  if (!vt.ok()) return;
  auto svc = relview::UpdateService::Create(std::move(*vt));
  Expect(svc.ok(), name + ": service");
  if (!svc.ok()) return;
  for (int b = 0; b < c.batches; ++b) {
    const PlannedBatch p =
        served_clients[static_cast<size_t>(b % c.clients)].Next();
    const relview::BatchResult result = (*svc)->ApplyBatch(p.updates);
    const std::string why = Judge(p, result);
    Expect(why.empty(), name + ": served batch " + std::to_string(b) + ": " +
                            why);
    // 3. A deliberately wrong prediction must not pass the oracle.
    PlannedBatch wrong = p;
    wrong.reject_at = p.reject_at < 0 ? 0 : -1;
    Expect(!Judge(wrong, result).empty(),
           name + ": oracle accepted a flipped prediction");
    if (p.reject_at >= 0 && p.updates.size() > 1) {
      wrong = p;
      wrong.reject_at = (p.reject_at + 1) % static_cast<int>(p.updates.size());
      Expect(!Judge(wrong, result).empty(),
             name + ": oracle accepted a wrong rejected position");
    }
  }
  const Relation served = *(*svc)->Snapshot().database;
  ptrs.clear();
  for (const Client& k : served_clients) ptrs.push_back(&k);
  Expect(CheckEndState(served, c.shape, ptrs, schema).empty(),
         name + ": served end state");
  Expect(served.SameAs(r), name + ": served and scratch states differ");

  // 4. The end-state check must reject a tampered database.
  Relation dropped = served;
  dropped.mutable_rows().pop_back();
  Expect(!CheckEndState(dropped, c.shape, ptrs, schema).empty(),
         name + ": end-state check missed a dropped row");
  Relation remanaged = served;
  remanaged.mutable_row(0)[2] = relview::Value::Const(1);
  Expect(!CheckEndState(remanaged, c.shape, ptrs, schema).empty(),
         name + ": end-state check missed a changed manager");
}

}  // namespace

int RunSelfTest() {
  std::vector<Case> cases;
  Case mixed;  // tenant-16k's batch shape
  mixed.shape.emps = 48;
  mixed.shape.depts = 6;
  mixed.shape.conflict_every = 3;
  mixed.clients = 2;
  mixed.batches = 120;
  cases.push_back(mixed);
  Case singles;  // restart-16k's single updates, several clients
  singles.shape.emps = 42;
  singles.shape.depts = 7;
  singles.shape.batch_size = 1;
  singles.shape.conflict_every = 4;
  singles.clients = 3;
  singles.batches = 240;
  cases.push_back(singles);
  Case one_client = mixed;
  one_client.shape.emps = 64;
  one_client.shape.depts = 8;
  one_client.shape.conflict_every = 8;
  one_client.clients = 1;
  cases.push_back(one_client);
  for (const Case& c : cases) {
    for (uint64_t seed : {1ULL, 2ULL, 3ULL}) RunCase(c, seed);
  }
  std::printf("selftest: %s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench

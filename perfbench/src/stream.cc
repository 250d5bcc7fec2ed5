#include "stream.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "deps/satisfies.h"
#include "net/workload.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace perfbench {

using relview::Relation;
using relview::Tuple;
using relview::Value;
using relview::ViewUpdate;
using relview::net::DeptOfEmp;
using relview::net::kDeptBase;
using relview::net::MgrOfDept;

ChainSchema MakeChainSchema() {
  ChainSchema s;
  s.universe = *relview::Universe::Parse("Emp Dept Mgr");
  s.sigma.fds = *relview::FDSet::Parse(s.universe, "Emp -> Dept; Dept -> Mgr");
  s.x = s.universe.SetOf("Emp Dept");
  s.y = s.universe.SetOf("Dept Mgr");
  return s;
}

Relation SeedDatabase(const Shape& shape) {
  Relation db(MakeChainSchema().universe.All());
  for (uint32_t e = 1; e <= shape.emps; ++e) {
    const uint32_t dept = DeptOfEmp(e, shape.depts);
    db.AddRow(Tuple({Value::Const(e), Value::Const(dept),
                     Value::Const(MgrOfDept(dept))}));
  }
  return db;
}

Tuple ProbeTuple(const Shape& shape) {
  // Fresh ids grow upwards from emps + 1; this one sits just below the
  // department id range.
  return Tuple({Value::Const(kDeptBase - 1),
                Value::Const(DeptOfEmp(0, shape.depts))});
}

relview::Result<relview::ViewTranslator> MakeSeededTranslator(
    const ChainSchema& schema, const Shape& shape) {
  RELVIEW_ASSIGN_OR_RETURN(
      relview::ViewTranslator vt,
      relview::ViewTranslator::Create(schema.universe, schema.sigma, schema.x,
                                      schema.y));
  RELVIEW_RETURN_IF_ERROR(vt.Bind(SeedDatabase(shape)));
  return vt;
}

Zipf::Zipf(int n, double theta) : cdf_(static_cast<size_t>(n)) {
  double sum = 0;
  for (int k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_[static_cast<size_t>(k)] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

int Zipf::Sample(relview::Rng& rng) const {
  const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(std::min<size_t>(
      static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1));
}

namespace {
int OwnedCount(const Shape& shape, int index, int clients) {
  int n = 0;
  for (uint32_t d = static_cast<uint32_t>(index); d < shape.depts;
       d += static_cast<uint32_t>(clients)) {
    ++n;
  }
  return n;
}
}  // namespace

Client::Client(const Shape& shape, int index, int clients, uint64_t seed)
    : shape_(shape),
      index_(index),
      clients_(clients),
      rng_(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index) + 1),
      zipf_(OwnedCount(shape, index, clients), shape.zipf_theta),
      members_(static_cast<size_t>(OwnedCount(shape, index, clients))),
      next_fresh_(shape.emps + 1 + static_cast<uint32_t>(index)) {
  if (members_.size() < 2) {
    // A move and a conflicting insert each need a second department.
    std::fprintf(stderr, "perfbench: a client needs two departments\n");
    std::abort();
  }
  for (uint32_t e = 1; e <= shape.emps; ++e) {
    const uint32_t d = e % shape.depts;  // DeptOfEmp's department index
    if (static_cast<int>(d % static_cast<uint32_t>(clients)) != index) {
      continue;
    }
    Place(e, static_cast<int>(d / static_cast<uint32_t>(clients)));
  }
}

uint32_t Client::DeptId(int local) const {
  return kDeptBase + static_cast<uint32_t>(index_) +
         static_cast<uint32_t>(local) * static_cast<uint32_t>(clients_);
}

int Client::PickDept(int min_members) {
  // Zipf first; a drained hot department falls back to a scan, so the
  // draw stays deterministic and always terminates.
  for (int tries = 0; tries < 8; ++tries) {
    const int d = zipf_.Sample(rng_);
    if (static_cast<int>(members_[static_cast<size_t>(d)].size()) >=
        min_members) {
      return d;
    }
  }
  const int n = static_cast<int>(members_.size());
  const int start = zipf_.Sample(rng_);
  for (int k = 0; k < n; ++k) {
    const int d = (start + k) % n;
    if (static_cast<int>(members_[static_cast<size_t>(d)].size()) >=
        min_members) {
      return d;
    }
  }
  return start;  // unreachable while the client owns any employee
}

uint32_t Client::PickMember(int local) {
  const std::vector<uint32_t>& m = members_[static_cast<size_t>(local)];
  return m[static_cast<size_t>(rng_.Below(m.size()))];
}

void Client::Place(uint32_t emp, int local) {
  std::vector<uint32_t>& m = members_[static_cast<size_t>(local)];
  where_[emp] = {local, m.size()};
  m.push_back(emp);
}

void Client::Remove(uint32_t emp) {
  const auto it = where_.find(emp);
  std::vector<uint32_t>& m = members_[static_cast<size_t>(it->second.first)];
  const size_t pos = it->second.second;
  m[pos] = m.back();
  where_[m[pos]].second = pos;
  m.pop_back();
  where_.erase(emp);
}

ViewUpdate Client::Make(Op op, std::vector<Undo>* undo) {
  auto row = [this](uint32_t emp, int local) {
    return Tuple({Value::Const(emp), Value::Const(DeptId(local))});
  };
  switch (op) {
    case Op::kInsert: {
      const int d = PickDept(0);
      const uint32_t emp = next_fresh_;
      next_fresh_ += static_cast<uint32_t>(clients_);
      Place(emp, d);
      undo->push_back({op, emp, -1});
      return ViewUpdate::Insert(row(emp, d));
    }
    case Op::kDelete: {
      const int d = PickDept(2);
      const uint32_t emp = PickMember(d);
      Remove(emp);
      undo->push_back({op, emp, d});
      return ViewUpdate::Delete(row(emp, d));
    }
    case Op::kMove: {
      const int from = PickDept(2);
      int to = zipf_.Sample(rng_);
      if (to == from) to = (from + 1) % static_cast<int>(members_.size());
      const uint32_t emp = PickMember(from);
      Remove(emp);
      Place(emp, to);
      undo->push_back({op, emp, from});
      return ViewUpdate::Replace(row(emp, from), row(emp, to));
    }
    case Op::kConflict: {
      // An existing employee claimed by a second department: Emp -> Dept.
      const int d = PickDept(1);
      const uint32_t emp = PickMember(d);
      const int other = (d + 1) % static_cast<int>(members_.size());
      return ViewUpdate::Insert(row(emp, other));
    }
  }
  return ViewUpdate();
}

PlannedBatch Client::Next() {
  PlannedBatch out;
  ++batches_;
  const bool conflict =
      batches_ % static_cast<uint64_t>(shape_.conflict_every) == 0;
  std::vector<Op> ops;
  if (shape_.batch_size == 1) {
    if (conflict) {
      ops = {Op::kConflict};
    } else {
      static constexpr Op kCycle[] = {Op::kInsert, Op::kMove, Op::kDelete,
                                      Op::kMove};
      ops = {kCycle[singles_++ % 4]};
    }
  } else {
    ops = {Op::kInsert, Op::kDelete, Op::kMove, Op::kMove};
    for (size_t i = ops.size() - 1; i > 0; --i) {
      std::swap(ops[i], ops[static_cast<size_t>(rng_.Below(i + 1))]);
    }
    if (conflict) {
      // The conflicting insert's position cycles so that every run holds
      // the same mix of rollbacks: at 0 nothing was applied yet; at 1..3
      // the batch has mutated and its rollback rebuilds the engine. The
      // middle of the mix (the median rejected batch) is a position-2
      // rejection, not the boundary between two positions.
      static constexpr int kRejectAt[] = {0, 2, 1, 2, 3, 2};
      out.reject_at = kRejectAt[conflicts_++ % 6];
      ops[static_cast<size_t>(out.reject_at)] = Op::kConflict;
    }
  }
  if (conflict && shape_.batch_size == 1) out.reject_at = 0;

  std::vector<Undo> undo;
  for (Op op : ops) out.updates.push_back(Make(op, &undo));
  if (out.reject_at >= 0) {
    // All-or-nothing: a rejected batch leaves the model untouched.
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      if (it->op != Op::kDelete) Remove(it->emp);
      if (it->op != Op::kInsert) Place(it->emp, it->from);
    }
  }
  return out;
}

void Client::AppendViewRows(
    std::vector<std::pair<uint32_t, uint32_t>>* out) const {
  for (size_t d = 0; d < members_.size(); ++d) {
    for (uint32_t emp : members_[d]) {
      out->emplace_back(emp, DeptId(static_cast<int>(d)));
    }
  }
}

std::string Judge(const PlannedBatch& planned,
                  const relview::BatchResult& result) {
  if (planned.reject_at < 0) {
    if (result.ok()) return "";
    return "predicted commit, got " + result.status.ToString();
  }
  if (result.ok()) {
    return "predicted rejection at " + std::to_string(planned.reject_at) +
           ", got commit";
  }
  if (result.status.code() != relview::StatusCode::kUntranslatable) {
    return "predicted untranslatable, got " + result.status.ToString();
  }
  if (result.failed_index != planned.reject_at) {
    return "predicted rejection at " + std::to_string(planned.reject_at) +
           ", got " + std::to_string(result.failed_index);
  }
  return "";
}

std::string CheckEndState(const Relation& db, const Shape& shape,
                          const std::vector<const Client*>& clients,
                          const ChainSchema& schema) {
  using Pair = std::pair<uint32_t, uint32_t>;
  std::vector<Pair> view;
  std::set<Pair> complement;
  view.reserve(static_cast<size_t>(db.size()));
  for (const Tuple& t : db.rows()) {
    view.emplace_back(t[0].index(), t[1].index());
    complement.emplace(t[1].index(), t[2].index());
  }
  std::vector<Pair> model;
  for (const Client* c : clients) c->AppendViewRows(&model);
  std::sort(view.begin(), view.end());
  std::sort(model.begin(), model.end());
  if (view != model) {
    return "pi_X(R) has " + std::to_string(view.size()) +
           " rows, model view has " + std::to_string(model.size()) +
           (view.size() == model.size() ? " (contents differ)" : "");
  }
  std::set<Pair> seed;
  for (uint32_t d = 0; d < shape.depts; ++d) {
    seed.emplace(kDeptBase + d, MgrOfDept(kDeptBase + d));
  }
  if (complement != seed) return "pi_Y(R) differs from the seed's";
  if (!relview::SatisfiesAll(db, schema.sigma)) return "R violates Sigma";
  return "";
}

std::string WireBody(const std::string& tenant,
                     const std::vector<ViewUpdate>& updates) {
  auto row = [](const Tuple& t) {
    return "[" + std::to_string(t[0].index()) + "," +
           std::to_string(t[1].index()) + "]";
  };
  std::string body = "{\"tenant\":\"" + tenant + "\",\"updates\":[";
  for (size_t i = 0; i < updates.size(); ++i) {
    const ViewUpdate& u = updates[i];
    if (i > 0) body += ",";
    switch (u.kind) {
      case relview::UpdateKind::kInsert:
        body += "{\"op\":\"insert\",\"row\":" + row(u.t1) + "}";
        break;
      case relview::UpdateKind::kDelete:
        body += "{\"op\":\"delete\",\"row\":" + row(u.t1) + "}";
        break;
      case relview::UpdateKind::kReplace:
        body += "{\"op\":\"replace\",\"from\":" + row(u.t1) +
                ",\"to\":" + row(u.t2) + "}";
        break;
      case relview::UpdateKind::kNumUpdateKinds:
        break;
    }
  }
  return body + "]}";
}

}  // namespace perfbench

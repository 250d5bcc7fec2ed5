// The benchmark's seeded update stream and its verdict oracle.
//
// Every workload serves the Emp/Dept/Mgr chain of src/net/workload.h:
// Sigma = {Emp -> Dept, Dept -> Mgr}, view X = {Emp, Dept}, constant
// complement Y = {Dept, Mgr}, seeded with employees 1..emps dealt
// round-robin over `depts` departments. A client (writer thread or HTTP
// connection) owns a disjoint set of departments and every employee in
// them, so the verdict of each update it sends depends only on its own
// earlier updates: the predictions below hold under any interleaving of
// clients.
//
// Each client's stream keeps |R| level: a 4-update batch is one fresh
// insert, one delete and two moves (replacements) in random order; a
// 1-update stream cycles insert, move, delete, move. A department never
// loses its last employee, so pi_Y(R) stays the seed's. Every n-th batch
// carries an insert that gives an existing employee a second department:
// Emp -> Dept rejects it, and the whole batch with it.
//
// Predictions and draws are a pure function of the seed; only the seed
// differs between runs of one workload.

#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "deps/dep_set.h"
#include "relational/relation.h"
#include "relational/universe.h"
#include "service/update.h"
#include "service/update_service.h"
#include "util/rng.h"

namespace perfbench {

/// Size and mix of one tenant's stream.
struct Shape {
  uint32_t emps = 16384;    ///< |R| at the seed (one row per employee).
  uint32_t depts = 1024;    ///< Join-key cardinality.
  int batch_size = 4;       ///< 4 (mixed batch) or 1 (cycled singles).
  int conflict_every = 8;   ///< Every n-th batch is predicted rejected.
  double zipf_theta = 0.99;  ///< Skew of the department draw.
};

/// The schema every workload serves.
struct ChainSchema {
  relview::Universe universe;
  relview::DependencySet sigma;
  relview::AttrSet x;  ///< {Emp, Dept}
  relview::AttrSet y;  ///< {Dept, Mgr}
};
ChainSchema MakeChainSchema();

/// {(e, DeptOfEmp(e), MgrOfDept(..)) : e in [1, emps]}.
relview::Relation SeedDatabase(const Shape& shape);

/// One batch with its predicted outcome.
struct PlannedBatch {
  std::vector<relview::ViewUpdate> updates;
  /// Predicted failed_index: -1 when the batch is predicted to commit.
  int reject_at = -1;
};

/// Zipf(theta) over {0..n-1} by inverse CDF.
class Zipf {
 public:
  Zipf(int n, double theta);
  int Sample(relview::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One client's stream and the model of the departments it owns.
class Client {
 public:
  /// Client `index` of `clients` over a tenant of `shape`; the stream is a
  /// pure function of (shape, index, clients, seed).
  Client(const Shape& shape, int index, int clients, uint64_t seed);

  /// The next batch, with its prediction. A batch predicted to commit is
  /// applied to the model; a rejected one leaves no trace, exactly as the
  /// service's all-or-nothing contract says.
  PlannedBatch Next();

  /// The model view rows (emp, dept id) of this client's departments.
  void AppendViewRows(std::vector<std::pair<uint32_t, uint32_t>>* out) const;

 private:
  enum class Op { kInsert, kDelete, kMove, kConflict };
  struct Undo {
    Op op;
    uint32_t emp;
    int from;  ///< Local department before the op (-1 for an insert).
  };

  uint32_t DeptId(int local) const;
  /// A Zipf-drawn owned department holding at least `min_members`.
  int PickDept(int min_members);
  uint32_t PickMember(int local);
  void Place(uint32_t emp, int local);
  void Remove(uint32_t emp);
  relview::ViewUpdate Make(Op op, std::vector<Undo>* undo);

  Shape shape_;
  int index_;
  int clients_;
  relview::Rng rng_;
  Zipf zipf_;
  std::vector<std::vector<uint32_t>> members_;  ///< per owned department
  std::unordered_map<uint32_t, std::pair<int, size_t>> where_;
  uint32_t next_fresh_;
  uint64_t batches_ = 0;
  uint64_t singles_ = 0;
  uint64_t conflicts_ = 0;
};

/// Compares a service outcome with the prediction; "" when they agree.
std::string Judge(const PlannedBatch& planned,
                  const relview::BatchResult& result);

/// The end-state contract: pi_X(db) equals the clients' model view,
/// pi_Y(db) equals the seed's and db satisfies Sigma. "" when it holds.
std::string CheckEndState(const relview::Relation& db, const Shape& shape,
                          const std::vector<const Client*>& clients,
                          const ChainSchema& schema);

/// JSON body of POST /v1/batch for `tenant`.
std::string WireBody(const std::string& tenant,
                     const std::vector<relview::ViewUpdate>& updates);

/// A view tuple no stream ever sends: an unused employee in the first
/// department. Checking its insertion exercises the whole engine.
relview::Tuple ProbeTuple(const Shape& shape);

/// Builds the seeded translator (production defaults) for `shape`.
relview::Result<relview::ViewTranslator> MakeSeededTranslator(
    const ChainSchema& schema, const Shape& shape);

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_

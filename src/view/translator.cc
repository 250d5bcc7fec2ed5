#include "view/translator.h"

#include <algorithm>

#include "deps/satisfies.h"
#include "obs/trace.h"
#include "util/small_util.h"

namespace relview {

ViewTranslator::ViewTranslator(Universe universe, DependencySet sigma,
                               AttrSet x, AttrSet y)
    : universe_(std::move(universe)),
      sigma_(std::move(sigma)),
      x_(x),
      y_(y) {}

ViewTranslator::ViewTranslator(const ViewTranslator& other)
    : universe_(other.universe_),
      sigma_(other.sigma_),
      x_(other.x_),
      y_(other.y_),
      options_(other.options_),
      good_(other.good_),
      database_(other.database_) {}

ViewTranslator& ViewTranslator::operator=(const ViewTranslator& other) {
  if (this == &other) return *this;
  universe_ = other.universe_;
  sigma_ = other.sigma_;
  x_ = other.x_;
  y_ = other.y_;
  options_ = other.options_;
  good_ = other.good_;
  database_ = other.database_;
  engine_.reset();  // caches are per-instance; rebuild lazily
  retired_stats_ = EngineStats{};  // and so are their counters
  return *this;
}

Result<ViewTranslator> ViewTranslator::Create(Universe universe,
                                              DependencySet sigma, AttrSet x,
                                              AttrSet y,
                                              TranslatorOptions options) {
  const AttrSet u = universe.All();
  if (!x.SubsetOf(u) || !y.SubsetOf(u)) {
    return Status::InvalidArgument("view/complement outside the universe");
  }
  if (options.probe_threads < 1) {
    return Status::InvalidArgument("probe_threads must be >= 1");
  }
  if (!AreComplementary(u, sigma, x, y)) {
    return Status::FailedPrecondition(
        "X and Y are not complementary under Sigma (Theorem 1): X=" +
        universe.Format(x) + " Y=" + universe.Format(y));
  }
  ViewTranslator vt(std::move(universe), std::move(sigma), x, y);
  vt.options_ = options;
  vt.good_ = CheckGoodComplement(u, vt.sigma_.fds, x, y);
  return vt;
}

Status ViewTranslator::Bind(Relation database) {
  if (database.attrs() != universe_.All()) {
    return Status::InvalidArgument("database must be over the universe");
  }
  if (!SatisfiesAll(database, sigma_)) {
    return Status::FailedPrecondition("database violates Sigma");
  }
  database.Normalize();
  database_ = std::move(database);
  DropEngine();
  return Status::OK();
}

void ViewTranslator::InstallDatabase(Relation database) {
  database_ = std::move(database);
  DropEngine();
}

namespace {
/// Folds `add` into `total`: counters sum, max_component_size takes the
/// max, and the hit rate is recomputed from the summed hits and misses.
void FoldEngineStats(const EngineStats& add, EngineStats* total) {
  const uint64_t max_component =
      std::max(total->max_component_size, add.max_component_size);
#define RELVIEW_ENGINE_SUM_FIELD(name) total->name += add.name;
  RELVIEW_ENGINE_STAT_FIELDS(RELVIEW_ENGINE_SUM_FIELD)
#undef RELVIEW_ENGINE_SUM_FIELD
  total->max_component_size = max_component;
  const uint64_t lookups = total->closure_hits + total->closure_misses;
  total->closure_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(total->closure_hits) /
                         static_cast<double>(lookups);
}
}  // namespace

void ViewTranslator::DropEngine() {
  if (engine_ == nullptr) return;
  FoldEngineStats(engine_->stats(), &retired_stats_);
  engine_.reset();
}

TranslatabilityEngine* ViewTranslator::EngineOrNull() const {
  if (!options_.incremental || !bound()) return nullptr;
  if (engine_ == nullptr) {
    EngineConfig config;
    config.backend = options_.backend;
    config.store = options_.store;
    if (options_.store == StoreKind::kColumnar) {
      // The columnar store's whole point is the vectorized probe path.
      config.backend = ChaseBackend::kColumnar;
    }
    config.probe_threads = options_.probe_threads;
    config.pair_screen = options_.pair_screen;
    config.closure_cache_capacity = options_.closure_cache_capacity;
    engine_ = std::make_unique<TranslatabilityEngine>(
        universe_.All(), sigma_.fds, x_, y_, config);
    engine_->Rebuild(*database_);
  }
  return engine_.get();
}

EngineStats ViewTranslator::engine_stats() const {
  EngineStats out = retired_stats_;
  if (engine_ != nullptr) FoldEngineStats(engine_->stats(), &out);
  return out;
}

Result<Relation> ViewTranslator::ViewInstance() const {
  if (!bound()) return Status::FailedPrecondition("no database bound");
  if (TranslatabilityEngine* engine = EngineOrNull()) {
    return engine->view();
  }
  return database_->Project(x_);
}

Result<InsertionReport> ViewTranslator::CanInsert(const Tuple& t) const {
  if (TranslatabilityEngine* engine = EngineOrNull()) {
    return engine->CheckInsert(t);
  }
  RELVIEW_ASSIGN_OR_RETURN(Relation v, ViewInstance());
  return CheckInsertion(universe_.All(), sigma_.fds, x_, y_, v, t);
}

Result<DeletionReport> ViewTranslator::CanDelete(const Tuple& t) const {
  if (TranslatabilityEngine* engine = EngineOrNull()) {
    return engine->CheckDelete(t);
  }
  RELVIEW_ASSIGN_OR_RETURN(Relation v, ViewInstance());
  return CheckDeletion(universe_.All(), sigma_.fds, x_, y_, v, t);
}

Result<ReplacementReport> ViewTranslator::CanReplace(const Tuple& t1,
                                                     const Tuple& t2) const {
  if (TranslatabilityEngine* engine = EngineOrNull()) {
    return engine->CheckReplace(t1, t2);
  }
  RELVIEW_ASSIGN_OR_RETURN(Relation v, ViewInstance());
  return CheckReplacement(universe_.All(), sigma_.fds, x_, y_, v, t1, t2);
}

Result<InsertionReport> ViewTranslator::InsertWithReport(const Tuple& t) {
  RELVIEW_TRACE_SPAN("translator.insert");
  RELVIEW_ASSIGN_OR_RETURN(InsertionReport report, CanInsert(t));
  if (!report.translatable() ||
      report.verdict == TranslationVerdict::kIdentity) {
    return report;
  }
  Timer apply_timer;
  RELVIEW_ASSIGN_OR_RETURN(
      Relation updated,
      ApplyInsertion(universe_.All(), x_, y_, *database_, t));
  if (options_.paranoid_checks) {
    RELVIEW_DCHECK(SatisfiesAll(updated, sigma_.fds),
                   "translated insertion produced an illegal database");
  }
  database_ = std::move(updated);
  if (engine_ != nullptr) engine_->NotifyInsert(t);
  report.apply_nanos = apply_timer.ElapsedNanos();
  return report;
}

Result<DeletionReport> ViewTranslator::DeleteWithReport(const Tuple& t) {
  RELVIEW_TRACE_SPAN("translator.delete");
  RELVIEW_ASSIGN_OR_RETURN(DeletionReport report, CanDelete(t));
  if (!report.translatable() ||
      report.verdict == TranslationVerdict::kIdentity) {
    return report;
  }
  Timer apply_timer;
  RELVIEW_ASSIGN_OR_RETURN(
      Relation updated,
      ApplyDeletion(universe_.All(), x_, y_, *database_, t));
  database_ = std::move(updated);
  if (engine_ != nullptr) engine_->NotifyDelete(t);
  report.apply_nanos = apply_timer.ElapsedNanos();
  return report;
}

Result<ReplacementReport> ViewTranslator::ReplaceWithReport(
    const Tuple& t1, const Tuple& t2) {
  RELVIEW_TRACE_SPAN("translator.replace");
  RELVIEW_ASSIGN_OR_RETURN(ReplacementReport report, CanReplace(t1, t2));
  if (!report.translatable() ||
      report.verdict == TranslationVerdict::kIdentity) {
    return report;
  }
  Timer apply_timer;
  RELVIEW_ASSIGN_OR_RETURN(
      Relation updated,
      ApplyReplacement(universe_.All(), x_, y_, *database_, t1, t2));
  if (options_.paranoid_checks) {
    RELVIEW_DCHECK(SatisfiesAll(updated, sigma_.fds),
                   "translated replacement produced an illegal database");
  }
  database_ = std::move(updated);
  if (engine_ != nullptr) engine_->NotifyReplace(t1, t2);
  report.apply_nanos = apply_timer.ElapsedNanos();
  return report;
}

Status ViewTranslator::Insert(const Tuple& t) {
  RELVIEW_ASSIGN_OR_RETURN(InsertionReport report, InsertWithReport(t));
  if (!report.translatable()) {
    return Status::Untranslatable(report.ToString());
  }
  return Status::OK();
}

Status ViewTranslator::Delete(const Tuple& t) {
  RELVIEW_ASSIGN_OR_RETURN(DeletionReport report, DeleteWithReport(t));
  if (!report.translatable()) {
    return Status::Untranslatable(TranslationVerdictName(report.verdict));
  }
  return Status::OK();
}

Status ViewTranslator::Replace(const Tuple& t1, const Tuple& t2) {
  RELVIEW_ASSIGN_OR_RETURN(ReplacementReport report,
                           ReplaceWithReport(t1, t2));
  if (!report.translatable()) {
    return Status::Untranslatable(TranslationVerdictName(report.verdict));
  }
  return Status::OK();
}

}  // namespace relview

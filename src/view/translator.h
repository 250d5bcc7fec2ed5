/// \file
/// ViewTranslator: the user-facing facade. Owns the schema (U, Sigma), a
/// view X, a constant complement Y, and (optionally) a bound database
/// instance. Implements the paper's full scenario: the user declares a view
/// and a complement (validated for complementarity, Theorem 1), then issues
/// view updates which are checked (Theorems 3, 8, 9) and — when
/// translatable — applied to the underlying database as the unique
/// constant-complement translation.
///
/// By default checks run on the incremental engine (view_index.h): the
/// view instance, its indexes, and the base-chase fixpoint persist across
/// calls and are maintained in place when an accepted update is applied,
/// so a sustained update stream amortizes all per-check setup. Verdicts
/// and witnesses are identical to the from-scratch free functions; set
/// TranslatorOptions.incremental = false to run those directly instead.

#ifndef RELVIEW_VIEW_TRANSLATOR_H_
#define RELVIEW_VIEW_TRANSLATOR_H_

#include <memory>
#include <optional>

#include "deps/dep_set.h"
#include "relational/relation.h"
#include "relational/universe.h"
#include "util/status.h"
#include "view/complement.h"
#include "view/deletion.h"
#include "view/insertion.h"
#include "view/replacement.h"
#include "view/test2.h"
#include "view/view_index.h"

namespace relview {

/// Tuning knobs for ViewTranslator::Create.
struct TranslatorOptions {
  /// Serve checks from the persistent view index + cached base chase.
  bool incremental = true;
  /// Fan condition-(c) probes out over this many threads (engine only).
  int probe_threads = 1;
  /// Screen probes with Test 1's closure criterion first (engine only;
  /// sound — never changes a verdict or witness).
  bool pair_screen = true;
  /// Entry capacity of the engine's attribute-closure cache.
  size_t closure_cache_capacity = ClosureCache::kDefaultCapacity;
  /// Re-verify SatisfiesAll after every applied translation. The Apply*
  /// translations are legality-preserving by Theorems 3/8/9, so this is a
  /// paranoia knob: it costs O(|R|·|Sigma|) per write.
  bool paranoid_checks = false;
  /// Instance-chase implementation used by the checks.
  ChaseBackend backend = ChaseBackend::kHash;
  /// Storage layout for the engine's view instance. kColumnar keeps each
  /// attribute as a contiguous dictionary-code vector and forces the
  /// chase backend to kColumnar (the vectorized probe path reads codes
  /// directly); kRowHash is the row-at-a-time reference layout.
  StoreKind store = StoreKind::kRowHash;
};

/// The paper's full scenario behind one object: declare a view X with a
/// constant complement Y over (U, Sigma), bind an instance, then issue
/// view updates that are checked and translated per Theorems 3/8/9.
class ViewTranslator {
 public:
  /// Validates that x and y are complementary under sigma (Theorem 1 /
  /// Theorem 10) and that sigma's FDs are canonical. The Universe is kept
  /// for diagnostics only.
  static Result<ViewTranslator> Create(Universe universe,
                                       DependencySet sigma, AttrSet x,
                                       AttrSet y,
                                       TranslatorOptions options = {});

  /// Copies share schema and database but not caches: the copy rebuilds
  /// its engine lazily on first use. Moves carry the engine along.
  ViewTranslator(const ViewTranslator& other);
  /// Copy assignment; same cache semantics as the copy constructor.
  ViewTranslator& operator=(const ViewTranslator& other);
  /// Move; carries the live engine along.
  ViewTranslator(ViewTranslator&&) = default;
  /// Move assignment; carries the live engine along.
  ViewTranslator& operator=(ViewTranslator&&) = default;

  /// The attribute universe U.
  const Universe& universe() const { return universe_; }
  /// The dependency set Sigma (canonical FDs).
  const DependencySet& sigma() const { return sigma_; }
  /// The view attributes X.
  const AttrSet& view() const { return x_; }
  /// The complement attributes Y.
  const AttrSet& complement() const { return y_; }
  /// The options this translator was created with.
  const TranslatorOptions& options() const { return options_; }

  /// Whether Y is a good complement (Test 2 precomputation; cached).
  bool complement_is_good() const { return good_.good; }
  /// The full Test 2 report behind complement_is_good().
  const GoodComplementReport& good_report() const { return good_; }

  /// Binds the database instance the view is computed from. Must satisfy
  /// sigma.
  Status Bind(Relation database);
  /// Whether a database instance is bound.
  bool bound() const { return database_.has_value(); }
  /// The bound database (undefined before a successful Bind).
  const Relation& database() const { return *database_; }

  /// Replaces the bound database without re-validating Sigma. For trusted
  /// callers (the service layer) installing a relation produced by the
  /// Apply* translations, which are legality-preserving by Theorems 3/8/9.
  void InstallDatabase(Relation database);

  /// pi_X of the bound database (served from the engine's cached view
  /// when live).
  Result<Relation> ViewInstance() const;

  /// Translatability check for inserting `t` (Theorem 3); no mutation.
  Result<InsertionReport> CanInsert(const Tuple& t) const;
  /// Translatability check for deleting `t` (Theorem 8); no mutation.
  Result<DeletionReport> CanDelete(const Tuple& t) const;
  /// Translatability check for replacing `t1` by `t2` (Theorem 9); no
  /// mutation.
  Result<ReplacementReport> CanReplace(const Tuple& t1,
                                       const Tuple& t2) const;

  /// Check-and-apply insertion returning the full report (verdict +
  /// witness + timing). The update is applied — and the engine's caches
  /// maintained incrementally — only for a translatable, non-identity
  /// verdict; an untranslatable verdict is returned in the report, not as
  /// an error.
  Result<InsertionReport> InsertWithReport(const Tuple& t);
  /// Check-and-apply deletion; report semantics as InsertWithReport.
  Result<DeletionReport> DeleteWithReport(const Tuple& t);
  /// Check-and-apply replacement; report semantics as InsertWithReport.
  Result<ReplacementReport> ReplaceWithReport(const Tuple& t1,
                                              const Tuple& t2);

  /// Check-and-apply insertion. Returns Untranslatable (with the verdict
  /// in the message) when rejected; on success the bound database is
  /// updated in place and maps onto the updated view.
  Status Insert(const Tuple& t);
  /// Check-and-apply deletion; status semantics as Insert.
  Status Delete(const Tuple& t);
  /// Check-and-apply replacement; status semantics as Insert.
  Status Replace(const Tuple& t1, const Tuple& t2);

  /// Engine counters over this translator's life: Bind and
  /// InstallDatabase drop the engine, but its counters are folded in
  /// (summed; max_component_size takes the max), so every value is
  /// monotone and index_rebuilds counts every rebuild. A copy starts from
  /// zero.
  EngineStats engine_stats() const;

 private:
  ViewTranslator(Universe universe, DependencySet sigma, AttrSet x,
                 AttrSet y);

  /// The live engine, built on demand. Null when incremental is off or no
  /// database is bound.
  TranslatabilityEngine* EngineOrNull() const;

  /// Drops the live engine, folding its counters into retired_stats_.
  void DropEngine();

  Universe universe_;
  DependencySet sigma_;
  AttrSet x_;
  AttrSet y_;
  TranslatorOptions options_;
  GoodComplementReport good_;
  std::optional<Relation> database_;
  mutable std::unique_ptr<TranslatabilityEngine> engine_;
  /// Counters of the engines DropEngine discarded (see engine_stats()).
  EngineStats retired_stats_;
};

}  // namespace relview

#endif  // RELVIEW_VIEW_TRANSLATOR_H_

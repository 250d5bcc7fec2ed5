// view_shell: an interactive (or scripted) shell around the relview
// library. Declare a schema, a view and a complement; load rows; issue
// view updates and watch the constant-complement translation work (or
// refuse, with the failing condition of Theorem 3/8/9). Updates are served
// through the UpdateService layer, so the shell also demonstrates the
// durable store (journal + checkpoints, recovered on bind), atomic
// batches, and the service metrics.
//
// Commands (one per line; '#' starts a comment):
//   schema <Attr> <Attr> ...          declare the universe
//   fd <A> <B> ... -> <C> ...         add FDs
//   view <Attr> ...                   declare the view X
//   complement <Attr> ...             declare the complement Y (validated)
//   complement auto                   use a minimal complement (Cor. 2)
//   row <val> <val> ...               add a database row (over U)
//   load <file>                       load rows from a delimited file
//                                     (header must name the attributes)
//   datadir <dir> [every [rotate]]    crash-safe store: accepted updates
//                                     are journaled (rotated segments) and
//                                     checkpointed under <dir>; auto-
//                                     checkpoint every <every> records
//                                     (default 1024), rotate segments at
//                                     <rotate> records (default 4096).
//                                     Set before 'bind'; 'bind' recovers
//   checkpoint                        force a checkpoint of the committed
//                                     state now (then compact segments)
//   recover                           rebuild the service from the durable
//                                     state under datadir (checkpoint +
//                                     journal suffix) and report what the
//                                     recovery path did
//   failpoint <name> <spec>           arm a fault-injection point (see
//                                     docs/OPERATIONS.md), e.g.
//                                     'failpoint commit.fsync error' (a
//                                     failed fsync refuses every later
//                                     write until 'recover');
//                                     'failpoint list' / 'failpoint clear'
//   bind                              validate Sigma and start translating
//   insert <val> ...                  insert a view tuple (over X)
//   delete <val> ...                  delete a view tuple
//   replace <val> ... -> <val> ...    replace a view tuple
//   batch begin | commit | abort      stage updates; commit applies them
//                                     all-or-nothing as one version
//   metrics                           dump service metrics as JSON
//   trace on [N]                      trace spans, sampling 1 in N roots
//   trace off                         stop tracing
//   trace dump [file]                 without a file: flat text to stdout;
//                                     with one: Chrome trace_event JSON
//                                     (chrome://tracing / Perfetto)
//   telemetry [json]                  Prometheus text exposition (or the
//                                     combined JSON document) of service,
//                                     engine, journal and tracer metrics
//   explain [last]                    provenance of the last rejected (or
//                                     last, with 'last') update decision:
//                                     failing condition, FD, violator row
//   show db | view | hidden           print the database / view
//   advise <val> ...                  find a complement making the
//                                     insertion translatable (Thm. 6)
//   quit
//
// Run the demo script:  ./build/examples/view_shell < examples/demo.rvsh
// Or interactively:     ./build/examples/view_shell

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <fstream>

#include "obs/telemetry.h"
#include "relational/csv.h"
#include "service/update_service.h"
#include "util/failpoint.h"
#include "view/find_complement.h"
#include "view/translator.h"

using namespace relview;

namespace {

class Shell {
 public:
  int Run(std::istream& in) {
    std::string line;
    const bool interactive = &in == &std::cin && isatty(0);
    while (true) {
      if (interactive) std::printf(batch_ ? "relview(batch)> " : "relview> ");
      if (!std::getline(in, line)) break;
      const std::string trimmed = Strip(line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      if (trimmed == "quit" || trimmed == "exit") break;
      Status st = Dispatch(trimmed);
      if (!st.ok()) std::printf("  ! %s\n", st.ToString().c_str());
    }
    return 0;
  }

 private:
  static std::string Strip(const std::string& s) {
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
  }

  static std::vector<std::string> Tokens(const std::string& s) {
    std::istringstream in(s);
    std::vector<std::string> out;
    std::string tok;
    while (in >> tok) out.push_back(tok);
    return out;
  }

  Status Dispatch(const std::string& line) {
    std::vector<std::string> tok = Tokens(line);
    const std::string& cmd = tok[0];
    const std::string rest = Strip(line.substr(cmd.size()));
    if (cmd == "schema") return CmdSchema(rest);
    if (cmd == "fd") return CmdFd(rest);
    if (cmd == "view") return CmdView(rest);
    if (cmd == "complement") return CmdComplement(rest);
    if (cmd == "row") return CmdRow(tok);
    if (cmd == "load") return CmdLoad(rest);
    if (cmd == "datadir") return CmdDataDir(tok);
    if (cmd == "checkpoint") return CmdCheckpoint();
    if (cmd == "recover") return CmdRecover();
    if (cmd == "failpoint") return CmdFailpoint(tok);
    if (cmd == "bind") return CmdBind();
    if (cmd == "insert") return CmdInsert(tok);
    if (cmd == "delete") return CmdDelete(tok);
    if (cmd == "replace") return CmdReplace(tok);
    if (cmd == "batch") return CmdBatch(rest);
    if (cmd == "metrics") return CmdMetrics();
    if (cmd == "trace") return CmdTrace(tok);
    if (cmd == "telemetry") return CmdTelemetry(rest);
    if (cmd == "explain") return CmdExplain(rest);
    if (cmd == "show") return CmdShow(rest);
    if (cmd == "advise") return CmdAdvise(tok);
    return Status::InvalidArgument("unknown command: " + cmd);
  }

  Status CmdSchema(const std::string& names) {
    RELVIEW_ASSIGN_OR_RETURN(universe_, Universe::Parse(names));
    sigma_ = DependencySet();
    rows_.clear();
    service_.reset();
    batch_.reset();
    std::printf("  universe U = %s (%d attributes)\n",
                universe_.Format(universe_.All()).c_str(),
                universe_.size());
    return Status::OK();
  }

  Status CmdFd(const std::string& text) {
    RELVIEW_ASSIGN_OR_RETURN(std::vector<FD> fds, ParseFDs(universe_, text));
    for (const FD& fd : fds) sigma_.fds.Add(fd);
    std::printf("  Sigma = %s\n", sigma_.fds.ToString(&universe_).c_str());
    return Status::OK();
  }

  Status CmdView(const std::string& names) {
    RELVIEW_ASSIGN_OR_RETURN(x_, universe_.Set(names));
    std::printf("  view X = %s\n", universe_.Format(x_).c_str());
    return Status::OK();
  }

  Status CmdComplement(const std::string& names) {
    if (names == "auto") {
      y_ = MinimalComplement(universe_.All(), sigma_, x_);
      std::printf("  minimal complement Y = %s\n",
                  universe_.Format(y_).c_str());
      return Status::OK();
    }
    RELVIEW_ASSIGN_OR_RETURN(AttrSet y, universe_.Set(names));
    if (!AreComplementary(universe_.All(), sigma_, x_, y)) {
      return Status::FailedPrecondition(
          "not a complement of the view (Theorem 1)");
    }
    y_ = y;
    std::printf("  complement Y = %s\n", universe_.Format(y_).c_str());
    return Status::OK();
  }

  Result<Tuple> ParseTuple(const std::vector<std::string>& tok, size_t from,
                           size_t count) {
    if (tok.size() - from < count) {
      return Status::InvalidArgument("expected " + std::to_string(count) +
                                     " values");
    }
    std::vector<Value> vals;
    for (size_t i = from; i < from + count; ++i) {
      vals.push_back(pool_.Intern(tok[i]));
    }
    return Tuple(std::move(vals));
  }

  Status CmdRow(const std::vector<std::string>& tok) {
    RELVIEW_ASSIGN_OR_RETURN(
        Tuple t, ParseTuple(tok, 1, static_cast<size_t>(universe_.size())));
    rows_.push_back(std::move(t));
    std::printf("  %zu row(s) staged\n", rows_.size());
    return Status::OK();
  }

  Status CmdLoad(const std::string& path) {
    std::ifstream in(path);
    if (!in) return Status::NotFound("cannot open " + path);
    RELVIEW_ASSIGN_OR_RETURN(CsvResult table,
                             ReadTable(in, &pool_, &universe_));
    if (table.relation.attrs() != universe_.All()) {
      return Status::InvalidArgument(
          "file header must name every attribute of U");
    }
    for (const Tuple& r : table.relation.rows()) rows_.push_back(r);
    std::printf("  loaded %d rows (%zu staged)\n", table.relation.size(),
                rows_.size());
    return Status::OK();
  }

  Status CmdDataDir(const std::vector<std::string>& tok) {
    if (tok.size() < 2 || tok.size() > 4) {
      return Status::InvalidArgument("usage: datadir <dir> [every [rotate]]");
    }
    if (service_) {
      return Status::FailedPrecondition(
          "set the datadir before 'bind' (it recovers onto the seed rows)");
    }
    store_opts_.dir = tok[1];
    store_opts_.checkpoint_every = 1024;
    if (tok.size() > 2) {
      store_opts_.checkpoint_every =
          static_cast<uint64_t>(std::atoll(tok[2].c_str()));
    }
    if (tok.size() > 3) {
      const long long n = std::atoll(tok[3].c_str());
      if (n < 1) return Status::InvalidArgument("rotate must be >= 1");
      store_opts_.rotate_records = static_cast<uint64_t>(n);
    }
    std::printf(
        "  durable store at %s (checkpoint every %llu, rotate at %llu); "
        "'bind' recovers\n",
        store_opts_.dir.c_str(),
        static_cast<unsigned long long>(store_opts_.checkpoint_every),
        static_cast<unsigned long long>(store_opts_.rotate_records));
    return Status::OK();
  }

  Status CmdCheckpoint() {
    RELVIEW_RETURN_IF_ERROR(NeedService());
    RELVIEW_ASSIGN_OR_RETURN(uint64_t seq, service_->Checkpoint());
    const DurableStore* store = service_->store();
    std::printf("  checkpoint covers seq %llu (%d live segment(s), "
                "compaction lag %llu)\n",
                static_cast<unsigned long long>(seq), store->segment_count(),
                static_cast<unsigned long long>(store->compaction_lag()));
    return Status::OK();
  }

  Status CmdRecover() {
    if (store_opts_.dir.empty()) {
      return Status::FailedPrecondition("set 'datadir <dir>' first");
    }
    service_.reset();
    RELVIEW_RETURN_IF_ERROR(CmdBind());
    const RecoveryInfo& info = service_->store()->recovery();
    std::printf("  recovery: %s, replayed %llu record(s), now at seq %llu "
                "(%d segment(s))\n",
                info.used_checkpoint
                    ? ("from checkpoint seq " +
                       std::to_string(info.checkpoint_seq))
                          .c_str()
                    : "full replay from seed",
                static_cast<unsigned long long>(info.replayed),
                static_cast<unsigned long long>(info.recovered_seq),
                info.segments);
    for (const std::string& w : info.warnings) {
      std::printf("  recovery warning: %s\n", w.c_str());
    }
    return Status::OK();
  }

  Status CmdFailpoint(const std::vector<std::string>& tok) {
    if (tok.size() == 2 && tok[1] == "list") {
      const std::vector<std::string> armed = Failpoints::Armed();
      for (const std::string& name : armed) {
        std::printf("  %s: %llu hit(s)\n", name.c_str(),
                    static_cast<unsigned long long>(Failpoints::Hits(name)));
      }
      if (armed.empty()) std::printf("  no failpoints armed\n");
      return Status::OK();
    }
    if (tok.size() >= 2 && tok[1] == "clear") {
      if (tok.size() == 3) {
        Failpoints::Clear(tok[2]);
      } else {
        Failpoints::ClearAll();
      }
      std::printf("  failpoint(s) cleared\n");
      return Status::OK();
    }
    if (tok.size() != 3) {
      return Status::InvalidArgument(
          "usage: failpoint <name> <spec> | failpoint clear [<name>] | "
          "failpoint list");
    }
    RELVIEW_RETURN_IF_ERROR(Failpoints::Set(tok[1], tok[2]));
    std::printf("  failpoint %s armed: %s\n", tok[1].c_str(), tok[2].c_str());
    return Status::OK();
  }

  Status CmdBind() {
    RELVIEW_ASSIGN_OR_RETURN(
        ViewTranslator vt,
        ViewTranslator::Create(universe_, sigma_, x_, y_));
    Relation db(universe_.All());
    for (const Tuple& r : rows_) db.AddRow(r);
    RELVIEW_RETURN_IF_ERROR(vt.Bind(std::move(db)));
    const bool good = vt.complement_is_good();
    ServiceOptions options;
    options.store = store_opts_;
    RELVIEW_ASSIGN_OR_RETURN(service_,
                             UpdateService::Create(std::move(vt), options));
    // Re-registering on rebind replaces the previous service's collectors.
    service_->RegisterTelemetry(&GlobalTelemetry());
    GlobalTelemetry().Register(
        "tracer", [] { return CollectTracerStats(GlobalTracer()); });
    GlobalTelemetry().RegisterJson(
        "tracer", [] { return TracerStatsJson(GlobalTracer()); });
    std::printf("  bound %zu rows; complement is %s\n", rows_.size(),
                good ? "good (Test 2 exact)" : "not good (exact test in use)");
    if (service_->replayed_updates() > 0) {
      // Replayed records carry raw value ids this process never interned;
      // advance the pool past them (as "c<id>", matching the fallback
      // display name) so newly typed symbols can't collide with them.
      uint32_t max_id = 0;
      bool any = false;
      for (const Tuple& r : service_->Snapshot().database->rows()) {
        for (const Value& v : r.values()) {
          if (v.is_const() && v.index() >= max_id) {
            max_id = v.index();
            any = true;
          }
        }
      }
      while (any && pool_.size() <= static_cast<int>(max_id)) {
        pool_.Intern("c" + std::to_string(pool_.size()));
      }
      std::printf("  journal replayed %llu update(s); view now has %d rows\n",
                  static_cast<unsigned long long>(
                      service_->replayed_updates()),
                  service_->Snapshot().view->size());
    }
    return Status::OK();
  }

  Status NeedService() const {
    if (!service_) {
      return Status::FailedPrecondition("run 'bind' first");
    }
    return Status::OK();
  }

  /// Applies immediately, or stages when a batch is open.
  Status Submit(ViewUpdate u) {
    const char* name = UpdateKindName(u.kind);
    if (batch_) {
      batch_->push_back(std::move(u));
      std::printf("  %s staged (batch of %zu; 'batch commit' to apply)\n",
                  name, batch_->size());
      return Status::OK();
    }
    Status st = service_->Apply(u);
    std::printf("  %s: %s\n", name, st.ok() ? "ok" : st.ToString().c_str());
    return Status::OK();
  }

  Status CmdInsert(const std::vector<std::string>& tok) {
    RELVIEW_RETURN_IF_ERROR(NeedService());
    RELVIEW_ASSIGN_OR_RETURN(
        Tuple t, ParseTuple(tok, 1, static_cast<size_t>(x_.Count())));
    return Submit(ViewUpdate::Insert(std::move(t)));
  }

  Status CmdDelete(const std::vector<std::string>& tok) {
    RELVIEW_RETURN_IF_ERROR(NeedService());
    RELVIEW_ASSIGN_OR_RETURN(
        Tuple t, ParseTuple(tok, 1, static_cast<size_t>(x_.Count())));
    return Submit(ViewUpdate::Delete(std::move(t)));
  }

  Status CmdReplace(const std::vector<std::string>& tok) {
    RELVIEW_RETURN_IF_ERROR(NeedService());
    const size_t k = static_cast<size_t>(x_.Count());
    // replace v1.. -> v2..
    size_t arrow = 0;
    for (size_t i = 1; i < tok.size(); ++i) {
      if (tok[i] == "->") arrow = i;
    }
    if (arrow != 1 + k || tok.size() != 2 + 2 * k) {
      return Status::InvalidArgument("usage: replace <t1...> -> <t2...>");
    }
    RELVIEW_ASSIGN_OR_RETURN(Tuple t1, ParseTuple(tok, 1, k));
    RELVIEW_ASSIGN_OR_RETURN(Tuple t2, ParseTuple(tok, arrow + 1, k));
    return Submit(ViewUpdate::Replace(std::move(t1), std::move(t2)));
  }

  Status CmdBatch(const std::string& what) {
    RELVIEW_RETURN_IF_ERROR(NeedService());
    if (what == "begin") {
      if (batch_) return Status::FailedPrecondition("batch already open");
      batch_.emplace();
      std::printf("  batch open; updates stage until 'batch commit'\n");
      return Status::OK();
    }
    if (what == "abort") {
      if (!batch_) return Status::FailedPrecondition("no open batch");
      std::printf("  batch aborted (%zu staged update(s) dropped)\n",
                  batch_->size());
      batch_.reset();
      return Status::OK();
    }
    if (what == "commit") {
      if (!batch_) return Status::FailedPrecondition("no open batch");
      std::vector<ViewUpdate> updates = std::move(*batch_);
      batch_.reset();
      BatchResult r = service_->ApplyBatch(updates);
      if (r.ok()) {
        std::printf("  batch of %zu committed as version %llu\n",
                    updates.size(),
                    static_cast<unsigned long long>(service_->version()));
      } else {
        std::printf(
            "  batch rolled back: update %d (%s) rejected: %s\n",
            r.failed_index,
            r.failed_index >= 0
                ? updates[static_cast<size_t>(r.failed_index)].ToString()
                      .c_str()
                : "?",
            r.detail.empty() ? r.status.ToString().c_str()
                             : r.detail.c_str());
      }
      return Status::OK();
    }
    return Status::InvalidArgument("usage: batch begin | commit | abort");
  }

  Status CmdMetrics() {
    RELVIEW_RETURN_IF_ERROR(NeedService());
    std::printf("%s\n", service_->metrics().ToJson().c_str());
    return Status::OK();
  }

  Status CmdTrace(const std::vector<std::string>& tok) {
    const std::string what = tok.size() > 1 ? tok[1] : "";
    Tracer& tracer = GlobalTracer();
    if (what == "on") {
      uint32_t every = 1;
      if (tok.size() > 2) {
        const long n = std::atol(tok[2].c_str());
        if (n < 1) return Status::InvalidArgument("usage: trace on [N>=1]");
        every = static_cast<uint32_t>(n);
      }
      tracer.Enable(every);
      std::printf("  tracing on (sampling 1 in %u root spans)\n", every);
      return Status::OK();
    }
    if (what == "off") {
      tracer.Disable();
      const TracerStats s = tracer.stats();
      std::printf("  tracing off (%llu span(s) recorded, %llu buffered)\n",
                  static_cast<unsigned long long>(s.spans_recorded),
                  static_cast<unsigned long long>(s.records_buffered));
      return Status::OK();
    }
    if (what == "dump") {
      if (tok.size() > 2) {
        std::ofstream out(tok[2]);
        if (!out) return Status::InvalidArgument("cannot write " + tok[2]);
        out << tracer.ExportChromeTrace();
        std::printf("  wrote Chrome trace to %s (load in chrome://tracing)\n",
                    tok[2].c_str());
      } else {
        std::printf("%s", tracer.ExportText().c_str());
      }
      return Status::OK();
    }
    return Status::InvalidArgument("usage: trace on [N] | off | dump [file]");
  }

  Status CmdTelemetry(const std::string& what) {
    RELVIEW_RETURN_IF_ERROR(NeedService());
    if (what == "json") {
      std::printf("%s\n", GlobalTelemetry().RenderJson().c_str());
      return Status::OK();
    }
    if (!what.empty()) {
      return Status::InvalidArgument("usage: telemetry [json]");
    }
    std::printf("%s", GlobalTelemetry().RenderPrometheus().c_str());
    return Status::OK();
  }

  Status CmdExplain(const std::string& what) {
    RELVIEW_RETURN_IF_ERROR(NeedService());
    std::optional<DecisionTrace> trace;
    if (what == "last") {
      trace = service_->decisions().Last();
      if (!trace) return Status::NotFound("no decisions recorded yet");
    } else if (what.empty()) {
      trace = service_->decisions().LastRejected();
      if (!trace) {
        return Status::NotFound(
            "no rejected decision retained ('explain last' for the most "
            "recent decision of any outcome)");
      }
    } else {
      return Status::InvalidArgument("usage: explain [last]");
    }
    std::printf("%s", trace->ToString(&universe_).c_str());
    return Status::OK();
  }

  Status CmdShow(const std::string& what) {
    RELVIEW_RETURN_IF_ERROR(NeedService());
    const ViewSnapshot snap = service_->Snapshot();
    if (what == "db") {
      std::printf("%s", snap.database->ToString(&universe_, &pool_).c_str());
      return Status::OK();
    }
    if (what == "view") {
      std::printf("%s", snap.view->ToString(&universe_, &pool_).c_str());
      return Status::OK();
    }
    if (what == "hidden") {
      std::printf("%s", snap.database->Project(y_)
                            .ToString(&universe_, &pool_)
                            .c_str());
      return Status::OK();
    }
    return Status::InvalidArgument("show db | view | hidden");
  }

  Status CmdAdvise(const std::vector<std::string>& tok) {
    RELVIEW_RETURN_IF_ERROR(NeedService());
    RELVIEW_ASSIGN_OR_RETURN(
        Tuple t, ParseTuple(tok, 1, static_cast<size_t>(x_.Count())));
    const ViewSnapshot snap = service_->Snapshot();
    RELVIEW_ASSIGN_OR_RETURN(
        FindComplementResult res,
        FindTranslatingComplement(universe_.All(), sigma_.fds, x_,
                                  *snap.view, t));
    if (res.found) {
      std::printf("  translatable under constant Y = %s\n",
                  universe_.Format(res.complement).c_str());
    } else {
      std::printf("  no complement of the form W ∪ (U − X) works "
                  "(%d candidates tried)\n",
                  res.candidates);
    }
    return Status::OK();
  }

  Universe universe_;
  DependencySet sigma_;
  AttrSet x_, y_;
  ValuePool pool_;
  std::vector<Tuple> rows_;
  StoreOptions store_opts_;
  std::unique_ptr<UpdateService> service_;
  std::optional<std::vector<ViewUpdate>> batch_;
};

}  // namespace

int main() {
  // Operators can pre-arm fault injection, e.g.
  //   RELVIEW_FAILPOINTS="commit.fsync=error@2" ./view_shell
  Status fp = Failpoints::InstallFromEnv();
  if (!fp.ok()) {
    std::fprintf(stderr, "RELVIEW_FAILPOINTS: %s\n", fp.ToString().c_str());
    return 2;
  }
  Shell shell;
  return shell.Run(std::cin);
}

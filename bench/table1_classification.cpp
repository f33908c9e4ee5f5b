// Table 1: which classification states self-invalidate (SI) and
// self-downgrade (SD) under the S, P/S, and P/S3 schemes.
//
// The table is generated from the *live* policy code (core/policy.hpp) so
// it can never drift from the implementation; the naive P/S variant
// evaluated in §5.1 is shown as a fourth column.
#include "bench/report.hpp"
#include "argo/argo.hpp"

using argocore::DirEntry;
using argocore::Mode;
using argocore::SdAction;

namespace {

struct State {
  const char* name;
  const char* comment;
  DirEntry entry;  // as seen by node 0 ("me")
};

std::string si_sd(Mode m, const State& s) {
  const bool si = argocore::si_required(m, s.entry, 0);
  const bool sd =
      argocore::sd_action(m, s.entry, 0) == SdAction::WriteBack;
  std::string out;
  out += si ? "SI" : "--";
  out += " ";
  out += sd ? "SD" : (m == Mode::PSNaive ? "CK" : "--");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Only the shared flags are accepted; the table has no sweep to shape.
  (void)benchutil::BenchOpts::parse(argc, argv);
  benchutil::header("Table 1",
                    "classification x (SI, SD) matrix, from live policy code");

  // Node 0 is "me", node 1 the other sharer; the entry builders place the
  // bits in whatever word covers each node.
  const State states[] = {
      {"P", "private to me", DirEntry::accessor(0)},
      {"S,NW", "shared, no writers",
       DirEntry::reader(0).add_reader(1)},
      {"S,SW(me)", "shared, I am the single writer",
       DirEntry::reader(0).add_reader(1).add_writer(0)},
      {"S,SW(other)", "shared, another node is the single writer",
       DirEntry::reader(0).add_reader(1).add_writer(1)},
      {"S,MW", "shared, multiple writers",
       DirEntry::reader(0).add_reader(1).add_writer(0).add_writer(1)},
  };

  benchutil::Table t({"state", "S", "P/S(naive)", "P/S", "P/S3", "meaning"});
  for (const State& s : states)
    t.row({s.name, si_sd(Mode::S, s), si_sd(Mode::PSNaive, s),
           si_sd(Mode::PS, s), si_sd(Mode::PS3, s), s.comment});
  t.print();

  benchutil::note("");
  benchutil::note("SI = self-invalidate at acquire fences; SD = self-downgrade");
  benchutil::note("dirty data at release fences; CK = naive P/S checkpoints the");
  benchutil::note("page locally instead of downgrading (the Section 5.1 strawman);");
  benchutil::note("-- = no action needed. As in the paper's Table 1, private pages");
  benchutil::note("self-downgrade under P/S and P/S3 so that P->S transitions never");
  benchutil::note("need an active agent.");
  return 0;
}

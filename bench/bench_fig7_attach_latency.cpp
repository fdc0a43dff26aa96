// Fig.7 — Attachment latency breakdown by module, Magma baseline (BL) vs
// CellBricks (CB), with the SubscriberDB/broker placed locally, in
// "us-west-1", or "us-east-1".
//
// Reproduces: BL pays two round-trips to the SubscriberDB (AIR + ULR); CB
// pays one round-trip to brokerd plus ~2 ms of crypto. CB therefore loses
// slightly when the DB is local and wins increasingly as it moves away
// (paper: -14.0% at us-west-1, -40.8% at us-east-1).
//
// The protocol sweep below runs the same cycle under every attach protocol
// (eps_aka | 5g_aka | sap | sap_resume) per placement — the per-protocol
// attach-latency baseline that tools/bench.sh freezes into BENCH_sap.json.
//
// Usage: bench_fig7_attach_latency [--smoke] [--json FILE]
//   --smoke  8 attach cycles per cell instead of 100 (schema validation
//            only; smoke numbers are not representative)
//   --json   write the per-protocol sweep as machine-readable JSON to FILE
#include <array>
#include <cstdio>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/attach_experiment.hpp"

using namespace cb;
using namespace cb::scenario;

namespace {

struct PaperRef {
  const char* placement;
  double bl_total;
  double cb_total;
};

// Fig.7 as printed in the paper (local read off the bars; WAN given in text).
constexpr PaperRef kPaper[] = {
    {"local", 28.0, 28.5},
    {"us-west-1", 36.85, 31.68},
    {"us-east-1", 166.48, 98.62},
};

constexpr AttachProtocol kProtocols[] = {AttachProtocol::EpsAka, AttachProtocol::Aka5g,
                                         AttachProtocol::Sap, AttachProtocol::SapResume};
static_assert(kProtocols[0] == AttachProtocol::EpsAka && kProtocols[2] == AttachProtocol::Sap);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_fig7_attach_latency [--smoke] [--json FILE]\n");
      return 2;
    }
  }
  const int n = smoke ? 8 : 100;

  // Root obs registry: per-trial metrics merge here in index order
  // (TrialRunner) and the digest prints as the bench footer.
  obs::Registry metrics;
  obs::ScopedRegistry scoped(&metrics);

  std::printf("=== Fig.7: attachment latency breakdown (BL = Magma/EPC baseline, "
              "CB = CellBricks/SAP) ===\n");
  std::printf("%d attach requests per cell; radio/RRC time excluded, as in the paper.\n\n", n);
  std::printf("%-11s %-4s %10s %12s %8s %8s %8s   %s\n", "placement", "arch", "total(ms)",
              "agw+core", "eNB", "UE", "other", "paper-total(ms)");

  // One run per (placement, protocol); the BL and CB rows reuse two of them.
  const auto placements = attach_placements();
  std::vector<std::array<AttachBreakdown, std::size(kProtocols)>> runs(placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    for (std::size_t j = 0; j < std::size(kProtocols); ++j) {
      runs[i][j] = run_attach_experiment(kProtocols[j], placements[i].cloud_rtt, n);
    }
  }

  for (std::size_t i = 0; i < placements.size(); ++i) {
    const auto& p = placements[i];
    const AttachBreakdown& bl = runs[i][0];  // eps_aka
    const AttachBreakdown& cb = runs[i][2];  // sap
    for (const AttachBreakdown* b : {&bl, &cb}) {
      const bool is_cb = b == &cb;
      std::printf("%-11s %-4s %10.2f %12.2f %8.2f %8.2f %8.2f   %.2f\n", p.name.c_str(),
                  is_cb ? "CB" : "BL", b->total_ms, b->agw_core_ms, b->enb_ms, b->ue_ms,
                  b->other_ms, is_cb ? kPaper[i].cb_total : kPaper[i].bl_total);
    }
    if (bl.total_ms > 0) {
      std::printf("  -> CB vs BL: %+.1f%%  (paper: %+.1f%%)\n\n",
                  (cb.total_ms / bl.total_ms - 1.0) * 100.0,
                  (kPaper[i].cb_total / kPaper[i].bl_total - 1.0) * 100.0);
    }
  }
  std::printf("Shape check: CB ~equal locally, faster with remote DB because SAP needs one\n"
              "broker round-trip where the S6A baseline needs two (AIR + ULR).\n");

  // --- Per-protocol sweep ----------------------------------------------------
  std::printf("\n=== Per-protocol attach latency (same cycle, all four protocols) ===\n");
  std::printf("%-11s %-11s %10s %10s %10s %10s\n", "placement", "protocol", "attach(ms)",
              "resume(ms)", "resumes", "fallbacks");
  FILE* json = nullptr;
  if (json_path != nullptr) {
    json = std::fopen(json_path, "w");
    if (json == nullptr) {
      std::perror("bench_fig7_attach_latency: --json open");
      return 2;
    }
    std::fprintf(json, "{\n  \"bench\": \"fig7_attach\",\n  \"mode\": \"%s\",\n"
                       "  \"placements\": [\n",
                 smoke ? "smoke" : "full");
  }
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const auto& p = placements[i];
    if (json != nullptr) {
      std::fprintf(json, "    {\"placement\": \"%s\", \"cloud_rtt_ms\": %.2f, \"protocols\": {",
                   p.name.c_str(), p.cloud_rtt.to_millis());
    }
    for (std::size_t j = 0; j < std::size(kProtocols); ++j) {
      const AttachProtocol proto = kProtocols[j];
      const AttachBreakdown& b = runs[i][j];
      if (proto == AttachProtocol::SapResume) {
        std::printf("%-11s %-11s %10.2f %10.2f %10d %10d\n", p.name.c_str(), to_string(proto),
                    b.total_ms, b.resume_ms, b.resumes, b.resume_fallbacks);
      } else {
        std::printf("%-11s %-11s %10.2f %10s %10s %10s\n", p.name.c_str(), to_string(proto),
                    b.total_ms, "-", "-", "-");
      }
      if (json != nullptr) {
        std::fprintf(json,
                     "%s\n      \"%s\": {\"attach_ms\": %.3f, \"attaches\": %d, "
                     "\"resume_ms\": %.3f, \"resumes\": %d, \"fallbacks\": %d}",
                     j == 0 ? "" : ",", to_string(proto), b.total_ms, b.attaches, b.resume_ms,
                     b.resumes, b.resume_fallbacks);
      }
    }
    if (json != nullptr) {
      std::fprintf(json, "}}%s\n", i + 1 < placements.size() ? "," : "");
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
  }
  std::printf("(5g_aka pays a third home round-trip over eps_aka; sap_resume's resume\n"
              " column is the local-verification re-attach — no broker on the path)\n");
  std::printf("\n%s\n", metrics.digest().c_str());
  return 0;
}

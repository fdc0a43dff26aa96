#include "check/attach_invariants.hpp"

#include <sstream>
#include <string>
#include <unordered_set>

#include "common/bytes.hpp"

namespace cb::check {

namespace {

using When = InvariantEngine::When;
using Reporter = InvariantEngine::Reporter;

}  // namespace

void install_attach_invariants(InvariantEngine& engine, scenario::World& world) {
  auto* w = &world;

  engine.add("attach.no_session_without_auth", When::Periodic, [w](Reporter& r) {
    // MNO side: the SPGW anchors a bearer only after the MME ran the full
    // dialog (AKA + SMC + ULR). A session with zero completed attaches means
    // an authentication step was skipped.
    if (w->mme() != nullptr && w->ue_nas() != nullptr) {
      const bool has_bearer = w->mme()->spgw().has_session(w->ue_nas()->imsi());
      if (has_bearer && w->mme()->attaches_completed() == 0) {
        r.fail("SPGW holds a bearer for " + w->ue_nas()->imsi() +
               " but the MME never completed an attach");
      }
    }
    // CellBricks side: a resume served by a bTelco that never joined the
    // ticket federation would mean the local verifier ran without a STEK.
    for (std::size_t i = 0; i < w->n_btelcos(); ++i) {
      auto* t = w->btelco(i);
      if (t->resumes_served() != 0 && !t->resume_enabled()) {
        std::ostringstream s;
        s << t->id() << ": served " << t->resumes_served()
          << " resume(s) without resumption enabled";
        r.fail(s.str());
      }
    }
  });

  engine.add("attach.ticket_validity", When::Periodic, [w](Reporter& r) {
    for (std::size_t i = 0; i < w->n_btelcos(); ++i) {
      auto* t = w->btelco(i);
      std::unordered_set<std::string> seen;
      for (const auto& a : t->ticket_audit()) {
        const std::string tid = to_hex(a.ticket_id);
        if (a.accepted_at_ns >= a.expiry_ns) {
          std::ostringstream s;
          s << t->id() << ": ticket " << tid << " honoured at " << a.accepted_at_ns
            << " ns, at/past its expiry " << a.expiry_ns << " ns";
          r.fail(s.str());
        }
        if (!seen.insert(tid).second) {
          std::ostringstream s;
          s << t->id() << ": ticket " << tid << " honoured more than once "
            << "(single-use per bTelco)";
          r.fail(s.str());
        }
        if (a.was_revoked) {
          std::ostringstream s;
          s << t->id() << ": ticket " << tid << " honoured for revoked subscriber "
            << a.pseudonym;
          r.fail(s.str());
        }
      }
    }
  });

  engine.add("attach.resume_billing", When::EndOnly, [w](Reporter& r) {
    // Resumption must never mint a session the broker cannot bill: every
    // audited resume points at a broker-issued record in the settlement log.
    for (std::size_t i = 0; i < w->n_btelcos(); ++i) {
      auto* t = w->btelco(i);
      for (const auto& a : t->ticket_audit()) {
        if (!w->broker_cluster()->observer().sessions().contains(a.session_id)) {
          std::ostringstream s;
          s << t->id() << ": resumed session " << a.session_id
            << " has no broker-issued billing record";
          r.fail(s.str());
        }
      }
      // Revocation settled: once the run ends, a revoked pseudonym may not
      // still hold a live session at the bTelco that revoked it.
      if (t->revoked_pseudonyms().empty()) continue;
      for (const std::string& p : t->session_pseudonyms()) {
        if (t->revoked_pseudonyms().contains(p)) {
          std::ostringstream s;
          s << t->id() << ": revoked subscriber " << p << " still holds a live session";
          r.fail(s.str());
        }
      }
    }
  });
}

}  // namespace cb::check

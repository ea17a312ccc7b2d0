// RSVP-style soft-state reservation signalling (paper refs [2,18]).
//
// Receiver-oriented, soft-state resource reservation reduced to the
// mechanics the analysis rests on:
//   * PATH: the sender advertises a session along the routed path,
//     installing path state at every hop;
//   * RESV: the receiver requests a FlowSpec hop-by-hop back toward
//     the sender; each link runs admission control and either commits
//     bandwidth or rejects the whole request (ResvErr);
//   * soft state: both kinds of state expire unless refreshed;
//   * teardown: explicit release.
// The paper's single-link admission rule (accept at most k_max flows)
// is the homogeneous special case of this machinery — shown in tests.
//
// Sessions route over net2::Topology's min-hop paths. Its links are
// undirected, so a reservation books a link's one capacity in
// whichever direction the session crosses it: sessions in opposite
// directions share it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bevr/net/admission.h"
#include "bevr/net/flowspec.h"
#include "bevr/net2/topology.h"
#include "bevr/obs/metrics.h"

namespace bevr::net {

using NodeId = net2::NodeId;
using LinkId = net2::LinkId;
using SessionId = std::uint64_t;

/// Outcome of a RESV request.
enum class ResvResult {
  kCommitted,       ///< reserved on every hop
  kAdmissionDenied, ///< some hop refused; what was held before stays
  kNoPathState,     ///< PATH missing/expired on some hop
};

/// Per-link, per-session reservation record.
struct Reservation {
  FlowSpec spec;
  double expires_at = 0.0;
};

class RsvpAgent {
 public:
  /// `refresh_timeout`: soft-state lifetime granted by each PATH/RESV
  /// or refresh message.
  RsvpAgent(std::shared_ptr<const net2::Topology> topology,
            std::shared_ptr<const AdmissionController> admission,
            double refresh_timeout = 30.0);

  /// Sender side: install PATH state along the min-hop path from src
  /// to dst; returns the new session id, or nullopt when no route
  /// exists. Throws std::invalid_argument for a node the topology
  /// lacks.
  [[nodiscard]] std::optional<SessionId> open_session(NodeId src, NodeId dst,
                                                      double now);

  /// Receiver side: request a reservation for the session. A session
  /// that already holds one asks to replace it: each hop admits the
  /// new spec against its load without the session's own reservation,
  /// and a denied modification leaves the old reservation in place
  /// (RFC 2205).
  [[nodiscard]] ResvResult reserve(SessionId session, const FlowSpec& spec,
                                   double now);

  /// Refresh both path and reservation state (extends expiry).
  void refresh(SessionId session, double now);

  /// Explicit teardown; releases reserved bandwidth at every hop.
  void teardown(SessionId session, double now);

  /// Expire stale soft state; call periodically with the current time.
  void expire(double now);

  /// Σ reserved rates on a link (0 if none).
  [[nodiscard]] double reserved_on_link(LinkId link) const;

  /// Number of sessions holding a committed reservation.
  [[nodiscard]] std::size_t committed_sessions() const;

  /// Whether the session currently holds a committed reservation.
  [[nodiscard]] bool has_reservation(SessionId session) const;

  /// The links the session's PATH state covers, in order, valid until
  /// the session is torn down or expires. Throws std::out_of_range for
  /// a session that is not open.
  [[nodiscard]] std::span<const LinkId> path(SessionId session) const;

  /// Feed a measured-load estimate for a link (for measurement-based
  /// admission controllers). Throws std::out_of_range for a link the
  /// topology lacks.
  void set_measured_load(LinkId link, double load);

 private:
  struct SessionState {
    std::vector<LinkId> path;
    double path_expires_at = 0.0;
    bool reserved = false;
    FlowSpec spec;
  };

  void release_links(SessionId id, const SessionState& session);
  /// Σ reserved rates on a link over every session but `except`.
  [[nodiscard]] double reserved_without(LinkId link, SessionId except) const;

  std::shared_ptr<const net2::Topology> topology_;
  std::shared_ptr<const AdmissionController> admission_;
  // Admission outcomes, process-wide (obs registry counters).
  obs::Counter obs_granted_;
  obs::Counter obs_denied_;
  double refresh_timeout_;
  SessionId next_session_ = 1;
  std::map<SessionId, SessionState> sessions_;
  std::map<LinkId, std::map<SessionId, Reservation>> link_reservations_;
  std::map<LinkId, double> measured_load_;
};

}  // namespace bevr::net

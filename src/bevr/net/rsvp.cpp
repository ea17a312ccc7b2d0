#include "bevr/net/rsvp.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "bevr/obs/metrics.h"

namespace bevr::net {

namespace {

/// Session ids start at 1, so 0 excludes no session.
constexpr SessionId kNoSession = 0;

}  // namespace

RsvpAgent::RsvpAgent(std::shared_ptr<const net2::Topology> topology,
                     std::shared_ptr<const AdmissionController> admission,
                     double refresh_timeout)
    : topology_(std::move(topology)),
      admission_(std::move(admission)),
      refresh_timeout_(refresh_timeout) {
  if (!topology_) throw std::invalid_argument("RsvpAgent: null topology");
  if (!admission_) throw std::invalid_argument("RsvpAgent: null admission");
  if (!(refresh_timeout > 0.0)) {
    throw std::invalid_argument("RsvpAgent: refresh_timeout must be > 0");
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs_granted_ = registry.counter("net/reservations/granted");
  obs_denied_ = registry.counter("net/reservations/denied");
}

std::optional<SessionId> RsvpAgent::open_session(NodeId src, NodeId dst,
                                                 double now) {
  const auto path = topology_->shortest_path(src, dst);
  if (!path) return std::nullopt;
  SessionState state;
  state.path = *path;
  state.path_expires_at = now + refresh_timeout_;
  const SessionId id = next_session_++;
  sessions_.emplace(id, std::move(state));
  return id;
}

ResvResult RsvpAgent::reserve(SessionId session, const FlowSpec& spec,
                              double now) {
  spec.validate();
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || it->second.path_expires_at < now) {
    return ResvResult::kNoPathState;
  }
  SessionState& state = it->second;
  // Hop-by-hop admission; all-or-nothing commit. A re-reservation is
  // admitted as a replacement, not a stack: each hop counts every
  // reservation but the session's own, which stays until the new one
  // commits over it.
  for (const LinkId lid : state.path) {
    LinkAdmissionState link_state;
    link_state.capacity = topology_->link(lid).capacity;
    link_state.reserved_sum = reserved_without(lid, session);
    const auto measured = measured_load_.find(lid);
    link_state.measured_load =
        measured != measured_load_.end() ? measured->second : 0.0;
    if (!admission_->admit(link_state, spec)) {
      obs_denied_.inc();
      return ResvResult::kAdmissionDenied;
    }
  }
  for (const LinkId lid : state.path) {
    link_reservations_[lid][session] =
        Reservation{spec, now + refresh_timeout_};
  }
  state.reserved = true;
  state.spec = spec;
  obs_granted_.inc();
  return ResvResult::kCommitted;
}

void RsvpAgent::refresh(SessionId session, double now) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  SessionState& state = it->second;
  state.path_expires_at = now + refresh_timeout_;
  if (state.reserved) {
    for (const LinkId lid : state.path) {
      const auto reservations = link_reservations_.find(lid);
      if (reservations == link_reservations_.end()) continue;
      const auto r = reservations->second.find(session);
      if (r != reservations->second.end()) {
        r->second.expires_at = now + refresh_timeout_;
      }
    }
  }
}

void RsvpAgent::teardown(SessionId session, double /*now*/) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  release_links(session, it->second);
  sessions_.erase(it);
}

void RsvpAgent::expire(double now) {
  // Expire reservations first, then whole sessions whose path state is
  // stale (soft-state semantics: silence kills the reservation).
  for (auto& [lid, table] : link_reservations_) {
    for (auto r = table.begin(); r != table.end();) {
      if (r->second.expires_at < now) {
        const auto session = sessions_.find(r->first);
        if (session != sessions_.end()) session->second.reserved = false;
        r = table.erase(r);
      } else {
        ++r;
      }
    }
  }
  for (auto s = sessions_.begin(); s != sessions_.end();) {
    if (s->second.path_expires_at < now) {
      release_links(s->first, s->second);
      s = sessions_.erase(s);
    } else {
      ++s;
    }
  }
}

double RsvpAgent::reserved_on_link(LinkId link) const {
  return reserved_without(link, kNoSession);
}

double RsvpAgent::reserved_without(LinkId link, SessionId except) const {
  const auto it = link_reservations_.find(link);
  if (it == link_reservations_.end()) return 0.0;
  double total = 0.0;
  for (const auto& [session, reservation] : it->second) {
    if (session != except) total += reservation.spec.rspec.rate;
  }
  return total;
}

std::size_t RsvpAgent::committed_sessions() const {
  std::size_t count = 0;
  for (const auto& [id, state] : sessions_) {
    if (state.reserved) ++count;
  }
  return count;
}

bool RsvpAgent::has_reservation(SessionId session) const {
  const auto it = sessions_.find(session);
  return it != sessions_.end() && it->second.reserved;
}

std::span<const LinkId> RsvpAgent::path(SessionId session) const {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    throw std::out_of_range("RsvpAgent: unknown session " +
                            std::to_string(session));
  }
  return it->second.path;
}

void RsvpAgent::set_measured_load(LinkId link, double load) {
  (void)topology_->link(link);  // throws std::out_of_range
  if (!(load >= 0.0)) {
    throw std::invalid_argument("RsvpAgent: load must be >= 0");
  }
  measured_load_[link] = load;
}

void RsvpAgent::release_links(SessionId id, const SessionState& session) {
  for (const LinkId lid : session.path) {
    const auto table = link_reservations_.find(lid);
    if (table != link_reservations_.end()) table->second.erase(id);
  }
}

}  // namespace bevr::net

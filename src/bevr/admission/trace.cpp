#include "bevr/admission/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace bevr::admission {

std::string to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kPoisson:
      return "poisson";
    case TraceKind::kBursty:
      return "bursty";
    case TraceKind::kFile:
      return "file";
  }
  throw std::invalid_argument("to_string: unknown TraceKind");
}

void TraceSpec::validate() const {
  if (kind == TraceKind::kFile) {
    if (path.empty()) {
      throw std::invalid_argument("TraceSpec: file traces need a path");
    }
    return;  // remaining knobs are generator-only
  }
  if (!(horizon > 0.0) || !std::isfinite(horizon)) {
    throw std::invalid_argument("TraceSpec: horizon must be finite and > 0");
  }
  if (!(mean_duration > 0.0) || !std::isfinite(mean_duration)) {
    throw std::invalid_argument(
        "TraceSpec: mean_duration must be finite and > 0");
  }
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw std::invalid_argument("TraceSpec: rate must be finite and > 0");
  }
  if (!(book_ahead >= 0.0) || !std::isfinite(book_ahead)) {
    throw std::invalid_argument(
        "TraceSpec: book_ahead must be finite and >= 0");
  }
  if (!(cancel_p >= 0.0) || !(cancel_p <= 1.0)) {
    throw std::invalid_argument("TraceSpec: cancel_p must lie in [0, 1]");
  }
  if (kind == TraceKind::kPoisson) {
    if (!(arrival_rate > 0.0) || !std::isfinite(arrival_rate)) {
      throw std::invalid_argument(
          "TraceSpec: arrival_rate must be finite and > 0");
    }
  } else {  // kBursty
    if (!(burst_hot_rate > 0.0) || !(burst_cold_rate > 0.0) ||
        !std::isfinite(burst_hot_rate) || !std::isfinite(burst_cold_rate)) {
      throw std::invalid_argument(
          "TraceSpec: burst rates must be finite and > 0");
    }
    if (!(burst_hot_p >= 0.0) || !(burst_hot_p <= 1.0)) {
      throw std::invalid_argument("TraceSpec: burst_hot_p must lie in [0, 1]");
    }
  }
}

ArrivalTrace generate_trace(const TraceSpec& spec, const sim::Rng& root) {
  spec.validate();
  if (spec.kind == TraceKind::kFile) {
    throw std::invalid_argument(
        "generate_trace: file traces are loaded, not generated");
  }
  // One decorrelated sub-stream per request field: toggling the
  // book-ahead or cancellation knobs must leave the arrival point
  // process bit-identical, or cross-knob comparisons measure the draw
  // instead of the policy.
  sim::Rng interarrivals = root.split(0);
  sim::Rng durations = root.split(1);
  sim::Rng leads = root.split(2);
  sim::Rng cancels = root.split(3);

  // The gap to the next start, drawn from the interarrival stream.
  const auto gap = [&spec](sim::Rng& rng) {
    if (spec.kind == TraceKind::kPoisson) {
      return rng.exponential(1.0 / spec.arrival_rate);
    }
    const bool hot = rng.bernoulli(spec.burst_hot_p);
    return rng.exponential(1.0 /
                           (hot ? spec.burst_hot_rate : spec.burst_cold_rate));
  };
  // Count the requests on a copy of the interarrival stream, so the
  // trace is allocated once, at its exact size.
  std::size_t requests = 0;
  sim::Rng count = interarrivals;
  for (double start = gap(count); start <= spec.horizon;
       start += gap(count)) {
    ++requests;
  }

  ArrivalTrace trace;
  trace.horizon = spec.horizon;
  trace.requests.reserve(requests);
  double start = 0.0;
  for (;;) {
    start += gap(interarrivals);
    if (start > spec.horizon) break;

    FlowRequest req;
    req.start = start;
    req.duration = durations.exponential(spec.mean_duration);
    req.rate = spec.rate;
    req.submit = spec.book_ahead > 0.0
                     ? std::max(0.0, start - leads.exponential(spec.book_ahead))
                     : start;
    if (spec.cancel_p > 0.0 && cancels.bernoulli(spec.cancel_p) &&
        req.submit < req.start) {
      req.cancel =
          req.submit + cancels.uniform() * (req.start - req.submit);
    }
    trace.requests.push_back(req);
  }
  // The generator emits in start order; the admission engine consumes
  // in submit order. Stable sort keeps simultaneous submits in their
  // generation order, which the determinism goldens pin. Without
  // book-ahead the trace is already in submit order, and the sort's
  // buffer is skipped.
  const auto submits_before = [](const FlowRequest& a, const FlowRequest& b) {
    return a.submit < b.submit;
  };
  if (!std::is_sorted(trace.requests.begin(), trace.requests.end(),
                      submits_before)) {
    std::stable_sort(trace.requests.begin(), trace.requests.end(),
                     submits_before);
  }
  return trace;
}

namespace {

[[noreturn]] void bad_line(std::size_t line_number, const std::string& what) {
  std::ostringstream msg;
  msg << "parse_trace: line " << line_number << ": " << what;
  throw std::invalid_argument(msg.str());
}

double parse_field(std::istringstream& fields, std::size_t line_number,
                   const char* name) {
  double value = 0.0;
  if (!(fields >> value)) {
    std::ostringstream msg;
    msg << "missing or non-numeric " << name;
    bad_line(line_number, msg.str());
  }
  if (!std::isfinite(value)) {
    std::ostringstream msg;
    msg << name << " must be finite";
    bad_line(line_number, msg.str());
  }
  return value;
}

}  // namespace

ArrivalTrace parse_trace(std::istream& in) {
  ArrivalTrace trace;
  std::string line;
  std::size_t line_number = 0;
  double last_submit = 0.0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t first =
        line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;

    std::istringstream fields(line);
    FlowRequest req;
    req.submit = parse_field(fields, line_number, "submit time");
    req.start = parse_field(fields, line_number, "start time");
    req.duration = parse_field(fields, line_number, "duration");
    req.rate = parse_field(fields, line_number, "rate");
    std::string extra;
    if (fields >> extra) {
      bad_line(line_number, "trailing field '" + extra + "'");
    }
    if (req.submit < 0.0) bad_line(line_number, "submit time must be >= 0");
    if (req.start < req.submit) {
      bad_line(line_number, "start time precedes submit time");
    }
    if (!(req.duration > 0.0)) bad_line(line_number, "duration must be > 0");
    if (!(req.rate > 0.0)) bad_line(line_number, "rate must be > 0");
    if (req.submit < last_submit) {
      bad_line(line_number, "submit times must be sorted");
    }
    last_submit = req.submit;
    trace.horizon = std::max(trace.horizon, req.start);
    trace.requests.push_back(req);
  }
  return trace;
}

ArrivalTrace load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("load_trace: cannot open '" + path + "'");
  }
  return parse_trace(in);
}

}  // namespace bevr::admission

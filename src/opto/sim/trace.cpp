#include "opto/sim/trace.hpp"

#include <sstream>

namespace opto {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::Inject:
      return "inject";
    case TraceKind::Admit:
      return "admit";
    case TraceKind::Retune:
      return "retune";
    case TraceKind::Kill:
      return "kill";
    case TraceKind::Truncate:
      return "truncate";
    case TraceKind::Deliver:
      return "deliver";
    case TraceKind::FaultKill:
      return "fault-kill";
    case TraceKind::Corrupt:
      return "corrupt";
  }
  return "?";
}

std::string Trace::describe(const TraceEvent& event) {
  std::ostringstream os;
  os << "t=" << event.time << " " << to_string(event.kind) << " worm="
     << event.worm;
  if (event.link != kInvalidEdge)
    os << " link=" << event.link << " wl=" << event.wavelength;
  if (event.other != kInvalidWorm) os << " by=" << event.other;
  return os.str();
}

}  // namespace opto

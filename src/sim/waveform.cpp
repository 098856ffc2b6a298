#include "sim/waveform.hpp"

#include <algorithm>
#include <sstream>

#include "util/strings.hpp"

namespace genfv::sim {

std::vector<WaveSignal> default_signals(const ir::TransitionSystem& ts) {
  std::vector<WaveSignal> signals;
  for (const ir::NodeRef in : ts.inputs()) signals.push_back({in->name(), in});
  for (const auto& s : ts.states()) signals.push_back({s.var->name(), s.var});
  return signals;
}

std::string render_waveform(const Trace& trace, const std::vector<WaveSignal>& signals,
                            const WaveformOptions& options) {
  const std::size_t frames = trace.size();
  std::ostringstream out;

  // Collect cell text first to compute column widths.
  std::vector<std::vector<std::string>> cells(signals.size());
  std::size_t label_width = 4;  // "time"
  for (std::size_t s = 0; s < signals.size(); ++s) {
    label_width = std::max(label_width, signals[s].label.size());
    cells[s].reserve(frames);
    for (std::size_t f = 0; f < frames; ++f) {
      const std::uint64_t v = trace.value(signals[s].expr, f);
      const unsigned w = signals[s].expr->width();
      if (w == 1) {
        cells[s].push_back(v ? "1" : "0");
      } else {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
        cells[s].push_back(buf);
      }
    }
  }
  std::size_t cell_width = 2;
  for (const auto& row : cells) {
    for (const auto& cell : row) cell_width = std::max(cell_width, cell.size());
  }

  // Header: frame indices, with a failure marker when requested.
  out << std::string(label_width, ' ') << " |";
  for (std::size_t f = 0; f < frames; ++f) {
    std::string head = "t" + std::to_string(f);
    if (f == options.failure_frame) head += "*";
    out << ' ' << head << std::string(head.size() < cell_width ? cell_width - head.size() : 0, ' ')
        << " |";
  }
  out << '\n';
  out << std::string(label_width, '-') << "-+";
  for (std::size_t f = 0; f < frames; ++f) {
    out << std::string(cell_width + 2, '-') << '+';
  }
  out << '\n';

  for (std::size_t s = 0; s < signals.size(); ++s) {
    out << signals[s].label << std::string(label_width - signals[s].label.size(), ' ') << " |";
    for (std::size_t f = 0; f < frames; ++f) {
      const auto& cell = cells[s][f];
      out << ' ' << cell << std::string(cell_width - cell.size(), ' ') << " |";
    }
    out << '\n';
  }
  if (options.failure_frame != static_cast<std::size_t>(-1) &&
      options.failure_frame < frames) {
    out << "(* = frame where the property fails)\n";
  }
  return out.str();
}

std::string render_bit_diff(const Trace& trace, std::size_t frame, const std::string& label_a,
                            ir::NodeRef a, const std::string& label_b, ir::NodeRef b) {
  if (a->width() != b->width()) return {};
  const std::uint64_t va = trace.value(a, frame);
  const std::uint64_t vb = trace.value(b, frame);
  if (va == vb) return {};
  std::ostringstream out;
  out << "value mismatch at t" << frame << ": " << label_a << " = "
      << util::hex_literal(va, a->width()) << ", " << label_b << " = "
      << util::hex_literal(vb, b->width()) << "; differing bits:";
  for (unsigned i = a->width(); i-- > 0;) {
    const unsigned bit_a = (va >> i) & 1U;
    const unsigned bit_b = (vb >> i) & 1U;
    if (bit_a != bit_b) {
      out << " [bit " << i << ": " << label_a << "=" << bit_a << " " << label_b << "="
          << bit_b << "]";
    }
  }
  return out.str();
}

}  // namespace genfv::sim

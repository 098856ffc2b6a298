#pragma once

/// \file waveform.hpp
/// ASCII waveform rendering of traces — the textual stand-in for the
/// waveform diagrams a commercial formal tool shows on an induction-step
/// failure (paper Fig. 3). The rendered text is what the (simulated) LLM
/// receives inside its prompt.

#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace genfv::sim {

/// One displayed row: a label and the expression it tracks.
struct WaveSignal {
  std::string label;
  ir::NodeRef expr = nullptr;
};

/// Multi-bit values render in hex, 1-bit values as 0/1.
struct WaveformOptions {
  /// Frame index to flag as the failure point (rendered with a marker);
  /// SIZE_MAX = none.
  std::size_t failure_frame = static_cast<std::size_t>(-1);
};

/// Render `signals` over all frames of `trace` as an aligned text table.
std::string render_waveform(const Trace& trace, const std::vector<WaveSignal>& signals,
                            const WaveformOptions& options = {});

/// Convenience: default signal list of a system (all inputs + states).
std::vector<WaveSignal> default_signals(const ir::TransitionSystem& ts);

/// Render a comparison callout between two same-width expressions at one
/// frame, highlighting differing bit positions (e.g. "bit 31: count1=1
/// count2=0"). Returns an empty string when the values are equal.
std::string render_bit_diff(const Trace& trace, std::size_t frame, const std::string& label_a,
                            ir::NodeRef a, const std::string& label_b, ir::NodeRef b);

}  // namespace genfv::sim

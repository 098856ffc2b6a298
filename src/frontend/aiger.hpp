#pragma once

/// \file aiger.hpp
/// AIGER frontend: the HWMCC and-inverter-graph interchange format, both the
/// ASCII variant ("aag" header) and the binary variant ("aig" header, delta-
/// encoded gate section). AIGER is the lingua franca of hardware model
/// checking, so this reader is what lets every engine in the repo run real
/// competition designs instead of only the built-in zoo.
///
/// Model mapping (docs/frontends.md has the full table):
///  * AIGER inputs            -> width-1 TS inputs,
///  * latches                 -> width-1 TS states; reset 0/1 -> constant
///                               init, reset == the latch's own literal ->
///                               uninitialized (AIGER 1.9 semantics),
///  * bad-state literals (B)  -> safety properties `!bad` with stable
///                               synthesized names `bad_N` (symbol-table
///                               names win when present),
///  * outputs (O)             -> treated as bad-state literals when the file
///                               has no B section (the HWMCC'10 convention
///                               for AIGER 1.0 files); named signals
///                               otherwise,
///  * invariant constraints (C) -> TS environment constraints,
///  * justice / fairness      -> rejected (liveness is out of scope).
///
/// Every malformed input is reported as a located, non-crashing
/// `ParseError` ("file:line: message"; the binary gate section reports
/// "file:<byte N>").

#include <string>
#include <string_view>

#include "ir/transition_system.hpp"

namespace genfv::frontend {

/// Parse AIGER text/bytes (ASCII "aag" or binary "aig") into a transition
/// system. `filename` seeds error locations and the system name.
ir::TransitionSystem parse_aiger(std::string_view text,
                                 const std::string& filename = "<aiger>");

/// Read + parse an AIGER file (binary-safe). Throws Error on I/O failure,
/// ParseError on malformed content.
ir::TransitionSystem read_aiger_file(const std::string& path);

/// Render `ts` as an ASCII AIGER 1.9 "aag" file: word-level expressions are
/// bit-blasted into AND/NOT gates (one AIGER input/latch per bit, LSB
/// first, named `<name>_<bit>`; width-1 objects keep their plain name),
/// Target properties become bad-state literals carrying the property name
/// as a `b<pos>` symbol, and environment constraints become the C section.
/// Throws UsageError for systems the format cannot express (a register
/// whose init expression does not fold to a constant).
std::string write_aiger(const ir::TransitionSystem& ts);

/// Same model mapping as write_aiger, rendered as the binary "aig" variant
/// (implied input/latch literals, delta-varint gate section). The writer's
/// contiguous variable layout is already the normal form the binary format
/// demands, so this needs no external conversion step.
std::string write_aiger_binary(const ir::TransitionSystem& ts);

/// File output; a ".aig" extension (any case) selects the binary variant,
/// anything else the ASCII one. The file is rendered before it is opened, so
/// a system the format cannot express throws UsageError and leaves an
/// existing file unchanged. Throws UsageError("cannot write '<path>'") on
/// I/O failure (util::write_file).
void write_aiger_file(const std::string& path, const ir::TransitionSystem& ts);

}  // namespace genfv::frontend

#pragma once

/// \file serialize.hpp
/// Text serialization of transition systems, in a BTOR2-inspired line
/// format. Lets users dump an elaborated design to disk (`genfv_cli
/// --dump-ts`) and diff two elaborations. The format is write-only: genfv
/// reads designs as SystemVerilog, AIGER or BTOR2, never as a dump.
///
/// Format (one definition per line, SSA-style ids):
///   genfv-ts 1
///   name <module-name>
///   1 input <width> <name>
///   2 state <width> <name>
///   3 const <width> <hex-value>
///   4 add <width> 2 3
///   5 extract <width> 4 <hi> <lo>
///   init 2 3
///   next 2 4
///   constraint 5
///   property <role> <name-token> 5 # <source text...>
///   signal <name> 4
/// Ids refer to earlier lines only; names are whitespace-free tokens.

#include <string>

#include "ir/transition_system.hpp"

namespace genfv::ir {

/// Serialize `ts` to the text format above.
std::string serialize(const TransitionSystem& ts);

}  // namespace genfv::ir

#include "flow/session.hpp"

#include <fstream>
#include <sstream>

#include "frontend/aiger.hpp"
#include "frontend/btor2.hpp"
#include "hdl/elaborator.hpp"
#include "sva/compiler.hpp"
#include "util/files.hpp"
#include "util/status.hpp"

namespace genfv::flow {

VerificationTask VerificationTask::from_rtl(const std::string& name, const std::string& spec,
                                            const std::string& rtl,
                                            const std::vector<TargetSpec>& targets) {
  VerificationTask task;
  task.name = name;
  task.spec = spec;
  task.rtl = rtl;
  auto elab = hdl::elaborate_source(rtl);
  task.ts = std::move(elab.ts);
  for (const auto& t : targets) {
    task.target_indices.push_back(
        sva::add_property(task.ts, t.sva, ir::PropertyRole::Target, t.name));
  }
  return task;
}

VerificationTask VerificationTask::from_file(const std::string& path) {
  VerificationTask task;
  const std::string ext = util::lower_extension(path);
  if (ext == "aag" || ext == "aig") {
    task.ts = frontend::read_aiger_file(path);
  } else if (ext == "btor" || ext == "btor2") {
    task.ts = frontend::read_btor2_file(path);
  } else {
    std::ifstream in(path);
    if (!in) throw Error("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    task.rtl = buffer.str();
    auto elab = hdl::elaborate_source(task.rtl);
    task.ts = std::move(elab.ts);
  }
  task.name = task.ts.name();
  for (std::size_t i = 0; i < task.ts.num_properties(); ++i) {
    if (task.ts.property(i).role == ir::PropertyRole::Target) {
      task.target_indices.push_back(i);
    }
  }
  return task;
}

std::vector<ir::NodeRef> VerificationTask::target_exprs() const {
  std::vector<ir::NodeRef> exprs;
  exprs.reserve(target_indices.size());
  for (const std::size_t i : target_indices) exprs.push_back(ts.property(i).expr);
  return exprs;
}

std::vector<std::string> VerificationTask::target_svas() const {
  std::vector<std::string> svas;
  svas.reserve(target_indices.size());
  for (const std::size_t i : target_indices) svas.push_back(ts.property(i).source_text);
  return svas;
}

EngineSession::EngineSession(VerificationTask task)
    : task_(std::move(task)), pristine_(task_.ts.mark()) {
  for (const std::size_t i : task_.target_indices) {
    GENFV_ASSERT(i < pristine_.properties,
                 "EngineSession: target index beyond the pristine mark");
  }
}

void EngineSession::reset() { task_.ts.rollback(pristine_); }

mc::EngineResult EngineSession::run_job(mc::EngineKind kind,
                                        const mc::EngineOptions& options) {
  reset();
  // A fresh engine per job: engine instances absorb solver stats across
  // prove calls, so reuse would leak job N's counters into job N+1.
  const auto engine = mc::make_engine(kind, task_.ts, options);
  ++jobs_run_;
  return engine->prove_all(task_.target_exprs());
}

}  // namespace genfv::flow

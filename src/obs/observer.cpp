#include "obs/observer.hpp"

namespace smartmem::obs {

Observer::Observer(ObsConfig config) : config_(std::move(config)) {
  if (config_.trace_enabled()) {
    TraceConfig tcfg;
    tcfg.categories = config_.trace_categories;
    tcfg.sample_every = config_.trace_sample_every;
    trace_ = std::make_unique<TraceRecorder>(tcfg);
  }
  if (config_.metrics_enabled()) {
    registry_ = std::make_unique<Registry>();
  }
  if (config_.audit_enabled()) {
    audit_ = std::make_unique<AuditLog>();
  }
}

bool Observer::export_all(std::string* err) const {
  bool ok = true;
  std::string first_err;
  std::string e;
  if (trace_ && !config_.trace_out.empty() &&
      !trace_->export_json(config_.trace_out, &e)) {
    if (ok) first_err = e;
    ok = false;
  }
  if (registry_ && !config_.metrics_out.empty() &&
      !registry_->export_to(config_.metrics_out, &e)) {
    if (ok) first_err = e;
    ok = false;
  }
  if (audit_ && !config_.audit_out.empty() &&
      !audit_->export_jsonl(config_.audit_out, &e)) {
    if (ok) first_err = e;
    ok = false;
  }
  if (!ok && err) *err = first_err;
  return ok;
}

}  // namespace smartmem::obs

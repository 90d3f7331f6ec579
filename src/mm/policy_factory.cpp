#include "mm/policy_factory.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

#include "common/strfmt.hpp"
#include "mm/greedy_policy.hpp"
#include "mm/reconf_static_policy.hpp"
#include "mm/static_policy.hpp"

namespace smartmem::mm {

std::string PolicySpec::label() const {
  switch (kind) {
    case PolicyKind::kNoTmem: return "no-tmem";
    case PolicyKind::kGreedy: return "greedy";
    case PolicyKind::kStatic: return "static-alloc";
    case PolicyKind::kReconfStatic: return "reconf-static";
    case PolicyKind::kSmart:
      // Stale modes get their own label so ablation rows with and without
      // them never collide; the off path keeps the paper's figure labels.
      return smart_config.stale_mode == StaleMode::kOff
                 ? strfmt("sm-%.2gp", smart_config.p_percent)
                 : strfmt("sm-%.2gp+%s", smart_config.p_percent,
                          to_string(smart_config.stale_mode));
    case PolicyKind::kSwapRate: return "swap-rate";
    case PolicyKind::kWss: return "wss";
  }
  return "?";
}

PolicySpec PolicySpec::parse(const std::string& text) {
  if (text == "no-tmem") return no_tmem();
  if (text == "greedy") return greedy();
  if (text == "static" || text == "static-alloc") return static_alloc();
  if (text == "reconf" || text == "reconf-static") return reconf_static();
  if (text == "swap-rate") return swap_rate();
  if (text == "wss") return wss();
  if (text == "smart" || text == "smart-alloc") return smart(0.75);
  if (text.rfind("smart:", 0) == 0) {
    return smart(parse_spec_percent(text));
  }
  throw std::invalid_argument(
      "unknown policy spec: " + text +
      " (known policies: no-tmem, greedy, static, static-alloc, reconf, "
      "reconf-static, smart[:P], smart-alloc, swap-rate, wss)");
}

double parse_spec_percent(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const char* text =
      colon == std::string::npos ? "" : spec.c_str() + colon + 1;
  char* end = nullptr;
  errno = 0;
  const double p = std::strtod(text, &end);
  if (std::isspace(static_cast<unsigned char>(*text)) != 0 || end == text ||
      *end != '\0' || errno != 0 || !(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("bad P in policy spec: " + spec +
                                " (want a number in (0, 100])");
  }
  return p;
}

PolicyPtr make_policy(const PolicySpec& spec) {
  switch (spec.kind) {
    case PolicyKind::kGreedy:
      return std::make_unique<GreedyPolicy>();
    case PolicyKind::kStatic:
      return std::make_unique<StaticPolicy>();
    case PolicyKind::kReconfStatic:
      return std::make_unique<ReconfStaticPolicy>();
    case PolicyKind::kSmart:
      return std::make_unique<SmartPolicy>(spec.smart_config);
    case PolicyKind::kSwapRate:
      return std::make_unique<SwapRatePolicy>(spec.swap_rate_config);
    case PolicyKind::kWss:
      return std::make_unique<WssPolicy>(spec.wss_config);
    case PolicyKind::kNoTmem:
      break;
  }
  throw std::logic_error("make_policy: spec does not use a manager policy");
}

}  // namespace smartmem::mm

#include "comm/channel.hpp"

namespace smartmem::comm {

void ChannelConfig::scale_times(double f) {
  auto scaled = [f](SimTime t) {
    return static_cast<SimTime>(static_cast<double>(t) * f);
  };
  latency = scaled(latency);
  faults.reorder_extra = scaled(faults.reorder_extra);
  if (faults.down_from >= 0) {
    faults.down_from = scaled(faults.down_from);
    faults.down_until = scaled(faults.down_until);
  }
}

const char* to_string(QueuePolicy p) {
  switch (p) {
    case QueuePolicy::kDropNewest:
      return "drop-newest";
    case QueuePolicy::kDropOldest:
      return "drop-oldest";
  }
  return "?";
}

void register_channel_metrics(obs::Registry& reg, const std::string& prefix,
                              const ChannelStats* stats) {
  reg.add_counter(prefix + "sent", &stats->sent);
  reg.add_counter(prefix + "delivered", &stats->delivered);
  reg.add_counter(prefix + "dropped_loss", &stats->dropped_loss);
  reg.add_counter(prefix + "dropped_down", &stats->dropped_down);
  reg.add_counter(prefix + "dropped_queue", &stats->dropped_queue);
  reg.add_counter(prefix + "duplicated", &stats->duplicated);
  reg.add_counter(prefix + "payload_bytes", &stats->payload_bytes);
  reg.add_running_stats(prefix + "latency_us", &stats->latency);
  // Quantiles come from the histogram; .count already covered above.
  const Histogram* hist = &stats->latency_hist;
  reg.add_gauge(prefix + "latency_us.p50",
                [hist] { return hist->quantile(0.50); });
  reg.add_gauge(prefix + "latency_us.p95",
                [hist] { return hist->quantile(0.95); });
  reg.add_gauge(prefix + "latency_us.p99",
                [hist] { return hist->quantile(0.99); });
}

bool parse_queue_policy(const std::string& text, QueuePolicy& out) {
  if (text == "drop-newest") {
    out = QueuePolicy::kDropNewest;
  } else if (text == "drop-oldest") {
    out = QueuePolicy::kDropOldest;
  } else {
    return false;
  }
  return true;
}

}  // namespace smartmem::comm

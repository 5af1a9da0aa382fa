#include "api/accelerator.hpp"

#include "common/error.hpp"

namespace resparc::api {

BucketList::BucketList(std::initializer_list<value_type> buckets) {
  require(buckets.size() <= kCapacity,
          "BucketList: more buckets than its inline capacity");
  std::copy(buckets.begin(), buckets.end(), items_.begin());
  size_ = buckets.size();
}

double BucketList::value(std::string_view name) const {
  for (const auto& [key, v] : *this)
    if (key == name) return v;
  return 0.0;
}

void Accelerator::execute_each(std::span<const snn::SpikeTrace> traces,
                               std::vector<ExecutionReport>& reports_out) const {
  reports_out.clear();
  reports_out.reserve(traces.size());
  for (const auto& trace : traces) reports_out.push_back(execute(trace));
}

}  // namespace resparc::api

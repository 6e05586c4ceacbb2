#include "obs/trace_context.hpp"

namespace mcan::obs {

SpanCollector::SpanCollector(std::uint64_t trace_id,
                             std::chrono::steady_clock::time_point epoch)
    : trace_id_(trace_id), epoch_(epoch) {}

double SpanCollector::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t SpanCollector::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanCollector::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanCollector::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

SpanCollector::Scope::Scope(SpanCollector* collector, std::string_view name,
                            std::string_view category, std::uint64_t parent)
    : collector_(collector), parent_(parent) {
  if (collector_ == nullptr) return;
  id_ = collector_->next_id();
  name_ = name;
  category_ = category;
  start_us_ = collector_->now_us();
}

SpanCollector::Scope::~Scope() {
  if (collector_ == nullptr) return;
  Span span;
  span.id = id_;
  span.parent = parent_;
  span.name = std::move(name_);
  span.category = std::move(category_);
  span.start_us = start_us_;
  span.dur_us = collector_->now_us() - start_us_;
  collector_->record(std::move(span));
}

}  // namespace mcan::obs

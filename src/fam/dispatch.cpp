#include "fam/dispatch.hpp"

#include <algorithm>

#include "core/io.hpp"
#include "obs/counters.hpp"

namespace mcsd::fam::dispatch {

Admission AdmissionQueue::push(PendingRequest request,
                               std::string coalesce_key) {
  std::lock_guard lock{mutex_};
  if (closed_) return Admission::kClosed;

  const std::uint64_t client = request.request.client_id;
  const std::uint64_t seq = request.request.seq;
  auto& last_seq = last_admitted_seq_[client];
  if (seq <= last_seq) return Admission::kStale;

  // Supersede: the client re-sent (timeout or backpressure retry, or a
  // whole new invoke after giving up) while its previous request was
  // still queued — the client only awaits its newest seq, so answering
  // the old one is wasted work.  When the new request is byte-compatible
  // with the batch it sits in (same coalesce key, or a solo uncoalesced
  // batch) it replaces the old one in place; otherwise the old waiter is
  // tombstoned (client_id = 0, skipped by the batch worker) and the new
  // request goes through normal admission.  A request whose batch has
  // already been popped is beyond recall; the reply writer's per-client
  // seq guard keeps its late reply from clobbering the retry's.
  bool superseded = false;
  if (const auto queued = queued_clients_.find(client);
      queued != queued_clients_.end()) {
    const std::size_t index = queued->second.batch - popped_;
    if (index < batches_.size() &&
        queued->second.waiter < batches_[index].waiters.size()) {
      Batch& batch = batches_[index];
      const bool compatible = batch.coalesce_key == coalesce_key;
      if (compatible) {
        last_seq = seq;
        batch.waiters[queued->second.waiter] = std::move(request);
        return Admission::kSuperseded;
      }
      batch.waiters[queued->second.waiter].request.client_id = 0;
      superseded = true;
    }
    queued_clients_.erase(queued);
  }

  // Coalesce: an open batch with the same (module, params, fingerprint)
  // identity absorbs this request as one more waiter — one module run,
  // N responses.
  if (!coalesce_key.empty()) {
    if (const auto open = open_batches_.find(coalesce_key);
        open != open_batches_.end()) {
      const std::size_t index = open->second - popped_;
      if (index < batches_.size()) {
        last_seq = seq;
        queued_clients_[client] =
            QueuedAt{open->second, batches_[index].waiters.size()};
        batches_[index].waiters.push_back(std::move(request));
        return Admission::kCoalesced;
      }
      open_batches_.erase(open);
    }
  }

  if (max_batches_ != 0 && batches_.size() >= max_batches_) {
    return Admission::kRejected;
  }

  last_seq = seq;
  Batch batch;
  batch.coalesce_key = coalesce_key;
  batch.waiters.push_back(std::move(request));
  const std::size_t absolute = popped_ + batches_.size();
  if (!coalesce_key.empty()) open_batches_[coalesce_key] = absolute;
  queued_clients_[client] = QueuedAt{absolute, 0};
  batches_.push_back(std::move(batch));
  ready_.notify_one();
  return superseded ? Admission::kSuperseded : Admission::kAccepted;
}

std::optional<Batch> AdmissionQueue::pop() {
  std::unique_lock lock{mutex_};
  ready_.wait(lock, [this] { return closed_ || !batches_.empty(); });
  if (batches_.empty()) return std::nullopt;
  Batch batch = std::move(batches_.front());
  batches_.pop_front();
  ++popped_;
  // The popped batch is closed to coalescing and its waiters are no
  // longer supersedable — drop the bookkeeping that pointed at it.
  if (!batch.coalesce_key.empty()) {
    if (const auto open = open_batches_.find(batch.coalesce_key);
        open != open_batches_.end() && open->second + 1 == popped_) {
      open_batches_.erase(open);
    }
  }
  for (const PendingRequest& waiter : batch.waiters) {
    if (const auto queued =
            queued_clients_.find(waiter.request.client_id);
        queued != queued_clients_.end() && queued->second.batch + 1 == popped_) {
      queued_clients_.erase(queued);
    }
  }
  return batch;
}

void AdmissionQueue::close() {
  std::lock_guard lock{mutex_};
  closed_ = true;
  ready_.notify_all();
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard lock{mutex_};
  return batches_.size();
}

std::uint64_t AdmissionQueue::retry_after_ms() const {
  std::lock_guard lock{mutex_};
  // Base hint of a few ms (one drain + dispatch cycle), stretched as the
  // queue deepens; the client adds jitter so rejected herds de-correlate.
  return 2 + static_cast<std::uint64_t>(
                 max_batches_ == 0 ? 0 : batches_.size() / 8);
}

std::vector<Record> drain_shard(ShardDrain& shard) {
  std::vector<Record> requests;
  const auto size = mcsd::file_size(shard.path);
  if (!size.is_ok() || size.value() <= shard.offset) return requests;

  auto tail = read_file_from(shard.path, shard.offset);
  if (!tail.is_ok()) return requests;  // transient; next pass retries

  FrameStream stream = decode_frame_stream(tail.value());
  shard.offset += stream.consumed;
  shard.corrupt += stream.corrupt;
  shard.drained += stream.records.size();
  for (Record& record : stream.records) {
    if (record.type != RecordType::kRequest) continue;
    if (record.client_id == 0) continue;  // rev-2 frames carry a client id
    requests.push_back(std::move(record));
  }
  return requests;
}

std::string_view tenant_or_default(std::string_view tenant) noexcept {
  return tenant.empty() ? std::string_view{"default"} : tenant;
}

QosRegistry::Slot& QosRegistry::slot_locked(std::string_view tenant) {
  const auto found = tenants_.find(tenant);
  if (found != tenants_.end()) return found->second;
  return tenants_[std::string{tenant}];
}

namespace {
void bump_obs(std::string_view what, std::string_view tenant) {
  obs::Registry::instance()
      .counter("fam.serve." + std::string{what} +
               "(tenant=" + std::string{tenant} + ")")
      .add(1);
}
}  // namespace

void QosRegistry::record_accepted(std::string_view tenant) {
  tenant = tenant_or_default(tenant);
  {
    std::lock_guard lock{mutex_};
    ++slot_locked(tenant).accepted;
  }
  bump_obs("accepted", tenant);
}

void QosRegistry::record_rejected(std::string_view tenant) {
  tenant = tenant_or_default(tenant);
  {
    std::lock_guard lock{mutex_};
    ++slot_locked(tenant).rejected;
  }
  bump_obs("rejected", tenant);
}

void QosRegistry::record_coalesced(std::string_view tenant) {
  tenant = tenant_or_default(tenant);
  {
    std::lock_guard lock{mutex_};
    ++slot_locked(tenant).coalesced;
  }
  bump_obs("coalesced", tenant);
}

void QosRegistry::record_deadline_shed(std::string_view tenant) {
  tenant = tenant_or_default(tenant);
  {
    std::lock_guard lock{mutex_};
    ++slot_locked(tenant).deadline_shed;
  }
  bump_obs("deadline_shed", tenant);
}

void QosRegistry::record_completed(std::string_view tenant,
                                   std::uint64_t invoke_us) {
  tenant = tenant_or_default(tenant);
  {
    std::lock_guard lock{mutex_};
    Slot& slot = slot_locked(tenant);
    ++slot.completed;
    obs::HistogramData& hist = slot.invoke_us;
    ++hist.buckets[obs::Histogram::bucket_of(invoke_us)];
    ++hist.count;
    hist.sum += invoke_us;
    hist.max = std::max(hist.max, invoke_us);
  }
  obs::Registry::instance()
      .histogram("fam.serve.invoke_us(tenant=" + std::string{tenant} + ")",
                 "us")
      .record(invoke_us);
}

std::vector<TenantQos> QosRegistry::snapshot() const {
  std::vector<TenantQos> out;
  std::lock_guard lock{mutex_};
  out.reserve(tenants_.size());
  for (const auto& [tenant, slot] : tenants_) {
    TenantQos qos;
    qos.tenant = tenant;
    qos.accepted = slot.accepted;
    qos.rejected = slot.rejected;
    qos.coalesced = slot.coalesced;
    qos.completed = slot.completed;
    qos.deadline_shed = slot.deadline_shed;
    qos.invoke_us = slot.invoke_us;
    out.push_back(std::move(qos));
  }
  return out;
}

}  // namespace mcsd::fam::dispatch

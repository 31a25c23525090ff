#include "traffic/synthetic_traffic.hpp"

#include "common/log.hpp"

namespace flov {

SyntheticTraffic::SyntheticTraffic(NocSystem* sys,
                                   const TrafficPattern* pattern,
                                   double inj_rate_flits, int packet_size,
                                   std::uint64_t seed)
    : sys_(sys),
      pattern_(pattern),
      packet_prob_(inj_rate_flits / packet_size),
      packet_size_(packet_size) {
  FLOV_CHECK(packet_prob_ <= 1.0, "injection rate exceeds 1 packet/cycle");
  Rng seeder(seed);
  const int n = sys_->network().num_nodes();
  rngs_.reserve(n);
  for (int i = 0; i < n; ++i) rngs_.push_back(seeder.split());
  rescan();
}

void SyntheticTraffic::rescan() {
  active_.update(sys_->network().num_nodes(),
                 [&](NodeId i) { return !sys_->core_gated(i); });
  gating_version_ = sys_->gating_version();
}

void SyntheticTraffic::step(Cycle now) {
  if (sys_->gating_version() != gating_version_) rescan();
#ifndef NDEBUG
  for (NodeId i = 0; i < sys_->network().num_nodes(); ++i) {
    FLOV_DCHECK(active_[i] == !sys_->core_gated(i),
                "cached active set differs from a gating rescan");
  }
#endif
  // Ascending id order over the active cores: the same per-node RNG draws
  // as walking every node and skipping the gated ones.
  for (int r = 0; r < active_.size(); ++r) {
    const NodeId src = active_.at(r);
    if (!rngs_[src].next_bool(packet_prob_)) continue;
    const NodeId dst = pattern_->dest(src, active_, rngs_[src]);
    if (dst == kInvalidNode) {
      ++skipped_;
      continue;
    }
    PacketDescriptor p;
    p.src = src;
    p.dest = dst;
    p.vnet = 0;
    p.size_flits = packet_size_;
    p.gen_cycle = now;
    sys_->network().enqueue(p);
    ++generated_;
  }
}

}  // namespace flov

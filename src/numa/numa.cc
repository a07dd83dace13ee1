#include "src/numa/numa.h"

#include <utility>

#include "src/arch/check.h"

namespace sat {

NumaEngine::NumaEngine(PhysicalMemory* phys, PtpAllocator* ptps,
                       KernelCounters* counters, PtPlacement placement,
                       uint32_t promote_threshold)
    : phys_(phys),
      ptps_(ptps),
      counters_(counters),
      placement_(placement),
      promote_threshold_(promote_threshold == 0 ? 1 : promote_threshold) {}

NumaEngine::~NumaEngine() {
  for (const auto& [id, set] : replicas_) {
    for (const Replica& replica : set) {
      phys_->UnrefFrame(replica.frame);
    }
  }
}

PhysAddr NumaEngine::ResolveWalk(const PageTablePage& ptp, uint32_t index,
                                 uint32_t node) {
  SAT_CHECK(index < kPtesPerPtp);
  counters_->numa_walks++;
  const auto it = replicas_.find(ptp.id());
  if (it != replicas_.end()) {
    for (const Replica& replica : it->second) {
      if (replica.node == node) {
        // Node-local replica: the walker's PTE fetch is local DRAM.
        counters_->numa_replica_walks++;
        const uint32_t mb = index / kL2EntriesPerTable;
        const uint32_t within = index % kL2EntriesPerTable;
        return FrameToPhys(replica.frame) + 2048 + mb * 1024 + within * 4;
      }
    }
  }
  WalkStats& stats = walk_stats_[ptp.id()];
  if (stats.per_node.empty()) {
    stats.per_node.resize(phys_->num_nodes(), 0);
  }
  stats.per_node[node]++;
  if (HomeNodeOf(ptp) != node) {
    stats.remote++;
    counters_->numa_remote_walks++;
  }
  return ptp.HwEntryPhysAddr(index);
}

uint32_t NumaEngine::RunPass() {
  uint32_t actions = 0;
  if (placement_ == PtPlacement::kReplicate) {
    for (const auto& [id, stats] : walk_stats_) {
      if (stats.remote < promote_threshold_) {
        continue;
      }
      if (replicas_.find(id) != replicas_.end()) {
        continue;  // already replicated (possibly partially — retried below)
      }
      if (ptps_->GetIfLive(id) == nullptr) {
        continue;  // died since the walks were recorded
      }
      if (Promote(ptps_->Get(id)) > 0) {
        actions++;
      }
    }
    // Retry partial sets: a node that was exhausted at promotion time may
    // have frames again (e.g. after kswapd sacrificed other replicas).
    for (const auto& [id, set] : replicas_) {
      if (set.size() + 1 < phys_->num_nodes() &&
          ptps_->GetIfLive(id) != nullptr) {
        Promote(ptps_->Get(id));
      }
    }
  } else if (placement_ == PtPlacement::kMigrate) {
    for (const auto& [id, stats] : walk_stats_) {
      if (stats.remote < promote_threshold_) {
        continue;
      }
      const PageTablePage* ptp = ptps_->GetIfLive(id);
      if (ptp == nullptr || ptp->SharerCount() != 1) {
        continue;  // only sole-owner PTPs migrate; shared ones stay put
      }
      uint32_t dominant = 0;
      uint64_t dominant_walks = 0;
      for (uint32_t node = 0; node < stats.per_node.size(); ++node) {
        if (stats.per_node[node] > dominant_walks) {
          dominant_walks = stats.per_node[node];
          dominant = node;
        }
      }
      if (dominant == HomeNodeOf(*ptp)) {
        continue;
      }
      if (Migrate(ptps_->Get(id), dominant)) {
        actions++;
      }
    }
  }
  walk_stats_.clear();
  return actions;
}

uint32_t NumaEngine::Promote(PageTablePage& ptp) {
  const uint32_t home = HomeNodeOf(ptp);
  std::vector<Replica>& set = replicas_[ptp.id()];
  uint32_t created = 0;
  for (uint32_t node = 0; node < phys_->num_nodes(); ++node) {
    if (node == home) {
      continue;
    }
    bool present = false;
    for (const Replica& replica : set) {
      present |= (replica.node == node);
    }
    if (present) {
      continue;
    }
    const std::optional<FrameNumber> frame =
        phys_->TryAllocFrameOnNode(node, FrameKind::kPageTable);
    if (!frame.has_value()) {
      continue;  // best effort: an exhausted node just keeps walking remote
    }
    Replica replica;
    replica.node = node;
    replica.frame = *frame;
    for (uint32_t i = 0; i < kPtesPerPtp; ++i) {
      replica.words[i] = ptp.hw(i).raw();
    }
    set.push_back(replica);
    replica_count_++;
    created++;
  }
  if (set.empty()) {
    replicas_.erase(ptp.id());
  } else if (created > 0) {
    counters_->numa_replica_promotions++;
  }
  return created;
}

bool NumaEngine::Migrate(PageTablePage& ptp, uint32_t node) {
  const std::optional<FrameNumber> fresh =
      phys_->TryAllocFrameOnNode(node, FrameKind::kPageTable);
  if (!fresh.has_value()) {
    return false;
  }
  const FrameNumber old = ptp.frame();
  ptp.SetFrameForMigration(*fresh);
  phys_->UnrefFrame(old);
  counters_->numa_ptp_migrations++;
  return true;
}

uint64_t NumaEngine::ReclaimReplicas(uint64_t target_frames) {
  uint64_t freed = 0;
  while (freed < target_frames && !replicas_.empty()) {
    const auto it = replicas_.begin();
    for (const Replica& replica : it->second) {
      phys_->UnrefFrame(replica.frame);
      counters_->numa_replica_reclaims++;
      freed++;
    }
    replica_count_ -= it->second.size();
    replicas_.erase(it);
  }
  return freed;
}

void NumaEngine::OnHwWrite(PtpId ptp, uint32_t index, uint32_t raw_hw) {
  const auto it = replicas_.find(ptp);
  if (it == replicas_.end()) {
    return;
  }
  for (Replica& replica : it->second) {
    replica.words[index] = raw_hw;
    counters_->numa_replica_updates++;
  }
}

void NumaEngine::OnPtpDestroyed(PtpId ptp) {
  DropReplicaSet(ptp);
  walk_stats_.erase(ptp);
}

void NumaEngine::DropReplicaSet(PtpId ptp) {
  const auto it = replicas_.find(ptp);
  if (it == replicas_.end()) {
    return;
  }
  for (const Replica& replica : it->second) {
    phys_->UnrefFrame(replica.frame);
  }
  replica_count_ -= it->second.size();
  replicas_.erase(it);
}

std::optional<uint32_t> NumaEngine::ReplicaMajorityWord(PtpId ptp,
                                                        uint32_t index) const {
  SAT_CHECK(index < kPtesPerPtp);
  const auto it = replicas_.find(ptp);
  if (it == replicas_.end() || it->second.empty()) {
    return std::nullopt;
  }
  const PageTablePage* master = ptps_->GetIfLive(ptp);
  if (master == nullptr) {
    return std::nullopt;
  }
  std::vector<uint32_t> words;
  words.reserve(it->second.size() + 1);
  words.push_back(master->hw(index).raw());
  for (const Replica& replica : it->second) {
    words.push_back(replica.words[index]);
  }
  for (const uint32_t candidate : words) {
    size_t votes = 0;
    for (const uint32_t word : words) {
      votes += (word == candidate) ? 1 : 0;
    }
    if (votes * 2 > words.size()) {
      return candidate;
    }
  }
  return std::nullopt;  // even split (e.g. master vs its only replica)
}

uint32_t NumaEngine::ScrubReplicaSweep() {
  uint32_t repaired = 0;
  for (auto& [id, set] : replicas_) {
    if (ptps_->GetIfLive(id) == nullptr) {
      continue;  // unreachable: OnPtpDestroyed drops the set
    }
    PageTablePage& master = ptps_->Get(id);
    for (uint32_t index = 0; index < kPtesPerPtp; ++index) {
      const uint32_t master_word = master.hw(index).raw();
      bool disagree = false;
      for (const Replica& replica : set) {
        disagree |= (replica.words[index] != master_word);
      }
      if (!disagree) {
        continue;
      }
      const std::optional<uint32_t> majority = ReplicaMajorityWord(id, index);
      if (majority.has_value() && *majority != master_word) {
        // The replicas outvote the master: the master word rotted. Repair
        // it from the majority; the write-through hook reconverges every
        // replica as a side effect.
        master.RepairHw(index, HwPte::FromRaw(*majority));
        counters_->numa_master_repairs++;
        repaired++;
        // The rotted master word's global bit may be what rotted: flush as
        // widely as a global entry needs.
        ptps_->FlushPte(id, index, /*global=*/true);
      } else {
        // No majority against the master (two-node machines can only ever
        // split 1-vs-1) or the master IS the majority: trust the master.
        // If the master itself is the rotten copy, the shadow-based scrub
        // pass repairs it and write-through reconverges us afterwards.
        for (Replica& replica : set) {
          if (replica.words[index] != master_word) {
            replica.words[index] = master_word;
            counters_->numa_replica_repairs++;
            repaired++;
          }
        }
      }
    }
  }
  return repaired;
}

bool NumaEngine::CorruptReplicaForChaos(uint64_t rand, uint32_t index,
                                        uint32_t xor_mask) {
  SAT_CHECK(index < kPtesPerPtp);
  SAT_CHECK(xor_mask != 0 && "corruption must change something");
  if (replica_count_ == 0) {
    return false;
  }
  uint64_t target = rand % replica_count_;
  for (auto& [id, set] : replicas_) {
    if (target >= set.size()) {
      target -= set.size();
      continue;
    }
    set[static_cast<size_t>(target)].words[index] ^= xor_mask;
    return true;
  }
  return false;
}

}  // namespace sat

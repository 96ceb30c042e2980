#include "ic3/frames.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pilot::ic3 {

bool Frames::add_lemma(const Cube& cube, std::size_t level) {
  ensure_level(level);
  // Skip if an existing lemma at level ≥ `level` subsumes the new one.
  for (std::size_t j = level; j < delta_.size(); ++j) {
    for (const Cube& d : delta_[j]) {
      if (d.subset_of(cube)) return false;
    }
  }
  // Drop existing lemmas at level ≤ `level` that the new one subsumes.
  for (std::size_t j = 1; j <= level; ++j) {
    std::erase_if(delta_[j], [&](const Cube& d) { return cube.subset_of(d); });
  }
  delta_[level].push_back(cube);
  log_.push_back(LemmaInstall{level, cube, 0});
  return true;
}

void Frames::push_lemma(Cube cube, std::size_t level) {
  ensure_level(level + 1);
  auto& bucket = delta_[level];
  const auto it = std::find(bucket.begin(), bucket.end(), cube);
  assert(it != bucket.end());
  bucket.erase(it);
  // The invariant: nothing at level + 1 or above subsumes the lemma, and it
  // subsumes nothing else at or below `level`.  Only delta(level + 1) can
  // hold lemmas it displaces.
  assert(!subsumed_at(cube, level + 1));
  std::erase_if(delta_[level + 1],
                [&](const Cube& d) { return cube.subset_of(d); });
  delta_[level + 1].push_back(cube);
  log_.push_back(LemmaInstall{level + 1, std::move(cube), level});
}

std::span<const LemmaInstall> Frames::installs_since(
    std::uint64_t stamp) const {
  assert(stamp >= log_base_ && stamp <= install_count());
  return std::span<const LemmaInstall>(log_).subspan(stamp - log_base_);
}

void Frames::forget_installs_before(std::uint64_t stamp) {
  if (stamp <= log_base_) return;
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(stamp - log_base_));
  log_base_ = stamp;
}

void Frames::record_push_ctp(const Cube& lemma, std::size_t level,
                             Cube state, Cube successor) {
  push_ctps_[CubeLevelKey{lemma, level}] =
      PushCtp{std::move(state), std::move(successor), install_count()};
}

const PushCtp* Frames::push_ctp(const Cube& lemma, std::size_t level) const {
  const auto it = push_ctps_.find(CubeLevelKey{lemma, level});
  return it == push_ctps_.end() ? nullptr : &it->second;
}

bool Frames::ctp_still_valid(const PushCtp& ctp, std::size_t level) const {
  for (const LemmaInstall& install : installs_since(ctp.stamp)) {
    if (install.level < level || install.from >= level) continue;
    // s satisfies the clause ¬d iff it falsifies a literal of d.  s may be
    // partial (model_state drops unassigned latches), so test for ¬l in s
    // rather than d ⊄ s.
    const auto falsified = [&](Lit l) { return ctp.state.contains(~l); };
    if (std::none_of(install.cube.begin(), install.cube.end(), falsified)) {
      return false;
    }
  }
  return true;
}

PushCtpMap Frames::take_push_ctps() {
  std::uint64_t oldest = install_count();
  for (const auto& [key, ctp] : push_ctps_) {
    oldest = std::min(oldest, ctp.stamp);
  }
  forget_installs_before(oldest);
  return std::exchange(push_ctps_, {});
}

bool Frames::subsumed_at(const Cube& cube, std::size_t level) const {
  for (std::size_t j = level; j < delta_.size(); ++j) {
    for (const Cube& d : delta_[j]) {
      if (d.subset_of(cube)) return true;
    }
  }
  return false;
}

std::vector<Cube> Frames::parents_of(const Cube& cube,
                                     std::size_t level) const {
  std::vector<Cube> parents;
  if (level == 0 || level >= delta_.size()) return parents;
  for (const Cube& p : delta_[level]) {
    if (p.subset_of(cube)) parents.push_back(p);
  }
  return parents;
}

std::size_t Frames::total_lemmas() const {
  std::size_t n = 0;
  for (const auto& bucket : delta_) n += bucket.size();
  return n;
}

}  // namespace pilot::ic3

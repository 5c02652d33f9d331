#include "bdd/bdd.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace syseco {

Bdd::Bdd(std::uint32_t numVars, std::size_t nodeLimit)
    : Bdd(numVars, [nodeLimit] {
        BddConfig c;
        c.nodeLimit = nodeLimit;
        return c;
      }()) {}

Bdd::Bdd(std::uint32_t numVars, const BddConfig& config)
    : numVars_(numVars), cfg_(config) {
  // Slots 0 and 1 are the terminal nodes; their var field is a sentinel one
  // past the last real level so that topVar()/topLevel() are uniform.
  nodes_.push_back(Node{numVars_, 0, 0, kNil});
  nodes_.push_back(Node{numVars_, 1, 1, kNil});
  tables_.resize(numVars_);
  for (auto& t : tables_)
    t.buckets.assign(std::size_t{1} << cfg_.uniqueBits, kNil);
  level_.resize(numVars_ + 1);
  varAtLevel_.resize(numVars_);
  for (std::uint32_t v = 0; v < numVars_; ++v) {
    level_[v] = v;
    varAtLevel_[v] = v;
  }
  level_[numVars_] = numVars_;
  stats_.cacheBitsNow = cfg_.cacheBits;
  cache_.assign(std::size_t{1} << cfg_.cacheBits, CacheEntry{});
  cacheMask_ = static_cast<std::uint32_t>(cache_.size() - 1);
}

void Bdd::setRootProvider(std::function<void(std::vector<Ref>&)> provider) {
  rootProvider_ = std::move(provider);
  armTrigger();
}

void Bdd::armTrigger() {
  if (cfg_.reorder != BddReorder::kOff && rootProvider_ &&
      cfg_.reorderThreshold != 0) {
    nextReorderAt_ = std::max(cfg_.reorderThreshold, nodes_.size() + 1);
  } else {
    nextReorderAt_ = 0;
    needReorder_ = false;
  }
}

// --- Unique table -----------------------------------------------------------

Bdd::Ref Bdd::makeNode(std::uint32_t var, Ref lo, Ref hi) {
  if (lo == hi) return lo;
  SubTable& t = tables_[var];
  const std::size_t idx = pairHash(lo, hi) & (t.buckets.size() - 1);
  for (Ref p = t.buckets[idx]; p != kNil; p = nodes_[p].next) {
    if (nodes_[p].lo == lo && nodes_[p].hi == hi) {
      ++stats_.uniqueHits;
      return p;
    }
  }
  if (nodes_.size() >= cfg_.nodeLimit) throw BddLimitExceeded{};
  if (guard_ != nullptr) {
    guard_->chargeBddNodes(1);
    if ((nodes_.size() & 0x3FF) == 0) {
      const Status s = guard_->checkpoint("bdd");
      if (!s.isOk()) {
        // Budget family degrades like the node limit (shrink + retry);
        // a missed deadline must unwind all the way to the fallback.
        if (s.code() == StatusCode::kDeadlineExceeded) throw StatusError(s);
        throw BddLimitExceeded{};
      }
    }
  }
  const Ref r = static_cast<Ref>(nodes_.size());
  nodes_.push_back(Node{var, lo, hi, t.buckets[idx]});
  t.buckets[idx] = r;
  ++t.count;
  if (nodes_.size() > stats_.peakNodes) stats_.peakNodes = nodes_.size();
  if (t.count > 2 * t.buckets.size()) growSubTable(var);
  if (nextReorderAt_ != 0 && nodes_.size() >= nextReorderAt_ && !inReorder_)
    needReorder_ = true;
  return r;
}

void Bdd::growSubTable(std::uint32_t var) {
  SubTable& t = tables_[var];
  std::vector<Ref> old = std::move(t.buckets);
  t.buckets.assign(old.size() * 2, kNil);
  const std::size_t mask = t.buckets.size() - 1;
  for (Ref b : old) {
    for (Ref p = b; p != kNil;) {
      const Ref next = nodes_[p].next;
      const std::size_t idx = pairHash(nodes_[p].lo, nodes_[p].hi) & mask;
      nodes_[p].next = t.buckets[idx];
      t.buckets[idx] = p;
      p = next;
    }
  }
}

void Bdd::unlinkFromTable(std::uint32_t var, Ref node) {
  SubTable& t = tables_[var];
  const std::size_t idx =
      pairHash(nodes_[node].lo, nodes_[node].hi) & (t.buckets.size() - 1);
  Ref* slot = &t.buckets[idx];
  while (*slot != node) slot = &nodes_[*slot].next;
  *slot = nodes_[node].next;
  nodes_[node].next = kNil;
  --t.count;
}

void Bdd::linkIntoTable(std::uint32_t var, Ref node) {
  SubTable& t = tables_[var];
  const std::size_t idx =
      pairHash(nodes_[node].lo, nodes_[node].hi) & (t.buckets.size() - 1);
  nodes_[node].next = t.buckets[idx];
  t.buckets[idx] = node;
  ++t.count;
}

// --- Computed cache ---------------------------------------------------------

void Bdd::growCache() {
  std::vector<CacheEntry> old = std::move(cache_);
  cache_.assign(old.size() * 2, CacheEntry{});
  cacheMask_ = static_cast<std::uint32_t>(cache_.size() - 1);
  ++stats_.cacheBitsNow;
  ++stats_.cacheGrows;
  for (const CacheEntry& e : old) {
    if (e.f != kNil) cache_[iteHash(e.f, e.g, e.h) & cacheMask_] = e;
  }
}

void Bdd::flushCache() {
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
}

// --- Literals & core operations --------------------------------------------

Bdd::Ref Bdd::var(std::uint32_t v) {
  SYSECO_CHECK(v < numVars_);
  OpScope scope(*this);
  return makeNode(v, kFalse, kTrue);
}

Bdd::Ref Bdd::nvar(std::uint32_t v) {
  SYSECO_CHECK(v < numVars_);
  OpScope scope(*this);
  return makeNode(v, kTrue, kFalse);
}

Bdd::Ref Bdd::ite(Ref f, Ref g, Ref h) {
  OpScope scope(*this);
  return iteRec(f, g, h);
}

Bdd::Ref Bdd::bXor(Ref a, Ref b) {
  // One scope for both ite steps: a reorder may fire at entry (a and b
  // are the caller's responsibility there), but never between computing
  // !b and consuming it.
  OpScope scope(*this);
  return iteRec(a, iteRec(b, kFalse, kTrue), b);
}

Bdd::Ref Bdd::bXnor(Ref a, Ref b) {
  OpScope scope(*this);
  return iteRec(a, b, iteRec(b, kFalse, kTrue));
}

Bdd::Ref Bdd::iteRec(Ref f, Ref g, Ref h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  const std::size_t slot = iteHash(f, g, h) & cacheMask_;
  {
    const CacheEntry& e = cache_[slot];
    if (e.f == f && e.g == g && e.h == h) {
      ++stats_.cacheHits;
      return e.r;
    }
  }
  ++stats_.cacheMisses;

  // Branch on the root-most top variable under the current order.
  std::uint32_t v = topVar(f);
  std::uint32_t lv = topLevel(f);
  if (topLevel(g) < lv) {
    lv = topLevel(g);
    v = topVar(g);
  }
  if (topLevel(h) < lv) v = topVar(h);
  const Ref lo = iteRec(low(f, v), low(g, v), low(h, v));
  const Ref hi = iteRec(high(f, v), high(g, v), high(h, v));
  const Ref r = makeNode(v, lo, hi);
  CacheEntry& e = cache_[slot];
  if (e.f != kNil && !(e.f == f && e.g == g && e.h == h))
    ++stats_.cacheEvictions;
  e = CacheEntry{f, g, h, r};
  return r;
}

Bdd::Ref Bdd::andMany(const std::vector<Ref>& fs) {
  // The accumulator lives across operation boundaries, so it must be
  // pinned: an auto-reorder firing before the next bAnd could otherwise
  // detach it (it is reachable from no caller-held root).
  ScopedRef acc(*this, kTrue);
  for (Ref f : fs) acc = bAnd(acc, f);
  return acc;
}

Bdd::Ref Bdd::orMany(const std::vector<Ref>& fs) {
  ScopedRef acc(*this, kFalse);
  for (Ref f : fs) acc = bOr(acc, f);
  return acc;
}

std::size_t Bdd::pinRef(Ref r) {
  if (!pinnedFree_.empty()) {
    const std::size_t slot = pinnedFree_.back();
    pinnedFree_.pop_back();
    pinned_[slot] = r;
    return slot;
  }
  pinned_.push_back(r);
  return pinned_.size() - 1;
}

void Bdd::unpinRef(std::size_t slot) {
  pinned_[slot] = kNil;
  pinnedFree_.push_back(slot);
}

Bdd::Ref Bdd::cofactor(Ref f, std::uint32_t v, bool positive) {
  if (f <= 1) return f;
  OpScope scope(*this);
  const std::uint32_t t = topVar(f);
  if (level_[t] > level_[v]) return f;
  if (t == v) return positive ? nodes_[f].hi : nodes_[f].lo;
  // Recurse; small helper via ite-style decomposition without caching is
  // acceptable here because cofactor is only applied near the root in this
  // codebase, but we cache through the quantifier machinery instead.
  const Ref lo = cofactor(nodes_[f].lo, v, positive);
  const Ref hi = cofactor(nodes_[f].hi, v, positive);
  return makeNode(t, lo, hi);
}

Bdd::Ref Bdd::quantify(Ref f, const std::vector<char>& mask, bool existential,
                       std::unordered_map<Ref, Ref>& cache) {
  if (f <= 1) return f;
  if (auto it = cache.find(f); it != cache.end()) return it->second;
  const std::uint32_t v = nodes_[f].var;
  const Ref lo = quantify(nodes_[f].lo, mask, existential, cache);
  const Ref hi = quantify(nodes_[f].hi, mask, existential, cache);
  Ref r;
  if (mask[v]) {
    r = existential ? bOr(lo, hi) : bAnd(lo, hi);
  } else {
    r = makeNode(v, lo, hi);
  }
  cache.emplace(f, r);
  return r;
}

Bdd::Ref Bdd::exists(Ref f, const std::vector<std::uint32_t>& vars) {
  std::vector<char> mask(numVars_, 0);
  for (auto v : vars) {
    SYSECO_CHECK(v < numVars_);
    mask[v] = 1;
  }
  OpScope scope(*this);
  std::unordered_map<Ref, Ref> cache;
  return quantify(f, mask, /*existential=*/true, cache);
}

Bdd::Ref Bdd::forall(Ref f, const std::vector<std::uint32_t>& vars) {
  std::vector<char> mask(numVars_, 0);
  for (auto v : vars) {
    SYSECO_CHECK(v < numVars_);
    mask[v] = 1;
  }
  OpScope scope(*this);
  std::unordered_map<Ref, Ref> cache;
  return quantify(f, mask, /*existential=*/false, cache);
}

Bdd::Ref Bdd::composeRec(Ref f, std::uint32_t v, Ref g,
                         std::unordered_map<Ref, Ref>& cache) {
  if (f <= 1) return f;
  const std::uint32_t t = nodes_[f].var;
  if (level_[t] > level_[v]) return f;  // v cannot appear below its own level
  if (auto it = cache.find(f); it != cache.end()) return it->second;
  Ref r;
  if (t == v) {
    r = iteRec(g, nodes_[f].hi, nodes_[f].lo);
  } else {
    const Ref lo = composeRec(nodes_[f].lo, v, g, cache);
    const Ref hi = composeRec(nodes_[f].hi, v, g, cache);
    // g may depend on variables above t, so rebuild through ite.
    r = iteRec(makeNode(t, kFalse, kTrue), hi, lo);
  }
  cache.emplace(f, r);
  return r;
}

Bdd::Ref Bdd::compose(Ref f, std::uint32_t v, Ref g) {
  SYSECO_CHECK(v < numVars_);
  OpScope scope(*this);
  std::unordered_map<Ref, Ref> cache;
  return composeRec(f, v, g, cache);
}

std::vector<std::uint32_t> Bdd::support(Ref f) {
  std::vector<char> seenVar(numVars_, 0);
  std::unordered_map<Ref, char> visited;
  std::vector<Ref> stack{f};
  while (!stack.empty()) {
    const Ref r = stack.back();
    stack.pop_back();
    if (r <= 1 || visited.count(r)) continue;
    visited.emplace(r, 1);
    seenVar[nodes_[r].var] = 1;
    stack.push_back(nodes_[r].lo);
    stack.push_back(nodes_[r].hi);
  }
  std::vector<std::uint32_t> out;
  for (std::uint32_t v = 0; v < numVars_; ++v)
    if (seenVar[v]) out.push_back(v);
  return out;
}

double Bdd::satCountRec(Ref f, std::unordered_map<Ref, double>& cache) {
  // Counts assignments to the variables at levels [topLevel(f), numVars).
  if (f == kFalse) return 0.0;
  if (f == kTrue) return 1.0;
  if (auto it = cache.find(f); it != cache.end()) return it->second;
  const Node& n = nodes_[f];
  const std::uint32_t lvl = level_[n.var];
  const double cl = satCountRec(n.lo, cache) *
                    std::exp2(static_cast<double>(topLevel(n.lo) - lvl - 1));
  const double ch = satCountRec(n.hi, cache) *
                    std::exp2(static_cast<double>(topLevel(n.hi) - lvl - 1));
  const double c = cl + ch;
  cache.emplace(f, c);
  return c;
}

double Bdd::satCount(Ref f) {
  std::unordered_map<Ref, double> cache;
  return satCountRec(f, cache) * std::exp2(static_cast<double>(topLevel(f)));
}

bool Bdd::pickCube(Ref f, BddCube& out) {
  if (f == kFalse) return false;
  out.lits.assign(numVars_, -1);
  while (f != kTrue) {
    const Node& n = nodes_[f];
    if (n.lo != kFalse) {
      out.lits[n.var] = 0;
      f = n.lo;
    } else {
      out.lits[n.var] = 1;
      f = n.hi;
    }
  }
  return true;
}

std::vector<BddCube> Bdd::isopRun(Ref l, Ref u, Ref& coverOut) {
  // Minato-Morreale ISOP step: produces an irredundant cover F with
  // l <= F <= u. The cube lists of the three sub-covers are combined,
  // not nested, hence the explicit coverOut accumulator.
  if (l == kFalse) {
    coverOut = kFalse;
    return {};
  }
  if (u == kTrue) {
    coverOut = kTrue;
    BddCube all;
    all.lits.assign(numVars_, -1);
    return {all};
  }
  const std::uint32_t v = topLevel(l) <= topLevel(u) ? topVar(l) : topVar(u);
  const Ref l0 = low(l, v), l1 = high(l, v);
  const Ref u0 = low(u, v), u1 = high(u, v);

  // Cubes that must contain literal !v / v.
  Ref f0 = kFalse, f1 = kFalse;
  auto c0 = isopRun(bAnd(l0, bNot(u1)), u0, f0);
  auto c1 = isopRun(bAnd(l1, bNot(u0)), u1, f1);
  for (auto& c : c0) c.lits[v] = 0;
  for (auto& c : c1) c.lits[v] = 1;

  // Remaining onset handled by cubes independent of v.
  const Ref ld = bOr(bAnd(l0, bNot(f0)), bAnd(l1, bNot(f1)));
  const Ref ud = bAnd(u0, u1);
  Ref fd = kFalse;
  auto cd = isopRun(ld, ud, fd);

  coverOut = makeNode(v, bOr(f0, fd), bOr(f1, fd));
  std::vector<BddCube> all;
  all.reserve(c0.size() + c1.size() + cd.size());
  for (auto& c : c0) all.push_back(std::move(c));
  for (auto& c : c1) all.push_back(std::move(c));
  for (auto& c : cd) all.push_back(std::move(c));
  return all;
}

std::vector<BddCube> Bdd::isop(Ref lower, Ref upper) {
  OpScope scope(*this);
  SYSECO_CHECK(iteRec(lower, upper, kTrue) == kTrue);  // lower implies upper
  Ref cover = kFalse;
  auto cubes = isopRun(lower, upper, cover);
  // Sanity: the produced cover must lie between the bounds.
  SYSECO_CHECK(iteRec(lower, cover, kTrue) == kTrue);
  SYSECO_CHECK(iteRec(cover, upper, kTrue) == kTrue);
  return cubes;
}

bool Bdd::eval(Ref f, const std::vector<std::uint8_t>& assignment) const {
  SYSECO_CHECK(assignment.size() >= numVars_);
  while (f > 1) {
    const Node& n = nodes_[f];
    f = assignment[n.var] ? n.hi : n.lo;
  }
  return f == kTrue;
}

Bdd::Ref Bdd::fromTruthTableRec(const std::vector<std::uint64_t>& bits,
                                const std::vector<std::uint32_t>& vars,
                                std::size_t varPos, std::size_t offset,
                                std::size_t width) {
  auto bitAt = [&](std::size_t k) {
    return (bits[k / 64] >> (k % 64)) & 1;
  };
  if (width == 1) return bitAt(offset) ? kTrue : kFalse;
  // vars[varPos-1] is the highest remaining selector; splitting on it keeps
  // the little-endian convention: bit j of the index drives vars[j].
  const std::size_t half = width / 2;
  const Ref lo = fromTruthTableRec(bits, vars, varPos - 1, offset, half);
  const Ref hi = fromTruthTableRec(bits, vars, varPos - 1, offset + half, half);
  if (lo == hi) return lo;
  // The nodes must respect the manager order, so combine through ite on the
  // selector variable (vars need not be sorted).
  return iteRec(makeNode(vars[varPos - 1], kFalse, kTrue), hi, lo);
}

Bdd::Ref Bdd::fromTruthTable(const std::vector<std::uint64_t>& bits,
                             const std::vector<std::uint32_t>& vars) {
  const std::size_t width = std::size_t{1} << vars.size();
  SYSECO_CHECK(bits.size() * 64 >= width);
  if (vars.empty()) return (bits[0] & 1) ? kTrue : kFalse;
  OpScope scope(*this);
  return fromTruthTableRec(bits, vars, vars.size(), 0, width);
}

Bdd::Ref Bdd::mintermOf(std::uint32_t index,
                        const std::vector<std::uint32_t>& vars) {
  // Big-endian: vars[0] is the most significant bit of index (paper's v^i).
  // One scope for the whole chain: the accumulator and the fresh literal
  // nodes are reachable from no caller-held root, so no reorder may fire
  // between the steps.
  OpScope scope(*this);
  Ref acc = kTrue;
  const std::size_t n = vars.size();
  for (std::size_t j = 0; j < n; ++j) {
    SYSECO_CHECK(vars[j] < numVars_);
    const bool bit = (index >> (n - 1 - j)) & 1;
    const Ref lit = makeNode(vars[j], bit ? kFalse : kTrue,
                             bit ? kTrue : kFalse);
    acc = iteRec(acc, lit, kFalse);
  }
  return acc;
}

// --- Reordering -------------------------------------------------------------

void Bdd::maybeAutoReorder() {
  // Cache growth is deferred to operation boundaries so no CacheEntry
  // reference ever dangles mid-recursion. Policy: double once misses since
  // the last growth exceed four fills of the current capacity.
  if (stats_.cacheBitsNow < cfg_.maxCacheBits &&
      stats_.cacheMisses - cacheMissesAtGrow_ > 4 * cache_.size()) {
    growCache();
    cacheMissesAtGrow_ = stats_.cacheMisses;
  }
  if (!needReorder_ || inReorder_) return;
  needReorder_ = false;
  if (cfg_.reorder == BddReorder::kOff || !rootProvider_) return;
  std::vector<Ref> roots;
  rootProvider_(roots);
  runReorder(roots);
}

std::size_t Bdd::reorderNow(const std::vector<Ref>& roots) {
  SYSECO_CHECK(opDepth_ == 0 && !inReorder_);
  return runReorder(roots);
}

void Bdd::incRef(Ref r) {
  if (r <= 1) return;
  if (liveRefs_.size() < nodes_.size()) liveRefs_.resize(nodes_.size(), 0);
  std::vector<Ref> stack{r};
  while (!stack.empty()) {
    const Ref p = stack.back();
    stack.pop_back();
    if (p <= 1) continue;
    if (liveRefs_[p]++ == 0) {
      ++liveSize_;
      // A node coming alive contributes one reference to each child.
      stack.push_back(nodes_[p].lo);
      stack.push_back(nodes_[p].hi);
    }
  }
}

void Bdd::decRef(Ref r) {
  if (r <= 1) return;
  std::vector<Ref> stack{r};
  while (!stack.empty()) {
    const Ref p = stack.back();
    stack.pop_back();
    if (p <= 1) continue;
    if (--liveRefs_[p] == 0) {
      --liveSize_;
      stack.push_back(nodes_[p].lo);
      stack.push_back(nodes_[p].hi);
    }
  }
}

void Bdd::swapLevels(std::uint32_t l) {
  const std::uint32_t x = varAtLevel_[l];
  const std::uint32_t y = varAtLevel_[l + 1];
  auto liveCount = [&](Ref r) {
    return r < liveRefs_.size() ? liveRefs_[r] : 0u;
  };

  // Only x-nodes whose children involve y are touched by the swap; all
  // other triples remain properly ordered when the two levels flip.
  std::vector<Ref> pending;
  for (Ref b : tables_[x].buckets) {
    for (Ref p = b; p != kNil; p = nodes_[p].next) {
      if (topVar(nodes_[p].lo) == y || topVar(nodes_[p].hi) == y)
        pending.push_back(p);
    }
  }

  // Phase A - allocation only, no mutation, so a budget trip mid-swap
  // leaves the manager consistent. A live rewritten node still depends on
  // x afterwards, and no pre-existing y-node can depend on x (x was above
  // it), so the rewritten triple can never collide with a table-resident
  // node: the node keeps its Ref and its function without forwarding.
  struct Rewrite {
    Ref node, g0, g1;
  };
  std::vector<Rewrite> rewrites;
  std::vector<Ref> detach;
  rewrites.reserve(pending.size());
  for (Ref p : pending) {
    if (liveCount(p) == 0) {
      // Dead node whose triple would violate the new order: unlink it in
      // phase B instead of spending allocations restructuring garbage.
      detach.push_back(p);
      continue;
    }
    const Node n = nodes_[p];  // by value: makeNode may reallocate nodes_
    const bool loY = topVar(n.lo) == y;
    const bool hiY = topVar(n.hi) == y;
    const Ref f00 = loY ? nodes_[n.lo].lo : n.lo;
    const Ref f01 = loY ? nodes_[n.lo].hi : n.lo;
    const Ref f10 = hiY ? nodes_[n.hi].lo : n.hi;
    const Ref f11 = hiY ? nodes_[n.hi].hi : n.hi;
    const Ref g0 = makeNode(x, f00, f10);
    const Ref g1 = makeNode(x, f01, f11);
    rewrites.push_back(Rewrite{p, g0, g1});
  }

  // Phase B - mutation only, no allocation that can trip a budget.
  for (const Rewrite& rw : rewrites) unlinkFromTable(x, rw.node);
  for (Ref p : detach) {
    unlinkFromTable(x, p);
    nodes_[p].var = kDetachedVar;
  }
  for (const Rewrite& rw : rewrites) {
    const Node old = nodes_[rw.node];
    incRef(rw.g0);
    incRef(rw.g1);
    nodes_[rw.node] = Node{y, rw.g0, rw.g1, kNil};
    if (liveAtVar_.size() > y) {
      --liveAtVar_[x];
      ++liveAtVar_[y];
    }
    linkIntoTable(y, rw.node);
    decRef(old.lo);
    decRef(old.hi);
  }
  varAtLevel_[l] = y;
  varAtLevel_[l + 1] = x;
  level_[x] = l + 1;
  level_[y] = l;
  ++stats_.swaps;
  if (tables_[y].count > 2 * tables_[y].buckets.size()) growSubTable(y);
}

void Bdd::siftVar(std::uint32_t v) {
  if (guard_ != nullptr) {
    // Reordering is bulk work between user operations: poll the governor
    // once per sifted variable so an expired deadline unwinds promptly
    // (StatusError passes through; a budget trip aborts the pass).
    const Status s = guard_->checkpoint("bdd-reorder");
    if (!s.isOk()) {
      if (s.code() == StatusCode::kDeadlineExceeded) throw StatusError(s);
      throw BddLimitExceeded{};
    }
  }
  const std::uint32_t start = level_[v];
  const std::size_t startSize = liveSize_;
  const std::size_t limit =
      static_cast<std::size_t>(static_cast<double>(startSize) *
                               cfg_.maxSiftGrowth) + 1;
  std::size_t bestSize = liveSize_;
  std::uint32_t bestLevel = start;

  auto record = [&] {
    if (liveSize_ < bestSize) {
      bestSize = liveSize_;
      bestLevel = level_[v];
    }
  };
  auto siftDown = [&] {
    while (level_[v] + 1 < numVars_) {
      swapLevels(level_[v]);
      record();
      if (liveSize_ > limit) break;
    }
  };
  auto siftUp = [&] {
    while (level_[v] > 0) {
      swapLevels(level_[v] - 1);
      record();
      if (liveSize_ > limit) break;
    }
  };
  auto moveTo = [&](std::uint32_t target) {
    while (level_[v] > target) swapLevels(level_[v] - 1);
    while (level_[v] < target) swapLevels(level_[v]);
  };

  // Sweep toward the nearer end first, then across, then park at the best
  // position seen. Swapped-out nodes persist in the arena, so the return
  // trip mostly rediscovers existing nodes instead of allocating.
  if (start >= numVars_ / 2) {
    siftDown();
    siftUp();
  } else {
    siftUp();
    siftDown();
  }
  moveTo(bestLevel);
}

void Bdd::siftPass(std::vector<std::uint32_t>& varsBySize) {
  std::stable_sort(varsBySize.begin(), varsBySize.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return liveAtVar_[a] > liveAtVar_[b];
                   });
  for (std::uint32_t v : varsBySize) {
    if (liveAtVar_[v] == 0) continue;
    siftVar(v);
  }
}

std::size_t Bdd::runReorder(const std::vector<Ref>& roots) {
  inReorder_ = true;
  needReorder_ = false;
  liveRefs_.assign(nodes_.size(), 0);
  liveAtVar_.assign(numVars_, 0);
  liveSize_ = 0;
  struct Cleanup {
    Bdd& m;
    ~Cleanup() {
      m.liveRefs_.clear();
      m.liveRefs_.shrink_to_fit();
      m.liveAtVar_.clear();
      m.liveSize_ = 0;
      // Detached nodes may linger in cache slots; a flush makes every
      // cached triple trivially safe under the new order.
      m.flushCache();
      m.inReorder_ = false;
      m.needReorder_ = false;
      if (m.nextReorderAt_ != 0) {
        m.nextReorderAt_ = std::max(
            m.cfg_.reorderThreshold,
            static_cast<std::size_t>(static_cast<double>(m.nodes_.size()) *
                                     m.cfg_.reorderGrowth));
      }
    }
  } cleanup{*this};

  for (Ref r : roots) incRef(r);
  for (Ref r : pinned_)
    if (r != kNil) incRef(r);
  for (Ref p = 2; p < nodes_.size(); ++p) {
    if (liveRefs_[p] != 0 && nodes_[p].var != kDetachedVar)
      ++liveAtVar_[nodes_[p].var];
  }
  std::vector<std::uint32_t> vars(numVars_);
  for (std::uint32_t v = 0; v < numVars_; ++v) vars[v] = v;

  try {
    siftPass(vars);
    ++stats_.reorders;
  } catch (const BddLimitExceeded&) {
    // Out of nodes mid-sift: the table is consistent at every swap
    // boundary, so abandon the pass and let the interrupted operation
    // decide its own fate against the same budget.
  }
  return liveSize_;
}

}  // namespace syseco

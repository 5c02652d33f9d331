#pragma once
// In-house reduced ordered BDD package (paper §5.1, §6: "the in-house BDD
// package").
//
// The manager is deliberately small and self-contained: the symbolic-sampling
// formulation keeps every reasoning query inside a compact variable space
// (sample-index variables z, rectification-point variables y, pin-selection
// variables t, rewiring-choice variables c), so a fresh manager per
// rectification target gives the "contained memory footprint ... independent
// of the design size" property the paper claims. There is no garbage
// collector; managers are cheap to construct and discard.
//
// Features: ITE with a direct-mapped computed cache (adaptively grown, with
// hit/miss/eviction statistics), derived AND/OR/XOR/NOT/IMP, cofactors,
// existential/universal quantification over variable sets, satisfying-set
// counting, single-assignment picking, truth-table import (the bridge from
// N-bit sampled signatures to sampling-domain functions), Minato-Morreale
// irredundant sum-of-products enumeration (the "prime cube" seeds of §4.2),
// and dynamic variable reordering by sifting (Rudell) built on an in-place
// adjacent-level swap that never invalidates an outstanding Ref.
//
// Reordering in an append-only arena. Nodes are never freed, so a swap of
// adjacent levels x (upper) and y (lower) rewrites each x-node whose
// children involve y *in place*: the node keeps its Ref and its function,
// only its (var, lo, hi) triple changes. Canonicity survives without
// forwarding pointers because a rewritten node still depends on x, and no
// pre-existing y-node can depend on x (x was above it), so the rewritten
// triple cannot collide with a table-resident node. The one thing sifting
// needs that an arena cannot provide is a notion of *live* size - without
// it the table only ever grows and every sift position looks worse than the
// starting one. Callers therefore register a root provider (the refs they
// still hold); reordering ref-counts the live subgraph from those roots and
// uses live size as the sift objective. Without a provider, auto-reorder
// stays disarmed and reorderNow() is the explicit entry point.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/budget.hpp"
#include "util/status.hpp"

namespace syseco {

/// Thrown when a computation exceeds the manager's node budget; callers
/// (the ECO engine) catch this and retry with a smaller candidate space.
struct BddLimitExceeded : std::runtime_error {
  BddLimitExceeded() : std::runtime_error("BDD node limit exceeded") {}
};

/// A product term: one literal entry per manager variable.
/// Values: 0 = negative literal, 1 = positive literal, -1 = absent.
/// Entries are indexed by *variable*, not by level, so cubes read the same
/// under any variable order.
struct BddCube {
  std::vector<std::int8_t> lits;

  std::size_t numLiterals() const {
    std::size_t n = 0;
    for (auto v : lits)
      if (v >= 0) ++n;
    return n;
  }
};

/// Dynamic variable reordering policy.
///  * kOff: identity behavior of the pre-reordering package - node creation
///    order, budget trip points and governor charges are bit-identical.
///  * kSift: one sifting pass per auto-reorder trigger.
enum class BddReorder : std::uint8_t { kOff = 0, kSift = 1 };

/// Tunables for the unique table, computed cache and reordering machinery.
/// The defaults reproduce the historical package exactly when
/// `reorder == kOff` (cache policy cannot change which nodes exist - the
/// unique table deduplicates - so cache sizing is verdict-neutral).
struct BddConfig {
  std::size_t nodeLimit = 1u << 24;
  BddReorder reorder = BddReorder::kOff;
  /// Node count that arms the first auto-reorder; subsequent triggers are
  /// the post-reorder size times `reorderGrowth`. 0 disables auto-reorder.
  std::size_t reorderThreshold = 4096;
  double reorderGrowth = 2.0;
  /// A sift of one variable aborts a direction once live size exceeds
  /// this factor of the size at sift start.
  double maxSiftGrowth = 1.2;
  /// Computed cache starts at 2^cacheBits entries and doubles (up to
  /// 2^maxCacheBits) when misses outrun capacity.
  std::uint32_t cacheBits = 14;
  std::uint32_t maxCacheBits = 21;
  /// Initial per-variable unique-subtable bucket count is 2^uniqueBits.
  std::uint32_t uniqueBits = 3;
};

/// Engine observability: enough to diagnose a slow symbolic phase without a
/// profiler (surfaced per-output in --report).
struct BddStats {
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheEvictions = 0;
  std::uint64_t cacheGrows = 0;
  std::uint64_t uniqueHits = 0;  ///< makeNode calls answered by dedup
  std::uint64_t reorders = 0;
  std::uint64_t swaps = 0;       ///< adjacent-level swaps executed
  std::size_t peakNodes = 0;
  std::uint32_t cacheBitsNow = 0;

  double cacheHitRate() const {
    const double total = static_cast<double>(cacheHits + cacheMisses);
    return total > 0 ? static_cast<double>(cacheHits) / total : 0.0;
  }
};

class Bdd {
 public:
  using Ref = std::uint32_t;
  static constexpr Ref kFalse = 0;
  static constexpr Ref kTrue = 1;

  /// Creates a manager over `numVars` variables with the identity order
  /// (variable index == level, smaller index closer to the root).
  explicit Bdd(std::uint32_t numVars, std::size_t nodeLimit = 1u << 24);

  /// Creates a manager with explicit engine tunables.
  Bdd(std::uint32_t numVars, const BddConfig& config);

  std::uint32_t numVars() const { return numVars_; }
  std::size_t nodeCount() const { return nodes_.size(); }
  const BddConfig& config() const { return cfg_; }
  const BddStats& stats() const { return stats_; }

  /// Installs a cooperative resource governor: every fresh node is charged
  /// to its BDD-node ledger, and node construction polls it periodically.
  /// A tripped budget surfaces as BddLimitExceeded (same recovery path as
  /// the manager's own node limit: shrink the problem and retry), a passed
  /// deadline as StatusError{kDeadlineExceeded} (no point retrying).
  /// Transient nodes allocated by reordering charge the same ledger - the
  /// governor contract does not distinguish who asked for memory.
  /// The guard must outlive the manager. Pass nullptr to detach.
  void setResourceGuard(ResourceGuard* guard) { guard_ = guard; }

  /// Registers the live-root provider used by (auto-)reordering: it must
  /// append every Ref the caller still holds. Auto-reorder stays disarmed
  /// until a provider is registered. Pass nullptr to detach (disarms).
  void setRootProvider(std::function<void(std::vector<Ref>&)> provider);

  /// RAII pin for a single Ref across public operations. While reordering
  /// is armed, a Ref the root provider cannot see (a fold accumulator, a
  /// temporary carried between two calls) may be detached at the next
  /// operation boundary; a ScopedRef keeps it live. With reordering off
  /// the pin is free bookkeeping. Movable, not copyable.
  class ScopedRef {
   public:
    ScopedRef(Bdd& m, Ref r = kFalse) : m_(&m), slot_(m.pinRef(r)) {}
    ~ScopedRef() {
      if (m_) m_->unpinRef(slot_);
    }
    ScopedRef(ScopedRef&& o) noexcept : m_(o.m_), slot_(o.slot_) {
      o.m_ = nullptr;
    }
    ScopedRef(const ScopedRef&) = delete;
    ScopedRef& operator=(const ScopedRef&) = delete;
    ScopedRef& operator=(Ref r) {
      m_->pinned_[slot_] = r;
      return *this;
    }
    operator Ref() const { return m_->pinned_[slot_]; }

   private:
    Bdd* m_;
    std::size_t slot_;
  };

  /// Runs one sifting pass now (a kOff manager too). `roots` are the refs
  /// that must stay live.
  /// Returns live node count after the pass.
  std::size_t reorderNow(const std::vector<Ref>& roots);

  /// Current level of variable v (0 = root-most).
  std::uint32_t levelOf(std::uint32_t v) const { return level_[v]; }
  /// Variable at level l.
  std::uint32_t varAt(std::uint32_t l) const { return varAtLevel_[l]; }

  // --- Literals -------------------------------------------------------------
  Ref var(std::uint32_t v);
  Ref nvar(std::uint32_t v);
  Ref constant(bool b) const { return b ? kTrue : kFalse; }

  // --- Core operations --------------------------------------------------------
  Ref ite(Ref f, Ref g, Ref h);
  Ref bAnd(Ref a, Ref b) { return ite(a, b, kFalse); }
  Ref bOr(Ref a, Ref b) { return ite(a, kTrue, b); }
  Ref bNot(Ref a) { return ite(a, kFalse, kTrue); }
  // Out-of-line: these chain two ite calls, and the intermediate !b must
  // not cross a public operation boundary unprotected (an auto-reorder
  // firing at the second ite's entry would detach it).
  Ref bXor(Ref a, Ref b);
  Ref bXnor(Ref a, Ref b);
  Ref bImp(Ref a, Ref b) { return ite(a, b, kTrue); }
  Ref bEquiv(Ref a, Ref b) { return bXnor(a, b); }

  Ref andMany(const std::vector<Ref>& fs);
  Ref orMany(const std::vector<Ref>& fs);

  // --- Cofactors & quantification ---------------------------------------------
  /// Shannon cofactor with respect to a single variable.
  Ref cofactor(Ref f, std::uint32_t v, bool positive);

  /// Existentially quantifies the given variables out of f.
  Ref exists(Ref f, const std::vector<std::uint32_t>& vars);
  /// Universally quantifies the given variables out of f.
  Ref forall(Ref f, const std::vector<std::uint32_t>& vars);

  /// Functional composition: f with variable v replaced by g.
  Ref compose(Ref f, std::uint32_t v, Ref g);

  /// Variables f structurally depends on, ascending by variable index.
  std::vector<std::uint32_t> support(Ref f);

  // --- Analysis -----------------------------------------------------------------
  /// Number of satisfying assignments over all numVars() variables.
  double satCount(Ref f);

  /// Extracts one satisfying cube (a path to kTrue); entries of `out` get
  /// 0/1 for constrained variables and -1 for don't-cares. Returns false on
  /// the constant-false function.
  bool pickCube(Ref f, BddCube& out);

  /// Irredundant sum-of-products of f (Minato-Morreale). For a function f,
  /// isop(f, f) yields an irredundant cover whose cubes serve as the
  /// candidate-seeding "prime cubes" of §4.2.
  std::vector<BddCube> isop(Ref lower, Ref upper);
  std::vector<BddCube> isop(Ref f) { return isop(f, f); }

  /// Evaluates f under a full assignment (one bool per variable).
  bool eval(Ref f, const std::vector<std::uint8_t>& assignment) const;

  // --- Import ---------------------------------------------------------------
  /// Builds the function of a truth table over `vars`: bit k of `bits`
  /// (k < 2^vars.size()) is the function value when the binary expansion of
  /// k assigns its j-th least significant bit to vars[j].
  /// This converts an N-bit sampled signature into its sampling-domain
  /// function over the z variables (paper §5.1).
  Ref fromTruthTable(const std::vector<std::uint64_t>& bits,
                     const std::vector<std::uint32_t>& vars);

  /// Builds the minterm selecting integer `index` over `vars` (big-endian
  /// bit order as in the paper's v^i notation: vars[0] is the most
  /// significant bit).
  Ref mintermOf(std::uint32_t index, const std::vector<std::uint32_t>& vars);

 private:
  /// var value marking a node unlinked from the unique table by reordering
  /// (a dead node whose triple would violate the new order). Unreachable
  /// from any live Ref when the root provider reported all holders.
  static constexpr std::uint32_t kDetachedVar = 0xFFFFFFFFu;

  struct Node {
    std::uint32_t var;
    Ref lo;
    Ref hi;
    Ref next;  ///< unique-subtable chain
  };

  static constexpr Ref kNil = 0xFFFFFFFFu;

  /// Per-variable unique subtable: chained open hash over (lo, hi), so a
  /// level's nodes are enumerable (the swap primitive needs that).
  struct SubTable {
    std::vector<Ref> buckets;
    std::size_t count = 0;
  };

  struct CacheEntry {
    Ref f = kNil;  ///< kNil marks an empty slot (f is never terminal here)
    Ref g = 0;
    Ref h = 0;
    Ref r = 0;
  };

  /// RAII scope for public operations: auto-reorder runs only when the
  /// outermost operation begins, never mid-recursion (outstanding local
  /// Refs survive a reorder, but the trigger bookkeeping must not nest).
  struct OpScope {
    explicit OpScope(Bdd& m) : m_(m) {
      if (m_.opDepth_++ == 0) m_.maybeAutoReorder();
    }
    ~OpScope() { --m_.opDepth_; }
    Bdd& m_;
  };
  friend struct OpScope;

  static std::uint64_t pairHash(Ref lo, Ref hi) {
    std::uint64_t h = lo;
    h = h * 0x9e3779b97f4a7c15ULL + hi;
    h ^= h >> 29;
    return h;
  }
  static std::uint64_t iteHash(Ref f, Ref g, Ref h) {
    std::uint64_t x = f;
    x = x * 0x9e3779b97f4a7c15ULL + g;
    x = x * 0x9e3779b97f4a7c15ULL + h;
    x ^= x >> 31;
    return x;
  }

  Ref makeNode(std::uint32_t var, Ref lo, Ref hi);
  void growSubTable(std::uint32_t var);
  void unlinkFromTable(std::uint32_t var, Ref node);
  void linkIntoTable(std::uint32_t var, Ref node);

  std::uint32_t topVar(Ref f) const {
    return f <= 1 ? numVars_ : nodes_[f].var;
  }
  /// Level of f's top node; terminals sit one past the last real level.
  std::uint32_t topLevel(Ref f) const {
    return f <= 1 ? numVars_ : level_[nodes_[f].var];
  }
  Ref low(Ref f, std::uint32_t v) const {
    return (f <= 1 || nodes_[f].var != v) ? f : nodes_[f].lo;
  }
  Ref high(Ref f, std::uint32_t v) const {
    return (f <= 1 || nodes_[f].var != v) ? f : nodes_[f].hi;
  }

  Ref iteRec(Ref f, Ref g, Ref h);
  void growCache();
  void flushCache();

  std::size_t pinRef(Ref r);
  void unpinRef(std::size_t slot);

  Ref quantify(Ref f, const std::vector<char>& mask, bool existential,
               std::unordered_map<Ref, Ref>& cache);
  Ref composeRec(Ref f, std::uint32_t v, Ref g,
                 std::unordered_map<Ref, Ref>& cache);
  double satCountRec(Ref f, std::unordered_map<Ref, double>& cache);
  Ref fromTruthTableRec(const std::vector<std::uint64_t>& bits,
                        const std::vector<std::uint32_t>& vars,
                        std::size_t varPos, std::size_t offset,
                        std::size_t width);
  std::vector<BddCube> isopRun(Ref lower, Ref upper, Ref& coverOut);

  // --- Reordering ----------------------------------------------------------
  void maybeAutoReorder();
  void armTrigger();
  std::size_t runReorder(const std::vector<Ref>& roots);
  void siftPass(std::vector<std::uint32_t>& varsBySize);
  void siftVar(std::uint32_t v);
  void swapLevels(std::uint32_t l);
  void incRef(Ref r);
  void decRef(Ref r);

  std::uint32_t numVars_;
  BddConfig cfg_;
  ResourceGuard* guard_ = nullptr;
  std::vector<Node> nodes_;
  std::vector<SubTable> tables_;            ///< indexed by variable
  std::vector<std::uint32_t> level_;        ///< var -> level (+ sentinel slot)
  std::vector<std::uint32_t> varAtLevel_;   ///< level -> var
  std::vector<CacheEntry> cache_;
  std::uint32_t cacheMask_ = 0;
  std::uint64_t cacheMissesAtGrow_ = 0;
  BddStats stats_;
  std::function<void(std::vector<Ref>&)> rootProvider_;
  std::vector<Ref> pinned_;            ///< ScopedRef slots (kNil = free)
  std::vector<std::size_t> pinnedFree_;
  std::size_t nextReorderAt_ = 0;  ///< 0 = auto-reorder disarmed
  bool needReorder_ = false;
  bool inReorder_ = false;
  int opDepth_ = 0;
  /// Live-subgraph reference counts, valid only while inReorder_.
  std::vector<std::uint32_t> liveRefs_;
  std::vector<std::size_t> liveAtVar_;  ///< live nodes per var (reorder only)
  std::size_t liveSize_ = 0;
};

}  // namespace syseco

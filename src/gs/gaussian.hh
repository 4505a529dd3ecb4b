/**
 * @file
 * The 3D Gaussian scene representation (Eq. 1 of the paper).
 *
 * Parameters are stored in raw (pre-activation) form exactly as they are
 * optimised: log-scales, opacity logits, and zeroth-order SH colour
 * coefficients. Activations (exp / sigmoid / SH evaluation) happen during
 * projection so gradients flow through them in the backward pass.
 *
 * Storage is copy-on-write per column: copying a GaussianCloud bumps one
 * refcount per attribute instead of copying N Gaussians, so publishing a
 * tracking snapshot in the asynchronous SLAM loop is O(columns). A column
 * re-materialises (copies its buffer) only on the first mutation after a
 * copy; columns the mutator never touches keep aliasing the snapshot's
 * buffers. See src/gs/README.md ("Copy-on-write cloud layout").
 */

#ifndef RTGS_GS_GAUSSIAN_HH
#define RTGS_GS_GAUSSIAN_HH

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/halffloat.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "geometry/quat.hh"
#include "geometry/vec.hh"

namespace rtgs::gs
{

/**
 * Storage precision of one CowColumn. Full keeps the native fp32
 * representation; Half packs every float lane into IEEE fp16
 * (round-to-nearest-even on store, exact widen on load). Only
 * low-sensitivity columns (colour, opacity — see PipelineConfig) are
 * ever packed; positions/scales/rotations always stay Full. All
 * arithmetic everywhere runs in fp32 regardless — precision is a
 * *storage* property, never an accumulate property.
 */
enum class ColumnPrecision : u8
{
    Full = 0,
    Half = 1,
};

namespace detail
{
/** Chunk-parallel buffer copy for large column re-materialisation. */
void parallelCopyBytes(void *dst, const void *src, size_t bytes);

/**
 * How many fp32 lanes a column element packs into 16-bit scalars.
 * count == 0 marks the type non-packable (ids, flags, quaternions);
 * such columns only ever store at Full precision.
 */
template <typename T>
struct FloatLanes
{
    static constexpr size_t count = 0;
};
template <>
struct FloatLanes<float>
{
    static constexpr size_t count = 1;
};
template <>
struct FloatLanes<Vec3f>
{
    static constexpr size_t count = 3;
};

/**
 * Allocator whose resize default-initialises instead of zero-filling:
 * column re-materialisation overwrites every byte right after the
 * resize, so the value-initialising memset a plain vector would do is
 * a wasted serial O(N) pass.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T>
{
    template <typename U>
    struct rebind
    {
        using other = DefaultInitAllocator<U>;
    };
    using std::allocator<T>::allocator;

    template <typename U>
    void
    construct(U *p) noexcept(std::is_nothrow_default_constructible_v<U>)
    {
        ::new (static_cast<void *>(p)) U;
    }
    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};
} // namespace detail

/**
 * One copy-on-write attribute column.
 *
 * Reads go through const accessors and never copy. Mutation is ONLY
 * possible through mut() — deliberately explicit, so a read through a
 * non-const cloud reference can never silently re-materialise a
 * column. The first mut() after the column was shared (cloud copied /
 * snapshot published) re-materialises the buffer; while unshared,
 * mutation is as cheap as a plain vector. Concurrent const reads of a
 * shared buffer are safe — re-materialisation only ever *reads* the
 * shared storage.
 *
 * Mixed precision: a packable column (float lanes only) may be
 * switched to 16-bit storage with setPrecision(). A packed column is
 * addressed exclusively through the precision-agnostic accessors —
 * load() (widen to T), store() (narrow, RNE), pushBack(),
 * compactKeep() — while the raw-buffer surface (view()/mut()/
 * operator[]/data()) asserts Full precision, so no caller can silently
 * reinterpret packed bits. COW semantics are unchanged: the packed
 * buffer is shared/unshared exactly like the full one.
 *
 * Concurrency contract. The column holds no mutex: the shared_ptr
 * control block (its atomic refcount) is the ONLY cross-thread
 * synchronisation it owns. That is sufficient because of how the SLAM
 * loop uses it:
 *
 *  - Publication: copying a CowColumn (snapshot publish, tracking-
 *    clone refresh) bumps the refcount. The copy itself must be
 *    ordered against concurrent mut() calls by an external lock —
 *    SlamSystem does this under stateMutex_ — and handed to the
 *    reader through another synchronised channel (snapshotMutex_),
 *    which provides the happens-before edge for the buffer contents.
 *  - Shared reads: any number of threads may call const accessors on
 *    columns aliasing one buffer; nothing writes a shared buffer.
 *  - Mutation: mut()/store()/compactKeep() demand the caller hold
 *    whatever lock protects that cloud instance. unshare() only READS
 *    the old buffer into a fresh one, so concurrent readers of the
 *    other aliases are undisturbed; the refcount decrement/increment
 *    pair is the atomic part.
 *
 * The static analysis cannot see through the shared_ptr, so this
 * contract is enforced socially here and mechanically at the call
 * sites (SlamSystem's GUARDED_BY(stateMutex_) on the authoritative
 * cloud) plus the determinism linter's cow-raw-access rule.
 */
template <typename T>
class CowColumn
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "re-materialisation copies columns bytewise");

  public:
    using value_type = T;
    /** fp32 lanes per element when packed (0 = not packable). */
    static constexpr size_t kLanes = detail::FloatLanes<T>::count;
    /** Backing container (default-init allocator: resize in unshare()
     *  skips the zero-fill the parallel copy would overwrite). */
    using Storage = std::vector<T, detail::DefaultInitAllocator<T>>;
    /** 16-bit packed backing container (kLanes u16 per element). */
    using PackedStorage = std::vector<u16, detail::DefaultInitAllocator<u16>>;

    // Default columns alias one shared immutable empty buffer, so
    // default construction and moved-from repair are allocation-free.
    // The static keeps a permanent reference, so any mut() through a
    // column aliasing it sees use_count > 1 and re-materialises — the
    // sentinel itself is never written. The inactive representation
    // (packed_ while Full, data_ while packed) always aliases its own
    // empty sentinel so every accessor stays null-safe.
    CowColumn() : data_(sharedEmpty()), packed_(sharedEmptyPacked()) {}

    // Copies share storage (refcount bump); that is the point. Moves
    // are noexcept (so containers of clouds relocate by move) and
    // leave the source aliasing the empty sentinels — every accessor
    // relies on the pointers being non-null.
    CowColumn(const CowColumn &) = default;
    CowColumn &operator=(const CowColumn &) = default;
    CowColumn(CowColumn &&other) noexcept
        : data_(std::move(other.data_)),
          packed_(std::move(other.packed_)), prec_(other.prec_)
    {
        other.data_ = sharedEmpty();
        other.packed_ = sharedEmptyPacked();
        other.prec_ = ColumnPrecision::Full;
    }
    CowColumn &
    operator=(CowColumn &&other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(packed_, other.packed_);
        std::swap(prec_, other.prec_);
        return *this;
    }

    size_t
    size() const
    {
        return prec_ == ColumnPrecision::Full ? data_->size()
                                              : packed_->size() / kLanes;
    }
    bool empty() const { return size() == 0; }
    const T *
    data() const
    {
        assertFull();
        return data_->data();
    }
    const T &
    operator[](size_t i) const
    {
        assertFull();
        return (*data_)[i];
    }
    typename Storage::const_iterator
    begin() const
    {
        assertFull();
        return data_->begin();
    }
    typename Storage::const_iterator
    end() const
    {
        assertFull();
        return data_->end();
    }

    /** Read-only reference to the underlying fp32 vector (hot loops
     *  hoist this once instead of re-loading the shared pointer per
     *  access). Full-precision columns only; packed callers load(). */
    const Storage &
    view() const
    {
        assertFull();
        return *data_;
    }

    /** Mutable reference; re-materialises if the buffer is shared.
     *  The ONLY bulk mutation path (no non-const operator[]): writes
     *  are explicit at the call site, reads can never silently
     *  unshare. Full-precision columns only. */
    Storage &
    mut()
    {
        assertFull();
        unshare();
        return *data_;
    }

    // ---- precision-agnostic element access --------------------------

    /** Element i widened to T (a plain read at Full precision). */
    T
    load(size_t i) const
    {
        if constexpr (kLanes > 0) {
            if (prec_ != ColumnPrecision::Full) {
                float lanes[kLanes];
                const u16 *src = packed_->data() + i * kLanes;
                for (size_t l = 0; l < kLanes; ++l)
                    lanes[l] = halfBitsToFloat(src[l]);
                T v;
                std::memcpy(&v, lanes, sizeof(T));
                return v;
            }
        }
        return (*data_)[i];
    }

    /** Overwrite element i (narrowing RNE when packed). Unshares. */
    void
    store(size_t i, const T &v)
    {
        if constexpr (kLanes > 0) {
            if (prec_ != ColumnPrecision::Full) {
                unsharePacked();
                encode(v, packed_->data() + i * kLanes);
                return;
            }
        }
        unshare();
        (*data_)[i] = v;
    }

    /** Append one element at the column's storage precision. */
    void
    pushBack(const T &v)
    {
        if constexpr (kLanes > 0) {
            if (prec_ != ColumnPrecision::Full) {
                unsharePacked();
                u16 enc[kLanes];
                encode(v, enc);
                packed_->insert(packed_->end(), enc, enc + kLanes);
                return;
            }
        }
        unshare();
        data_->push_back(v);
    }

    /** reserve() at the active representation. */
    void
    reserveElems(size_t n)
    {
        if (prec_ != ColumnPrecision::Full) {
            unsharePacked();
            packed_->reserve(n * kLanes);
            return;
        }
        unshare();
        data_->reserve(n);
    }

    /** Remove every element (precision is retained). */
    void
    clearElems()
    {
        if (prec_ != ColumnPrecision::Full) {
            unsharePacked();
            packed_->clear();
            return;
        }
        unshare();
        data_->clear();
    }

    /** Two-pointer in-place compaction by keep-mask (keep.size() ==
     *  size()); works at any storage precision. */
    void
    compactKeep(const std::vector<u8> &keep)
    {
        if constexpr (kLanes > 0) {
            if (prec_ != ColumnPrecision::Full) {
                unsharePacked();
                PackedStorage &v = *packed_;
                size_t w = 0;
                for (size_t r = 0; r < keep.size(); ++r) {
                    if (!keep[r])
                        continue;
                    if (w != r)
                        std::memcpy(v.data() + w * kLanes,
                                    v.data() + r * kLanes,
                                    kLanes * sizeof(u16));
                    ++w;
                }
                v.resize(w * kLanes);
                return;
            }
        }
        Storage &v = mut();
        size_t w = 0;
        for (size_t r = 0; r < keep.size(); ++r) {
            if (!keep[r])
                continue;
            if (w != r)
                v[w] = v[r];
            ++w;
        }
        v.resize(w);
    }

    // ---- storage precision ------------------------------------------

    ColumnPrecision precision() const { return prec_; }

    /**
     * Re-encode the column at precision p (no-op when already there).
     * Narrowing rounds each fp32 lane to nearest-even; widening back
     * is exact on the stored bits (the original fp32 values are NOT
     * recovered — narrowing is lossy by design). Always produces a
     * fresh unshared buffer; snapshots keep the old representation.
     */
    void
    setPrecision(ColumnPrecision p)
    {
        if (p == prec_)
            return;
        if constexpr (kLanes == 0) {
            rtgs_assert(p == ColumnPrecision::Full,
                        "column element type is not packable");
            (void)p;
        } else {
            const size_t n = size();
            if (p == ColumnPrecision::Full) {
                auto fresh = std::make_shared<Storage>();
                fresh->resize(n);
                for (size_t i = 0; i < n; ++i)
                    (*fresh)[i] = load(i);
                data_ = std::move(fresh);
                packed_ = sharedEmptyPacked();
            } else {
                auto fresh = std::make_shared<PackedStorage>();
                fresh->resize(n * kLanes);
                for (size_t i = 0; i < n; ++i)
                    encode(load(i), fresh->data() + i * kLanes);
                packed_ = std::move(fresh);
                data_ = sharedEmpty();
            }
            prec_ = p;
        }
    }

    /** Resident bytes of the active representation. */
    size_t
    byteSize() const
    {
        return prec_ == ColumnPrecision::Full
                   ? size() * sizeof(T)
                   : size() * kLanes * sizeof(u16);
    }

    /** True when this column aliases `other`'s buffer (tests/benches). */
    bool shares(const CowColumn &other) const
    {
        return data_ == other.data_ && packed_ == other.packed_;
    }

  private:
    static const std::shared_ptr<Storage> &
    sharedEmpty()
    {
        static const std::shared_ptr<Storage> empty =
            std::make_shared<Storage>();
        return empty;
    }

    static const std::shared_ptr<PackedStorage> &
    sharedEmptyPacked()
    {
        static const std::shared_ptr<PackedStorage> empty =
            std::make_shared<PackedStorage>();
        return empty;
    }

    void
    assertFull() const
    {
        rtgs_assert(prec_ == ColumnPrecision::Full,
                    "raw access to a 16-bit packed column; use load()");
    }

    /** Narrow one element's fp32 lanes to fp16 scalars (RNE). */
    static void
    encode(const T &v, u16 *dst)
    {
        static_assert(kLanes == 0 || sizeof(T) == kLanes * sizeof(float),
                      "packable elements must be exactly fp32 lanes");
        float lanes[kLanes > 0 ? kLanes : 1];
        std::memcpy(lanes, &v, sizeof(T));
        for (size_t l = 0; l < kLanes; ++l)
            dst[l] = floatToHalfBits(lanes[l]);
    }

    void
    unshare()
    {
        if (data_.use_count() <= 1)
            return;
        auto fresh = std::make_shared<Storage>();
        fresh->resize(data_->size()); // default-init: no zero-fill
        detail::parallelCopyBytes(fresh->data(), data_->data(),
                                  data_->size() * sizeof(T));
        data_ = std::move(fresh);
    }

    void
    unsharePacked()
    {
        if (packed_.use_count() <= 1)
            return;
        auto fresh = std::make_shared<PackedStorage>();
        fresh->resize(packed_->size());
        detail::parallelCopyBytes(fresh->data(), packed_->data(),
                                  packed_->size() * sizeof(u16));
        packed_ = std::move(fresh);
    }

    std::shared_ptr<Storage> data_;
    /** 16-bit representation; active iff prec_ != Full. */
    std::shared_ptr<PackedStorage> packed_;
    ColumnPrecision prec_ = ColumnPrecision::Full;
};

/** Zeroth-order SH basis constant. */
inline constexpr Real shC0 = Real(0.28209479177387814);

/** Sigmoid activation for opacity. */
inline Real
sigmoid(Real x)
{
    return Real(1) / (Real(1) + std::exp(-x));
}

/** Inverse sigmoid, for initialising opacity logits. */
inline Real
inverseSigmoid(Real y)
{
    return std::log(y / (Real(1) - y));
}

/**
 * Structure-of-arrays container of 3D Gaussians.
 *
 * `active` implements the paper's mask-prune protocol: masked Gaussians
 * stay in memory (so tile-intersection change ratios can still be
 * evaluated) but are excluded from projection and rendering.
 *
 * Every Gaussian additionally carries a stable `id`, assigned at push
 * and preserved across compactions. Ids are strictly increasing in
 * storage order, which lets a keep-mask computed against one snapshot
 * generation be translated onto any later generation with a single
 * two-pointer merge (the async pruning path relies on this).
 */
class GaussianCloud
{
  public:
    CowColumn<Vec3f> positions;      //!< 3D means (world space)
    CowColumn<Vec3f> logScales;      //!< per-axis log scale
    CowColumn<Quatf> rotations;      //!< raw (unnormalised) orientation
    CowColumn<Real> opacityLogits;   //!< pre-sigmoid opacity
    CowColumn<Vec3f> shCoeffs;       //!< SH degree-0 colour coefficients
    CowColumn<u8> active;            //!< 1 = rendered, 0 = masked
    CowColumn<u64> ids;              //!< stable, strictly increasing

    size_t size() const { return positions.size(); }
    bool empty() const { return positions.empty(); }

    /** Count of unmasked Gaussians. */
    size_t activeCount() const;

    /** Append one Gaussian (active by default). */
    void push(const Vec3f &pos, const Vec3f &log_scale, const Quatf &rot,
              Real opacity_logit, const Vec3f &sh);

    /** Append an isotropic Gaussian from intuitive parameters. */
    void pushIsotropic(const Vec3f &pos, Real scale, Real opacity,
                       const Vec3f &rgb);

    /** Drop all Gaussians whose keep flag is false, compacting storage. */
    void compact(const std::vector<u8> &keep);

    /**
     * Translate a keep-mask expressed against `snapshot` (an earlier
     * generation of this cloud) onto this cloud's current layout via the
     * stable ids: entries whose id the snapshot mask drops are dropped,
     * entries unknown to the snapshot (added since) are kept. Returns
     * the translated mask sized to this cloud.
     */
    std::vector<u8>
    translateKeepMask(const std::vector<u64> &dropped_ids) const;

    /** Reserve storage for n Gaussians. */
    void reserve(size_t n);

    /** Remove all Gaussians. */
    void clear();

    /** Activated opacity of Gaussian k (widens packed storage). */
    Real opacity(size_t k) const { return sigmoid(opacityLogits.load(k)); }

    /** Activated (clamped) RGB colour of Gaussian k (widens packed
     *  storage). */
    Vec3f
    color(size_t k) const
    {
        Vec3f c = shCoeffs.load(k) * shC0 + Vec3f{0.5f, 0.5f, 0.5f};
        return {std::max(Real(0), c.x), std::max(Real(0), c.y),
                std::max(Real(0), c.z)};
    }

    /** SH coefficient that yields the given RGB under color(). */
    static Vec3f
    rgbToSh(const Vec3f &rgb)
    {
        return (rgb - Vec3f{0.5f, 0.5f, 0.5f}) * (Real(1) / shC0);
    }

    /** Approximate resident bytes of the cloud's parameter storage. */
    size_t parameterBytes() const;

    /** Number of parameter columns that alias `other`'s buffers. */
    size_t sharedColumnsWith(const GaussianCloud &other) const;

  private:
    /** Next id to assign; copied with the cloud so every lineage stays
     *  strictly increasing. */
    u64 nextId_ = 0;
};

/**
 * Gradient accumulator with the same SoA layout as GaussianCloud.
 * All entries are with respect to the raw (pre-activation) parameters.
 */
struct CloudGrads
{
    std::vector<Vec3f> dPositions;
    std::vector<Vec3f> dLogScales;
    std::vector<Quatf> dRotations;
    std::vector<Real> dOpacityLogits;
    std::vector<Vec3f> dShCoeffs;

    void resize(size_t n);
    size_t size() const { return dPositions.size(); }

    /** Elementwise in-place sum over Gaussians [lo, hi) — the chunk
     *  body of parallel reductions (RenderPipeline::accumulateBackward).
     *  Shapes must match. */
    void accumulateRange(const CloudGrads &other, size_t lo, size_t hi);

    /** Scale every lane of Gaussians [lo, hi) by s. */
    void scaleRange(Real s, size_t lo, size_t hi);

    /**
     * dL/dSigma (3D covariance) Frobenius norm per Gaussian, needed by
     * the Eq. 7 importance score.
     */
    std::vector<Real> covGradNorms;
};

} // namespace rtgs::gs

#endif // RTGS_GS_GAUSSIAN_HH
